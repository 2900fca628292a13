"""Distribution of the effective specificity under an estimated threshold.

A change rule built from the true within-subject SD has specificity exactly
``p_sp``.  Built from an estimate, its realized ("effective") specificity is
a random variable: a monotone transform of the estimation-error ratio
``W = wsd_hat / w_SD``.  This module provides that transform, the induced
density, the expectation (whose shortfall from ``p_sp`` is the bias of the
plug-in rule), confidence statements ``P[P_esp >= bound]`` and their
complements ``P[P_esp < bound]``, worst-case lower bounds at a given
confidence, and the minimal number of subjects needed to keep the effective
specificity above a floor with prescribed confidence.

Every distributional quantity comes in two forms, both closed: ``Exact``
uses the chi-square law of ``nu * W**2`` and holds at any ``nu``;
``Asymptotic`` replaces ``W`` by its large-``nu`` normal limit.

Exact sample sizes come for one design (:func:`sample_size_specificity`)
or for a whole grid of designs (:func:`sample_size_specificity_grid`, which
the ``tables`` command prints).  The criterion depends on ``n`` only through
``nu = n (m - 1)`` and grows with ``nu``, so both solve the least ``nu`` and
divide, both by the one window search of :mod:`repeatkit.core`.  The grid
checks its values once, takes each value's quantile from the scalar kernels,
and solves each (confidence, floor, target) cell once, all in one batched
window; one design is a one-cell window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .errors import InfeasibleError
from .core import (
    MethodChoice,
    _as_choice,
    _band_edge,
    _inside_band,
    _min_subjects,
    _ratio_log_density,
    _ratio_quantile,
    ratio_cdf,
    symmetric_coverage_quantile,
)
from .numerics import (
    MAX_SUBJECTS,
    check_integer,
    check_probability,
    normal_quantile,
)

__all__ = [
    "SampleSizeResult",
    "effective_specificity_given_ratio",
    "effective_specificity_pdf",
    "expected_effective_specificity",
    "specificity_shortfall",
    "specificity_confidence",
    "specificity_lower_bound",
    "sample_size_specificity",
    "sample_size_specificity_grid",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SampleSizeResult:
    """Solved sample size: integer ``n`` plus the pre-ceiling real for closed forms.

    ``raw`` is the right-hand side of the asymptotic closed form before
    rounding up; it is ``None`` when ``n`` came from an integer search with
    no underlying real-valued solution.
    """

    n: int
    raw: float | None = None


def effective_specificity_given_ratio(w, p_sp: float = 0.95):
    """Realized specificity of the plug-in change rule at ratio ``w``.

    Parameters
    ----------
    w : float or ndarray
        Estimation-error ratio ``wsd_hat / w_SD``; must be finite and > 0.
    p_sp : float
        Target specificity the rule was built for.

    Returns
    -------
    float or ndarray
        ``erf(z w / sqrt 2)``, the mass of a standard normal inside the
        band ``[-z w, z w]``, with ``z`` the symmetric coverage quantile of
        ``p_sp``; strictly increasing in ``w``, equals ``p_sp`` at
        ``w = 1``.  A float ``w`` gives a ``float``, and an array the same
        floats elementwise.
    """
    return _inside_band(_band_edge(symmetric_coverage_quantile(p_sp), w))


def effective_specificity_pdf(p: float, nu: int, p_sp: float = 0.95) -> float:
    """Density of the effective specificity at ``p`` for ``nu`` degrees of freedom.

    Change of variables through the strictly increasing map
    ``w -> erf(z w / sqrt 2)``: the chi-square density of ``W`` at the
    preimage, divided by the map's slope ``2 z phi(z w)``.  Evaluated in log
    space so the far tails (where both factors underflow) stay finite.
    """
    p = check_probability(p, "p")
    nu = check_integer(nu, "nu")
    z = symmetric_coverage_quantile(p_sp)
    y = symmetric_coverage_quantile(p)  # z * w at the preimage
    log_slope = math.log(2.0 * z) - 0.5 * y * y - _LOG_SQRT_2PI
    return math.exp(_ratio_log_density(y / z, nu) - log_slope)


def expected_effective_specificity(nu: int, p_sp: float = 0.95,
                                   method: MethodChoice = MethodChoice.EXACT) -> float:
    """Mean of the effective specificity; below ``p_sp`` for every finite ``nu``.

    ``2 E[Phi(z W)] - 1`` with the expectation in closed form.  Exactly,
    ``W = sqrt(chi2_nu / nu)`` is independent of a standard normal ``Z``
    and ``E[Phi(z W)] = P[Z / W <= z]`` is Student's t CDF ``T_nu(z)``
    (``scipy.special.stdtr``).  Asymptotically, ``W = 1 + Z' / sqrt(2 nu)`` and the
    Gaussian identity ``E[Phi(a + b Z')] = Phi(a / sqrt(1 + b^2))`` makes
    the mean the band's mass at the narrower edge ``z / s``, with
    ``s = sqrt(1 + z^2 / (2 nu))``: ``erf(z / (s sqrt 2))``.  The
    shortfall ``result - p_sp`` is the bias introduced by estimating the
    within-subject SD.
    """
    nu = check_integer(nu, "nu")
    method = _as_choice(MethodChoice, method, "method")
    z = symmetric_coverage_quantile(p_sp)
    if method is MethodChoice.EXACT:
        return 2.0 * float(stdtr(nu, z)) - 1.0
    return _inside_band(z / math.sqrt(1.0 + z * z / (2.0 * nu)))


def specificity_shortfall(nu: int, p_sp: float = 0.95, p_esp_lb: float = 0.90,
                          method: MethodChoice = MethodChoice.EXACT) -> float:
    """Probability that the effective specificity falls below ``p_esp_lb``.

    ``P[P_esp < p_esp_lb] = P[W < z_lb / z]``: :func:`ratio_cdf` there,
    which keeps its relative precision when the shortfall is tiny.
    """
    z = symmetric_coverage_quantile(p_sp)
    z_lb = symmetric_coverage_quantile(check_probability(p_esp_lb, "p_esp_lb"))
    return ratio_cdf(z_lb / z, nu, method)


def specificity_confidence(nu: int, p_sp: float = 0.95, p_esp_lb: float = 0.90,
                           method: MethodChoice = MethodChoice.EXACT) -> float:
    """Probability that the effective specificity reaches ``p_esp_lb``.

    ``P[P_esp >= p_esp_lb] = P[W >= z_lb / z]``, the complement of
    :func:`specificity_shortfall`.  Defined for any bound; values sink
    below 1/2 once the bound passes ``p_sp``.
    """
    return 1.0 - specificity_shortfall(nu, p_sp, p_esp_lb, method)


def specificity_lower_bound(nu: int, p_sp: float = 0.95, p_conf: float = 0.95,
                            method: MethodChoice = MethodChoice.EXACT) -> float:
    """Worst-case effective specificity held with probability ``p_conf``.

    The value ``b`` with ``P[P_esp >= b] = p_conf``: the realized
    specificity at the lower ``1 - p_conf`` quantile of ``W``.  Inverse of
    :func:`specificity_confidence` in the bound argument.
    """
    p_conf = check_probability(p_conf, "p_conf")
    z = symmetric_coverage_quantile(p_sp)
    return _inside_band(z * _ratio_quantile(p_conf, nu, method, upper=True))


def _warn_low_confidence(p_conf: float) -> None:
    # stacklevel 3 names the caller of the public sample-size function
    warnings.warn(
        f"p_conf={p_conf} is at or below 0.5; the sample-size criterion "
        "degenerates and the closed form is not meaningful", stacklevel=3)


def _no_separation(p_sp, p_esp_lb, z, z_lb) -> InfeasibleError:
    return InfeasibleError(
        "no finite sample size achieves an effective-specificity floor whose "
        f"coverage quantile is not below the target's (floor {p_esp_lb} -> {z_lb}, "
        f"target {p_sp} -> {z})")


def _not_reached(p_sp, p_esp_lb, p_conf) -> InfeasibleError:
    return InfeasibleError(
        f"no sample size up to {MAX_SUBJECTS} reaches confidence {p_conf} for "
        f"floor {p_esp_lb} at target {p_sp}")


def sample_size_specificity(m: int, p_sp: float = 0.95, p_esp_lb: float = 0.90,
                            p_conf: float = 0.95,
                            method: MethodChoice = MethodChoice.EXACT) -> SampleSizeResult:
    """Minimal subjects ``n`` (at ``m`` replicates each) for a specificity floor.

    Smallest ``n`` such that, with ``nu = n (m - 1)`` degrees of freedom,
    the effective specificity stays at or above ``p_esp_lb`` with
    probability at least ``p_conf``.  The asymptotic method returns the
    closed-form real solution (also in ``raw``) rounded up.  The exact
    method solves the smallest qualifying ``nu`` over the chi-square tail at
    the fixed ratio ``z_lb / z``, up to ``MAX_SUBJECTS (m - 1)``, as one
    cell of :func:`sample_size_specificity_grid`'s window from the
    asymptotic value; as that tail grows with ``nu``, ``n`` is
    ``ceil(nu / (m - 1))``.  A floor whose coverage quantile ``z_lb`` is
    not below the target's ``z`` (adjacent doubles can share one) is
    infeasible like a floor at or above the target.
    """
    m = check_integer(m, "replicates per subject m", 2)
    p_sp = check_probability(p_sp, "p_sp")
    p_esp_lb = check_probability(p_esp_lb, "p_esp_lb")
    p_conf = check_probability(p_conf, "p_conf")
    method = _as_choice(MethodChoice, method, "method")
    if p_esp_lb >= p_sp:
        raise InfeasibleError(
            "no finite sample size achieves an effective-specificity floor "
            f"at or above the target specificity (floor {p_esp_lb} >= target {p_sp})")
    if p_conf <= 0.5:
        _warn_low_confidence(p_conf)

    z = symmetric_coverage_quantile(p_sp)
    z_lb = symmetric_coverage_quantile(p_esp_lb)
    if z_lb >= z:
        raise _no_separation(p_sp, p_esp_lb, z, z_lb)
    twice_raw_nu = (-normal_quantile(p_conf) * z / (z_lb - z)) ** 2
    if method is MethodChoice.ASYMPTOTIC:
        raw = twice_raw_nu / (2.0 * (m - 1))
        return SampleSizeResult(n=max(1, math.ceil(raw)), raw=raw)

    nu = int(_min_subjects(np.array([z_lb / z]), np.array([p_conf]),
                           np.array([twice_raw_nu / 2.0]), MAX_SUBJECTS * (m - 1))[0])
    if nu == 0:
        raise _not_reached(p_sp, p_esp_lb, p_conf)
    return SampleSizeResult(n=-(-nu // (m - 1)), raw=None)


def _probabilities(values, name: str) -> np.ndarray:
    return np.array([check_probability(v, name) for v in values], dtype=float)


def sample_size_specificity_grid(m, p_sp, p_esp_lb, p_conf) -> np.ndarray:
    """Exact :func:`sample_size_specificity` over a whole grid, in one array pass.

    ``m``, ``p_sp``, ``p_esp_lb`` and ``p_conf`` are sequences; every value
    is checked once, with the scalar function's wording, before any cell is
    solved.  Returns an int64 array of shape
    ``(len(m), len(p_conf), len(p_esp_lb), len(p_sp))`` holding each
    cell's exact ``n``, and 0 where the floor is at or above the target.
    The least ``nu`` of each (``p_conf``, ``p_esp_lb``, ``p_sp``) cell is
    solved once, up to ``MAX_SUBJECTS (m - 1)`` for the largest ``m``, and
    ``n = ceil(nu / (m - 1))`` for each ``m``.  Raises
    :class:`InfeasibleError` for the first cell whose floor shares the
    target's coverage quantile, else for the first cell in
    (``m``, ``p_conf``, ``p_esp_lb``, ``p_sp``) order that no ``n`` up to
    ``MAX_SUBJECTS`` satisfies.  Warns, like the scalar function, for each
    ``p_conf <= 0.5`` in order.
    """
    m = [check_integer(v, "replicates per subject m", 2) for v in m]
    p_sp = _probabilities(p_sp, "p_sp")
    p_esp_lb = _probabilities(p_esp_lb, "p_esp_lb")
    p_conf = _probabilities(p_conf, "p_conf")
    sizes = np.zeros((len(m), p_conf.size, p_esp_lb.size, p_sp.size), dtype=np.int64)
    cells = np.nonzero(np.broadcast_to(p_esp_lb[:, None] < p_sp, sizes.shape[1:]))
    ci, li, si = cells
    if not m or ci.size == 0:
        return sizes
    for conf in p_conf.tolist():
        if conf <= 0.5:
            _warn_low_confidence(conf)

    # sample_size_specificity's quantiles, once per listed value
    z = np.array([symmetric_coverage_quantile(p) for p in p_sp.tolist()])[si]
    z_lb = np.array([symmetric_coverage_quantile(p) for p in p_esp_lb.tolist()])[li]
    shared = np.flatnonzero(z_lb >= z)
    if shared.size:
        i = shared[0]
        raise _no_separation(float(p_sp[si[i]]), float(p_esp_lb[li[i]]),
                             float(z[i]), float(z_lb[i]))
    # numpy squares exactly, where Python's ** calls libm's pow and can round
    # the other way; the hint then moves by one only where raw is within an
    # ulp of an integer, and the nu found does not depend on the hint
    q = -np.array([normal_quantile(p) for p in p_conf.tolist()])[ci]
    raw = (q * z / (z_lb - z)) ** 2 / 2.0
    nu = _min_subjects(z_lb / z, p_conf[ci], raw, MAX_SUBJECTS * (max(m) - 1))
    for k, dof in enumerate(v - 1 for v in m):
        n = -(-nu // dof)
        missing = np.flatnonzero((nu == 0) | (n > MAX_SUBJECTS))
        if missing.size:
            i = missing[0]
            raise _not_reached(float(p_sp[si[i]]), float(p_esp_lb[li[i]]),
                               float(p_conf[ci[i]]))
        sizes[k][cells] = n
    return sizes
