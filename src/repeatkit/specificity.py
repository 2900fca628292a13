"""Distribution of the effective specificity under an estimated threshold.

A change rule built from the true within-subject SD has specificity exactly
``p_sp``.  Built from an estimate, its realized ("effective") specificity is
a random variable: a monotone transform of the estimation-error ratio
``W = wsd_hat / w_SD``.  This module provides that transform, the induced
density, the expectation (whose shortfall from ``p_sp`` is the bias of the
plug-in rule), confidence statements ``P[P_esp >= bound]``, worst-case lower
bounds at a given confidence, and the minimal number of subjects needed to
keep the effective specificity above a floor with prescribed confidence.

Every distributional quantity comes in two forms, both closed: ``Exact``
uses the chi-square law of ``nu * W**2`` and holds at any ``nu``;
``Asymptotic`` replaces ``W`` by its large-``nu`` normal limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.special import stdtr

from .errors import InfeasibleError
from .core import (
    MethodChoice,
    _as_choice,
    _band_edge,
    _normal_quantile_above,
    _ratio_log_density,
    _ratio_quantile_above,
    ratio_cdf,
    symmetric_coverage_quantile,
)
from .numerics import (
    MAX_SUBJECTS,
    check_integer,
    check_probability,
    min_integer_satisfying,
    normal_cdf,
)

__all__ = [
    "SampleSizeResult",
    "effective_specificity_given_ratio",
    "effective_specificity_pdf",
    "expected_effective_specificity",
    "specificity_confidence",
    "specificity_lower_bound",
    "sample_size_specificity",
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


def _p_esp_raw(y):
    # specificity of a symmetric band with half-width quantile y; the
    # two-term form keeps the complement identity with the zero-effect
    # sensitivity bitwise exact and is accurate when the result is tiny.
    return normal_cdf(y) - normal_cdf(-y)


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
        ``1 - 2 (1 - Phi(z w))`` with ``z`` the symmetric coverage quantile
        of ``p_sp``; strictly increasing in ``w``, equals ``p_sp`` at
        ``w = 1``.
    """
    return _p_esp_raw(_band_edge(symmetric_coverage_quantile(p_sp), w))


def effective_specificity_pdf(p: float, nu: int, p_sp: float = 0.95) -> float:
    """Density of the effective specificity at ``p`` for ``nu`` degrees of freedom.

    Change of variables through the strictly increasing map
    ``w -> 1 - 2(1 - Phi(z w))``: the chi-square density of ``W`` at the
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
    Gaussian identity ``E[Phi(a + b Z')] = Phi(a / sqrt(1 + b^2))`` gives
    ``Phi(z / sqrt(1 + z^2 / (2 nu)))``.  The shortfall ``result - p_sp``
    is the bias introduced by estimating the within-subject SD.
    """
    nu = check_integer(nu, "nu")
    method = _as_choice(MethodChoice, method, "method")
    z = symmetric_coverage_quantile(p_sp)
    if method is MethodChoice.EXACT:
        mean_phi = float(stdtr(nu, z))
    else:
        mean_phi = normal_cdf(z / math.sqrt(1.0 + z * z / (2.0 * nu)))
    return 2.0 * mean_phi - 1.0


def specificity_confidence(nu: int, p_sp: float = 0.95, p_esp_lb: float = 0.90,
                           method: MethodChoice = MethodChoice.EXACT) -> float:
    """Probability that the effective specificity reaches ``p_esp_lb``.

    ``P[P_esp >= p_esp_lb] = P[W >= z_lb / z]``, one minus :func:`ratio_cdf`
    there.  Defined for any bound; values sink below 1/2 once the bound
    passes ``p_sp``.
    """
    z = symmetric_coverage_quantile(p_sp)
    z_lb = symmetric_coverage_quantile(check_probability(p_esp_lb, "p_esp_lb"))
    return 1.0 - ratio_cdf(z_lb / z, nu, method)


def specificity_lower_bound(nu: int, p_sp: float = 0.95, p_conf: float = 0.95,
                            method: MethodChoice = MethodChoice.EXACT) -> float:
    """Worst-case effective specificity held with probability ``p_conf``.

    The value ``b`` with ``P[P_esp >= b] = p_conf``: the realized
    specificity at the lower ``1 - p_conf`` quantile of ``W``.  Inverse of
    :func:`specificity_confidence` in the bound argument.
    """
    p_conf = check_probability(p_conf, "p_conf")
    z = symmetric_coverage_quantile(p_sp)
    return _p_esp_raw(z * _ratio_quantile_above(p_conf, nu, method))


def sample_size_specificity(m: int, p_sp: float = 0.95, p_esp_lb: float = 0.90,
                            p_conf: float = 0.95,
                            method: MethodChoice = MethodChoice.EXACT) -> SampleSizeResult:
    """Minimal subjects ``n`` (at ``m`` replicates each) for a specificity floor.

    Smallest ``n`` such that, with ``nu = n (m - 1)`` degrees of freedom,
    the effective specificity stays at or above ``p_esp_lb`` with
    probability at least ``p_conf``.  The asymptotic method returns the
    closed-form real solution (also in ``raw``) rounded up; the exact method
    searches the chi-square tail at the fixed ratio ``z_lb / z`` for the
    smallest qualifying integer, seeded by the asymptotic value.
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
        warnings.warn(
            f"p_conf={p_conf} is at or below 0.5; the sample-size criterion "
            "degenerates and the closed form is not meaningful", stacklevel=2)

    z = symmetric_coverage_quantile(p_sp)
    z_lb = symmetric_coverage_quantile(p_esp_lb)
    raw = (_normal_quantile_above(p_conf) * z / (z_lb - z)) ** 2 / (2.0 * (m - 1))
    if method is MethodChoice.ASYMPTOTIC:
        return SampleSizeResult(n=max(1, math.ceil(raw)), raw=raw)

    ratio = z_lb / z
    try:
        n = min_integer_satisfying(
            lambda n: 1.0 - ratio_cdf(ratio, n * (m - 1)) >= p_conf,
            start_hint=max(1, math.ceil(raw)))
    except InfeasibleError:
        raise InfeasibleError(
            f"no sample size up to {MAX_SUBJECTS} reaches confidence {p_conf} for "
            f"floor {p_esp_lb} at target {p_sp}") from None
    return SampleSizeResult(n=n, raw=None)
