"""Sensitivity of the change rule and its distribution under estimation.

For a subject whose true value shifts by ``mu_delta`` between visits, the
probability that the rule flags the change depends only on the
noise-standardized effect size ``delta = mu_delta / w_SD``.  With the
threshold built from an estimated within-subject SD the realized
("effective") sensitivity again becomes a random variable through the ratio
``W = wsd_hat / w_SD`` -- this time a decreasing transform: overestimating
the spread widens the no-change band and costs detection power.

Two treatments of the detection event are offered.  ``FULL_TWO_SIDED``
keeps both exceedance directions (the exact definition).
``ONE_SIDED_EXCEEDANCE`` drops the far-side term, which for positive
effects is at most ``(1 - p_sp)/2`` and vanishes quickly in ``delta``; it
is the default of the confidence and sample-size functions, and point
evaluations default to the full form.  Both forms answer those functions
through one number, the ratio cap ``u`` where the effective sensitivity
equals its floor, in closed form: a normal quantile one-sided, a
noncentral chi-square quantile two-sided.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtrix, erfc, nctdtr

from .errors import DomainError, InfeasibleError
from .core import (
    MethodChoice,
    _as_choice,
    _band_edge,
    _inside_band,
    ratio_cdf,
    ratio_quantile,
    symmetric_coverage_quantile,
)
from .numerics import (
    MAX_SUBJECTS,
    check_integer,
    check_probability,
    check_real,
    min_integer_satisfying,
    normal_cdf,
    normal_quantile,
)
from .specificity import SampleSizeResult, _warn_low_confidence

__all__ = [
    "EffectSize",
    "SensitivityApproximation",
    "sensitivity",
    "effective_sensitivity_given_ratio",
    "expected_effective_sensitivity",
    "sensitivity_confidence",
    "sensitivity_lower_bound",
    "sample_size_sensitivity",
]

_SQRT2 = math.sqrt(2.0)


class SensitivityApproximation(enum.Enum):
    """Treatment of the two-sided detection event.

    ``FULL_TWO_SIDED`` counts exceedance of either band edge;
    ``ONE_SIDED_EXCEEDANCE`` keeps only the edge the effect pushes toward,
    neglecting a term bounded by ``(1 - p_sp)/2``.
    """

    ONE_SIDED_EXCEEDANCE = "one-sided-exceedance"
    FULL_TWO_SIDED = "full-two-sided"


@dataclass(frozen=True)
class EffectSize:
    """Noise-standardized true change ``delta = mu_delta / w_SD``.

    Stored as a magnitude: by symmetry of the rule a negative shift behaves
    like its mirror image, so negative inputs are reflected and the sign
    kept only in ``negative`` for reporting.
    """

    delta: float
    negative: bool = False

    def __post_init__(self):
        delta = check_real(self.delta, "delta")
        if delta < 0.0:
            object.__setattr__(self, "delta", -delta)
            object.__setattr__(self, "negative", True)
        else:
            object.__setattr__(self, "delta", delta)

    @classmethod
    def from_change(cls, mu_delta: float, w_sd: float) -> "EffectSize":
        """Standardize a raw change in biomarker units by the within-subject SD."""
        mu_delta = check_real(mu_delta, "mu_delta")
        w_sd = check_real(w_sd, "w_sd", 0.0, strict=True)
        # a nonzero quotient that overflows or underflows is clamped, keeping its sign
        magnitude = min(abs(mu_delta) / w_sd, sys.float_info.max)
        if mu_delta != 0.0:
            magnitude = max(magnitude, math.ulp(0.0))
        return cls(delta=math.copysign(magnitude, mu_delta))

    @property
    def signed(self) -> float:
        return -self.delta if self.negative else self.delta


def _as_effect(delta) -> EffectSize:
    return delta if isinstance(delta, EffectSize) else EffectSize(delta)


def _p_ese_raw(y, d, approximation: SensitivityApproximation):
    # detection probability when the band edge sits at y (in difference-SD
    # units) and the true shift at d = delta / sqrt(2), one-sided the mass
    # above y alone; at d = 0 the full form is the complement of the specificity
    if approximation is SensitivityApproximation.FULL_TWO_SIDED:
        return 1.0 - _inside_band(y, d)
    above = 0.5 * erfc((y - d) / _SQRT2)
    return above if isinstance(y, np.ndarray) else float(above)


def sensitivity(delta, p_sp: float = 0.95) -> float:
    """Detection probability of a true shift ``delta`` under a perfect threshold.

    One minus the mass of ``N(delta/sqrt(2), 1)`` inside ``[-z, z]``: the chance
    the measured difference leaves the no-change band when the threshold
    uses the true within-subject SD.  Equals ``1 - p_sp`` at ``delta = 0``
    and increases to 1 with ``|delta|``.
    """
    return effective_sensitivity_given_ratio(
        1.0, delta, p_sp, SensitivityApproximation.FULL_TWO_SIDED)


def effective_sensitivity_given_ratio(
        w, delta, p_sp: float = 0.95,
        approximation: SensitivityApproximation = SensitivityApproximation.FULL_TWO_SIDED):
    """Realized sensitivity of the plug-in rule at ratio ``w``.

    Parameters
    ----------
    w : float or ndarray
        Estimation-error ratio ``wsd_hat / w_SD``; finite and > 0.
    delta : EffectSize or float
        Noise-standardized true change; negative values reflect.
    p_sp : float
        Target specificity the threshold was built for.
    approximation : SensitivityApproximation
        Full two-sided detection event, or the analytic one-sided form.

    Returns
    -------
    float or ndarray
        Decreasing in ``w``: an overestimated spread widens the band and
        misses changes.  At ``w = 1`` the full form equals
        :func:`sensitivity` exactly.  A float ``w`` gives a ``float``, and
        an array the same floats elementwise.
    """
    approximation = _as_choice(SensitivityApproximation, approximation, "approximation")
    eff = _as_effect(delta)
    z = symmetric_coverage_quantile(p_sp)
    d = eff.delta / _SQRT2
    return _p_ese_raw(_band_edge(z, w), d, approximation)


def expected_effective_sensitivity(nu: int, delta, p_sp: float = 0.95,
                                   method: MethodChoice = MethodChoice.EXACT) -> float:
    """Mean of the (full two-sided) effective sensitivity.

    ``1 - E[Phi(z W - d)] + E[Phi(-z W - d)]`` with ``d = delta / sqrt(2)``
    and both expectations in closed form.  Exactly, ``E[Phi(t W - d)]`` is
    the noncentral t CDF ``F_nct(t; nu, d)`` (``scipy.special.nctdtr``),
    since ``Phi(t W - d) = P[(Z + d) / W <= t]``.  Asymptotically, the
    Gaussian identity of :func:`expected_effective_specificity` gives
    ``Phi((t - d) / s)`` with ``s = sqrt(1 + z^2 / (2 nu))``, so the mean
    is one minus the mass of ``N(d / s, 1)`` inside ``[-z / s, z / s]``.
    The difference from :func:`sensitivity` is the power bias of the
    plug-in rule.
    """
    nu = check_integer(nu, "nu")
    method = _as_choice(MethodChoice, method, "method")
    eff = _as_effect(delta)
    z = symmetric_coverage_quantile(p_sp)
    d = eff.delta / _SQRT2
    if method is MethodChoice.EXACT:
        return 1.0 - _nct_cdf(nu, d, z) + _nct_cdf(nu, d, -z)
    s = math.sqrt(1.0 + z * z / (2.0 * nu))
    return 1.0 - _inside_band(z / s, d / s)


def _nct_cdf(nu: int, d: float, t: float) -> float:
    """``F_nct(t; nu, d)`` by ``nctdtr``, where it returns nan a limit stands in.

    nctdtr fails in two corners: at ``|t|`` below about 1e-99 (``nu = 1``),
    where ``F = Phi(-d)`` to within ``|t| / sqrt(2 pi)``, and in lower tails
    whose true value is below 1e-12, where 0 stands in.
    """
    value = float(nctdtr(nu, d, t))
    if math.isnan(value):
        return normal_cdf(-d) if abs(t) < 1e-16 else 0.0
    return value


# From d = 38 on, erfc(d / sqrt 2) is 0 in doubles, so the far-side term of
# the two-sided sensitivity is 0 too and its cap is the one-sided one; the
# noncentral chi-square quantile would be NaN from d**2 of about 5e10, and
# d**2 overflows past 1.3e154.
_FAR_SIDE_VANISHES = 38.0


def _ratio_cap(eff: EffectSize, p_sp: float, p_ese_lb: float,
               approximation: SensitivityApproximation) -> tuple[float, float, float]:
    # (u, y, z): the band edge y where the effective sensitivity equals p_ese_lb,
    # the ratio cap u = y / z held to the largest double, and z; infeasible
    # unless y > z, that is u > 1
    z = symmetric_coverage_quantile(p_sp)
    d = eff.delta / _SQRT2
    if approximation is SensitivityApproximation.ONE_SIDED_EXCEEDANCE or d >= _FAR_SIDE_VANISHES:
        y = d - normal_quantile(p_ese_lb)
    else:
        # |N(d, 1)|**2 is noncentral chi-square with 1 degree of freedom and
        # noncentrality d**2; 1 - p_ese_lb is exact for floors >= 0.5
        y = math.sqrt(chndtrix(1.0 - p_ese_lb, 1.0, d * d))
    if not y > z:
        raise InfeasibleError(
            f"the effective-sensitivity floor {p_ese_lb:g} must lie strictly below "
            f"the attainable sensitivity p_se(delta={eff.delta:g}) = "
            f"{_p_ese_raw(z, d, approximation):.6f} at p_sp={p_sp:g} under {approximation.value}")
    return min(y / z, sys.float_info.max), y, z


def sensitivity_confidence(
        nu: int, delta, p_sp: float = 0.95, p_ese_lb: float = 0.75,
        method: MethodChoice = MethodChoice.EXACT,
        approximation: SensitivityApproximation = SensitivityApproximation.ONE_SIDED_EXCEEDANCE,
) -> float:
    """Probability that the effective sensitivity reaches ``p_ese_lb``.

    The bound maps to a ratio cap ``u = y / z`` and the answer is
    ``P[W <= u]`` by :func:`ratio_cdf`.  One-sided, the band edge is
    ``y = Phi^{-1}(1 - p_ese_lb) + d`` with ``d = delta/sqrt(2)``; two-sided,
    ``y**2`` is the ``1 - p_ese_lb`` quantile of ``|N(d, 1)|**2``, noncentral
    chi-square with 1 degree of freedom (``scipy.special.chndtrix``).  The
    query is infeasible unless ``u > 1``: even a perfect estimate could not
    attain the bound.
    """
    p_sp = check_probability(p_sp, "p_sp")
    eff = _as_effect(delta)
    p_ese_lb = check_probability(p_ese_lb, "p_ese_lb")
    nu = check_integer(nu, "nu")
    approximation = _as_choice(SensitivityApproximation, approximation, "approximation")
    if (approximation is SensitivityApproximation.ONE_SIDED_EXCEEDANCE
            and eff.delta == 0.0):
        raise DomainError("one-sided form requires a nonzero effect size delta")
    u, _, _ = _ratio_cap(eff, p_sp, p_ese_lb, approximation)
    return ratio_cdf(u, nu, method)


def sensitivity_lower_bound(
        nu: int, delta, p_sp: float = 0.95, p_conf: float = 0.95,
        method: MethodChoice = MethodChoice.EXACT,
        approximation: SensitivityApproximation = SensitivityApproximation.ONE_SIDED_EXCEEDANCE,
) -> float:
    """Worst-case effective sensitivity held with probability ``p_conf``.

    The effective sensitivity is decreasing in ``W``, so the guaranteed
    floor sits at the upper ``p_conf`` quantile of ``W``.  Inverse of
    :func:`sensitivity_confidence` in the bound argument.
    """
    p_conf = check_probability(p_conf, "p_conf")
    approximation = _as_choice(SensitivityApproximation, approximation, "approximation")
    eff = _as_effect(delta)
    if eff.delta <= 0.0:
        raise DomainError("sensitivity_lower_bound requires a nonzero effect size delta")
    # the quantile may underflow to 0, where the band closes and every
    # change is detected
    z = symmetric_coverage_quantile(p_sp)
    return _p_ese_raw(z * ratio_quantile(p_conf, nu, method), eff.delta / _SQRT2,
                      approximation)


def sample_size_sensitivity(
        m: int, delta, p_sp: float = 0.95, p_ese_lb: float = 0.75,
        p_conf: float = 0.95,
        method: MethodChoice = MethodChoice.EXACT,
        approximation: SensitivityApproximation = SensitivityApproximation.ONE_SIDED_EXCEEDANCE,
) -> SampleSizeResult:
    """Minimal subjects ``n`` (at ``m`` replicates each) for a sensitivity floor.

    Smallest ``n`` such that, with ``nu = n (m - 1)`` degrees of freedom,
    the effective sensitivity at effect size ``delta`` stays at or above
    ``p_ese_lb`` with probability at least ``p_conf``.  Everything follows
    from the cap ``u = y / z`` of :func:`sensitivity_confidence`, found once.
    Asymptotically, ``P[W <= u] = Phi((u - 1) sqrt(2 nu))`` gives the closed
    form ``raw = (Phi^{-1}(p_conf) z / (y - z))**2 / (2 (m - 1))``, for either
    approximation.  Exactly, :func:`min_integer_satisfying` brackets the
    smallest ``n`` with ``P[W <= u] >= p_conf`` from ``raw`` (clipped to
    ``[1, MAX_SUBJECTS]``).
    """
    m = check_integer(m, "replicates per subject m", 2)
    p_sp = check_probability(p_sp, "p_sp")
    p_ese_lb = check_probability(p_ese_lb, "p_ese_lb")
    p_conf = check_probability(p_conf, "p_conf")
    method = _as_choice(MethodChoice, method, "method")
    approximation = _as_choice(SensitivityApproximation, approximation, "approximation")
    eff = _as_effect(delta)
    if eff.delta <= 0.0:
        raise DomainError("sample_size_sensitivity requires a nonzero effect size delta")

    u, y, z = _ratio_cap(eff, p_sp, p_ese_lb, approximation)
    if p_conf <= 0.5:
        _warn_low_confidence(p_conf)

    raw = (normal_quantile(p_conf) * z / (y - z)) ** 2 / (2.0 * (m - 1))
    if method is MethodChoice.ASYMPTOTIC:
        return SampleSizeResult(n=max(1, math.ceil(raw)), raw=raw)
    try:
        n = min_integer_satisfying(lambda n: ratio_cdf(u, n * (m - 1)) >= p_conf,
                                   math.ceil(min(max(raw, 1.0), MAX_SUBJECTS)))
    except InfeasibleError:
        raise InfeasibleError(
            f"no sample size up to {MAX_SUBJECTS} reaches confidence {p_conf} for "
            f"floor {p_ese_lb} at delta={eff.delta:g}") from None
    return SampleSizeResult(n=n, raw=None)
