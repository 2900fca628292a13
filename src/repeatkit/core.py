"""Test-retest measurement model: variability estimation and change decisions.

A study measures ``n`` subjects ``m_i >= 2`` times each under identical
conditions.  Within-subject measurements scatter around the subject's true
value with standard deviation ``w_SD``.  This module estimates ``w_SD`` from
such data, builds the repeatability coefficient (the half-width of the
symmetric interval that a no-change measurement pair should fall into),
classifies longitudinal pairs as changed / unchanged, and holds the rule's
band law, one ``erf`` form behind every effective specificity and sensitivity.

It also carries the sampling law of the normalized estimation error
``W = wsd_hat / w_SD``: with ``nu = sum_i (m_i - 1)`` pooled degrees of
freedom, ``nu * W**2`` is chi-square distributed with ``nu`` degrees of
freedom, and ``W`` is asymptotically normal with mean 1 and variance
``1/(2 nu)``.  :class:`MethodChoice` picks one of the two; the density,
CDF and quantile of ``W`` live here, computed from ``scipy.special``
directly, and every confidence statement and worst-case bound downstream
is one call into them.  So is the search behind every exact specificity
sample size: the smallest ``nu`` whose confidence ``P[W >= w]`` reaches a
level, settled for a whole grid at once by a window of consecutive ``nu``
per cell around the Wilson-Hilferty closed form for that ``nu``, with one
design as a one-cell grid.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfinv, gammainc, gammainccinv, gammaincinv, gammaln, ndtri

from .errors import DataValidationError, DomainError, InfeasibleError
from .numerics import (
    check_integer,
    check_probability,
    check_real,
    min_integer_satisfying,
    normal_cdf,
    normal_quantile,
)

__all__ = [
    "TestRetestData",
    "WsdEstimate",
    "RepeatabilityCoefficient",
    "LongitudinalPair",
    "estimate_wsd",
    "pooled_wsd",
    "repeatability_coefficient",
    "decide_change",
    "symmetric_coverage_quantile",
    "design_degrees_of_freedom",
    "MethodChoice",
    "ratio_density_exact",
    "ratio_cdf",
    "ratio_quantile",
]

_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)

# Below this many pooled degrees of freedom the large-sample normal forms are
# unreliable; estimation still proceeds, but with a warning.
SMALL_NU_WARNING_THRESHOLD = 10


def symmetric_coverage_quantile(p_sp: float) -> float:
    """Half-width multiplier z with P[-z <= Z <= z] = p_sp for standard normal Z.

    ``sqrt(2) erfinv(p_sp)``, the factor that turns a standard deviation into
    the half-width of a symmetric interval with coverage ``p_sp``.  The
    closed form keeps full relative precision over all of (0, 1), where
    ``normal_quantile(1 - (1 - p_sp)/2)`` loses the digits that ``1 - p_sp``
    rounds away.
    """
    return _SQRT2 * float(erfinv(check_probability(p_sp, "p_sp")))


def design_degrees_of_freedom(n_subjects: int, replicates: int) -> int:
    """Pooled degrees of freedom ``n * (m - 1)`` of a balanced design."""
    return (check_integer(n_subjects, "n_subjects")
            * (check_integer(replicates, "replicates per subject", 2) - 1))


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestRetestData:
    """Measurements from one test-retest study.

    Parameters
    ----------
    subjects : sequence of (subject_id, measurements)
        One entry per subject; every subject needs at least two finite
        measurements in the biomarker's native units.  Replicate counts may
        differ between subjects.
    """

    subjects: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self):
        normalized = []
        seen: set[str] = set()
        for entry in self.subjects:
            try:
                subject_id, values = entry
            except (TypeError, ValueError):
                raise DataValidationError(
                    "each subject entry must be a (subject_id, measurements) pair"
                ) from None
            subject_id = str(subject_id)
            if subject_id in seen:
                raise DataValidationError(f"duplicate subject id {subject_id!r}")
            seen.add(subject_id)
            values = tuple(float(v) for v in values)
            if len(values) < 2:
                raise DataValidationError(
                    f"subject {subject_id!r} has {len(values)} measurement(s); "
                    "at least 2 replicates are required")
            if not all(math.isfinite(v) for v in values):
                raise DataValidationError(
                    f"subject {subject_id!r} has a non-finite measurement")
            normalized.append((subject_id, values))
        if not normalized:
            raise DataValidationError("at least one subject is required")
        object.__setattr__(self, "subjects", tuple(normalized))


@dataclass(frozen=True)
class WsdEstimate:
    """Estimated within-subject standard deviation and its degrees of freedom."""

    wsd_hat: float
    nu: int

    def __post_init__(self):
        object.__setattr__(self, "wsd_hat", check_real(self.wsd_hat, "wsd_hat", 0.0))
        object.__setattr__(self, "nu", check_integer(self.nu, "nu"))

    def repeatability_coefficient(self, p_sp: float = 0.95) -> "RepeatabilityCoefficient":
        """Repeatability coefficient built from this estimate (flagged as such)."""
        return repeatability_coefficient(self.wsd_hat, p_sp, estimated=True)


@dataclass(frozen=True)
class RepeatabilityCoefficient:
    """Half-width of the no-change interval for a measurement pair.

    ``value = z * sqrt(2) * w`` where ``z`` is the symmetric coverage
    quantile of ``target_specificity`` and ``w`` the (estimated or known)
    within-subject SD.  ``estimated`` records which of the two it was.
    """

    value: float
    target_specificity: float
    estimated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "value", check_real(self.value, "coefficient value", 0.0))
        object.__setattr__(self, "target_specificity",
                           check_probability(self.target_specificity, "target_specificity"))


@dataclass(frozen=True)
class LongitudinalPair:
    """Two consecutive measurements of the same subject."""

    y_pre: float
    y_post: float

    def __post_init__(self):
        if not (math.isfinite(self.y_pre) and math.isfinite(self.y_post)):
            raise DataValidationError("longitudinal measurements must be finite")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def estimate_wsd(data: TestRetestData) -> WsdEstimate:
    """Pooled within-subject standard deviation estimate.

    Sums the squared deviations from each subject's own mean and divides by
    the pooled degrees of freedom ``nu = sum_i (m_i - 1)``:

        wsd_hat = sqrt( sum_ij (Y_ij - Ybar_i)^2 / nu )

    For a balanced design this equals the root of the mean per-subject
    sample variance.  The pooled form is used for unequal replicate counts
    as well, because it is the version for which ``nu * wsd_hat^2 / w_SD^2``
    is chi-square with ``nu`` degrees of freedom under normal errors.

    Warns (without failing) when ``nu < 10``, where the downstream
    large-sample approximations are unreliable, and when the estimate is
    exactly zero.  The reduction itself is :func:`pooled_wsd`.
    """
    if not isinstance(data, TestRetestData):
        data = TestRetestData(tuple(data))
    counts = [len(values) for _, values in data.subjects]
    codes = np.repeat(np.arange(len(counts)), counts)
    return pooled_wsd(codes, np.concatenate([values for _, values in data.subjects]))


def pooled_wsd(codes: np.ndarray, values: np.ndarray) -> WsdEstimate:
    """:func:`estimate_wsd` on a flat layout of the measurements.

    ``values[k]`` is a measurement of subject ``codes[k]``.  The codes run
    over ``0 .. n-1`` with every subject measured at least twice, and the
    values are finite; rows may come in any order.  Subject means and the
    sum of squared deviations from them are two passes over the columns,
    in units of ``2**e`` with ``e`` the binary exponent of the largest
    ``|value|``, so no square overflows or underflows; the scaling is exact.
    A wSD beyond the largest double is a :class:`DataValidationError`.
    Warns like :func:`estimate_wsd`.
    """
    e = math.frexp(float(np.abs(values).max()))[1]
    values = np.ldexp(values, -e)
    counts = np.bincount(codes)
    means = np.bincount(codes, weights=values) / counts
    resid = values - means[codes]
    nu = values.size - counts.size
    try:
        wsd_hat = math.ldexp(math.sqrt(float(np.square(resid).sum()) / nu), e)
    except OverflowError:
        raise DataValidationError("the within-subject SD exceeds the largest double") from None
    # stacklevel 3 names the estimator's caller, not this helper
    if nu < SMALL_NU_WARNING_THRESHOLD:
        warnings.warn(
            f"only {nu} degrees of freedom; large-sample approximations and "
            "the reported operating characteristics are unreliable below "
            f"{SMALL_NU_WARNING_THRESHOLD}", stacklevel=3)
    if wsd_hat == 0.0:
        warnings.warn(
            "within-subject spread is exactly zero; every nonzero change "
            "will be declared significant", stacklevel=3)
    return WsdEstimate(wsd_hat=wsd_hat, nu=nu)


def repeatability_coefficient(wsd: float, p_sp: float = 0.95, *,
                              estimated: bool = False) -> RepeatabilityCoefficient:
    """Repeatability coefficient ``z * sqrt(2) * wsd`` for target specificity ``p_sp``.

    The difference of two measurements of an unchanged subject has standard
    deviation ``sqrt(2) * w_SD``; scaling by the symmetric coverage quantile
    of ``p_sp`` gives the half-width that keeps the no-change false-positive
    rate at ``1 - p_sp``.  Linear in ``wsd``.  An ``estimated`` wSD comes
    from data, so a coefficient beyond the largest double is then a
    :class:`DataValidationError`.
    """
    wsd = check_real(wsd, "wsd", 0.0)
    value = symmetric_coverage_quantile(p_sp) * _SQRT2 * wsd
    if estimated and math.isinf(value):
        raise DataValidationError("the repeatability coefficient exceeds the largest double")
    return RepeatabilityCoefficient(value=value,
                                    target_specificity=p_sp,
                                    estimated=estimated)


def decide_change(pair: LongitudinalPair, rc: RepeatabilityCoefficient) -> bool:
    """True iff the pair's difference exceeds the repeatability coefficient.

    The comparison is strict: ``|y_post - y_pre|`` exactly equal to the
    coefficient counts as no-change (the no-change interval is closed).
    Symmetric in the two measurements.
    """
    return abs(pair.y_post - pair.y_pre) > rc.value


# ---------------------------------------------------------------------------
# sampling law of W = wsd_hat / w_SD
# ---------------------------------------------------------------------------

class MethodChoice(enum.Enum):
    """Distributional treatment of the estimation-error ratio ``W``.

    ``EXACT`` uses the chi-square law of ``nu * W**2``; ``ASYMPTOTIC`` uses
    the normal limit ``W ~ N(1, 1/(2 nu))``.
    """

    EXACT = "exact"
    ASYMPTOTIC = "asymptotic"


def _as_choice(enum_cls, value, name: str):
    """``value`` as a member of ``enum_cls``: the member itself, or its value."""
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(value)
    except ValueError:
        raise DomainError(
            f"{name} must be {enum_cls.__name__} or one of "
            f"{[c.value for c in enum_cls]}, got {value!r}") from None


def _check_ratio(w):
    """Validate a ratio ``w`` (float, or ndarray elementwise): finite and > 0."""
    if isinstance(w, np.ndarray):
        if w.size and (not np.all(np.isfinite(w)) or not np.all(w > 0.0)):
            raise DomainError("ratio w must be finite and > 0 elementwise")
        return w
    w = float(w)
    if not math.isfinite(w) or w <= 0.0:
        raise DomainError(f"ratio w must be finite and > 0, got {w!r}")
    return w


def _band_edge(z: float, w):
    """``z * w`` for a checked ratio ``w``; inf past the largest double, unwarned for arrays."""
    w = _check_ratio(w)
    if isinstance(w, np.ndarray):
        with np.errstate(over="ignore"):
            return z * w
    return z * w


def _inside_band(y, d=0.0):
    """Mass of ``N(d, 1)`` inside ``[-y, y]``, the change rule's one band law.

    ``(erf((y - d)/sqrt 2) + erf((y + d)/sqrt 2)) / 2``, exactly
    ``erf(y / sqrt 2)`` at ``d = 0``.  At ``y = z W`` it is the effective
    specificity, and one minus it at ``d = delta / sqrt 2`` the two-sided
    sensitivity.  A float ``y`` gives a ``float``, an ndarray the same floats.
    """
    inside = 0.5 * (erf((y - d) / _SQRT2) + erf((y + d) / _SQRT2))
    return inside if isinstance(y, np.ndarray) else float(inside)


def _ratio_log_density(w: float, nu: int) -> float:
    """Log density of ``W`` at ``w > 0``; -inf where ``nu w^2 / 2`` overflows.

    ``log 2 + a log a - log Gamma(a) + (nu - 1) log w - a w^2`` with
    ``a = nu/2``; finite where :func:`ratio_density_exact` underflows.
    """
    w = _check_ratio(w)
    a = 0.5 * nu
    return (_LOG2 + a * math.log(a) - float(gammaln(a))
            + (nu - 1) * math.log(w) - a * w * w)


def ratio_density_exact(w: float, nu: int) -> float:
    """Density of ``W = wsd_hat / w_SD`` at ``w > 0``: ``f_chi2(nu w^2) * 2 w nu``.

    The exponential of :func:`_ratio_log_density`; a :class:`DomainError`
    where that overflows, as at huge ``nu`` its terms cancel to rounding noise.
    """
    nu = check_integer(nu, "nu")
    try:
        return math.exp(_ratio_log_density(w, nu))
    except OverflowError:
        raise DomainError(f"the density of W at nu={nu} is lost to rounding") from None


def ratio_cdf(w: float, nu: int, method: MethodChoice = MethodChoice.EXACT) -> float:
    """``P[W <= w]`` at ``w > 0`` for ``nu`` degrees of freedom.

    The chi-square CDF at ``x = nu w^2`` exactly, the regularized lower
    incomplete gamma function ``P(nu/2, x/2)`` (1 where ``x`` overflows, and
    0 or 1 for ``w`` below or above 1 where it is NaN), or
    ``Phi((w - 1) sqrt(2 nu))`` asymptotically.
    """
    nu = check_integer(nu, "nu")
    w = _check_ratio(w)
    if _as_choice(MethodChoice, method, "method") is MethodChoice.EXACT:
        p = float(gammainc(0.5 * nu, 0.5 * (nu * w * w)))
        # NaN for nu of about 1e306 or more, where W is 1 to within any double
        return float(w > 1.0) if math.isnan(p) else p
    return normal_cdf((w - 1.0) * math.sqrt(2.0 * nu))


def ratio_quantile(q: float, nu: int, method: MethodChoice = MethodChoice.EXACT) -> float:
    """The ``w`` with ``ratio_cdf(w, nu, method) = q``, inverse of :func:`ratio_cdf`.

    Exactly ``sqrt(2 gammaincinv(nu/2, q) / nu)``, or ``sqrt(2) erfinv(q)`` at
    ``nu = 1``, where ``W = |Z|`` and the former underflows below ``q`` of
    about 1e-154.  Raises DomainError where the normal approximation puts
    the quantile at or below 0, which happens for small ``nu`` and small ``q``.
    """
    return _ratio_quantile(q, nu, method, upper=False)


def _ratio_quantile(p, nu, method, upper: bool) -> float:
    # the w with P[W > w] = p if upper, else P[W <= w] = p; the upper one by
    # the upper-tail inverses of p itself, so no digit is lost to 1 - p
    nu = check_integer(nu, "nu")
    p = check_probability(p, "q")
    if _as_choice(MethodChoice, method, "method") is MethodChoice.EXACT:
        if nu == 1 and not upper:
            return symmetric_coverage_quantile(p)
        return math.sqrt(2.0 * float((gammainccinv if upper else gammaincinv)(0.5 * nu, p)) / nu)
    z = normal_quantile(p)
    w = 1.0 + (-z if upper else z) / math.sqrt(2.0 * nu)
    if w <= 0.0:
        raise DomainError(
            f"normal approximation places the {1.0 - p if upper else p:g} ratio quantile "
            f"at w={w:.4g} <= 0 for nu={nu}; use the exact method")
    return w


# ---------------------------------------------------------------------------
# smallest design with a confidence statement on W
# ---------------------------------------------------------------------------

# Consecutive degrees of freedom evaluated per cell, from 2 under its hint
_STEPS = np.arange(4)


def _min_subjects(w, p_conf, limit: int) -> np.ndarray:
    """Smallest ``nu`` per cell with ``P[W >= w] >= p_conf``; 0 where none up to ``limit``.

    Every exact specificity sample size: the ``tables`` grid takes
    ``n = ceil(nu / (m - 1))`` for each ``m``, and one design is a one-cell
    grid.  ``w`` and ``p_conf`` are checked 1-d arrays of one length, with
    ``w < 1``.  It tests ``P[W <= w] <= 1 - p_conf``, exact for
    ``p_conf >= 0.5``, with the operations of :func:`ratio_cdf` in its
    order, so the floats are its own.

    Each cell starts from the Wilson-Hilferty form of the law (Wilson and
    Hilferty 1931): ``(W**2)**(1/3)`` is nearly normal with mean ``1 - s**2``
    and variance ``s**2 = 2 / (9 nu)``, so ``P[W <= w] = 1 - p_conf`` where
    ``s**2 - q s + k = 0``, with ``q = Phi^-1(1 - p_conf)`` and
    ``k = w**(2/3) - 1 < 0``.  The root ``s = (q + sqrt(q**2 - 4k)) / 2``,
    taken as ``-2k / (sqrt(q**2 - 4k) - q)`` so that it does not cancel for
    ``p_conf > 0.5``, gives the hint ``ceil(2 / (9 s**2))`` in ``[1, limit]``
    and at most 2**53, below which every integer is its own double.  The 4
    ``nu`` from 2 under the hint are evaluated for all cells in one
    ``gammainc`` call.  A window that is false and then true, or true from
    ``nu = 1``, settles its cell; :func:`min_integer_satisfying` brackets
    every other cell over :func:`ratio_cdf` from its hint.  The result is
    int64, or Python ints where ``limit`` passes int64's range.
    """
    q = -ndtri(p_conf)
    # w is 0 where z_lb underflows, and the least subnormal gives it k = -1
    k = np.expm1(np.log(np.maximum(w, 5e-324)) * (2.0 / 3.0))
    top = float(min(limit, 2**53))
    hint = np.clip(np.ceil((np.sqrt(q * q - 4.0 * k) - q) ** 2 / (18.0 * k * k)), 1.0, top)
    start = np.clip(hint - 2.0, 1.0, top - _STEPS[-1])
    nu = start[:, None] + _STEPS
    holds = gammainc(0.5 * nu, 0.5 * (nu * w[:, None] * w[:, None])) <= 1.0 - p_conf[:, None]
    first = holds.argmax(axis=1)
    sizes = (start + first).astype(np.int64)
    if limit > np.iinfo(np.int64).max:
        sizes = sizes.astype(object)
    # open: not falses and then trues, or all true from a start past nu = 1
    open_ = (holds.sum(axis=1) != _STEPS.size - first) | ((first == 0) & (start > 1.0))
    for i in np.flatnonzero(open_):
        try:
            sizes[i] = min_integer_satisfying(
                lambda nu, w=w[i], p=p_conf[i]: ratio_cdf(w, nu) <= 1.0 - p, int(hint[i]), limit)
        except InfeasibleError:
            sizes[i] = 0
    return sizes
