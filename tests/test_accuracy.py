"""Accuracy contract of the quantiles and the band law against mpmath at 50 digits.

Each quantile gets log-uniform draws toward 0 (down to 1e-300) and toward 1
(up to 1 - 1e-16), and is compared with the exact value at the double it
was given.  The bounds are relative: 1e-14 for the normal forms (the
coverage quantile and the normal quantile in both tails), 1e-13 for the
quantiles of ``W`` by either method.  The asymptotic quantile of ``W`` is
the sum ``1 + x`` with ``x = +-normal_quantile(p) / sqrt(2 nu)``, so its
error is bounded relative to ``1 + |x|``, the size of its terms; where the
sum does not cancel that is ``w`` itself.

The band law is the mass of ``N(d, 1)`` inside ``[-y, y]``, with ``y = z w``
(or ``z / s`` for the asymptotic means) and ``d = delta / sqrt 2``.  Its
specificity forms are ``erf(y / sqrt 2)``, whose relative condition number
in ``y`` is at most 1, so they are held to 1e-14 relative.  The one-sided
sensitivity ``erfc(a) / 2`` with ``a = (y - d) / sqrt 2`` turns a relative
error ``e`` in ``a`` into about ``2 a**2 e``, so it is held to
``1e-14 (1 + 2 a**2)`` relative.  The two-sided forms are ``1 - inside``,
which cannot resolve less than one step of the doubles below 1: they are
held to 1e-15 absolute, plus the rounding of the band edges, a few ulps of
``y + d`` that the normal density at the edges passes on.

The two-sided ratio cap is ``y / z``, where the band edge ``y`` solves
``P[|N(d, 1)| > y] = p_ese_lb``.  ``y`` is held to 1e-13 relative for floors
from 0.01 to ``1 - 1e-15``, and to 1e-10 below 0.01, where the noncentral
chi-square quantile is taken at ``1 - p_ese_lb``, which rounds.  The draws
are derandomized, so every run checks the same points.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st
from scipy.special import erfc

from repeatkit.core import (
    MethodChoice,
    _ratio_quantile,
    ratio_quantile,
    symmetric_coverage_quantile,
)
from repeatkit.errors import DomainError, InfeasibleError
from repeatkit.numerics import normal_quantile
from repeatkit.sensitivity import (
    _FAR_SIDE_VANISHES,
    EffectSize,
    SensitivityApproximation,
    _ratio_cap,
    effective_sensitivity_given_ratio,
    expected_effective_sensitivity,
)
from repeatkit.specificity import (
    effective_specificity_given_ratio,
    expected_effective_specificity,
    sample_size_specificity,
    specificity_lower_bound,
)

NORMAL_RTOL = 1e-14
RATIO_RTOL = 1e-13
BAND_RTOL = 1e-14
BAND_ATOL = 1e-15
CAP_RTOL = 1e-13
CAP_RTOL_LOW_FLOOR = 1e-10

ONE_SIDED = SensitivityApproximation.ONE_SIDED_EXCEEDANCE
TWO_SIDED = SensitivityApproximation.FULL_TWO_SIDED

_LARGEST_BELOW_1 = math.nextafter(1.0, 0.0)
# 10**-e for e from log10(2) to 300, and 1 - 10**-e for e up to 16
_TOWARD_0 = st.floats(min_value=math.log10(2.0), max_value=300.0).map(lambda e: 10.0 ** -e)
_TOWARD_1 = st.floats(min_value=math.log10(2.0), max_value=16.0).map(
    lambda e: min(1.0 - 10.0 ** -e, _LARGEST_BELOW_1))
_P = st.one_of(_TOWARD_0, _TOWARD_1)
# degrees of freedom from 1 to 5e5, log-uniform; the exact quantile of W
# misses its bound from about 8e5 on (test_exact_ratio_quantile_at_large_nu)
_NU = st.floats(min_value=0.0, max_value=math.log10(5e5)).map(lambda e: int(10.0 ** e))
# ratios W from 1e-3 to 10 and effect sizes from 1e-2 to 20, log-uniform
_W = st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0 ** e)
_DELTA = st.floats(min_value=-2.0, max_value=math.log10(20.0)).map(lambda e: 10.0 ** e)

_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@pytest.fixture(autouse=True, scope="module")
def _fifty_digits():
    with mp.workdps(50):
        yield


def _relative_error(got, want):
    if want == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs((mp.mpf(got) - want) / want))


def _normal_quantile_mp(p):
    # Phi^-1(p): the root of log Phi(t) = log(tail) for the smaller tail,
    # which 1 - p gives exactly
    p = mp.mpf(p)
    tail = min(p, 1 - p)
    if tail == 0.5:
        return mp.mpf(0)
    x = mp.findroot(lambda t: mp.log(mp.ncdf(t)) - mp.log(tail), -mp.sqrt(-2 * mp.log(tail)))
    return x if p < 0.5 else -x


_EPS = mp.mpf(10) ** -55


def _gamma_tails(a, x):
    # (P(a, x), Q(a, x)), the smaller one without cancellation: the series
    # of P below x = a + 1, the continued fraction of Q (modified Lentz) above
    front = mp.exp(a * mp.log(x) - x - mp.loggamma(a))
    if x < a + 1:
        term = total = 1 / a
        k = a
        while term > total * _EPS:
            k += 1
            term *= x / k
            total += term
        p = total * front
        return p, 1 - p
    tiny = mp.mpf(10) ** -300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if d != 0 else tiny)
        c = b + an / c
        c = c if c != 0 else tiny
        h *= d * c
        if abs(d * c - 1) < _EPS:
            break
    q = h * front
    return 1 - q, q


def _ratio_quantile_mp(p, nu, upper, start):
    # the w with P[W > w] = p if upper, else P[W <= w] = p: Newton steps on
    # the log of the smaller chi-square tail in u = log(nu w^2 / 2), from
    # start where it is a positive double; log P and log Q are concave in u,
    # so the steps converge from any start
    a = mp.mpf(nu) / 2
    p = mp.mpf(p)
    lower = (p <= 0.5) != upper
    tail = min(p, 1 - p)
    u = mp.log(a * mp.mpf(start) ** 2) if 0.0 < start < math.inf else mp.log(a)
    for _ in range(200):
        x = mp.exp(u)
        P, Q = _gamma_tails(a, x)
        # x times the gamma density, the derivative of P in u
        slope = mp.exp(a * u - x - mp.loggamma(a))
        step = (mp.log(P if lower else Q) - mp.log(tail)) / (slope / P if lower else -slope / Q)
        u -= step
        if abs(step) < mp.mpf(10) ** -40:
            return mp.sqrt(mp.exp(u) / a)
    raise AssertionError("Newton steps did not converge")


@_SETTINGS
@given(p=_P)
@example(p=1e-300)
@example(p=1e-15)
@example(p=1e-13)
@example(p=0.999999)
@example(p=1.0 - 1e-12)
@example(p=_LARGEST_BELOW_1)
def test_coverage_quantile(p):
    want = mp.sqrt(2) * mp.erfinv(mp.mpf(p))
    assert _relative_error(symmetric_coverage_quantile(p), want) <= NORMAL_RTOL


@_SETTINGS
@given(p=_P)
@example(p=1e-300)
@example(p=0.5)
@example(p=_LARGEST_BELOW_1)
def test_normal_quantile_both_tails(p):
    want = _normal_quantile_mp(p)
    assert _relative_error(normal_quantile(p), want) <= NORMAL_RTOL
    assert _relative_error(-normal_quantile(p), -want) <= NORMAL_RTOL


@_SETTINGS
@given(p=_P, nu=_NU)
@example(p=1e-300, nu=1)
@example(p=_LARGEST_BELOW_1, nu=1)
@example(p=1e-300, nu=5 * 10**5)
@example(p=_LARGEST_BELOW_1, nu=5 * 10**5)
def test_exact_ratio_quantiles(p, nu):
    for upper in (False, True):
        got = _ratio_quantile(p, nu, MethodChoice.EXACT, upper)
        want = _ratio_quantile_mp(p, nu, upper, got)
        assert _relative_error(got, want) <= RATIO_RTOL, (upper, got, want)


@_SETTINGS
@given(p=_P, nu=_NU)
@example(p=1e-300, nu=1)
@example(p=0.05, nu=1)
@example(p=_LARGEST_BELOW_1, nu=5 * 10**5)
def test_asymptotic_ratio_quantiles(p, nu):
    for upper in (False, True):
        x = (-1 if upper else 1) * _normal_quantile_mp(p) / mp.sqrt(2 * nu)
        want = 1 + x
        scale = 1 + abs(x)
        try:
            got = _ratio_quantile(p, nu, MethodChoice.ASYMPTOTIC, upper)
        except DomainError as e:
            # raised where the quantile is at or below 0, to within the bound
            assert want <= RATIO_RTOL * scale, (upper, want)
            assert "use the exact method" in str(e)
            continue
        assert got > 0.0
        assert abs(mp.mpf(got) - want) <= RATIO_RTOL * scale, (upper, got, want)


@pytest.mark.xfail(strict=True, reason=(
    "scipy's gammaincinv misses by 4.4e-12 here: its gammainc leaves the "
    "asymptotic series past 4.5 standard deviations at large shape, and the "
    "power series it uses instead stops short"))
def test_exact_ratio_quantile_at_large_nu():
    p = 2.6822957796388472e-06  # the lower tail 4.55 standard deviations out
    got = ratio_quantile(p, 10**6, MethodChoice.EXACT)
    assert _relative_error(got, _ratio_quantile_mp(p, 10**6, False, got)) <= RATIO_RTOL


def test_upper_asymptotic_quantile_names_its_lower_probability():
    # the upper 0.95 quantile is the lower 0.05 one, and says so
    with pytest.raises(DomainError) as upper:
        _ratio_quantile(0.95, 1, MethodChoice.ASYMPTOTIC, upper=True)
    with pytest.raises(DomainError) as lower:
        ratio_quantile(0.05, 1, MethodChoice.ASYMPTOTIC)
    assert str(upper.value) == str(lower.value) == (
        "normal approximation places the 0.05 ratio quantile at w=-0.1631 <= 0 "
        "for nu=1; use the exact method")


# ---------------------------------------------------------------------------
# the band law: effective specificity and sensitivity, and their asymptotic means
# ---------------------------------------------------------------------------

def _coverage_mp(p_sp):
    return mp.sqrt(2) * mp.erfinv(mp.mpf(p_sp))


def _outside_mp(y, d):
    # 1 minus the mass of N(d, 1) inside [-y, y]
    return (mp.erfc((y - d) / mp.sqrt(2)) + mp.erfc((y + d) / mp.sqrt(2))) / 2


def _outside_tol(y, d):
    # the step of 1 - inside near 0, and the edges' rounding through the density
    return BAND_ATOL * (1 + float((y + d) * (mp.npdf(y - d) + mp.npdf(y + d))))


@_SETTINGS
@given(p_sp=_P, w=_W)
@example(p_sp=1e-300, w=1e-3)
@example(p_sp=1e-15, w=1.0)
@example(p_sp=_LARGEST_BELOW_1, w=10.0)
def test_effective_specificity(p_sp, w):
    want = mp.erf(_coverage_mp(p_sp) * w / mp.sqrt(2))
    assert _relative_error(effective_specificity_given_ratio(w, p_sp), want) <= BAND_RTOL


@_SETTINGS
@given(p_sp=_P, w=_W, delta=_DELTA)
@example(p_sp=0.95, w=10.0, delta=8.2)  # erfc at a = 9.7, about 1e-43
@example(p_sp=1e-300, w=1e-3, delta=1e-2)
@example(p_sp=_LARGEST_BELOW_1, w=10.0, delta=20.0)
def test_one_sided_sensitivity(p_sp, w, delta):
    a = (_coverage_mp(p_sp) * w - mp.mpf(delta) / mp.sqrt(2)) / mp.sqrt(2)
    want = mp.erfc(a) / 2
    if want < 1e-290:
        return  # where it underflows to subnormals or 0
    got = effective_sensitivity_given_ratio(w, delta, p_sp, ONE_SIDED)
    assert _relative_error(got, want) <= BAND_RTOL * (1 + 2 * float(a) ** 2)


@_SETTINGS
@given(p_sp=_P, w=_W, delta=_DELTA)
@example(p_sp=1e-300, w=1e-3, delta=1e-2)
@example(p_sp=_LARGEST_BELOW_1, w=10.0, delta=20.0)
@example(p_sp=0.95, w=7.2, delta=20.0)  # the edge 14.11 next to the shift 14.14
def test_two_sided_sensitivity(p_sp, w, delta):
    y, d = _coverage_mp(p_sp) * w, mp.mpf(delta) / mp.sqrt(2)
    got = effective_sensitivity_given_ratio(w, delta, p_sp, TWO_SIDED)
    assert abs(mp.mpf(got) - _outside_mp(y, d)) <= _outside_tol(y, d)


def _asymptotic_edge_mp(p_sp, nu):
    # z / s with s = sqrt(1 + z^2 / (2 nu)), the band edge of the asymptotic means
    z = _coverage_mp(p_sp)
    return z / mp.sqrt(1 + z * z / (2 * nu)), mp.sqrt(1 + z * z / (2 * nu))


@_SETTINGS
@given(p_sp=_P, nu=_NU)
@example(p_sp=1e-300, nu=1)
@example(p_sp=_LARGEST_BELOW_1, nu=5 * 10**5)
def test_asymptotic_expected_specificity(p_sp, nu):
    x, _ = _asymptotic_edge_mp(p_sp, nu)
    got = expected_effective_specificity(nu, p_sp, MethodChoice.ASYMPTOTIC)
    assert _relative_error(got, mp.erf(x / mp.sqrt(2))) <= BAND_RTOL


@_SETTINGS
@given(p_sp=_P, nu=_NU, delta=_DELTA)
@example(p_sp=1e-300, nu=1, delta=1e-2)
@example(p_sp=_LARGEST_BELOW_1, nu=5 * 10**5, delta=20.0)
def test_asymptotic_expected_sensitivity(p_sp, nu, delta):
    x, s = _asymptotic_edge_mp(p_sp, nu)
    e = mp.mpf(delta) / mp.sqrt(2) / s
    got = expected_effective_sensitivity(nu, delta, p_sp, MethodChoice.ASYMPTOTIC)
    assert abs(mp.mpf(got) - _outside_mp(x, e)) <= _outside_tol(x, e)


def test_specificity_lower_bound_keeps_a_tiny_floor():
    # the floor is erf(z w / sqrt 2) at the upper quantile w of W, nearly
    # proportional to z w here, so its error is that of the quantile; as a
    # difference of two normal CDFs near 1/2 it read 1.665e-16
    p_sp, p_conf, nu = 1.609659605122804e-15, 0.9999999999999901, 14
    start = _ratio_quantile(p_conf, nu, MethodChoice.EXACT, upper=True)
    w = _ratio_quantile_mp(p_conf, nu, True, start)
    want = mp.erf(_coverage_mp(p_sp) * w / mp.sqrt(2))
    assert 1.1199e-16 < want < 1.1200e-16
    assert _relative_error(specificity_lower_bound(nu, p_sp, p_conf), want) <= RATIO_RTOL


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(ws=st.lists(_W, min_size=1, max_size=50), p_sp=_P, delta=_DELTA)
@example(ws=[1e-3, 0.5, 1.0, 10.0], p_sp=0.95, delta=4.0)
def test_floats_and_arrays_give_the_same_floats(ws, p_sp, delta):
    # the simulation maps its ratios as an array and the reports map one
    # float, so both must be the same floats, bit for bit
    maps = [lambda w: effective_specificity_given_ratio(w, p_sp)] + [
        lambda w, a=a: effective_sensitivity_given_ratio(w, delta, p_sp, a)
        for a in SensitivityApproximation]
    for f in maps:
        one = [f(w) for w in ws]
        assert all(type(v) is float for v in one)
        many = f(np.array(ws))
        assert isinstance(many, np.ndarray) and many.shape == (len(ws),)
        assert many.view(np.int64).tolist() == np.array(one).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# the two-sided ratio cap: the band edge where the sensitivity meets its floor
# ---------------------------------------------------------------------------

_ROOT_2 = math.sqrt(2.0)
# effect sizes with d = delta / sqrt 2 from 1e-3 up to the far-side switch,
# log-uniform, and from the switch to 1e300
_NEAR_DELTA = st.floats(min_value=math.log10(1e-3 * _ROOT_2),
                        max_value=math.log10(_FAR_SIDE_VANISHES * _ROOT_2),
                        exclude_max=True).map(lambda e: 10.0 ** e)
_FAR_DELTA = st.floats(min_value=math.log10(_FAR_SIDE_VANISHES * _ROOT_2),
                       max_value=300.0).map(lambda e: 10.0 ** e)
# floors from 1e-6 to 0.01 log-uniform, from 0.01 to 1/2 uniform, and toward 1
# up to 1 - 1e-15
_FLOOR = st.one_of(
    st.floats(min_value=-6.0, max_value=-2.0, exclude_max=True).map(lambda e: 10.0 ** e),
    st.floats(min_value=0.01, max_value=0.5),
    st.floats(min_value=math.log10(2.0), max_value=15.0).map(lambda e: 1.0 - 10.0 ** -e))


def _two_sided_edge_mp(p, d, start):
    # the y with P[|N(d, 1)| > y] = p: Newton steps on the log of that tail,
    # from start where it is a positive double, to 30 digits, as a tail near 1
    # leaves fewer than 50 in its log
    p, d = mp.mpf(p), mp.mpf(d)
    y = mp.mpf(start) if 0.0 < start < math.inf else d + 1
    for _ in range(200):
        tail = _outside_mp(y, d)
        step = (mp.log(tail) - mp.log(p)) / (-(mp.npdf(y - d) + mp.npdf(y + d)) / tail)
        y -= step
        if abs(step) < abs(y) * mp.mpf(10) ** -30:
            return y
    raise AssertionError("Newton steps did not converge")


@_SETTINGS
@given(p_ese_lb=_FLOOR, delta=_NEAR_DELTA)
@example(p_ese_lb=1e-6, delta=1e-3 * _ROOT_2)
@example(p_ese_lb=0.01, delta=1.0)
@example(p_ese_lb=0.5, delta=37.99 * _ROOT_2)
@example(p_ese_lb=1.0 - 1e-15, delta=10.0)
@example(p_ese_lb=0.999, delta=1e-3 * _ROOT_2)
def test_two_sided_ratio_cap(p_ese_lb, delta):
    # at p_sp = 1e-300, z is about 1.25e-300, so every edge above it is feasible
    d = delta / _ROOT_2
    assume(d < _FAR_SIDE_VANISHES)
    _, got, _ = _ratio_cap(EffectSize(delta), 1e-300, p_ese_lb, TWO_SIDED)
    want = _two_sided_edge_mp(p_ese_lb, d, got)
    assume(want >= 1e-3)
    rtol = CAP_RTOL if p_ese_lb >= 0.01 else CAP_RTOL_LOW_FLOOR
    assert _relative_error(got, want) <= rtol, (got, want)


def _cap_or_infeasible(delta, p_sp, p_ese_lb, approximation):
    try:
        return [v.hex() for v in _ratio_cap(EffectSize(delta), p_sp, p_ese_lb, approximation)]
    except InfeasibleError:
        return "infeasible"


@_SETTINGS
@given(p_ese_lb=_P, delta=_FAR_DELTA, p_sp=_P)
@example(p_ese_lb=0.5, delta=_FAR_SIDE_VANISHES * _ROOT_2, p_sp=0.95)
@example(p_ese_lb=1e-300, delta=1e300, p_sp=_LARGEST_BELOW_1)
def test_far_side_cap_is_the_one_sided_cap(p_ese_lb, delta, p_sp):
    # from d = 38 the far-side term erfc((y + d) / sqrt 2) / 2 is 0 in doubles,
    # so the two-sided cap is the one-sided one, bit for bit
    assume(delta / _ROOT_2 >= _FAR_SIDE_VANISHES)
    assert float(erfc(_FAR_SIDE_VANISHES / _ROOT_2)) == 0.0
    assert _cap_or_infeasible(delta, p_sp, p_ese_lb, TWO_SIDED) == \
        _cap_or_infeasible(delta, p_sp, p_ese_lb, ONE_SIDED)


# ---------------------------------------------------------------------------
# exact specificity sample sizes: the least n, from the definition
# ---------------------------------------------------------------------------

# designs are checked up to this nu = n (m - 1); scipy's law of W loses
# digits from about 8e5 on (test_exact_ratio_quantile_at_large_nu)
_NU_CHECKED = 8 * 10**5
# replicates per subject from 2 to 1e4, log-uniform
_REPLICATES = st.floats(min_value=math.log10(2.0), max_value=4.0).map(lambda e: int(10.0 ** e))
# (p_esp_lb, p_sp): anywhere in (0, 1), or the floor 10**-u of the target's
# distance from 1 under it, for u from 1 to 7, where nu_min is large
_FLOOR_AND_TARGET = st.one_of(
    st.tuples(_P, _P).map(sorted),
    st.tuples(st.floats(min_value=1.0, max_value=7.0), _TOWARD_1).map(
        lambda t: (t[1] - (1.0 - t[1]) * 10.0 ** -t[0], t[1])))
# (p_sp, p_esp_lb, p_conf) within 1e-13 of 1, whose least n is 4720 at m = 2
_NEAR_ONE = (0.9999999999998764, 0.9999999999914251, 0.9999999999999957)


def _specificity_confident_mp(n, m, p_sp, p_esp_lb, p_conf, lower_tail):
    # P[W >= z_lb / z] >= p_conf at nu = n (m - 1), the coverage quantiles at
    # 50 digits, compared as P[W < w] <= 1 - p_conf
    w = _coverage_mp(p_esp_lb) / _coverage_mp(p_sp)
    return lower_tail(mp.mpf(n * (m - 1)) / 2, w * w) <= 1 - mp.mpf(p_conf)


def _series_lower_tail(a, lam):
    return _gamma_tails(a, a * lam)[0]


def _temme_lower_tail(a, lam):
    # P(a, a lam) by Temme's uniform expansion (DLMF 8.12.3) to its first
    # term c0; the next is smaller by a factor of order 1/a
    eta = mp.sign(lam - 1) * mp.sqrt(2 * (lam - 1 - mp.log(lam)))
    c0 = 1 / (lam - 1) - 1 / eta
    return (mp.erfc(-eta * mp.sqrt(a / 2)) / 2
            - mp.exp(-a * eta * eta / 2) * c0 / mp.sqrt(2 * mp.pi * a))


def _assert_least_specificity_size(n, m, p_sp, p_esp_lb, p_conf, lower_tail):
    # n meets the confidence and n - 1 does not; the confidence grows with
    # nu (test_confidence_is_non_decreasing_in_nu), so no smaller n does
    assert _specificity_confident_mp(n, m, p_sp, p_esp_lb, p_conf, lower_tail), n
    assert n == 1 or not _specificity_confident_mp(n - 1, m, p_sp, p_esp_lb, p_conf,
                                                   lower_tail), n


@settings(_SETTINGS, max_examples=100)
@given(m=_REPLICATES, floor_and_target=_FLOOR_AND_TARGET, p_conf=_P)
@example(m=2, floor_and_target=_NEAR_ONE[1::-1], p_conf=_NEAR_ONE[2])
@example(m=3, floor_and_target=_NEAR_ONE[1::-1], p_conf=_NEAR_ONE[2])
@example(m=2, floor_and_target=(0.765, 0.92), p_conf=0.99999999995825)
@example(m=2, floor_and_target=(0.829, 0.851), p_conf=0.9999999999995116)
@example(m=2, floor_and_target=(0.90, 0.95), p_conf=1.0 - 1e-13)
@example(m=5, floor_and_target=(0.8, 0.99), p_conf=_LARGEST_BELOW_1)
@example(m=2, floor_and_target=(0.90, 0.95), p_conf=0.95)
@example(m=2, floor_and_target=(1e-300, _LARGEST_BELOW_1), p_conf=1e-300)
def test_exact_specificity_size_is_least(m, floor_and_target, p_conf):
    p_esp_lb, p_sp = floor_and_target
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # confidences at or below 0.5 warn
        try:
            n = sample_size_specificity(m, p_sp, p_esp_lb, p_conf).n
        except InfeasibleError:
            reject()  # a floor not below the target, or nu_min past the checked range
    assume(n * (m - 1) <= _NU_CHECKED)
    _assert_least_specificity_size(n, m, p_sp, p_esp_lb, p_conf, _series_lower_tail)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("m,p_sp,p_esp_lb,p_conf", [
    (9_200_000_000_000_000_001, 0.9880899399272263, 0.9880899399266615, 0.999999),
    (10**12, 0.9999999992739117, 0.9999999992739116, 0.9999999999999802),
])
def test_exact_specificity_size_at_large_nu(m, p_sp, p_esp_lb, p_conf):
    # the least n is 27,783 and 1,851,050, with nu of 2.6e23 and 1.9e18, where
    # scipy's gammainc is not monotone in nu
    n = sample_size_specificity(m, p_sp, p_esp_lb, p_conf).n
    _assert_least_specificity_size(n, m, p_sp, p_esp_lb, p_conf, _temme_lower_tail)
