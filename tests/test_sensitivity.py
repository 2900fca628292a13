"""Tests for effective-sensitivity distributions and planning functions.

Frozen reference numbers come from mpmath (50 digits) and scipy oracles,
cross-checked before pinning.
"""

import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate as sci_integrate, stats

from repeatkit.core import ratio_cdf
from repeatkit.errors import DomainError, InfeasibleError
from repeatkit.numerics import MAX_SUBJECTS, min_integer_satisfying, normal_quantile
from repeatkit.sensitivity import (
    EffectSize,
    SensitivityApproximation,
    effective_sensitivity_given_ratio,
    expected_effective_sensitivity,
    sample_size_sensitivity,
    sensitivity,
    sensitivity_confidence,
    sensitivity_lower_bound,
)
from repeatkit.specificity import (
    MethodChoice,
    effective_specificity_given_ratio,
    expected_effective_specificity,
    specificity_lower_bound,
)

Z_95 = 1.9599639845400536
ONE_SIDED = SensitivityApproximation.ONE_SIDED_EXCEEDANCE
TWO_SIDED = SensitivityApproximation.FULL_TWO_SIDED
# the package's ``sensitivity`` attribute is the function of that name
sensitivity_module = importlib.import_module("repeatkit.sensitivity")


class TestEffectSize:
    def test_plain_value(self):
        eff = EffectSize(4.0)
        assert eff.delta == 4.0
        assert eff.signed == 4.0

    def test_negative_reflects(self):
        eff = EffectSize(-4.0)
        assert eff.delta == 4.0
        assert eff.negative
        assert eff.signed == -4.0

    def test_from_change(self):
        eff = EffectSize.from_change(2.0, 0.5)
        assert eff.delta == 4.0

    def test_from_change_rejects_bad_wsd(self):
        with pytest.raises(DomainError):
            EffectSize.from_change(2.0, 0.0)
        with pytest.raises(DomainError):
            EffectSize.from_change(2.0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            EffectSize(math.inf)

    def test_symmetric_sensitivity(self):
        assert sensitivity(EffectSize(-4.0), 0.95) == sensitivity(
            EffectSize(4.0), 0.95)


class TestSensitivity:
    def test_reference_value(self):
        # mpmath 50 dps: 0.80743041943255700863
        assert sensitivity(4.0, 0.95) == pytest.approx(
            0.8074304194325572, abs=5e-15)

    def test_zero_effect_complements_specificity(self):
        for p_sp in (0.80, 0.95, 0.99):
            assert sensitivity(0.0, p_sp) == pytest.approx(1.0 - p_sp, abs=1e-15)

    def test_monotone_in_effect(self):
        vals = [sensitivity(d, 0.95) for d in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert vals == sorted(vals)

    def test_against_scipy(self):
        for delta in (1.0, 2.77, 4.0, 6.0):
            d = delta / math.sqrt(2)
            want = 1.0 - (stats.norm.cdf(Z_95 - d) - stats.norm.cdf(-Z_95 - d))
            assert sensitivity(delta, 0.95) == pytest.approx(want, rel=1e-13)


class TestEffectiveSensitivityGivenRatio:
    def test_two_sided_at_unit_ratio(self):
        got = effective_sensitivity_given_ratio(1.0, 4.0, 0.95, TWO_SIDED)
        assert got == pytest.approx(0.8074304194325572, abs=5e-15)

    def test_one_sided_exceeds_two_sided_by_far_tail(self):
        # the far detection tail Phi(-z w - d) separates the two forms
        one = effective_sensitivity_given_ratio(1.0, 4.0, 0.95, ONE_SIDED)
        two = effective_sensitivity_given_ratio(1.0, 4.0, 0.95, TWO_SIDED)
        gap = two - one
        want = stats.norm.cdf(-Z_95 - 4.0 / math.sqrt(2))
        assert gap == pytest.approx(want, rel=1e-6)
        assert 8.40e-7 < gap < 8.42e-7

    def test_zero_effect_two_sided_complements_bitwise(self):
        # exact float complement, not approximate: shared two-term algebra
        for w in (0.3, 0.77, 1.0, 1.31, 2.9):
            sens_val = effective_sensitivity_given_ratio(w, 0.0, 0.95, TWO_SIDED)
            spec_val = effective_specificity_given_ratio(w, 0.95)
            assert sens_val == 1.0 - spec_val

    def test_decreasing_in_ratio(self):
        vals = [effective_sensitivity_given_ratio(w, 4.0, 0.95, TWO_SIDED)
                for w in (0.5, 0.8, 1.0, 1.5, 2.5)]
        assert vals == sorted(vals, reverse=True)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(DomainError):
            effective_sensitivity_given_ratio(0.0, 4.0, 0.95, TWO_SIDED)

    @pytest.mark.parametrize("w", [1e308, np.array([1e308])])
    def test_overflowing_band_edge_detects_nothing(self, w):
        # z w overflows to inf, where the normal CDF is 1; no warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(effective_sensitivity_given_ratio(w, 4.0, 0.9999999) == 0.0)

    def test_approximation_coercion_from_string(self):
        a = effective_sensitivity_given_ratio(1.2, 4.0, 0.95, "full-two-sided")
        b = effective_sensitivity_given_ratio(1.2, 4.0, 0.95, TWO_SIDED)
        assert a == b


class TestExpectedEffectiveSensitivity:
    def test_frozen_values(self):
        assert expected_effective_sensitivity(
            139, 4.0, 0.95, MethodChoice.EXACT) == pytest.approx(
                0.8067660106340632, abs=5e-12)
        assert expected_effective_sensitivity(
            10**6, 4.0, 0.95, MethodChoice.EXACT) == pytest.approx(
                0.8074303253188532, abs=5e-12)

    def test_mpmath_reference(self):
        # mpmath 40 dps quadrature of both detection terms against the chi
        # law of W; agrees with the noncentral t form to every digit shown
        got = expected_effective_sensitivity(60, 5.0, 0.97, MethodChoice.EXACT)
        assert got == pytest.approx(0.9112159088374177, abs=1e-12)

    def test_against_scipy_quad(self):
        nu, delta = 139, 4.0
        d = delta / math.sqrt(2)

        def f(t):
            w = math.sqrt(t / nu)
            return ((1.0 - stats.norm.cdf(Z_95 * w - d)
                     + stats.norm.cdf(-Z_95 * w - d)) * stats.chi2.pdf(t, nu))

        want, _ = sci_integrate.quad(f, 0, stats.chi2.ppf(1 - 1e-15, nu),
                                     limit=400)
        got = expected_effective_sensitivity(nu, delta, 0.95, MethodChoice.EXACT)
        assert got == pytest.approx(want, abs=5e-9)

    def test_zero_effect_complements_expected_specificity(self):
        for nu in (10, 54):
            sens_val = expected_effective_sensitivity(nu, 0.0, 0.95,
                                                      MethodChoice.EXACT)
            spec_val = expected_effective_specificity(nu, 0.95, MethodChoice.EXACT)
            assert sens_val == pytest.approx(1.0 - spec_val, abs=1e-11)

    def test_exceeds_fixed_threshold_sensitivity(self):
        # estimating the SD biases power upward: small thresholds fire often
        for nu in (10, 139):
            got = expected_effective_sensitivity(nu, 4.0, 0.95, MethodChoice.EXACT)
            assert got < sensitivity(4.0, 0.95)

    def test_asymptotic_near_exact_for_large_nu(self):
        e = expected_effective_sensitivity(500, 4.0, 0.95, MethodChoice.EXACT)
        a = expected_effective_sensitivity(500, 4.0, 0.95, MethodChoice.ASYMPTOTIC)
        assert abs(e - a) < 5e-4


class TestNoncentralTCorners:
    # points where scipy's nctdtr returns nan: |t| near 1e-120 with nu = 1,
    # and lower tails far below 1e-12; the stand-ins hold to 1e-12
    @pytest.mark.parametrize("nu, d, t", [
        (1, 1e-5, 1.25e-120),
        (1, 0.5, -1.25e-120),
        (100, 10.0, -1.96),
        (348070, 3.2054, -3.8583),
        (3, 1e300, 1.96),
    ])
    def test_matches_quadrature(self, nu, d, t):
        def f(x):
            return stats.norm.cdf(t * math.sqrt(x / nu) - d) * stats.chi2.pdf(x, nu)

        lo, hi = stats.chi2.ppf([1e-15, 1 - 1e-15], nu)
        want, _ = sci_integrate.quad(f, lo, hi, limit=400, epsabs=1e-15)
        assert sensitivity_module._nct_cdf(nu, d, t) == pytest.approx(want, abs=1e-12)

    def test_expectation_stays_finite(self):
        # was nan: nctdtr(100, 10, -1.96) and both tails at delta = 1e300
        assert expected_effective_sensitivity(100, 10 * math.sqrt(2), 0.95) == \
            pytest.approx(1.0, abs=1e-12)
        assert expected_effective_sensitivity(3, 1e300, 0.95) == 1.0


class TestSensitivityConfidence:
    def test_frozen_exact_value(self):
        got = sensitivity_confidence(139, 4.0, 0.95, 0.75, MethodChoice.EXACT,
                                     ONE_SIDED)
        assert got == pytest.approx(0.9519365560737201, abs=1e-13)

    def test_frozen_asymptotic_values(self):
        for nu, want in ((137, 0.949310963825783), (138, 0.9499301913563445)):
            got = sensitivity_confidence(nu, 4.0, 0.95, 0.75,
                                         MethodChoice.ASYMPTOTIC, ONE_SIDED)
            assert got == pytest.approx(want, abs=1e-13)

    def test_exact_against_scipy(self):
        d = 4.0 / math.sqrt(2)
        u = (stats.norm.ppf(1 - 0.75) + d) / Z_95
        for nu in (54, 139):
            want = stats.chi2.cdf(nu * u * u, nu)
            got = sensitivity_confidence(nu, 4.0, 0.95, 0.75,
                                         MethodChoice.EXACT, ONE_SIDED)
            assert got == pytest.approx(want, rel=1e-12)

    def test_two_sided_roundtrip(self):
        nu = 139
        lb = sensitivity_lower_bound(nu, 4.0, 0.95, 0.95, MethodChoice.EXACT,
                                     TWO_SIDED)
        back = sensitivity_confidence(nu, 4.0, 0.95, lb, MethodChoice.EXACT,
                                      TWO_SIDED)
        assert back == pytest.approx(0.95, abs=1e-9)

    def test_one_sided_zero_effect_rejected(self):
        with pytest.raises(DomainError):
            sensitivity_confidence(139, 0.0, 0.95, 0.04, MethodChoice.EXACT,
                                   ONE_SIDED)

    def test_unattainable_floor_rejected(self):
        with pytest.raises(InfeasibleError, match="0.9"):
            sensitivity_confidence(139, 1.0, 0.95, 0.9, MethodChoice.EXACT,
                                   ONE_SIDED)

    @pytest.mark.parametrize("approximation", [ONE_SIDED, TWO_SIDED])
    def test_cap_beyond_the_largest_double_is_certain(self, approximation):
        # z ~ 1e-300 and delta = 1e10 put the ratio cap past every double
        assert sensitivity_confidence(10, 1e10, 1e-300, 0.5, MethodChoice.EXACT,
                                      approximation) == 1.0

    def test_cap_between_two_to_the_1023_and_the_largest_double(self):
        # the two-sided cap is about 1.3e308, so bisection runs next to the
        # largest double and its midpoints must not overflow
        assert sensitivity_confidence(10, 2.3e8, 1e-300, 0.5, MethodChoice.EXACT,
                                      TWO_SIDED) == 1.0

    def test_unknown_method_rejected_where_the_cap_is_capped(self):
        with pytest.raises(DomainError, match="method"):
            sensitivity_confidence(10, 4.0, 1e-320, 0.5, "bogus")


class TestSensitivityLowerBound:
    def test_zero_effect_rejected(self):
        with pytest.raises(DomainError, match="requires a nonzero effect size delta"):
            sensitivity_lower_bound(10, 0.0)

    def test_frozen_value(self):
        got = sensitivity_lower_bound(139, 4.0, 0.95, 0.95, MethodChoice.EXACT)
        assert got == pytest.approx(0.7507341522635348, abs=1e-13)

    def test_against_scipy(self):
        d = 4.0 / math.sqrt(2)
        for nu in (54, 139, 10**6):
            wq = math.sqrt(stats.chi2.ppf(0.95, nu) / nu)
            want = 1.0 - stats.norm.cdf(Z_95 * wq - d)
            got = sensitivity_lower_bound(nu, 4.0, 0.95, 0.95, MethodChoice.EXACT)
            assert got == pytest.approx(want, abs=1e-13)

    def test_roundtrip_through_confidence(self):
        for nu in (20, 139, 2000):
            for conf in (0.8, 0.95):
                lb = sensitivity_lower_bound(nu, 4.0, 0.95, conf,
                                             MethodChoice.EXACT)
                back = sensitivity_confidence(nu, 4.0, 0.95, lb,
                                              MethodChoice.EXACT, ONE_SIDED)
                assert back == pytest.approx(conf, abs=1e-9)

    def test_approaches_sensitivity_at_root_nu_rate(self):
        # gap to the infinite-data sensitivity shrinks like 1/sqrt(2 nu) with
        # a stable constant, so demanding 1e-4 needs nu near 4e7, not 1e6
        p_se = sensitivity(4.0, 0.95)
        d = 4.0 / math.sqrt(2)
        const = 1.6448536269514722 * Z_95 * math.exp(
            -0.5 * (Z_95 - d) ** 2) / math.sqrt(2 * math.pi)
        for nu in (10**4, 10**5, 10**6):
            gap = p_se - sensitivity_lower_bound(nu, 4.0, 0.95, 0.95,
                                                 MethodChoice.EXACT)
            scaled = gap * math.sqrt(2.0 * nu)
            assert scaled == pytest.approx(const, rel=0.05)
        nu = 10**6
        gap6 = p_se - sensitivity_lower_bound(nu, 4.0, 0.95, 0.95,
                                              MethodChoice.EXACT)
        assert gap6 < 1e-3
        assert gap6 > 1e-4   # 1e-4 is out of reach at this nu

    @given(st.integers(min_value=2, max_value=50000),
           st.floats(min_value=2.0, max_value=8.0),
           st.floats(min_value=0.1, max_value=0.99))
    @example(nu=607, delta=2.0, conf=0.5)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, nu, delta, conf):
        lb = sensitivity_lower_bound(nu, delta, 0.95, conf, MethodChoice.EXACT)
        # at conf <= 0.5 the ratio quantile can drop below 1, putting the
        # floor at or above the one-sided perfect-estimate sensitivity
        # 1 - Phi(z - d); the confidence question must then be rejected
        attainable = effective_sensitivity_given_ratio(1.0, delta, 0.95, ONE_SIDED)
        if lb >= attainable:
            with pytest.raises(InfeasibleError):
                sensitivity_confidence(nu, delta, 0.95, lb, MethodChoice.EXACT,
                                       ONE_SIDED)
            return
        assert sensitivity_confidence(nu, delta, 0.95, lb, MethodChoice.EXACT,
                                      ONE_SIDED) == pytest.approx(conf, abs=1e-9)


class TestSampleSizeSensitivity:
    def test_zero_effect_rejected(self):
        with pytest.raises(DomainError, match="requires a nonzero effect size delta"):
            sample_size_sensitivity(2, 0.0)

    def test_reference_design(self):
        asym = sample_size_sensitivity(2, 4.0, 0.95, 0.75, 0.95,
                                       MethodChoice.ASYMPTOTIC)
        exact = sample_size_sensitivity(2, 4.0, 0.95, 0.75, 0.95,
                                        MethodChoice.EXACT)
        assert asym.raw == pytest.approx(138.11358176885386, abs=1e-8)
        assert asym.n == 139
        assert exact.n == 136

    def test_exact_n_is_minimal(self):
        res = sample_size_sensitivity(2, 4.0, 0.95, 0.75, 0.95,
                                      MethodChoice.EXACT)

        def conf_at(n):
            return sensitivity_confidence(n, 4.0, 0.95, 0.75, MethodChoice.EXACT,
                                          ONE_SIDED)

        assert conf_at(res.n) >= 0.95
        assert conf_at(res.n - 1) < 0.95

    def test_tighter_floor_grows_design(self):
        n_75 = sample_size_sensitivity(2, 4.0, 0.95, 0.75, 0.95,
                                       MethodChoice.EXACT).n
        n_80 = sample_size_sensitivity(2, 4.0, 0.95, 0.80, 0.95,
                                       MethodChoice.EXACT).n
        assert n_75 == 136
        assert n_80 == 7197

    def test_infeasible_names_attainable_sensitivity(self):
        with pytest.raises(InfeasibleError, match="p_se"):
            sample_size_sensitivity(2, 1.0, 0.95, 0.90, 0.95,
                                    MethodChoice.EXACT)

    def test_two_sided_matches_one_sided_here(self):
        # far tail is ~1e-6 at delta=4, far below the threshold granularity
        two = sample_size_sensitivity(2, 4.0, 0.95, 0.75, 0.95,
                                      MethodChoice.EXACT, TWO_SIDED)
        assert two.n == 136

    def test_two_sided_search_inverts_once(self, monkeypatch):
        # the ratio cap is found before the search, not at every step
        calls = []
        quantile = sensitivity_module.chndtrix
        monkeypatch.setattr(sensitivity_module, "chndtrix",
                            lambda *a: calls.append(a) or quantile(*a))
        res = sample_size_sensitivity(2, 4.0, 0.95, 0.80, 0.95,
                                      MethodChoice.EXACT, TWO_SIDED)
        assert res.n > 1000
        assert len(calls) == 1

    def test_replicates_reduce_subjects(self):
        n_m3 = sample_size_sensitivity(3, 4.0, 0.95, 0.75, 0.95,
                                       MethodChoice.EXACT).n
        assert n_m3 == 68

    def test_accepts_effect_size_object(self):
        a = sample_size_sensitivity(2, EffectSize(4.0), 0.95, 0.75, 0.95,
                                    MethodChoice.EXACT)
        b = sample_size_sensitivity(2, 4.0, 0.95, 0.75, 0.95,
                                    MethodChoice.EXACT)
        assert a.n == b.n

    @pytest.mark.parametrize("approximation", [ONE_SIDED, TWO_SIDED])
    def test_cap_beyond_the_largest_double_needs_one_subject(self, approximation):
        res = sample_size_sensitivity(2, 1e10, 1e-300, 0.5, 0.95, MethodChoice.EXACT,
                                      approximation)
        assert res.n == 1

    def test_cap_between_two_to_the_1023_and_the_largest_double(self):
        res = sample_size_sensitivity(2, 2.3e8, 1e-300, 0.5, 0.95, MethodChoice.EXACT,
                                      TWO_SIDED)
        assert res.n == 1

    def test_search_exhaustion_is_infeasible(self):
        # the floor sits just below the attainable 0.8074294794
        with pytest.raises(InfeasibleError, match="10000000"):
            sample_size_sensitivity(2, 4.0, 0.95, 0.807429479, 0.99, MethodChoice.EXACT)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(p_sp=st.floats(min_value=1e-6, max_value=0.999999), ulps=st.integers(1, 4),
       delta=st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 10.0 ** e),
       m=st.integers(2, 10), nu=st.integers(1, 10**6),
       p_conf=st.floats(min_value=0.01, max_value=0.999))
@example(p_sp=0.95, ulps=1, delta=2.0, m=2, nu=1, p_conf=0.95)
def test_floors_just_under_the_attainable_answer_or_are_infeasible(
        p_sp, ulps, delta, m, nu, p_conf):
    # a floor 1-4 ulps under the attainable sensitivity puts the band edge y
    # within rounding of z; each query answers or raises InfeasibleError
    for approximation in SensitivityApproximation:
        lb = effective_sensitivity_given_ratio(1.0, delta, p_sp, approximation)
        for _ in range(ulps):
            lb = math.nextafter(lb, 0.0)
        for method in MethodChoice:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    assert sample_size_sensitivity(m, delta, p_sp, lb, p_conf, method,
                                                   approximation).n >= 1
                except InfeasibleError:
                    pass
            try:
                conf = sensitivity_confidence(nu, delta, p_sp, lb, method, approximation)
                assert 0.0 <= conf <= 1.0
            except InfeasibleError:
                pass


def _scalar_search(m, delta, p_sp, lb, conf, method, approximation):
    # The exact n as it was found before the shared window search:
    # min_integer_satisfying over ratio_cdf at the cap u from the hint, the
    # one-sided closed form whichever the approximation.
    u, _, z = sensitivity_module._ratio_cap(EffectSize(delta), p_sp, lb, approximation)
    d = delta / math.sqrt(2.0)
    denom = -normal_quantile(lb) + d - z
    raw = (normal_quantile(conf) * z / denom) ** 2 / (2.0 * (m - 1)) if denom > 0.0 else None
    try:
        return min_integer_satisfying(lambda n: ratio_cdf(u, n * (m - 1), method) >= conf,
                                      start_hint=max(1, math.ceil(raw)) if raw else 1)
    except InfeasibleError:
        return "infeasible"


@pytest.mark.parametrize("approximation", [ONE_SIDED, TWO_SIDED], ids=lambda a: a.value)
def test_any_hint_gives_the_same_n(approximation, monkeypatch):
    # the lower-tail search from hints far from the answer, on either side
    # and at both ends of the range, clipped as the search clips them; every
    # asymptotic size is a closed form, so only the exact method searches
    method = MethodChoice.EXACT
    want = _scalar_search(2, 4.0, 0.95, 0.75, 0.95, method, approximation)
    starts = []
    for r in [1.0, 20.0, want, 1e5, 1e9, math.inf]:
        def from_hint(predicate, start_hint, r=r):
            starts.append(math.ceil(min(max(r, 1.0), MAX_SUBJECTS)))
            return min_integer_satisfying(predicate, starts[-1])

        monkeypatch.setattr(sensitivity_module, "min_integer_satisfying", from_hint)
        assert sample_size_sensitivity(2, 4.0, 0.95, 0.75, 0.95, method, approximation).n == want
    assert starts == [1, 20, want, 10**5, MAX_SUBJECTS, MAX_SUBJECTS]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_every_larger_n_holds_the_confidence():
    # P[W <= u] at u = 1.11059 is 0.704-0.715 for n = 2..6, below the
    # confidence, and holds it from n = 7 on; the bracket from the hint
    # stops at n = 1
    m, delta, p_sp, lb, conf = (2, 4.051034570996535, 0.9466947774214634,
                                0.7637315987894631, 0.7181027010583055)
    n = sample_size_sensitivity(m, delta, p_sp, lb, conf).n
    u, _, _ = sensitivity_module._ratio_cap(EffectSize(delta), p_sp, lb, ONE_SIDED)
    assert [k for k in range(n, n + 11) if ratio_cdf(u, k * (m - 1)) < conf] == []


@pytest.mark.parametrize("method,approximation", [
    (MethodChoice.EXACT, ONE_SIDED), (MethodChoice.EXACT, TWO_SIDED),
    (MethodChoice.ASYMPTOTIC, TWO_SIDED)])
def test_search_matches_scalar_search(method, approximation):
    rng = np.random.default_rng(16)
    compared = 0
    for _ in range(300):
        m = int(rng.integers(2, 6))
        p_sp, lb, conf = (float(round(rng.uniform(lo, hi), 3)) for lo, hi in
                          ((0.80, 0.995), (0.30, 0.99), (0.50, 0.999)))
        delta = float(round(rng.uniform(0.5, 8.0), 3))
        try:
            want = _scalar_search(m, delta, p_sp, lb, conf, method, approximation)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                sample_size_sensitivity(m, delta, p_sp, lb, conf, method, approximation)
            continue
        try:
            got = sample_size_sensitivity(m, delta, p_sp, lb, conf, method, approximation).n
        except InfeasibleError:
            got = "infeasible"
        assert got == want, (m, delta, p_sp, lb, conf)
        compared += 1
    assert compared > 100
