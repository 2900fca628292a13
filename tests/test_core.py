"""Tests for the test-retest data model and within-subject SD estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from repeatkit.core import (
    LongitudinalPair,
    MethodChoice,
    RepeatabilityCoefficient,
    WsdEstimate,
    decide_change,
    design_degrees_of_freedom,
    estimate_wsd,
    ratio_cdf,
    ratio_density_exact,
    ratio_quantile,
    repeatability_coefficient,
    symmetric_coverage_quantile,
)
from repeatkit.core import TestRetestData as RetestData
from repeatkit.core import _ratio_log_density
from repeatkit.errors import DataValidationError, DomainError

Z_95 = 1.9599639845400536


def make_data(*subjects):
    return RetestData(tuple(
        (f"s{i}", tuple(vals)) for i, vals in enumerate(subjects)))


class TestSymmetricCoverageQuantile:
    def test_reference_value(self):
        assert symmetric_coverage_quantile(0.95) == pytest.approx(Z_95, abs=1e-14)

    def test_half_coverage(self):
        # central 50% of a standard normal spans +-0.674489...
        assert symmetric_coverage_quantile(0.5) == pytest.approx(
            0.6744897501960817, abs=1e-13)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 2.0])
    def test_rejects_boundary(self, p):
        with pytest.raises(DomainError):
            symmetric_coverage_quantile(p)

    @pytest.mark.parametrize("p", [1e-17, 1e-200, 5e-324])
    def test_tiny_coverage_stays_positive(self, p):
        # z = sqrt(2) erfinv(p) ~ p sqrt(pi/2), where 1 - (1 - p)/2 would round to 0.5
        z = symmetric_coverage_quantile(p)
        assert z > 0.0
        assert z == pytest.approx(math.sqrt(2.0) * special.erfinv(p), rel=1e-15)

    def test_coverage_next_to_one_stays_finite(self):
        # where 1 - (1 - p)/2 would round to 1
        p = 0.9999999999999999
        assert symmetric_coverage_quantile(p) == pytest.approx(
            stats.norm.isf((1.0 - p) / 2.0), rel=1e-14)

    @given(st.floats(min_value=0.01, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, p):
        assert symmetric_coverage_quantile(p + 0.0009) > symmetric_coverage_quantile(p)


class TestDesignDegreesOfFreedom:
    def test_values(self):
        assert design_degrees_of_freedom(54, 2) == 54
        assert design_degrees_of_freedom(27, 3) == 54
        assert design_degrees_of_freedom(1, 5) == 4

    @pytest.mark.parametrize("n,m", [(0, 2), (5, 1), (-3, 2), (5, 0)])
    def test_rejects_degenerate(self, n, m):
        with pytest.raises(DomainError):
            design_degrees_of_freedom(n, m)

    @pytest.mark.parametrize("n,m", [(2.0, 2), (5, 2.5), (True, 2), (5, True)])
    def test_rejects_non_integer(self, n, m):
        with pytest.raises(DomainError):
            design_degrees_of_freedom(n, m)


class TestTestRetestData:
    def test_duplicate_subject_ids(self):
        with pytest.raises(DataValidationError):
            RetestData((("a", (1.0, 2.0)), ("a", (3.0, 4.0))))

    def test_single_replicate_names_subject(self):
        with pytest.raises(DataValidationError, match="lonely"):
            RetestData((("ok", (1.0, 2.0)), ("lonely", (5.0,))))

    def test_non_finite_rejected(self):
        with pytest.raises(DataValidationError):
            make_data((1.0, math.nan))
        with pytest.raises(DataValidationError):
            make_data((1.0, math.inf))

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            RetestData(())

    @pytest.mark.parametrize("entry", [("lonely",), 5, ("a", (1.0, 2.0), "extra")])
    def test_malformed_entry_rejected(self, entry):
        with pytest.raises(DataValidationError,
                           match=r"^each subject entry must be a \(subject_id, measurements\) pair$"):
            RetestData((("ok", (1.0, 2.0)), entry))


class TestEstimateWsd:
    def test_three_subject_fixture(self):
        # pairs (0,2), (5,5), (10,14): pooled SS/2 = (2 + 0 + 8), nu = 3
        data = make_data((0.0, 2.0), (5.0, 5.0), (10.0, 14.0))
        with pytest.warns(UserWarning):
            est = estimate_wsd(data)
        assert est.nu == 3
        assert est.wsd_hat == pytest.approx(math.sqrt(10.0 / 3.0), rel=1e-15)

    def test_plain_list_of_pairs(self):
        pairs = [("a", [0.0, 2.0]), ("b", [5.0, 5.0]), ("c", [10.0, 14.0])]
        with pytest.warns(UserWarning):
            est = estimate_wsd(pairs)
        with pytest.warns(UserWarning):
            assert est == estimate_wsd(RetestData(tuple(pairs)))
        assert est.nu == 3

    def test_unequal_replicate_counts_pool(self):
        # subject A: 3 reps (0, 3, 6), centered SS = 18, 2 dof
        # subject B: 2 reps (1, 3), centered SS = 2, 1 dof
        data = make_data((0.0, 3.0, 6.0), (1.0, 3.0))
        with pytest.warns(UserWarning):
            est = estimate_wsd(data)
        assert est.nu == 3
        assert est.wsd_hat == pytest.approx(math.sqrt(20.0 / 3.0), rel=1e-14)

    def test_fixed_bias_per_subject_cancels(self):
        base = make_data((0.0, 2.0), (5.0, 5.0), (10.0, 14.0))
        shifted = make_data((100.0, 102.0), (5.0, 5.0), (-90.0, -86.0))
        with pytest.warns(UserWarning):
            a = estimate_wsd(base)
        with pytest.warns(UserWarning):
            b = estimate_wsd(shifted)
        assert b.wsd_hat == pytest.approx(a.wsd_hat, rel=1e-14)

    def test_zero_spread_warns(self):
        import warnings
        data = make_data((5.0, 5.0), (7.0, 7.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = estimate_wsd(data)
        messages = [str(w.message) for w in caught]
        assert any("zero" in msg for msg in messages)
        assert any("degrees of freedom" in msg for msg in messages)
        assert est.wsd_hat == 0.0

    def test_large_nu_no_warning(self):
        import warnings
        data = make_data(*[(float(i), float(i) + 1.0) for i in range(12)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_wsd(data)
        assert est.nu == 12

    @given(st.lists(st.tuples(st.integers(2, 5), st.floats(-1e3, 1e3), st.floats(0.1, 10.0)),
                    min_size=1, max_size=40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_fsum_reference(self, designs, seed):
        # unbalanced designs: 2-5 replicates, subject offsets and spreads vary
        rng = np.random.default_rng(seed)
        subjects = [tuple((offset + spread * rng.standard_normal(count)).tolist())
                    for count, offset, spread in designs]
        pooled_ss = 0.0
        for values in subjects:
            mean = math.fsum(values) / len(values)
            pooled_ss += math.fsum((v - mean) ** 2 for v in values)
        nu = sum(len(values) - 1 for values in subjects)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_wsd(make_data(*subjects))
        assert est.nu == nu
        assert est.wsd_hat == pytest.approx(math.sqrt(pooled_ss / nu), rel=1e-13)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, c):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = estimate_wsd(make_data((0.0, 2.0), (5.0, 8.0), (1.0, 1.5)))
            b = estimate_wsd(make_data((0.0, 2.0 * c), (5.0 * c, 8.0 * c),
                                       (1.0 * c, 1.5 * c)))
        assert b.wsd_hat == pytest.approx(c * a.wsd_hat, rel=1e-12)


class TestRepeatabilityCoefficient:
    def test_unit_wsd_reference(self):
        rc = repeatability_coefficient(1.0, 0.95)
        assert rc.value == pytest.approx(2.771807648699355, abs=1e-14)
        assert rc.target_specificity == 0.95
        assert not rc.estimated

    def test_scales_linearly_in_wsd(self):
        assert repeatability_coefficient(3.0, 0.95).value == pytest.approx(
            3.0 * repeatability_coefficient(1.0, 0.95).value, rel=1e-15)

    def test_estimate_method_matches_function(self):
        est = WsdEstimate(wsd_hat=2.0, nu=10)
        rc = est.repeatability_coefficient(0.95)
        assert rc.value == pytest.approx(2.0 * 2.771807648699355, rel=1e-14)
        assert rc.estimated

    def test_rejects_negative_wsd(self):
        with pytest.raises(DomainError):
            repeatability_coefficient(-1.0, 0.95)

    def test_zero_wsd_gives_zero(self):
        assert repeatability_coefficient(0.0, 0.95).value == 0.0

    def test_overflow_of_an_estimate_is_a_data_error(self):
        # a known wSD is an argument; an estimated one is a property of the data
        with pytest.raises(DomainError):
            repeatability_coefficient(1e308, 0.95)
        with pytest.raises(DataValidationError, match="largest double"):
            WsdEstimate(wsd_hat=1e308, nu=10).repeatability_coefficient(0.95)


class TestDecideChange:
    def test_strictly_outside_flags_change(self):
        rc = RepeatabilityCoefficient(value=2.0, target_specificity=0.95)
        assert decide_change(LongitudinalPair(0.0, 2.5), rc)
        assert decide_change(LongitudinalPair(2.5, 0.0), rc)

    def test_boundary_is_no_change(self):
        # the no-change region is closed: |difference| == RC stays negative
        rc = RepeatabilityCoefficient(value=2.0, target_specificity=0.95)
        assert not decide_change(LongitudinalPair(0.0, 2.0), rc)
        assert not decide_change(LongitudinalPair(0.0, -2.0), rc)
        assert not decide_change(LongitudinalPair(1.0, 1.0), rc)

    def test_rejects_non_finite(self):
        rc = RepeatabilityCoefficient(value=2.0, target_specificity=0.95)
        with pytest.raises(DataValidationError):
            decide_change(LongitudinalPair(0.0, math.nan), rc)


class TestRatioDensities:
    @pytest.mark.parametrize("nu", [1, 2, 5, 35, 139])
    def test_exact_density_normalizes(self, nu):
        # support leaving 1e-14 of chi-square mass in each tail
        lo = ratio_quantile(1e-14, nu)
        hi = ratio_quantile(1.0 - 1e-14, nu)
        mass, _ = integrate.quad(lambda w: ratio_density_exact(w, nu), lo, hi)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_exact_density_mean_near_one(self):
        nu = 139
        lo = ratio_quantile(1e-14, nu)
        hi = ratio_quantile(1.0 - 1e-14, nu)
        mean, _ = integrate.quad(lambda w: w * ratio_density_exact(w, nu), lo, hi)
        # E[W] = sqrt(2/nu) Gamma((nu+1)/2) / Gamma(nu/2), slightly below 1
        assert 0.99 < mean < 1.0

    def test_exact_density_against_chi_square(self):
        for nu in (1, 2, 4, 15, 139):
            for x in (0.2, 1.0, nu * 0.8, nu * 1.0, nu * 2.0):
                w = math.sqrt(x / nu)
                want = stats.chi2.pdf(nu * w * w, nu) * 2.0 * w * nu
                assert ratio_density_exact(w, nu) == pytest.approx(want, rel=1e-12)

    def test_log_density_against_chi_square(self):
        for nu in (2, 10, 139, 10**6):
            for frac in (0.5, 1.0, 1.8):
                w = math.sqrt(frac)
                want = stats.chi2.logpdf(nu * w * w, nu) + math.log(2.0 * w * nu)
                assert _ratio_log_density(w, nu) == pytest.approx(want, rel=1e-11, abs=1e-9)

    def test_log_density_deep_tail_stays_finite(self):
        # far tails underflow the density but the log form must survive
        w = math.sqrt(5.0 / 10**6)
        assert ratio_density_exact(w, 10**6) == 0.0
        val = _ratio_log_density(w, 10**6)
        assert math.isfinite(val) and val < -1e5

    def test_exact_density_where_square_underflows(self):
        # nu w^2 rounds to 0: the density of W tends to sqrt(2/pi) at nu = 1,
        # is 2 w at nu = 2 and underflows to 0 above
        w = 1e-200
        assert ratio_density_exact(w, 1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
        assert ratio_density_exact(w, 2) == pytest.approx(0.5 * 2.0 * w * 2)
        assert ratio_density_exact(w, 3) == 0.0

    @pytest.mark.parametrize("w", [1e200, 1e300])
    def test_exact_density_vanishes_where_square_overflows(self, w):
        assert ratio_density_exact(w, 5) == 0.0
        assert _ratio_log_density(w, 5) == -math.inf

    def test_exact_density_lost_to_rounding_is_a_domain_error(self):
        # the true density at w = 1 is about sqrt(nu / pi); the log form's
        # terms of order 1e152 cancel to noise that overflows
        with pytest.raises(DomainError) as e:
            ratio_density_exact(1.0, 2 * 10**150)
        assert str(e.value) == f"the density of W at nu={2 * 10**150} is lost to rounding"

    def test_exact_density_rejects_nonpositive_w(self):
        with pytest.raises(DomainError):
            ratio_density_exact(0.0, 10)
        with pytest.raises(DomainError):
            ratio_density_exact(-0.5, 10)
        with pytest.raises(DomainError):
            ratio_density_exact(1.0, 0)

    def test_log_density_rejects_zero(self):
        with pytest.raises(DomainError):
            _ratio_log_density(0.0, 5)


NUS = [1, 2, 10, 139, 10**6]
PROBES = [0.01, 0.5, 0.99]


class TestRatioLaw:
    @pytest.mark.parametrize("nu", NUS)
    def test_exact_matches_chi_square(self, nu):
        for q in PROBES:
            w = math.sqrt(stats.chi2.ppf(q, nu) / nu)
            assert ratio_cdf(w, nu, MethodChoice.EXACT) == pytest.approx(
                stats.chi2.cdf(nu * w * w, nu), rel=1e-12)
            assert ratio_quantile(q, nu, MethodChoice.EXACT) == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("nu", NUS)
    def test_asymptotic_matches_normal(self, nu):
        scale = 1.0 / math.sqrt(2.0 * nu)
        for q in PROBES:
            w = stats.norm.ppf(q, loc=1.0, scale=scale)
            if w <= 0.0:
                with pytest.raises(DomainError, match="use the exact method"):
                    ratio_quantile(q, nu, MethodChoice.ASYMPTOTIC)
                continue
            assert ratio_cdf(w, nu, MethodChoice.ASYMPTOTIC) == pytest.approx(
                stats.norm.cdf(w, loc=1.0, scale=scale), rel=1e-12)
            assert ratio_quantile(q, nu, MethodChoice.ASYMPTOTIC) == pytest.approx(
                w, rel=1e-12)

    @pytest.mark.parametrize("method", list(MethodChoice))
    @pytest.mark.parametrize("nu", NUS)
    def test_cdf_and_quantile_invert_each_other(self, nu, method):
        for q in PROBES:
            try:
                w = ratio_quantile(q, nu, method)
            except DomainError:
                continue  # asymptotic quantile below 0 at small nu
            assert ratio_cdf(w, nu, method) == pytest.approx(q, rel=1e-9)
        for k in (-1.0, 0.0, 1.5):
            w = 1.0 + k / math.sqrt(2.0 * nu)
            assert ratio_quantile(ratio_cdf(w, nu, method), nu, method) == \
                pytest.approx(w, rel=1e-9)

    def test_cdf_against_chi_square_grid(self):
        for nu in (1, 2, 3, 5, 10, 35, 139, 1000, 250000):
            for frac in (0.1, 0.5, 0.9, 1.0, 1.5, 3.0):
                w = math.sqrt(frac)
                want = stats.chi2.cdf(nu * w * w, nu)
                assert ratio_cdf(w, nu) == pytest.approx(want, rel=1e-12, abs=1e-280)

    def test_cdf_nu_2_closed_form(self):
        # nu * W**2 is exponential at nu = 2, a direct analytic cross-check
        for x in (0.01, 0.5, 1.0, 2.0, 5.0, 20.0, 80.0):
            assert ratio_cdf(math.sqrt(x / 2.0), 2) == pytest.approx(
                -math.expm1(-x / 2), rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=500.0),
           st.integers(min_value=1, max_value=300))
    @settings(max_examples=150, deadline=None)
    def test_cdf_matches_chi_square_property(self, x, nu):
        # extreme lower tails (masses below 1e-100) agree to ~1e-10 relative
        w = math.sqrt(x / nu)
        assert ratio_cdf(w, nu) == pytest.approx(
            stats.chi2.cdf(nu * w * w, nu), rel=2e-10, abs=1e-280)

    def test_cdf_vanishes_where_square_underflows(self):
        assert ratio_cdf(1e-200, 5) == 0.0

    def test_overflowing_square_is_certain(self):
        assert ratio_cdf(1e300, 5, MethodChoice.EXACT) == 1.0

    @pytest.mark.parametrize("method", ["exact", "asymptotic"])
    def test_overflowing_normal_argument_is_certain(self, method):
        # (w - 1) sqrt(2 nu) overflows to inf, where the normal CDF is 1
        assert ratio_cdf(1e308, 10**7, method) == 1.0

    @pytest.mark.parametrize("nu", [10**305, 10**306, 10**307, 10**308])
    def test_cdf_is_certain_at_huge_nu(self, nu):
        # W is 1 to within any double; scipy's gammainc is NaN here from nu of
        # about 1e306 on, and already right at 1e305
        assert ratio_cdf(0.5, nu) == 0.0
        assert ratio_cdf(2.0, nu) == 1.0
        assert ratio_cdf(1.0, nu) == 0.5

    def test_quantile_against_chi_square(self):
        for nu in (1, 2, 5, 35, 139, 10**6):
            for q in (1e-10, 0.01, 0.05, 0.5, 0.95, 0.99):
                w = ratio_quantile(q, nu)
                assert nu * w * w == pytest.approx(stats.chi2.ppf(q, nu), rel=1e-10)

    def test_quantile_extreme_upper_tail_self_consistent(self):
        # past q ~ 1 - 1e-10 the quantile is resolution-limited by ulp(1) in
        # cdf space; the defining equation still has to hold exactly
        for nu in (1, 35, 139):
            w = ratio_quantile(1 - 1e-10, nu)
            assert ratio_cdf(w, nu) == pytest.approx(1 - 1e-10, rel=1e-12)
            assert nu * w * w == pytest.approx(stats.chi2.ppf(1 - 1e-10, nu), rel=1e-6)

    def test_exact_quantile_roundtrip(self):
        for nu in (3, 54, 139):
            for q in (0.001, 0.05, 0.5, 0.95, 0.999):
                assert ratio_cdf(ratio_quantile(q, nu), nu) == pytest.approx(
                    q, rel=1e-11, abs=1e-12)

    @given(st.floats(min_value=1e-8, max_value=1 - 1e-8),
           st.integers(min_value=1, max_value=10000))
    @settings(max_examples=150, deadline=None)
    def test_quantile_inverse_property(self, q, nu):
        w = ratio_quantile(q, nu)
        assert ratio_cdf(w, nu) == pytest.approx(q, rel=1e-9, abs=1e-11)

    def test_quantile_tiny_probability(self):
        assert ratio_quantile(1e-300, 7) > 0.0

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_quantile_rejects_boundary(self, q):
        for method in MethodChoice:
            with pytest.raises(DomainError, match=r"^q must lie strictly inside"):
                ratio_quantile(q, 7, method)

    def test_accepts_method_names(self):
        assert ratio_cdf(1.1, 10, "asymptotic") == ratio_cdf(
            1.1, 10, MethodChoice.ASYMPTOTIC)

    @pytest.mark.parametrize("w", [0.0, -1.0, math.nan, math.inf])
    def test_cdf_rejects_bad_ratio(self, w):
        with pytest.raises(DomainError):
            ratio_cdf(w, 10)

    def test_rejects_bad_method_and_nu(self):
        with pytest.raises(DomainError):
            ratio_cdf(1.0, 10, "bogus")
        with pytest.raises(DomainError):
            ratio_quantile(0.5, 0)

    def test_cdf_rejects_fractional_nu(self):
        # degrees of freedom come from designs, so only integers are accepted
        with pytest.raises(DomainError):
            ratio_cdf(1.0, 2.5)

    def test_cdf_rejects_negative(self):
        with pytest.raises(DomainError):
            ratio_cdf(-1.0, 5)
        with pytest.raises(DomainError):
            ratio_cdf(1.0, 0)
