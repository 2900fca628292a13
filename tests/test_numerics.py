"""Numerical kernel tests against mpmath and scipy oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repeatkit.errors import DomainError
from repeatkit.numerics import (
    chisq_cdf,
    chisq_log_pdf,
    chisq_pdf,
    chisq_quantile,
    min_integer_satisfying,
    normal_cdf,
    normal_quantile,
)

mp.mp.dps = 50


def mp_normal_cdf(x):
    return 0.5 * mp.erfc(-mp.mpf(x) / mp.sqrt(2))


class TestNormalCdf:
    def test_against_mpmath_grid(self):
        for x in np.linspace(-8, 8, 81):
            want = float(mp_normal_cdf(x))
            assert normal_cdf(float(x)) == pytest.approx(want, rel=1e-14)

    def test_against_mpmath_deep_tail(self):
        # platform erfc keeps only ~1e-13 relative accuracy this far out
        for x in (-37.0, -20.0, -12.0, 12.0, 20.0, 37.0):
            want = float(mp_normal_cdf(x))
            assert normal_cdf(x) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_array_input(self):
        x = np.array([[-1.0, 0.0], [1.0, 2.5]])
        got = normal_cdf(x)
        assert got.shape == x.shape
        for xi, gi in zip(x.ravel(), got.ravel()):
            assert gi == pytest.approx(float(mp_normal_cdf(xi)), rel=1e-14)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_extreme_tails(self):
        assert normal_cdf(-40.0) == 0.0 or normal_cdf(-40.0) < 1e-300
        assert normal_cdf(40.0) == 1.0

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            normal_cdf(float("nan"))


class TestNormalQuantile:
    def test_against_mpmath(self):
        for p in (1e-12, 1e-6, 0.01, 0.1, 0.5, 0.9, 0.975, 0.999, 1 - 1e-9):
            want = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))
            assert normal_quantile(p) == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_roundtrip_tight(self):
        # quantile(cdf(x)) recovers x to 1e-12; past |x| ~ 4 the roundtrip is
        # conditioning-limited (one ulp of p maps to ~ulp/pdf(x) in x)
        for x in np.linspace(-4, 4, 81):
            assert normal_quantile(normal_cdf(float(x))) == pytest.approx(
                float(x), abs=1e-12)
        for x in np.linspace(-6, 6, 25):
            tol = max(1e-12, 2e-16 / stats.norm.pdf(float(x)))
            assert normal_quantile(normal_cdf(float(x))) == pytest.approx(
                float(x), abs=tol)

    def test_half(self):
        assert normal_quantile(0.5) == 0.0

    def test_array_input(self):
        p = np.array([0.025, 0.5, 0.975])
        got = normal_quantile(p)
        assert got[0] == pytest.approx(-got[2], abs=1e-14)
        assert got[1] == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_boundary(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)

    @given(st.floats(min_value=1e-10, max_value=1 - 1e-10))
    @settings(max_examples=200, deadline=None)
    def test_inverse_property(self, p):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-11, abs=1e-13)


class TestChisqCdf:
    def test_against_scipy_grid(self):
        for nu in (1, 2, 3, 5, 10, 35, 139, 1000, 250000):
            for frac in (0.1, 0.5, 0.9, 1.0, 1.5, 3.0):
                x = nu * frac
                want = stats.chi2.cdf(x, nu)
                assert chisq_cdf(x, nu) == pytest.approx(want, rel=1e-12, abs=1e-280)

    def test_nu_2_closed_form(self):
        # exponential special case, a direct analytic cross-check
        for x in (0.01, 0.5, 1.0, 2.0, 5.0, 20.0, 80.0):
            assert chisq_cdf(x, 2) == pytest.approx(-math.expm1(-x / 2), rel=1e-12)

    def test_at_zero(self):
        assert chisq_cdf(0.0, 5) == 0.0

    def test_rejects_fractional_nu(self):
        # degrees of freedom come from designs, so only integers are accepted
        with pytest.raises(DomainError):
            chisq_cdf(1.3, 2.5)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            chisq_cdf(-1.0, 5)
        with pytest.raises(DomainError):
            chisq_cdf(1.0, 0)

    @given(st.floats(min_value=0.01, max_value=500.0),
           st.integers(min_value=1, max_value=300))
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_property(self, x, nu):
        # extreme lower tails (masses below 1e-100) agree to ~1e-10 relative
        assert chisq_cdf(x, nu) == pytest.approx(
            stats.chi2.cdf(x, nu), rel=2e-10, abs=1e-280)


class TestChisqPdf:
    def test_against_scipy(self):
        for nu in (1, 2, 4, 15, 139):
            for x in (0.2, 1.0, nu * 0.8, nu * 1.0, nu * 2.0):
                assert chisq_pdf(x, nu) == pytest.approx(
                    stats.chi2.pdf(x, nu), rel=1e-12)

    def test_log_pdf_against_scipy(self):
        for nu in (2, 10, 139, 10**6):
            for frac in (0.5, 1.0, 1.8):
                x = nu * frac
                assert chisq_log_pdf(x, nu) == pytest.approx(
                    stats.chi2.logpdf(x, nu), rel=1e-11, abs=1e-9)

    def test_log_pdf_deep_tail_stays_finite(self):
        # far tails underflow chisq_pdf but the log form must survive
        val = chisq_log_pdf(5.0, 10**6)
        assert math.isfinite(val) and val < -1e5

    def test_at_zero_edge(self):
        assert chisq_pdf(0.0, 1) == math.inf
        assert chisq_pdf(0.0, 2) == pytest.approx(0.5)
        assert chisq_pdf(0.0, 3) == 0.0

    def test_log_pdf_rejects_zero(self):
        with pytest.raises(DomainError):
            chisq_log_pdf(0.0, 5)


class TestChisqQuantile:
    def test_against_scipy(self):
        for nu in (1, 2, 5, 35, 139, 10**6):
            for p in (1e-10, 0.01, 0.05, 0.5, 0.95, 0.99):
                want = stats.chi2.ppf(p, nu)
                assert chisq_quantile(p, nu) == pytest.approx(want, rel=1e-10)

    def test_extreme_upper_tail_self_consistent(self):
        # past p ~ 1 - 1e-10 the quantile is resolution-limited by ulp(1) in
        # cdf space; the defining equation still has to hold exactly
        for nu in (1, 35, 139):
            x = chisq_quantile(1 - 1e-10, nu)
            assert chisq_cdf(x, nu) == pytest.approx(1 - 1e-10, rel=1e-12)
            assert x == pytest.approx(stats.chi2.ppf(1 - 1e-10, nu), rel=1e-6)

    def test_roundtrip(self):
        for nu in (3, 54, 139):
            for p in (0.001, 0.05, 0.5, 0.95, 0.999):
                assert chisq_cdf(chisq_quantile(p, nu), nu) == pytest.approx(
                    p, rel=1e-11, abs=1e-12)

    def test_tiny_probability(self):
        assert chisq_quantile(1e-300, 7) > 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_rejects_boundary(self, p):
        with pytest.raises(DomainError):
            chisq_quantile(p, 7)

    @given(st.floats(min_value=1e-8, max_value=1 - 1e-8),
           st.integers(min_value=1, max_value=10000))
    @settings(max_examples=150, deadline=None)
    def test_monotone_inverse_property(self, p, nu):
        x = chisq_quantile(p, nu)
        assert chisq_cdf(x, nu) == pytest.approx(p, rel=1e-9, abs=1e-11)


class TestMinIntegerSatisfying:
    def test_simple_threshold(self):
        assert min_integer_satisfying(lambda n: n * n >= 50) == 8

    def test_already_true_at_floor(self):
        assert min_integer_satisfying(lambda n: n >= 1) == 1

    def test_hint_does_not_change_answer(self):
        for hint in (1, 5, 54, 2000):
            assert min_integer_satisfying(lambda n: n >= 54, start_hint=hint) == 54

    def test_unreachable_raises(self):
        from repeatkit.errors import InfeasibleError
        with pytest.raises(InfeasibleError):
            min_integer_satisfying(lambda n: False)

    def test_rejects_bad_hint(self):
        with pytest.raises(DomainError):
            min_integer_satisfying(lambda n: True, start_hint=0)

    @given(st.integers(min_value=1, max_value=100000),
           st.integers(min_value=1, max_value=200000))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_search_property(self, threshold, hint):
        got = min_integer_satisfying(lambda n: n >= threshold, start_hint=hint)
        assert got == threshold
