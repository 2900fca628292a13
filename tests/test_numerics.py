"""Numerical kernel tests against mpmath and scipy oracles.

The chi-square law of W is tested in ``test_core.py``.
"""

import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repeatkit.errors import DomainError
from repeatkit.numerics import (
    check_integer,
    check_probability,
    check_real,
    min_integer_satisfying,
    normal_cdf,
    normal_quantile,
)

mp.mp.dps = 50


def mp_normal_cdf(x):
    return 0.5 * mp.erfc(-mp.mpf(x) / mp.sqrt(2))


class TestArgumentChecks:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integer_accepts_numpy_integers(self, value):
        got = check_integer(value, "nu")
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [0, 53.0, True, np.bool_(True), "3", None,
                                       pytest.param(-10**5000, id="too-long-to-print")])
    def test_integer_rejects(self, value):
        with pytest.raises(DomainError, match=r"^nu must be an integer >= 1, got "):
            check_integer(value, "nu")

    def test_integer_is_held_by_a_float(self):
        # the last integer that rounds to the largest double passes; the next rounds to 2**1024
        largest = int(sys.float_info.max)
        assert check_integer(largest + 2**970 - 1, "nu") == largest + 2**970 - 1
        assert check_integer(2**64 - 1, "seed", 0) == 2**64 - 1
        for big in (largest + 2**970, 10**400, 10**5000):
            with pytest.raises(DomainError, match=r"^nu must be an integer no larger than "
                                                  r"the largest double, got one of \d+ bits$"):
                check_integer(big, "nu")

    def test_real_bounds_and_wording(self):
        assert check_real(0.0, "wsd", 0.0) == 0.0
        assert type(check_real(np.int64(2), "delta")) is float
        with pytest.raises(DomainError, match=r"^w_sd must be finite and > 0, got 0\.0$"):
            check_real(0.0, "w_sd", 0.0, strict=True)
        with pytest.raises(DomainError, match=r"^wsd must be finite and >= 0, got -1\.0$"):
            check_real(-1.0, "wsd", 0.0)
        with pytest.raises(DomainError, match=r"^delta must be finite, got inf$"):
            check_real(float("inf"), "delta")
        for bad in (True, "x", None):
            with pytest.raises(DomainError, match=r"^delta must be a real number, got "):
                check_real(bad, "delta")


    def test_probability_is_a_real_in_range(self):
        assert check_probability(np.float64(0.25), "p") == 0.25
        with pytest.raises(DomainError, match=r"^p must lie strictly inside \(0, 1\), "
                                              r"got 1\.5$"):
            check_probability(1.5, "p")
        with pytest.raises(DomainError, match=r"^p must lie strictly inside \(0, 1\), "
                                              r"got 0\.0$"):
            check_probability(0, "p")
        with pytest.raises(DomainError, match=r"^p must be finite, got nan$"):
            check_probability(float("nan"), "p")
        for bad in (True, "x", None):
            with pytest.raises(DomainError, match=r"^p must be a real number, got "):
                check_probability(bad, "p")


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

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_extreme_tails(self):
        assert normal_cdf(-40.0) == 0.0 or normal_cdf(-40.0) < 1e-300
        assert normal_cdf(40.0) == 1.0

    def test_infinite_limits(self):
        assert (normal_cdf(-np.inf), normal_cdf(np.inf)) == (0.0, 1.0)

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
        from repeatkit.numerics import MAX_SUBJECTS
        with pytest.raises(InfeasibleError):
            min_integer_satisfying(lambda n: False)
        seen = []
        with pytest.raises(InfeasibleError):
            min_integer_satisfying(lambda n: seen.append(n) or False, start_hint=MAX_SUBJECTS)
        assert seen == [MAX_SUBJECTS]

    def test_rejects_bad_hint(self):
        with pytest.raises(DomainError):
            min_integer_satisfying(lambda n: True, start_hint=0)

    @given(st.integers(min_value=1, max_value=100000),
           st.integers(min_value=1, max_value=200000))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_search_property(self, threshold, hint):
        seen = []
        got = min_integer_satisfying(lambda n: seen.append(n) or n >= threshold,
                                     start_hint=hint)
        assert got == threshold
        assert len(seen) == len(set(seen))  # no n is evaluated twice
