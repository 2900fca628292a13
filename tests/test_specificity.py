"""Tests for the effective-specificity distribution and planning functions.

Frozen reference numbers were produced by independent oracles (mpmath at
50 digits for normal-CDF algebra, scipy.integrate.quad with scipy.stats
densities for the expectations) and cross-checked before being pinned here.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate as sci_integrate, stats

from repeatkit import core
from repeatkit.cli import TABLE_CONF_VALUES, TABLE_LB_VALUES, TABLE_M_VALUES, TABLE_PSP_VALUES
from repeatkit.core import ratio_cdf, symmetric_coverage_quantile
from repeatkit.errors import DomainError, InfeasibleError
from repeatkit.numerics import MAX_SUBJECTS, min_integer_satisfying, normal_quantile
from repeatkit.specificity import (
    MethodChoice,
    SampleSizeResult,
    effective_specificity_given_ratio,
    effective_specificity_pdf,
    expected_effective_specificity,
    sample_size_specificity,
    sample_size_specificity_grid,
    specificity_confidence,
    specificity_lower_bound,
    specificity_shortfall,
)

Z_95 = 1.9599639845400536

# (p_sp, p_esp_lb, p_conf) of a cell whose confidence is within 1e-13 of 1,
# where 1 - P[W < w] rounds: it gave n = 4718 at m = 2, and mpmath's least n
# is 4720 (TestSampleSizeSpecificity.test_confidence_within_1e13_of_one)
NEAR_ONE = (0.9999999999998764, 0.9999999999914251, 0.9999999999999957)


class TestEffectiveSpecificityGivenRatio:
    def test_at_unit_ratio_recovers_target(self):
        for p_sp in (0.80, 0.90, 0.95, 0.99):
            assert effective_specificity_given_ratio(1.0, p_sp) == pytest.approx(
                p_sp, abs=1e-14)

    def test_mpmath_reference_at_0p8(self):
        # mpmath 50 dps: Phi(0.8 z) - Phi(-0.8 z) = 0.88311214337750983...
        assert effective_specificity_given_ratio(0.8, 0.95) == pytest.approx(
            0.8831121433775098, abs=2e-16)

    def test_monotone_in_ratio(self):
        vals = [effective_specificity_given_ratio(w, 0.95)
                for w in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals)

    def test_array_input(self):
        w = np.array([0.5, 1.0, 1.5])
        got = effective_specificity_given_ratio(w, 0.95)
        assert got.shape == (3,)
        assert got[1] == pytest.approx(0.95, abs=1e-14)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(DomainError):
            effective_specificity_given_ratio(0.0, 0.95)
        with pytest.raises(DomainError):
            effective_specificity_given_ratio(-1.0, 0.95)
        with pytest.raises(DomainError, match="^ratio w must be finite and > 0 elementwise$"):
            effective_specificity_given_ratio(np.array([1.0, 0.0]), 0.95)

    @pytest.mark.parametrize("w", [1e308, np.array([1e308])])
    def test_overflowing_band_edge_is_certain(self, w):
        # z w overflows to inf, where the normal CDF is 1; no warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(effective_specificity_given_ratio(w, 0.9999999) == 1.0)

    @given(st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.5, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_bounded_between_zero_and_one(self, w, p_sp):
        # saturates to 1.0 in float once z*w passes ~8.3
        val = effective_specificity_given_ratio(w, p_sp)
        assert 0.0 < val <= 1.0


class TestEffectiveSpecificityPdf:
    @pytest.mark.parametrize("nu", [10, 30, 60])
    def test_normalizes(self, nu):
        mass, _ = sci_integrate.quad(lambda p: effective_specificity_pdf(p, nu, 0.95),
                                     1e-9, 1.0 - 1e-9, epsabs=1e-9, epsrel=1e-9,
                                     limit=400)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_matches_cdf_derivative(self):
        # P[P_esp <= p] = 1 - confidence at bound p; central difference
        nu, p_sp, p = 35, 0.95, 0.92
        h = 1e-6

        def cdf(x):
            return 1.0 - specificity_confidence(nu, p_sp, x, MethodChoice.EXACT)

        deriv = (cdf(p + h) - cdf(p - h)) / (2 * h)
        assert effective_specificity_pdf(p, nu, p_sp) == pytest.approx(
            deriv, rel=1e-6)

    def test_deep_tail_stays_finite(self):
        val = effective_specificity_pdf(1e-12, 10**6, 0.95)
        assert val == 0.0 or math.isfinite(val)

    def test_nu_one_where_square_underflows(self):
        # the preimage w is ~6e-301; the density of W there is sqrt(2/pi)
        with mp.workdps(50):
            z = mp.sqrt(2) * mp.erfinv(mp.mpf("0.95"))
            y = mp.sqrt(2) * mp.erfinv(mp.mpf(1e-300))
            want = (mp.sqrt(2 / mp.pi) * mp.exp(-(y / z) ** 2 / 2)
                    / (2 * z * mp.npdf(y)))
        assert effective_specificity_pdf(1e-300, 1, 0.95) == pytest.approx(
            float(want), rel=1e-14)

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            effective_specificity_pdf(0.0, 10, 0.95)
        with pytest.raises(DomainError):
            effective_specificity_pdf(1.0, 10, 0.95)


class TestExpectedEffectiveSpecificity:
    @pytest.mark.parametrize("nu,want", [
        (7, 0.9091754851540121),
        (12, 0.9263629461593816),
        (54, 0.9448310120021997),
        (164, 0.9483053165421136),
        (10**6, 0.9499997227055419),
    ])
    def test_exact_frozen_values(self, nu, want):
        got = expected_effective_specificity(nu, 0.95, MethodChoice.EXACT)
        assert got == pytest.approx(want, abs=2e-12)

    def test_exact_against_scipy_quad(self):
        for nu in (5, 35, 139):
            def f(t):
                w = math.sqrt(t / nu)
                return ((stats.norm.cdf(Z_95 * w) - stats.norm.cdf(-Z_95 * w))
                        * stats.chi2.pdf(t, nu))
            want, _ = sci_integrate.quad(f, 0, stats.chi2.ppf(1 - 1e-15, nu),
                                         limit=400)
            got = expected_effective_specificity(nu, 0.95, MethodChoice.EXACT)
            assert got == pytest.approx(want, abs=5e-10)

    def test_asymptotic_against_scipy_quad(self):
        for nu in (8, 30, 200):
            def f(w):
                kernel = math.sqrt(nu / math.pi) * math.exp(-nu * (w - 1.0) ** 2)
                return (2.0 * stats.norm.cdf(Z_95 * w) - 1.0) * kernel
            half = 10.0 / math.sqrt(2.0 * nu)
            want, _ = sci_integrate.quad(f, 1.0 - half, 1.0 + half, limit=400)
            got = expected_effective_specificity(nu, 0.95, MethodChoice.ASYMPTOTIC)
            assert got == pytest.approx(want, abs=5e-10)

    def test_below_target_for_finite_nu(self):
        for nu in (1, 5, 54, 10**4):
            assert expected_effective_specificity(nu, 0.95, MethodChoice.EXACT) < 0.95

    def test_increases_with_nu(self):
        vals = [expected_effective_specificity(nu, 0.95, MethodChoice.EXACT)
                for nu in (5, 20, 80, 320)]
        assert vals == sorted(vals)

    def test_method_coercion_from_string(self):
        a = expected_effective_specificity(54, 0.95, "exact")
        b = expected_effective_specificity(54, 0.95, MethodChoice.EXACT)
        assert a == b

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            expected_effective_specificity(54, 0.95, "bogus")


class TestSpecificityConfidence:
    def test_frozen_values(self):
        assert specificity_confidence(35, 0.95, 0.94, MethodChoice.EXACT) == pytest.approx(
            0.6025577594458758, abs=1e-14)
        assert specificity_confidence(53, 0.95, 0.90, MethodChoice.EXACT) == pytest.approx(
            0.9493357634687956, abs=1e-13)
        assert specificity_confidence(54, 0.95, 0.90, MethodChoice.EXACT) == pytest.approx(
            0.9510455635383812, abs=1e-13)

    def test_exact_against_scipy(self):
        z_lb = stats.norm.ppf(1 - (1 - 0.92) / 2)
        ratio = z_lb / Z_95
        for nu in (10, 54, 300):
            want = stats.chi2.sf(nu * ratio * ratio, nu)
            assert specificity_confidence(nu, 0.95, 0.92, MethodChoice.EXACT) == pytest.approx(
                want, rel=1e-12)

    def test_asymptotic_half_at_target_bound(self):
        # bound equal to the target makes the centered normal tail exactly 1/2
        for nu in (5, 54, 1000):
            assert specificity_confidence(nu, 0.95, 0.95, MethodChoice.ASYMPTOTIC) == 0.5

    def test_decreasing_in_bound(self):
        confs = []
        for lb in (0.80, 0.90, 0.94, 0.9499):
            confs.append(specificity_confidence(35, 0.95, lb, MethodChoice.EXACT))
        assert confs == sorted(confs, reverse=True)

    def test_validation(self):
        with pytest.raises(DomainError):
            specificity_confidence(10, p_sp=1.5, p_esp_lb=0.9)
        with pytest.raises(DomainError):
            specificity_confidence(0, p_sp=0.95, p_esp_lb=0.9)


class TestSpecificityLowerBound:
    @pytest.mark.parametrize("nu,want", [
        (10, 0.7814169799638462),
        (20, 0.8511646853393269),
        (139, 0.9224837730302529),
    ])
    def test_exact_frozen_values(self, nu, want):
        got = specificity_lower_bound(nu, 0.95, 0.95, MethodChoice.EXACT)
        assert got == pytest.approx(want, abs=1e-13)

    def test_asymptotic_frozen_value(self):
        got = specificity_lower_bound(139, 0.95, 0.95, MethodChoice.ASYMPTOTIC)
        assert got == pytest.approx(0.9227064480564993, abs=1e-13)

    def test_exact_against_scipy(self):
        for nu in (10, 139):
            wq = math.sqrt(stats.chi2.ppf(0.05, nu) / nu)
            want = stats.norm.cdf(Z_95 * wq) - stats.norm.cdf(-Z_95 * wq)
            got = specificity_lower_bound(nu, 0.95, 0.95, MethodChoice.EXACT)
            assert got == pytest.approx(want, abs=1e-14)

    def test_roundtrip_through_confidence(self):
        for nu in (3, 35, 139, 5000):
            for conf in (0.6, 0.9, 0.95, 0.99):
                lb = specificity_lower_bound(nu, 0.95, conf, MethodChoice.EXACT)
                back = specificity_confidence(nu, 0.95, lb, MethodChoice.EXACT)
                assert back == pytest.approx(conf, abs=1e-9)

    def test_exact_close_to_asymptotic_for_large_nu(self):
        for nu in (50, 200, 2000):
            e = specificity_lower_bound(nu, 0.95, 0.95, MethodChoice.EXACT)
            a = specificity_lower_bound(nu, 0.95, 0.95, MethodChoice.ASYMPTOTIC)
            assert abs(e - a) < 0.005

    def test_asymptotic_small_nu_high_conf_rejected(self):
        # the normal quantile of W goes nonpositive: only the exact form works
        with pytest.raises(DomainError, match="exact"):
            specificity_lower_bound(2, 0.95, 0.999, MethodChoice.ASYMPTOTIC)

    @given(st.integers(min_value=1, max_value=100000),
           st.floats(min_value=0.55, max_value=0.995),
           st.floats(min_value=0.05, max_value=0.99))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_property(self, nu, p_sp, conf):
        lb = specificity_lower_bound(nu, p_sp, conf, MethodChoice.EXACT)
        assert specificity_confidence(nu, p_sp, lb, MethodChoice.EXACT) == pytest.approx(
            conf, abs=1e-9)


class TestSampleSizeSpecificity:
    def test_reference_design(self):
        exact = sample_size_specificity(2, 0.95, 0.90, 0.95, MethodChoice.EXACT)
        asym = sample_size_specificity(2, 0.95, 0.90, 0.95, MethodChoice.ASYMPTOTIC)
        assert exact.n == 54
        assert asym.n == 53
        assert asym.raw == pytest.approx(52.33537530065245, abs=1e-9)

    @pytest.mark.parametrize("m,p_sp,lb,conf,want", [
        (3, 0.95, 0.925, 0.95, 82),
        (2, 0.95, 0.99, 0.975, None),   # infeasible: floor above target
        (2, 0.975, 0.95, 0.99, 170),
        (2, 0.99, 0.95, 0.975, 34),
        (3, 0.95, 0.80, 0.95, 6),
        (5, 0.975, 0.95, 0.80, 7),
        (2, 0.95, 0.925, 0.99, 320),
    ])
    def test_grid_cells(self, m, p_sp, lb, conf, want):
        if want is None:
            with pytest.raises(InfeasibleError):
                sample_size_specificity(m, p_sp, lb, conf, MethodChoice.EXACT)
        else:
            got = sample_size_specificity(m, p_sp, lb, conf, MethodChoice.EXACT)
            assert got.n == want

    def test_exact_n_is_minimal(self):
        res = sample_size_specificity(2, 0.95, 0.90, 0.95, MethodChoice.EXACT)

        def conf_at(n):
            return specificity_confidence(n, 0.95, 0.90, MethodChoice.EXACT)

        assert conf_at(res.n) >= 0.95
        assert conf_at(res.n - 1) < 0.95

    def test_confidence_within_1e13_of_one(self):
        p_sp, lb, conf = NEAR_ONE
        w = symmetric_coverage_quantile(lb) / symmetric_coverage_quantile(p_sp)
        with mp.workdps(50):
            def confidence(nu):
                # P[W >= w], the upper regularized gamma at (nu/2, nu w^2 / 2)
                a = mp.mpf(nu) / 2
                return mp.gammainc(a, a * mp.mpf(w) ** 2, mp.inf, regularized=True)
            assert confidence(4719) < conf <= confidence(4720)
        assert sample_size_specificity(2, p_sp, lb, conf).n == 4720

    def test_infeasible_names_values(self):
        with pytest.raises(InfeasibleError, match="0.96"):
            sample_size_specificity(2, 0.95, 0.96, 0.95, MethodChoice.EXACT)

    def test_search_exhaustion_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="10000000"):
            sample_size_specificity(2, 0.95, 0.9499999, 0.99, MethodChoice.EXACT)

    def test_low_confidence_warns(self):
        with pytest.warns(UserWarning, match="p_conf"):
            sample_size_specificity(2, 0.95, 0.90, 0.3, MethodChoice.EXACT)

    def test_result_type(self):
        res = sample_size_specificity(2, 0.95, 0.90, 0.95, MethodChoice.ASYMPTOTIC)
        assert isinstance(res, SampleSizeResult)
        assert res.n == math.ceil(res.raw)

    @given(st.integers(min_value=2, max_value=5),
           st.sampled_from([0.90, 0.95, 0.975]),
           st.sampled_from([0.70, 0.80, 0.85]),
           st.sampled_from([0.80, 0.90, 0.95]))
    @settings(max_examples=60, deadline=None)
    def test_minimality_property(self, m, p_sp, lb, conf):
        res = sample_size_specificity(m, p_sp, lb, conf, MethodChoice.EXACT)

        def conf_at(n):
            return specificity_confidence(n * (m - 1), p_sp, lb, MethodChoice.EXACT)

        assert conf_at(res.n) >= conf
        if res.n > 1:
            assert conf_at(res.n - 1) < conf

    @pytest.mark.parametrize("m", [10**307, 10**308, int(1.7976931348623157e308)])
    def test_replicates_past_1e307_need_one_subject(self, m):
        # nu = m - 1 lies where W is 1 to within any double
        assert sample_size_specificity(m, 0.99, 0.90, 0.95).n == 1
        assert sample_size_specificity_grid([2, m], [0.99], [0.90], [0.95])[:, 0, 0, 0].tolist() \
            == [sample_size_specificity(2, 0.99, 0.90, 0.95).n, 1]

    def test_equal_nu_designs_agree(self):
        # (m=2, n) and (m=3, n') with the same pooled dof share one threshold
        n2 = sample_size_specificity(2, 0.95, 0.90, 0.95, MethodChoice.EXACT).n
        n3 = sample_size_specificity(3, 0.95, 0.90, 0.95, MethodChoice.EXACT).n
        assert n2 == 54 and n3 == 27
        assert n2 * 1 == n3 * 2



def _scalar_search(m, p_sp, lb, conf):
    # The exact n cell by cell, as it was found before the window search:
    # min_integer_satisfying over ratio_cdf from the asymptotic hint.  None
    # for a blank cell, "infeasible" past MAX_SUBJECTS.
    if lb >= p_sp:
        return None
    z = symmetric_coverage_quantile(p_sp)
    z_lb = symmetric_coverage_quantile(lb)
    raw = (-normal_quantile(conf) * z / (z_lb - z)) ** 2 / (2.0 * (m - 1))
    ratio = z_lb / z
    try:
        return min_integer_satisfying(
            lambda n: ratio_cdf(ratio, n * (m - 1)) <= 1.0 - conf,
            start_hint=max(1, math.ceil(raw)))
    except InfeasibleError:
        return "infeasible"


def _assert_grid_matches_scalar_search(ms, psps, lbs, confs):
    # the grid and the one-design function against the scalar search, cell by cell
    sizes = sample_size_specificity_grid(ms, psps, lbs, confs)
    assert sizes.shape == (len(ms), len(confs), len(lbs), len(psps))
    got, one, want = [], [], []
    for i, m in enumerate(ms):
        for j, conf in enumerate(confs):
            for k, lb in enumerate(lbs):
                for h, psp in enumerate(psps):
                    got.append(int(sizes[i, j, k, h]) or None)
                    one.append(sample_size_specificity(m, psp, lb, conf).n if lb < psp else None)
                    want.append(_scalar_search(m, psp, lb, conf))
    assert got == want
    assert one == want


def _plan_shaped_grid(seed):
    # the shape of a planning grid: 6 confidences, floors and targets each,
    # 3 decimals, the floors reaching past the largest target
    rng = np.random.default_rng(seed)

    def draw(lo, hi):
        return sorted(set(np.round(rng.uniform(lo, hi, 6), 3).tolist()))

    return (2, 3, 4, 5), draw(0.90, 0.995), draw(0.70, 0.999), draw(0.80, 0.99)


def _published_ratios(test):
    # each ratio z_lb / z of the published tables, one step below its nu_min
    # at confidence 0.95, where the solve turns
    for psp in TABLE_PSP_VALUES:
        for lb in (v for v in TABLE_LB_VALUES if v < psp):
            nu = sample_size_specificity(2, psp, lb, 0.95).n
            test = example(symmetric_coverage_quantile(lb) / symmetric_coverage_quantile(psp),
                           max(nu - 1, 1))(test)
    return test


@_published_ratios
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       st.integers(min_value=1, max_value=10**4 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_confidence_is_non_decreasing_in_nu(w, nu):
    # P[W >= w] for w < 1 never falls as nu grows, so the least nu with enough
    # confidence gives every m its n; compared as the falling P[W < w] at
    # 50 digits, whose relative error there is far below the 1e-40 allowed
    with mp.workdps(50):
        def below(k):
            return mp.gammainc(mp.mpf(k) / 2, 0, mp.mpf(k) * mp.mpf(w) ** 2 / 2,
                               regularized=True)
        assert below(nu + 1) <= below(nu) * (1 + mp.mpf(10) ** -40)


class TestSampleSizeGrid:
    """The one-pass grid search against the cell-by-cell search it replaced."""

    def test_published_grid_matches_scalar_search(self):
        _assert_grid_matches_scalar_search(TABLE_M_VALUES, TABLE_PSP_VALUES,
                                           TABLE_LB_VALUES, TABLE_CONF_VALUES)

    @pytest.mark.parametrize("seed", range(20))
    def test_plan_shaped_grid_matches_scalar_search(self, seed):
        _assert_grid_matches_scalar_search(*_plan_shaped_grid(seed))

    def test_confidence_within_1e13_of_one(self):
        # the window and its fallback test P[W < w] <= 1 - p_conf, as one design does
        p_sp, lb, conf = NEAR_ONE
        assert sample_size_specificity_grid([2, 3], [p_sp], [lb], [conf])[:, 0, 0, 0].tolist() \
            == [4720, 2360]
        z, z_lb = symmetric_coverage_quantile(p_sp), symmetric_coverage_quantile(lb)
        raw = np.array([1.0, 4719.0, 1e9])
        assert core._min_subjects(np.full(3, z_lb / z), np.full(3, conf), raw,
                                  MAX_SUBJECTS).tolist() == [4720] * 3

    def test_unsettled_window_falls_back_to_the_search(self, monkeypatch):
        # the asymptotic hint of nu is 240 and the exact nu 247, past the window
        hints = []

        def counting(predicate, start_hint, limit):
            hints.append(start_hint)
            return min_integer_satisfying(predicate, start_hint, limit)

        monkeypatch.setattr(core, "min_integer_satisfying", counting)
        sizes = sample_size_specificity_grid([2, 3], [0.95, 0.914], [0.894], [0.9])
        assert hints == [240]
        assert sizes[:, 0, 0].tolist() == [[_scalar_search(2, 0.95, 0.894, 0.9), 247],
                                           [_scalar_search(3, 0.95, 0.894, 0.9),
                                            _scalar_search(3, 0.914, 0.894, 0.9)]]

    def test_any_hint_gives_the_same_n(self):
        # windows far from the answer, on either side and at both ends of the
        # range, all fall back and find it
        z, z_lb = symmetric_coverage_quantile(0.95), symmetric_coverage_quantile(0.90)
        raw = np.array([1.0, 20.0, 54.0, 1e5, 1e9, math.inf])
        n = core._min_subjects(np.full(6, z_lb / z), np.full(6, 0.95), raw, MAX_SUBJECTS)
        assert n.tolist() == [54] * 6

    @pytest.mark.parametrize("ms", [[5, 3], [5, 2**70], [4, 10**12]])
    def test_nu_past_max_subjects(self, ms):
        # nu_min is about 1.4e7, past MAX_SUBJECTS: m = 2 cannot reach it and
        # m = 3 can; past int64's range, the grid's nu are Python ints
        want = [_scalar_search(m, 0.95, 0.9499, 0.99) for m in ms]
        assert sample_size_specificity_grid(ms, [0.95], [0.9499], [0.99])[:, 0, 0, 0].tolist() \
            == want
        assert [sample_size_specificity(m, 0.95, 0.9499, 0.99).n for m in ms] == want

    def test_infeasible_at_max_subjects(self):
        assert _scalar_search(2, 0.95, 0.9499999, 0.99) == "infeasible"
        with pytest.raises(InfeasibleError, match="^no sample size up to 10000000 reaches "
                                                  "confidence 0.99 for floor 0.9499999 at "
                                                  "target 0.95$"):
            sample_size_specificity(2, 0.95, 0.9499999, 0.99)
        # the grid names its first such cell in (m, p_conf, p_esp_lb, p_sp) order,
        # after feasible and blank cells, as the scalar function would
        assert _scalar_search(5, 0.95, 0.9499999, 0.9) == "infeasible"
        with pytest.raises(InfeasibleError) as scalar:
            sample_size_specificity(5, 0.95, 0.9499999, 0.9)
        with pytest.raises(InfeasibleError) as grid:
            sample_size_specificity_grid([5, 2], [0.9, 0.95], [0.8, 0.9499999], [0.9, 0.99])
        assert str(grid.value) == str(scalar.value)

    def test_shared_coverage_quantile_is_infeasible(self):
        # adjacent doubles whose coverage quantiles round to one double
        p_sp = 0.6369616873214544
        lb = math.nextafter(p_sp, 0.0)
        assert symmetric_coverage_quantile(lb) == symmetric_coverage_quantile(p_sp)
        with pytest.raises(InfeasibleError, match="coverage quantile is not below"):
            sample_size_specificity_grid([2], [p_sp], [lb], [0.95])
        for method in MethodChoice:
            with pytest.raises(InfeasibleError, match="coverage quantile is not below"):
                sample_size_specificity(2, p_sp, lb, 0.95, method)

    def test_separated_adjacent_doubles_need_more_than_max_subjects(self):
        # the coverage quantiles of 0.5 and the double below it differ in the
        # last bit, so the floor is separated but out of reach
        lb = math.nextafter(0.5, 0.0)
        assert symmetric_coverage_quantile(lb) < symmetric_coverage_quantile(0.5)
        with pytest.raises(InfeasibleError, match="no sample size up to 10000000"):
            sample_size_specificity_grid([2], [0.5], [lb], [0.95])
        with pytest.raises(InfeasibleError, match="no sample size up to 10000000"):
            sample_size_specificity(2, 0.5, lb, 0.95, MethodChoice.EXACT)

    def test_every_value_is_checked_once_even_in_blank_grids(self):
        # 1.5 blanks every cell, and is still rejected
        with pytest.raises(DomainError, match=r"^p_esp_lb must lie strictly inside "
                                              r"\(0, 1\), got 1\.5$"):
            sample_size_specificity_grid([2], [0.9], [1.5], [0.95])
        with pytest.raises(DomainError, match=r"^p_conf must lie strictly inside"):
            sample_size_specificity_grid([2], [0.9], [0.99], [1.5])
        with pytest.raises(DomainError, match=r"^replicates per subject m must be an "
                                              r"integer >= 2, got 1$"):
            sample_size_specificity_grid([2, 1], [0.9], [0.99], [0.95])
        with pytest.raises(DomainError, match=r"^p_sp must be a real number"):
            sample_size_specificity_grid([2], ["x"], [0.8], [0.95])

    def test_blank_and_empty_grids(self):
        assert sample_size_specificity_grid([2, 3], [0.9], [0.9, 0.95], [0.95]).tolist() \
            == [[[[0], [0]]], [[[0], [0]]]]
        assert sample_size_specificity_grid([], [0.9], [0.8], [0.95]).shape == (0, 1, 1, 1)

    def test_low_confidence_warns_once_per_value_in_order(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sample_size_specificity_grid([2, 3], [0.95], [0.9], [0.4, 0.95, 0.3])
        assert [str(w.message).split(" ")[0] for w in caught] == ["p_conf=0.4", "p_conf=0.3"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sample_size_specificity_grid([2], [0.95], [0.99], [0.4])  # all blank
        assert caught == []


class TestSpecificityShortfall:
    @pytest.mark.parametrize("nu", [200, 400])
    def test_small_shortfalls_keep_their_digits(self, nu):
        # P[W < z_lb / z] at 50 digits; 1 - specificity_confidence loses it
        z = mp.sqrt(2) * mp.erfinv(mp.mpf(0.95))
        ratio = mp.sqrt(2) * mp.erfinv(mp.mpf(0.80)) / z
        want = mp.gammainc(mp.mpf(nu) / 2, 0, nu * ratio * ratio / 2, regularized=True)
        got = specificity_shortfall(nu, 0.95, 0.80)
        # the ratio's rounding alone moves the answer by about 1e-13 here
        assert got == pytest.approx(float(want), rel=1e-12)
        assert specificity_confidence(nu, 0.95, 0.80) == 1.0 - got

    def test_asymptotic_is_the_normal_cdf(self):
        z = mp.sqrt(2) * mp.erfinv(mp.mpf(0.95))
        ratio = mp.sqrt(2) * mp.erfinv(mp.mpf(0.80)) / z
        want = mp.ncdf((ratio - 1) * mp.sqrt(800))
        got = specificity_shortfall(400, 0.95, 0.80, MethodChoice.ASYMPTOTIC)
        assert got == pytest.approx(float(want), rel=1e-12)
