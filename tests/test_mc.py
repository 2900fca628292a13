"""Tests for the Monte Carlo oracle: reproducibility first, statistics second.

Every simulation here is deterministic given its config, so the agreement
checks are frozen decisions, not flaky assertions: tolerances are wide
multiples of the Monte Carlo standard error at the chosen seeds.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from repeatkit import cli, mc
from repeatkit.errors import DomainError
from repeatkit.mc import (
    QUANTILE_PROBES,
    EmpiricalDistribution,
    SimulationConfig,
    simulate_study,
)
from repeatkit.sensitivity import (
    SensitivityApproximation,
    effective_sensitivity_given_ratio,
    expected_effective_sensitivity,
    sample_size_sensitivity,
    sensitivity_confidence,
    sensitivity_lower_bound,
)
from repeatkit.specificity import (
    MethodChoice,
    effective_specificity_given_ratio,
    expected_effective_specificity,
    sample_size_specificity,
    specificity_confidence,
    specificity_lower_bound,
)


def ratios(cfg):
    return simulate_study(cfg).ratios


def decisions(cfg):
    study = simulate_study(cfg)
    return study.longitudinal_specificity, study.longitudinal_sensitivity


class TestSimulationConfig:
    def test_nu(self):
        assert SimulationConfig(n=54, m=2).nu == 54
        assert SimulationConfig(n=27, m=3).nu == 54

    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "m": 2},
        {"n": -3, "m": 2},
        {"n": 2.0, "m": 2},
        {"n": True, "m": 2},
        {"n": 5, "m": 1},
        {"n": 5, "m": 2, "w_sd": 0.0},
        {"n": 5, "m": 2, "w_sd": -1.0},
        {"n": 5, "m": 2, "w_sd": math.inf},
        {"n": 5, "m": 2, "delta": math.nan},
        {"n": 5, "m": 2, "replicates": 0},
        {"n": 5, "m": 2, "seed": -1},
        {"n": 5, "m": 2, "seed": 2**64},
        {"n": 5, "m": 2, "p_sp": 1.0},
        {"n": 4_000_000, "m": 2},  # one replicate's draws exceed the buffer budget
        {"n": 5, "m": 2, "replicates": 10**12},  # the samples exceed the memory budget
    ])
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(DomainError):
            SimulationConfig(**kwargs)

    def test_memory_budget_admits_ten_million_replicates(self):
        # construction only: nothing is drawn or allocated
        assert SimulationConfig(n=54, m=2, replicates=10**7).replicates == 10**7


class TestDeterminism:
    def test_same_config_bit_identical(self):
        cfg = SimulationConfig(n=7, m=3, replicates=500, seed=42)
        a = ratios(cfg)
        b = ratios(cfg)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m", [2, 5])
    def test_thread_count_does_not_change_results(self, monkeypatch, m):
        # multiple chunks so the pool actually fans out
        cfg = SimulationConfig(n=5, m=m, replicates=10_000, seed=9)
        monkeypatch.setenv("REPEATKIT_THREADS", "1")
        serial = ratios(cfg)
        monkeypatch.setenv("REPEATKIT_THREADS", "3")
        threaded = ratios(cfg)
        assert np.array_equal(serial, threaded)

    def test_replicate_stream_is_positional(self):
        # replicate r owns fixed counter blocks: a shorter run is a prefix of a longer one
        long = ratios(SimulationConfig(n=4, m=2, replicates=300, seed=5))
        short = ratios(SimulationConfig(n=4, m=2, replicates=120, seed=5))
        assert np.array_equal(long[:120], short)

    def test_seed_changes_results(self):
        a = ratios(SimulationConfig(n=4, m=2, replicates=200, seed=0))
        b = ratios(SimulationConfig(n=4, m=2, replicates=200, seed=1))
        assert not np.array_equal(a, b)

    def test_invalid_thread_env_warns_and_runs(self, monkeypatch):
        monkeypatch.setenv("REPEATKIT_THREADS", "many")
        cfg = SimulationConfig(n=4, m=2, replicates=50, seed=1)
        with pytest.warns(UserWarning, match="REPEATKIT_THREADS"):
            out = ratios(cfg)
        assert out.shape == (50,)

    def test_negative_thread_env_warns_and_uses_auto(self, monkeypatch):
        monkeypatch.setenv("REPEATKIT_THREADS", "-2")
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.warns(UserWarning, match="REPEATKIT_THREADS='-2'"):
            assert mc._thread_count() == 2

    def test_auto_threads_follow_cpu_affinity(self, monkeypatch):
        # a process pinned to fewer CPUs than the machine has gets that many workers
        monkeypatch.delenv("REPEATKIT_THREADS", raising=False)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        assert mc._thread_count() == 1
        monkeypatch.setenv("REPEATKIT_THREADS", "0")
        assert mc._thread_count() == 1

    def test_auto_threads_fall_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPEATKIT_THREADS", raising=False)
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
        assert mc._thread_count() == 3
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc._thread_count() == 1

    def test_rng_contract_is_pinned(self):
        # bit-level values of the [seed, 0] stream: any change to the RNG contract shows here
        got = ratios(SimulationConfig(n=3, m=2, replicates=3, seed=0))
        assert [float(x).hex() for x in got] == [
            "0x1.c6909222ab533p-1", "0x1.a23b238d80f53p-2", "0x1.84c64ad535e5ep+0"]
        cfg = SimulationConfig(n=10, m=2, delta=2.0, replicates=5000, seed=9)
        assert decisions(cfg) == (0.9264, 0.3248)

    @pytest.mark.parametrize("m, pinned", [
        # m < 8: subject means summed column by column, left to right
        (3, ["0x1.ef1cfefae61e2p-1", "0x1.38232b4151edap+0", "0x1.15e4dc86a378cp+0"]),
        (5, ["0x1.2f1bc3b27a137p+0", "0x1.28bbababb6e54p+0", "0x1.14af2f4d66742p+0"]),
        (7, ["0x1.34c4fa64d331ap+0", "0x1.240e488b6d2e5p+0", "0x1.e21f97318eb77p-1"]),
        # m >= 8: numpy's pairwise mean; a left-to-right sum moves these values
        (8, ["0x1.2d2932250a9ddp+0", "0x1.04b466922e862p+0", "0x1.e097506ad8460p-1"]),
        (9, ["0x1.36494258de550p+0", "0x1.0d7acc7c7cfccp+0", "0x1.9f14c14883186p-1"]),
    ])
    def test_reduction_order_is_pinned(self, m, pinned):
        # bit-level values of the centring and pooled sum at several m
        got = ratios(SimulationConfig(n=5, m=m, replicates=3, seed=0))
        assert [float(x).hex() for x in got] == pinned

    def test_replicate_regenerates_alone(self):
        # replicate r owns the counter blocks [r*B, (r+1)*B) of the [seed, 0]
        # stream, B = ceil(draws / 4); here draws = 19, so each skips one word
        for seed in (77, 2**63 + 77):
            cfg = SimulationConfig(n=5, m=3, seed=seed)
            draws = cfg.n * cfg.m + 4
            blocks = -(-draws // 4)
            bulk = mc._chunk_normals(cfg, 0, 40, draws)
            for r in (0, 1, 17, 39):
                bits = np.random.Philox(key=np.array([cfg.seed, 0], dtype=np.uint64))
                bits.advance(r * blocks)
                raw = bits.random_raw(draws)
                alone = special.ndtri(((raw >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53)
                assert np.array_equal(alone, bulk[r]), (seed, r)

    def test_top_word_maps_inside_the_open_interval(self, monkeypatch):
        # random() of the words from 2**64 - 2**11 up is 1 - 2**-53, and adding
        # 2**-54 rounds that to 1; the map holds it at 1 - 2**-53 instead
        top = (2**53 - 1) * 2.0**-53
        assert top + 2.0**-54 == 1.0

        class TopWords:
            def __init__(self, bit_generator):
                self.bit_generator = bit_generator

            def random(self, shape):
                return np.full(shape, top)

        monkeypatch.setattr(np.random, "Generator", TopWords)
        got = mc._chunk_normals(SimulationConfig(n=2, m=2), 0, 3, 8)
        assert got.shape == (3, 8)
        assert np.all(got == special.ndtri(1.0 - 2.0**-53))

    def test_seeds_above_2_63_are_distinct(self):
        # each seed keys its own stream, all 64 bits of it
        groups = [(0, 2**64 - 1), (2**63, 2**63 + 1, 9223372036854776000)]
        for seeds in groups:
            runs = {ratios(SimulationConfig(n=3, m=2, replicates=4, seed=s)).tobytes()
                    for s in seeds}
            assert len(runs) == len(seeds), seeds

    def test_chunk_holds_one_buffer(self):
        # the uniforms are drawn into the float64 buffer that becomes the normals
        cfg = SimulationConfig(n=54, m=2, seed=0)
        mc._chunk_normals(cfg, 0, 8, 110)
        tracemalloc.start()
        try:
            mc._chunk_normals(cfg, 0, 4096, 110)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 4096 * 112 * 8

    @pytest.mark.parametrize("n, m", [(54, 2), (20, 5), (10, 7)])
    def test_chunk_memory_is_bounded(self, monkeypatch, n, m):
        # one chunk's centring and reduction add little to its normals buffer;
        # from m = 8 the mean path (see simulate_study) peaks near 2.1 buffers,
        # so it is left out of this bound
        monkeypatch.setenv("REPEATKIT_THREADS", "1")
        cfg = SimulationConfig(n=n, m=m, replicates=4096, seed=0)
        simulate_study(SimulationConfig(n=n, m=m, replicates=8, seed=0))
        tracemalloc.start()
        try:
            simulate_study(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = -(-(n * m + 4) // 4)
        assert peak < 1.6 * 4096 * 4 * blocks * 8

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_chunk_size_does_not_change_results(self, monkeypatch, m):
        cfg = SimulationConfig(n=6, m=m, delta=1.5, replicates=5000, seed=4)
        monkeypatch.setattr(mc, "_CHUNK_REPLICATES", 4096)
        wide = simulate_study(cfg)
        monkeypatch.setattr(mc, "_CHUNK_REPLICATES", 37)
        narrow = simulate_study(cfg)
        assert np.array_equal(wide.ratios, narrow.ratios)
        assert (wide.longitudinal_specificity, wide.longitudinal_sensitivity) == \
            (narrow.longitudinal_specificity, narrow.longitudinal_sensitivity)

    def test_simulate_draws_each_stream_once(self, monkeypatch, capsys):
        drawn = []
        chunk_normals = mc._chunk_normals

        def counting(cfg, start, count, draws):
            out = chunk_normals(cfg, start, count, draws)
            drawn.append(out.shape[0])
            return out

        monkeypatch.setattr(mc, "_chunk_normals", counting)
        argv = ["simulate", "--n", "4", "--replicates", "300", "--delta", "2",
                "--longitudinal", "--format", "json"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert sum(drawn) == 300

    @pytest.mark.parametrize("replicates", [1, 4096, 4097])
    def test_chunk_boundaries(self, replicates):
        cfg = SimulationConfig(n=2, m=2, replicates=replicates, seed=3)
        out = ratios(cfg)
        assert out.shape == (replicates,)
        assert np.all(np.isfinite(out))


class TestRatioDistribution:
    def test_scale_equivariance(self):
        base = SimulationConfig(n=6, m=2, w_sd=1.0, replicates=2000, seed=11)
        scaled = SimulationConfig(n=6, m=2, w_sd=7.0, replicates=2000, seed=11)
        np.testing.assert_allclose(ratios(base),
                                   ratios(scaled),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("w_sd", [7.0, 1e-300, 1e300])
    def test_decisions_are_scale_free(self, w_sd):
        # delta is in units of w_sd, so neither decision depends on the scale
        base = SimulationConfig(n=6, m=2, delta=2.0, replicates=2000, seed=11)
        scaled = SimulationConfig(n=6, m=2, w_sd=w_sd, delta=2.0, replicates=2000, seed=11)
        assert decisions(scaled) == decisions(base)

    def test_scaled_square_matches_chi_square(self):
        cfg = SimulationConfig(n=12, m=2, replicates=20_000, seed=7)
        nu = cfg.nu
        t = nu * ratios(cfg) ** 2
        # mean nu, variance 2 nu
        se = math.sqrt(2.0 * nu / cfg.replicates)
        assert abs(float(np.mean(t)) - nu) < 4.0 * se
        ks = stats.kstest(t, "chi2", args=(nu,))
        assert ks.pvalue > 1e-3

    def test_ratios_concentrate_for_large_nu(self):
        cfg = SimulationConfig(n=500, m=2, replicates=2000, seed=2)
        r = ratios(cfg)
        assert abs(float(np.mean(r)) - 1.0) < 0.01
        assert float(np.std(r)) == pytest.approx(
            1.0 / math.sqrt(2.0 * cfg.nu), rel=0.15)


class TestEmpiricalDistribution:
    def test_summary_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=5000)
        d = EmpiricalDistribution.from_samples(x)
        assert d.mean == pytest.approx(float(np.mean(x)), abs=0)
        assert d.sd == pytest.approx(float(np.std(x, ddof=1)), abs=0)
        assert d.mc_standard_error_of_mean == pytest.approx(
            d.sd / math.sqrt(5000), abs=0)
        assert [q for q, _ in d.quantiles] == list(QUANTILE_PROBES)
        for q, val in d.quantiles:
            assert val == float(np.quantile(x, q))

    def test_samples_are_read_only(self):
        d = EmpiricalDistribution.from_samples(np.arange(10.0))
        with pytest.raises(ValueError):
            d.samples[0] = 99.0

    def test_quantile_method(self):
        d = EmpiricalDistribution.from_samples(np.arange(101.0))
        assert d.quantile(0.5) == 50.0
        with pytest.raises(DomainError):
            d.quantile(1.0)

    def test_quantile_standard_error_vs_theory(self):
        # for N(0,1) the q-quantile SE is sqrt(q(1-q)/R) / pdf(quantile)
        rng = np.random.default_rng(123)
        d = EmpiricalDistribution.from_samples(rng.normal(size=200_000))
        q = 0.05
        want = math.sqrt(q * (1 - q) / 200_000) / stats.norm.pdf(stats.norm.ppf(q))
        assert d.quantile_standard_error(q) == pytest.approx(want, rel=0.2)

    def test_rejects_bad_samples(self):
        with pytest.raises(DomainError):
            EmpiricalDistribution.from_samples(np.empty(0))
        with pytest.raises(DomainError):
            EmpiricalDistribution.from_samples(np.ones((3, 3)))


class TestSpecificityAgreement:
    def test_mean_and_floor_match_analytics(self):
        cfg = SimulationConfig(n=54, m=2, replicates=20_000, seed=1)
        dist = EmpiricalDistribution.from_samples(
            effective_specificity_given_ratio(ratios(cfg), cfg.p_sp))
        want_mean = expected_effective_specificity(cfg.nu, cfg.p_sp,
                                                   MethodChoice.EXACT)
        assert abs(dist.mean - want_mean) < 4.0 * dist.mc_standard_error_of_mean

        # the p_conf floor is the lower (1 - p_conf) quantile of the
        # effective specificity because the map is increasing in the ratio
        want_floor = specificity_lower_bound(cfg.nu, cfg.p_sp, 0.95,
                                             MethodChoice.EXACT)
        se_q = dist.quantile_standard_error(0.05)
        assert abs(dist.quantile(0.05) - want_floor) < 4.0 * se_q

    def test_small_design_skew(self):
        # tiny nu: long left tail, mean clearly below the target coverage
        cfg = SimulationConfig(n=4, m=2, replicates=20_000, seed=4)
        dist = EmpiricalDistribution.from_samples(
            effective_specificity_given_ratio(ratios(cfg), cfg.p_sp))
        want = expected_effective_specificity(cfg.nu, 0.95, MethodChoice.EXACT)
        assert abs(dist.mean - want) < 4.0 * dist.mc_standard_error_of_mean
        assert dist.mean < 0.95


class TestSensitivityAgreement:
    def test_mean_and_floor_match_analytics(self):
        cfg = SimulationConfig(n=139, m=2, delta=4.0, replicates=20_000, seed=1)
        dist = EmpiricalDistribution.from_samples(effective_sensitivity_given_ratio(
            ratios(cfg), cfg.delta, cfg.p_sp, SensitivityApproximation.FULL_TWO_SIDED))
        want_mean = expected_effective_sensitivity(cfg.nu, cfg.delta, cfg.p_sp,
                                                   MethodChoice.EXACT)
        assert abs(dist.mean - want_mean) < 4.0 * dist.mc_standard_error_of_mean

        # sensitivity decreases in the ratio, so the floor is still the
        # lower (1 - p_conf) quantile of the simulated characteristic
        want_floor = sensitivity_lower_bound(
            cfg.nu, cfg.delta, cfg.p_sp, 0.95, MethodChoice.EXACT,
            SensitivityApproximation.FULL_TWO_SIDED)
        se_q = dist.quantile_standard_error(0.05)
        assert abs(dist.quantile(0.05) - want_floor) < 4.0 * se_q


class TestLongitudinalDecisions:
    def test_matches_expected_operating_characteristics(self):
        cfg = SimulationConfig(n=54, m=2, delta=4.0, replicates=40_000, seed=6)
        spec, sens = decisions(cfg)
        want_spec = expected_effective_specificity(cfg.nu, cfg.p_sp,
                                                   MethodChoice.EXACT)
        want_sens = expected_effective_sensitivity(cfg.nu, cfg.delta, cfg.p_sp,
                                                   MethodChoice.EXACT)
        se_spec = math.sqrt(want_spec * (1 - want_spec) / cfg.replicates)
        se_sens = math.sqrt(want_sens * (1 - want_sens) / cfg.replicates)
        assert abs(spec - want_spec) < 4.0 * se_spec
        assert abs(sens - want_sens) < 4.0 * se_sens

    def test_zero_effect_decision_rates_complement(self):
        cfg = SimulationConfig(n=30, m=2, delta=0.0, replicates=40_000, seed=8)
        spec, sens = decisions(cfg)
        want_spec = expected_effective_specificity(cfg.nu, cfg.p_sp,
                                                   MethodChoice.EXACT)
        se = math.sqrt(want_spec * (1 - want_spec) / cfg.replicates)
        assert abs(spec - want_spec) < 4.0 * se
        # unchanged and "changed by zero" pairs share the acceptance rate
        assert abs((1.0 - sens) - want_spec) < 4.0 * se

    def test_deterministic(self, monkeypatch):
        cfg = SimulationConfig(n=10, m=2, delta=2.0, replicates=5000, seed=9)
        monkeypatch.setenv("REPEATKIT_THREADS", "1")
        first = decisions(cfg)
        monkeypatch.setenv("REPEATKIT_THREADS", "4")
        second = decisions(cfg)
        assert first == second


ONE_SIDED = SensitivityApproximation.ONE_SIDED_EXCEEDANCE
TWO_SIDED = SensitivityApproximation.FULL_TWO_SIDED
# (m, p_sp, p_esp_lb, p_conf) of samplesize-spec, and (m, delta, p_sp,
# p_ese_lb, p_conf, approximation) of samplesize-sens; every exact n is at
# most 300
_SPECIFICITY_DESIGNS = [(2, 0.95, 0.90, 0.95), (3, 0.95, 0.90, 0.95), (2, 0.99, 0.97, 0.90),
                        (4, 0.90, 0.80, 0.80), (2, 0.95, 0.92, 0.90)]
_SENSITIVITY_DESIGNS = [(2, 4.0, 0.95, 0.75, 0.95, ONE_SIDED),
                        (2, 4.0, 0.95, 0.75, 0.95, TWO_SIDED),
                        (3, 4.0, 0.95, 0.75, 0.95, ONE_SIDED),
                        (2, 2.0, 0.80, 0.50, 0.90, ONE_SIDED),
                        (2, 2.0, 0.80, 0.50, 0.90, TWO_SIDED),
                        (2, 1.5, 0.70, 0.45, 0.85, TWO_SIDED)]
_SAMPLE_SIZE_REPLICATES = 20_000


class TestSampleSizesAgainstMonteCarlo:
    """The exact n of each design, and n - 1, simulated: the independent oracle of the search.

    At each simulated n the empirical confidence is the fraction of studies
    whose effective specificity or sensitivity reaches the floor.  It must
    lie within 3 Monte Carlo standard errors of the analytic confidence, and
    at n not more than 3 below ``p_conf``; the analytic confidence at n - 1
    must miss ``p_conf``.  The coverage at the asymptotic n is printed, not
    checked.  Seeds, replicate count and bands were fixed before the first run.
    """

    @staticmethod
    def _check(design, n, n_asymptotic, m, conf, analytic, reaches):
        # seed 1000 k + design for the exact n (k = 0), n - 1 (k = 1) and the
        # asymptotic n (k = 2)
        empirical = {}
        for k, size in enumerate((n, n - 1, n_asymptotic)):
            if size not in empirical:
                cfg = SimulationConfig(n=size, m=m, replicates=_SAMPLE_SIZE_REPLICATES,
                                       seed=1000 * k + design)
                empirical[size] = float(np.mean(reaches(ratios(cfg))))
        for size in (n, n - 1):
            want = analytic(size * (m - 1))
            se = math.sqrt(want * (1.0 - want) / _SAMPLE_SIZE_REPLICATES)
            assert abs(empirical[size] - want) <= 3.0 * se, (design, size, empirical[size], want)
            if size == n:
                assert empirical[n] >= conf - 3.0 * se, (design, empirical[n], conf)
            else:
                assert want < conf, (design, size, want)
        print(f"design {design}: exact n {n}, asymptotic n {n_asymptotic}, coverage there "
              f"{empirical[n_asymptotic]:.4f} (analytic {analytic(n_asymptotic * (m - 1)):.4f}, "
              f"p_conf {conf})")

    @pytest.mark.parametrize("design", range(len(_SPECIFICITY_DESIGNS)))
    def test_specificity(self, design):
        m, p_sp, lb, conf = _SPECIFICITY_DESIGNS[design]
        self._check(design, sample_size_specificity(m, p_sp, lb, conf).n,
                    sample_size_specificity(m, p_sp, lb, conf, MethodChoice.ASYMPTOTIC).n,
                    m, conf, lambda nu: specificity_confidence(nu, p_sp, lb),
                    lambda w: effective_specificity_given_ratio(w, p_sp) >= lb)

    @pytest.mark.parametrize("design", range(len(_SENSITIVITY_DESIGNS)))
    def test_sensitivity(self, design):
        m, delta, p_sp, lb, conf, approximation = _SENSITIVITY_DESIGNS[design]
        n = sample_size_sensitivity(m, delta, p_sp, lb, conf, MethodChoice.EXACT, approximation).n
        n_asymptotic = sample_size_sensitivity(m, delta, p_sp, lb, conf,
                                               MethodChoice.ASYMPTOTIC, ONE_SIDED).n
        self._check(len(_SPECIFICITY_DESIGNS) + design, n, n_asymptotic, m, conf,
                    lambda nu: sensitivity_confidence(nu, delta, p_sp, lb,
                                                      MethodChoice.EXACT, approximation),
                    lambda w: effective_sensitivity_given_ratio(w, delta, p_sp,
                                                                approximation) >= lb)
