"""Acceptance criteria for the package, one test per criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` line through the
``acceptance_report`` fixture; the full set is replayed in the terminal
summary.  Anchors are published reference values rounded to the printed
precision, so tolerances reflect that rounding, not engine accuracy (the
module test suites pin the engines far tighter).
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
from scipy import integrate

from repeatkit.cli import main
from repeatkit.core import ratio_cdf, ratio_density_exact, ratio_quantile
from repeatkit.mc import EmpiricalDistribution, SimulationConfig, simulate_study
from repeatkit.numerics import normal_cdf, normal_quantile
from repeatkit.sensitivity import (
    SensitivityApproximation,
    effective_sensitivity_given_ratio,
    expected_effective_sensitivity,
    sample_size_sensitivity,
    sensitivity,
)
from repeatkit.specificity import (
    MethodChoice,
    effective_specificity_given_ratio,
    expected_effective_specificity,
    sample_size_specificity,
    specificity_confidence,
    specificity_lower_bound,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"

# Published sample-size grids, transcribed cell by cell:
# m -> (p_conf, floor) -> populated cells in target-specificity order
# (0.800, 0.900, 0.925, 0.950, 0.975, 0.990), infeasible cells omitted.
GRID_REFERENCE = {
    2: {
        (0.800, 0.700): [13, 4, 4, 3, 2, 2], (0.800, 0.800): [10, 7, 5, 3, 3],
        (0.800, 0.900): [68, 17, 7, 4], (0.800, 0.925): [48, 11, 6],
        (0.800, 0.950): [27, 9], (0.800, 0.975): [25],
        (0.900, 0.700): [25, 7, 6, 5, 4, 3], (0.900, 0.800): [19, 12, 8, 6, 4],
        (0.900, 0.900): [147, 34, 13, 8], (0.900, 0.925): [102, 22, 10],
        (0.900, 0.950): [55, 16], (0.900, 0.975): [52],
        (0.925, 0.700): [30, 9, 7, 6, 4, 4], (0.925, 0.800): [23, 15, 10, 7, 5],
        (0.925, 0.900): [183, 42, 16, 9], (0.925, 0.925): [127, 26, 12],
        (0.925, 0.950): [69, 20], (0.925, 0.975): [64],
        (0.950, 0.700): [38, 11, 8, 7, 5, 4], (0.950, 0.800): [29, 18, 12, 8, 6],
        (0.950, 0.900): [236, 54, 20, 11], (0.950, 0.925): [164, 33, 15],
        (0.950, 0.950): [88, 25], (0.950, 0.975): [82],
        (0.975, 0.700): [53, 14, 11, 9, 7, 5], (0.975, 0.800): [40, 25, 16, 11, 8],
        (0.975, 0.900): [332, 75, 27, 15], (0.975, 0.925): [229, 46, 20],
        (0.975, 0.950): [122, 34], (0.975, 0.975): [114],
        (0.990, 0.700): [73, 19, 15, 12, 9, 7], (0.990, 0.800): [54, 34, 22, 14, 10],
        (0.990, 0.900): [463, 103, 37, 20], (0.990, 0.925): [320, 63, 28],
        (0.990, 0.950): [170, 46], (0.990, 0.975): [159],
    },
    3: {
        (0.800, 0.700): [7, 2, 2, 2, 1, 1], (0.800, 0.800): [5, 4, 3, 2, 2],
        (0.800, 0.900): [34, 9, 4, 2], (0.800, 0.925): [24, 6, 3],
        (0.800, 0.950): [14, 5], (0.800, 0.975): [13],
        (0.900, 0.700): [13, 4, 3, 3, 2, 2], (0.900, 0.800): [10, 6, 4, 3, 2],
        (0.900, 0.900): [74, 17, 7, 4], (0.900, 0.925): [51, 11, 5],
        (0.900, 0.950): [28, 8], (0.900, 0.975): [26],
        (0.925, 0.700): [15, 5, 4, 3, 2, 2], (0.925, 0.800): [12, 8, 5, 4, 3],
        (0.925, 0.900): [92, 21, 8, 5], (0.925, 0.925): [64, 13, 6],
        (0.925, 0.950): [35, 10], (0.925, 0.975): [32],
        (0.950, 0.700): [19, 6, 4, 4, 3, 2], (0.950, 0.800): [15, 9, 6, 4, 3],
        (0.950, 0.900): [118, 27, 10, 6], (0.950, 0.925): [82, 17, 8],
        (0.950, 0.950): [44, 13], (0.950, 0.975): [41],
        (0.975, 0.700): [27, 7, 6, 5, 4, 3], (0.975, 0.800): [20, 13, 8, 6, 4],
        (0.975, 0.900): [166, 38, 14, 8], (0.975, 0.925): [115, 23, 10],
        (0.975, 0.950): [61, 17], (0.975, 0.975): [57],
        (0.990, 0.700): [37, 10, 8, 6, 5, 4], (0.990, 0.800): [27, 17, 11, 7, 5],
        (0.990, 0.900): [232, 52, 19, 10], (0.990, 0.925): [160, 32, 14],
        (0.990, 0.950): [85, 23], (0.990, 0.975): [80],
    },
    4: {
        (0.800, 0.700): [5, 2, 2, 1, 1, 1], (0.800, 0.800): [4, 3, 2, 1, 1],
        (0.800, 0.900): [23, 6, 3, 2], (0.800, 0.925): [16, 4, 2],
        (0.800, 0.950): [9, 3], (0.800, 0.975): [9],
        (0.900, 0.700): [9, 3, 2, 2, 2, 1], (0.900, 0.800): [7, 4, 3, 2, 2],
        (0.900, 0.900): [49, 12, 5, 3], (0.900, 0.925): [34, 8, 4],
        (0.900, 0.950): [19, 6], (0.900, 0.975): [18],
        (0.925, 0.700): [10, 3, 3, 2, 2, 2], (0.925, 0.800): [8, 5, 4, 3, 2],
        (0.925, 0.900): [61, 14, 6, 3], (0.925, 0.925): [43, 9, 4],
        (0.925, 0.950): [23, 7], (0.925, 0.975): [22],
        (0.950, 0.700): [13, 4, 3, 3, 2, 2], (0.950, 0.800): [10, 6, 4, 3, 2],
        (0.950, 0.900): [79, 18, 7, 4], (0.950, 0.925): [55, 11, 5],
        (0.950, 0.950): [30, 9], (0.950, 0.975): [28],
        (0.975, 0.700): [18, 5, 4, 3, 3, 2], (0.975, 0.800): [14, 9, 6, 4, 3],
        (0.975, 0.900): [111, 25, 9, 5], (0.975, 0.925): [77, 16, 7],
        (0.975, 0.950): [41, 12], (0.975, 0.975): [38],
        (0.990, 0.700): [25, 7, 5, 4, 3, 3], (0.990, 0.800): [18, 12, 8, 5, 4],
        (0.990, 0.900): [155, 35, 13, 7], (0.990, 0.925): [107, 21, 10],
        (0.990, 0.950): [57, 16], (0.990, 0.975): [53],
    },
    5: {
        (0.800, 0.700): [4, 1, 1, 1, 1, 1], (0.800, 0.800): [3, 2, 2, 1, 1],
        (0.800, 0.900): [17, 5, 2, 1], (0.800, 0.925): [12, 3, 2],
        (0.800, 0.950): [7, 3], (0.800, 0.975): [7],
        (0.900, 0.700): [7, 2, 2, 2, 1, 1], (0.900, 0.800): [5, 3, 2, 2, 1],
        (0.900, 0.900): [37, 9, 4, 2], (0.900, 0.925): [26, 6, 3],
        (0.900, 0.950): [14, 4], (0.900, 0.975): [13],
        (0.925, 0.700): [8, 3, 2, 2, 1, 1], (0.925, 0.800): [6, 4, 3, 2, 2],
        (0.925, 0.900): [46, 11, 4, 3], (0.925, 0.925): [32, 7, 3],
        (0.925, 0.950): [18, 5], (0.925, 0.975): [16],
        (0.950, 0.700): [10, 3, 2, 2, 2, 1], (0.950, 0.800): [8, 5, 3, 2, 2],
        (0.950, 0.900): [59, 14, 5, 3], (0.950, 0.925): [41, 9, 4],
        (0.950, 0.950): [22, 7], (0.950, 0.975): [21],
        (0.975, 0.700): [14, 4, 3, 3, 2, 2], (0.975, 0.800): [10, 7, 4, 3, 2],
        (0.975, 0.900): [83, 19, 7, 4], (0.975, 0.925): [58, 12, 5],
        (0.975, 0.950): [31, 9], (0.975, 0.975): [29],
        (0.990, 0.700): [19, 5, 4, 3, 3, 2], (0.990, 0.800): [14, 9, 6, 4, 3],
        (0.990, 0.900): [116, 26, 10, 5], (0.990, 0.925): [80, 16, 7],
        (0.990, 0.950): [43, 12], (0.990, 0.975): [40],
    },
}

GRID_PSP = [0.800, 0.900, 0.925, 0.950, 0.975, 0.990]


def test_criterion_01_specificity_design(acceptance_report):
    exact = sample_size_specificity(2, 0.95, 0.90, 0.95, MethodChoice.EXACT)
    asym = sample_size_specificity(2, 0.95, 0.90, 0.95, MethodChoice.ASYMPTOTIC)
    ok = exact.n == 54 and abs(asym.raw - 52.3) <= 0.05
    acceptance_report(
        1, "specificity design (m=2, floor 0.90, conf 0.95): "
           "exact n=54, closed form ~52.3", ok)


def test_criterion_02_sensitivity_design(acceptance_report):
    asym = sample_size_sensitivity(2, 4.0, 0.95, 0.75, 0.95,
                                   MethodChoice.ASYMPTOTIC)
    ok = abs(asym.raw - 138.1) <= 0.1 and asym.n == 139
    acceptance_report(
        2, "sensitivity design (delta=4, floor 0.75, conf 0.95): "
           "closed form ~138.1, n=139", ok)


def test_criterion_03_induced_specificity_floor(acceptance_report):
    exact = specificity_lower_bound(139, 0.95, 0.95, MethodChoice.EXACT)
    asym = specificity_lower_bound(139, 0.95, 0.95, MethodChoice.ASYMPTOTIC)
    ok = abs(exact - 0.9225) <= 5e-4 and abs(asym - 0.9227) <= 5e-4
    acceptance_report(
        3, "specificity floor induced by the n=139 sensitivity design: "
           "exact ~0.9225, asymptotic ~0.9227", ok)


def test_criterion_04_small_design_floors(acceptance_report):
    lb10 = specificity_lower_bound(10, 0.95, 0.95, MethodChoice.EXACT)
    lb20 = specificity_lower_bound(20, 0.95, 0.95, MethodChoice.EXACT)
    ok = abs(lb10 - 0.7814) <= 5e-4 and abs(lb20 - 0.8512) <= 5e-4
    acceptance_report(
        4, "95%-confidence specificity floors: nu=10 ~0.7814, nu=20 ~0.8512", ok)


def test_criterion_05_shortfall_probability(acceptance_report):
    below = 1.0 - specificity_confidence(35, 0.95, 0.94, MethodChoice.EXACT)
    ok = abs(below - 0.3974) <= 5e-4
    acceptance_report(
        5, "P[effective specificity < 0.94] at nu=35 ~0.3974", ok)


def test_criterion_06_known_threshold_sensitivity(acceptance_report):
    ok = abs(sensitivity(4.0, 0.95) - 0.8074) <= 5e-4
    acceptance_report(
        6, "perfect-estimate sensitivity at delta=4, target 0.95 ~0.8074", ok)


def test_criterion_07_design_summary_rows(acceptance_report):
    rows = {
        2: [(0.700, 7, 0.9092), (0.800, 12, 0.9264),
            (0.900, 54, 0.9448), (0.925, 164, 0.9483)],
        3: [(0.700, 4, 0.9143), (0.800, 6, 0.9264),
            (0.900, 27, 0.9448), (0.925, 82, 0.9483)],
    }
    ok = True
    for m, expected in rows.items():
        for floor, want_n, want_e in expected:
            res = sample_size_specificity(m, 0.95, floor, 0.95,
                                          MethodChoice.EXACT)
            e = expected_effective_specificity(res.n * (m - 1), 0.95,
                                               MethodChoice.EXACT)
            ok = ok and res.n == want_n and abs(e - want_e) <= 5e-4
    acceptance_report(
        7, "reference design rows (m=2 and m=3): subjects and expected "
           "effective specificity", ok)


def test_criterion_08_full_grid_reproduction(acceptance_report, tmp_path, capsys):
    code = main(["tables", "--out", str(tmp_path), "--format", "json"])
    capsys.readouterr()
    ok = code == 0

    # regenerated files must match the committed goldens byte for byte
    for golden in sorted(GOLDEN_DIR.iterdir()):
        ok = ok and (tmp_path / golden.name).read_bytes() == golden.read_bytes()

    checked = 0
    for m in (2, 3, 4, 5):
        with open(tmp_path / f"samplesize_spec_m{m}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        ok = ok and header == (["m", "p_conf", "p_esp_lb"]
                               + [f"psp_{p:.3f}" for p in GRID_PSP])
        populated = 0
        for row in body:
            conf, floor = float(row[1]), float(row[2])
            cells = row[3:]
            want_blank = sum(1 for p in GRID_PSP if floor >= p)
            ok = ok and all(c == "" for c in cells[:want_blank])
            got = [int(c) for c in cells[want_blank:]]
            ok = ok and got == GRID_REFERENCE[m][(conf, floor)]
            checked += len(got)
            populated += len(got)
        ok = ok and populated == 126
    ok = ok and checked == 504
    acceptance_report(
        8, "published sample-size grids reproduced cell for cell "
           "(504 populated cells, goldens byte-identical)", ok)


def test_criterion_09_inverse_consistency(acceptance_report):
    rng = np.random.default_rng(20260816)
    ok = True
    for _ in range(200):
        nu = int(rng.integers(1, 5000))
        p_sp = float(rng.uniform(0.55, 0.995))
        conf = float(rng.uniform(0.05, 0.99))
        lb = specificity_lower_bound(nu, p_sp, conf, MethodChoice.EXACT)
        if not 0.0 < lb < 1.0:
            continue
        back = specificity_confidence(nu, p_sp, lb, MethodChoice.EXACT)
        ok = ok and abs(back - conf) <= 1e-9
    for _ in range(60):
        nu = int(rng.integers(50, 5000))
        p_sp = float(rng.uniform(0.80, 0.99))
        conf = float(rng.uniform(0.5, 0.99))
        exact = specificity_lower_bound(nu, p_sp, conf, MethodChoice.EXACT)
        asym = specificity_lower_bound(nu, p_sp, conf, MethodChoice.ASYMPTOTIC)
        ok = ok and abs(exact - asym) <= 0.005
    acceptance_report(
        9, "confidence and lower bound invert each other to 1e-9; exact and "
           "asymptotic floors agree to 0.005 for nu >= 50", ok)


def _mc_seed_passes(seed: int) -> bool:
    replicates = 100_000
    cfg_spec = SimulationConfig(n=54, m=2, replicates=replicates, seed=seed)
    cfg_sens = SimulationConfig(n=139, m=2, delta=4.0, replicates=replicates,
                                seed=seed)
    checks = []

    study_spec = simulate_study(cfg_spec)
    dist = EmpiricalDistribution.from_samples(
        effective_specificity_given_ratio(study_spec.ratios, 0.95))
    want_spec = expected_effective_specificity(cfg_spec.nu, 0.95,
                                               MethodChoice.EXACT)
    checks.append(abs(dist.mean - want_spec)
                  <= 3.0 * dist.mc_standard_error_of_mean)
    floor = specificity_lower_bound(cfg_spec.nu, 0.95, 0.95, MethodChoice.EXACT)
    checks.append(abs(dist.quantile(0.05) - floor)
                  <= 3.0 * dist.quantile_standard_error(0.05))

    study_sens = simulate_study(cfg_sens)
    sens_dist = EmpiricalDistribution.from_samples(effective_sensitivity_given_ratio(
        study_sens.ratios, 4.0, 0.95, SensitivityApproximation.FULL_TWO_SIDED))
    want_sens = expected_effective_sensitivity(cfg_sens.nu, 4.0, 0.95,
                                               MethodChoice.EXACT)
    checks.append(abs(sens_dist.mean - want_sens)
                  <= 3.0 * sens_dist.mc_standard_error_of_mean)

    se = math.sqrt(want_spec * (1.0 - want_spec) / replicates)
    checks.append(abs(study_spec.longitudinal_specificity - want_spec) <= 3.0 * se)

    se = math.sqrt(want_sens * (1.0 - want_sens) / replicates)
    checks.append(abs(study_sens.longitudinal_sensitivity - want_sens) <= 3.0 * se)
    return all(checks)


def test_criterion_10_monte_carlo_cross_validation(acceptance_report):
    started = time.monotonic()
    passes = sum(1 for seed in range(10) if _mc_seed_passes(seed))
    elapsed = time.monotonic() - started
    ok = passes >= 9 and elapsed <= 300.0
    acceptance_report(
        10, f"Monte Carlo cross-validation: {passes}/10 seeds inside 3-SE "
            f"bands in {elapsed:.0f}s (need >=9 within 300s)", ok)


def test_criterion_11_numeric_kernels(acceptance_report):
    ok = True
    for p in np.linspace(0.001, 0.999, 997):
        ok = ok and abs(normal_cdf(normal_quantile(p)) - p) <= 1e-12
    for x in (0.1, 1.0, 2.5, 7.0, 31.4):
        # P[chi-square(2) <= x] = P[W <= sqrt(x/2)] at nu = 2
        ok = ok and abs(ratio_cdf(math.sqrt(x / 2.0), 2) - (-math.expm1(-x / 2.0))) <= 1e-12
    # the density of W at nu = 139 over the support leaving 1e-14 of
    # chi-square mass in each tail
    nu = 139
    lo = ratio_quantile(1e-14, nu)
    hi = ratio_quantile(1.0 - 1e-14, nu)
    total, _ = integrate.quad(lambda w: ratio_density_exact(w, nu), lo, hi)
    ok = ok and abs(total - 1.0) <= 1e-9
    acceptance_report(
        11, "numeric kernels: quantile roundtrip 1e-12, closed-form "
            "chi-square 1e-12, unit quadrature 1e-9", ok)
