"""Fast tests of the benchmark's own parts: checkers, oracles, generator, tracer.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
Each checker test feeds it real repeatkit output first (which must pass)
and then a corrupted copy (which must be rejected).
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

import checks
import oracle
import run
import tracing
import workloads
from workloads import Op

import repeatkit.cli

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = repeatkit.cli.main(argv)
    return rc, out.getvalue()


def verdict(op, rc, stdout):
    return checks.Checker([op]).check(0, rc, stdout, [stdout])


def edit(stdout, fn):
    payload = json.loads(stdout)
    fn(payload["results"])
    return json.dumps(payload)


def row(results, name, method):
    return next(r for r in results if r["name"] == name and r["method"] == method)


# ---------------------------------------------------------------------------
# checkers reject corrupted outputs
# ---------------------------------------------------------------------------

def test_tables_checker_rejects_cell_set_to_n_minus_one(tmp_path):
    out = str(tmp_path / "t")
    op = workloads._tables_op(out, [2, 3], [0.9, 0.95], [0.85, 0.96], [0.9, 0.95])
    rc, stdout = cli(op.argv)
    assert verdict(op, rc, stdout) == []

    path = os.path.join(out, "samplesize_spec_m2.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[3] = str(int(cells[3]) - 1)
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    problems = verdict(op, rc, stdout)
    assert any("not the smallest qualifying n" in p for p in problems)


def test_tables_checker_requires_blank_cells_exactly_where_floor_reaches_target(tmp_path):
    out = str(tmp_path / "t")
    op = workloads._tables_op(out, [2], [0.9], [0.85, 0.96], [0.9, 0.95])
    rc, stdout = cli(op.argv)
    path = os.path.join(out, "samplesize_spec_m2.csv")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("0.960,,", "0.960,7,"))
    assert any("at or above target" in p for p in verdict(op, rc, stdout))


def test_estimate_checker_rejects_wsd_off_by_1e_6_relative(tmp_path):
    path = str(tmp_path / "study.csv")
    wsd_hat, nu = workloads.write_study(path, np.random.default_rng(3), 120, 2.0)
    op = Op("estimate", ["estimate", "--csv", path, "--psp", "0.95", "--format", "json"],
            params={"psp": 0.95, "wsd_hat": wsd_hat, "nu": nu})
    rc, stdout = cli(op.argv)
    assert verdict(op, rc, stdout) == []

    def corrupt(results):
        row(results, "wsd_hat", "exact")["value"] *= 1.0 + 1e-6
    assert any("wsd_hat" in p for p in verdict(op, rc, edit(stdout, corrupt)))


def test_write_study_is_unbalanced_shuffled_and_exact_in_rows(tmp_path):
    path = str(tmp_path / "study.csv")
    workloads.write_study(path, np.random.default_rng(5), 200, 1.0)
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert len(rows) == 200
    per_subject = {}
    for sid, rep, _ in rows:
        per_subject.setdefault(sid, []).append(int(rep))
    assert all(sorted(r) == list(range(1, len(r) + 1)) and 2 <= len(r) <= 5
               for r in per_subject.values())
    assert len({len(r) for r in per_subject.values()}) > 1
    assert [r[0] for r in rows] != sorted(r[0] for r in rows)


def test_simulate_checker_rejects_mean_shifted_by_ten_standard_errors():
    op = workloads._simulate_op(20, 4000, 7, delta=2.0, longitudinal=True)
    rc, stdout = cli(op.argv)
    assert verdict(op, rc, stdout) == []
    _, sd = oracle.effective_specificity_moments(20, 0.95)

    def corrupt(results):
        row(results, "effective_specificity.mean", "monte-carlo")["value"] += \
            10.0 * sd / math.sqrt(4000)
    problems = verdict(op, rc, edit(stdout, corrupt))
    assert any("outside 5 standard errors" in p for p in problems)


def test_simulate_checker_rejects_thread_dependent_output():
    op = workloads._simulate_op(20, 4000, 7)
    rc, stdout = cli(op.argv)
    twin = Op(**{**op.__dict__, "same_as": 0})
    checker = checks.Checker([op, twin])
    assert checker.check(1, rc, stdout, [stdout, stdout]) == []
    other = edit(stdout, lambda results: None).replace(" ", "")
    assert checker.check(1, rc, other, [stdout, other])


def test_retro_checker_rejects_exact_and_asymptotic_rows_swapped():
    params = {"nu": 20, "psp": 0.95, "conf": 0.9, "bounds": [0.9], "deltas": [2.0]}
    op = Op("retro", ["retro", "--nu", "20", "--conf", "0.9", "--bound", "0.9",
                      "--delta", "2", "--format", "json"], params=params)
    rc, stdout = cli(op.argv)
    assert verdict(op, rc, stdout) == []

    def swap(results):
        for r in results:
            if r["name"].startswith(("expected_effective_specificity",
                                     "specificity_lower_bound", "prob_effective")):
                r["method"] = {"exact": "asymptotic", "asymptotic": "exact"}[r["method"]]
    problems = verdict(op, rc, edit(stdout, swap))
    assert sum("got" in p and "oracle" in p for p in problems) == 6


def test_retro_one_degree_of_freedom_passes_once_exact_rows_are_reported():
    params = {"nu": 1, "psp": 0.95, "conf": 0.95, "bounds": [], "deltas": []}
    op = Op("retro", ["retro", "--nu", "1", "--format", "json"], params=params,
            known_fault=True)
    fixed = {"command": "retro", "results": [
        {"name": "expected_effective_specificity", "method": "exact",
         "value": float(oracle.expected_specificity_exact(1, 0.95))},
        {"name": "specificity_lower_bound", "method": "exact",
         "value": float(oracle.specificity_lower_bound_exact(1, 0.95, 0.95))}],
        "warnings": ["asymptotic lower bound undefined at nu=1"]}
    assert verdict(op, 0, json.dumps(fixed)) == []
    assert verdict(op, 64, "") == ["exit code 64, oracle expects 0"]
    fixed["results"].append({"name": "specificity_lower_bound", "method": "asymptotic",
                             "value": 0.0})
    assert any("undefined" in p for p in verdict(op, 0, json.dumps(fixed)))


def test_samplesize_sens_checker_expects_exit_2_exactly_when_infeasible():
    rng = np.random.default_rng(0)
    feasible = workloads._sens_op(rng, feasible=True)
    infeasible = workloads._sens_op(rng, feasible=False)
    rc, stdout = cli(feasible.argv)
    assert verdict(feasible, rc, stdout) == []
    assert verdict(feasible, 2, "") != []
    rc, stdout = cli(infeasible.argv)
    assert rc == 2 and verdict(infeasible, rc, stdout) == []
    assert verdict(infeasible, 0, "{}") != []

    def corrupt(results):
        row(results, "sample_size", "exact")["value"] += 1
    rc, stdout = cli(feasible.argv)
    assert any("smallest" in p for p in verdict(feasible, rc, edit(stdout, corrupt)))


# ---------------------------------------------------------------------------
# oracles agree with mpmath
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def mpmath_precision():
    with mp.workdps(30):
        yield


def _mp_chi2_cdf(x, nu):
    return mp.gammainc(mp.mpf(nu) / 2, 0, mp.mpf(x) / 2, regularized=True)


@pytest.mark.parametrize("nu,psp", [(1, 0.95), (7, 0.9), (60, 0.99), (500, 0.95)])
def test_expected_specificity_matches_mpmath_student_t(nu, psp):
    z = mp.mpf(oracle.coverage_z(psp))
    t_cdf = mp.mpf(1) / 2 + z * mp.gamma((nu + 1) / mp.mpf(2)) / (
        mp.sqrt(nu * mp.pi) * mp.gamma(nu / mp.mpf(2))) * mp.hyp2f1(
        mp.mpf(1) / 2, (nu + 1) / mp.mpf(2), mp.mpf(3) / 2, -z * z / nu)
    assert float(oracle.expected_specificity_exact(nu, psp)) == \
        pytest.approx(float(2 * t_cdf - 1), abs=1e-14)


@pytest.mark.parametrize("nu,delta,psp", [(10, 2.0, 0.95), (60, 4.0, 0.97)])
def test_expected_sensitivity_matches_mpmath_quadrature(nu, delta, psp):
    z = mp.mpf(oracle.coverage_z(psp))
    d = mp.mpf(delta) / mp.sqrt(2)
    nu_m = mp.mpf(nu)

    def density(x):
        return mp.exp((nu_m / 2 - 1) * mp.log(x) - x / 2 - nu_m / 2 * mp.log(2)
                      - mp.loggamma(nu_m / 2))

    def e(f):
        return mp.quad(lambda x: f(mp.sqrt(x / nu_m)) * density(x),
                       [0, nu_m / 2, nu_m, 2 * nu_m, mp.inf])
    want = 1 - e(lambda w: mp.ncdf(z * w - d)) + e(lambda w: mp.ncdf(-z * w - d))
    assert oracle.expected_sensitivity_exact(nu, delta, psp) == \
        pytest.approx(float(want), abs=1e-13)


@pytest.mark.parametrize("nu,conf", [(3, 0.95), (54, 0.9), (2000, 0.99)])
def test_lower_bound_quantile_matches_mpmath(nu, conf):
    q = stats.chi2.ppf(1.0 - conf, nu)
    assert float(_mp_chi2_cdf(q, nu)) == pytest.approx(1.0 - conf, rel=1e-12)


def test_specificity_density_matches_mpmath():
    nu, psp, p = 30, 0.95, 0.93
    z = mp.mpf(oracle.coverage_z(psp))
    y = mp.sqrt(2) * mp.erfinv(mp.mpf(p))
    w = y / z
    x = nu * w * w
    f_chi = mp.exp((mp.mpf(nu) / 2 - 1) * mp.log(x) - x / 2 - mp.mpf(nu) / 2 * mp.log(2)
                   - mp.loggamma(mp.mpf(nu) / 2))
    want = f_chi * 2 * w * nu / (2 * z * mp.npdf(y))
    got, _ = oracle.specificity_density(np.array([p]), nu, psp)
    assert got[0] == pytest.approx(float(want), rel=1e-11)


def test_pooled_wsd_matches_direct_definition():
    codes = np.array([0, 0, 1, 1, 1, 2, 2])
    values = np.array([1.0, 2.0, 4.0, 4.5, 6.0, 10.0, 9.0])
    got, nu = oracle.pooled_wsd(codes, values)
    groups = ([1.0, 2.0], [4.0, 4.5, 6.0], [10.0, 9.0])
    ss = sum(sum((v - sum(g) / len(g)) ** 2 for v in g) for g in groups)
    assert nu == 4 and got == pytest.approx(math.sqrt(ss / 4), rel=1e-15)


# ---------------------------------------------------------------------------
# generator, tracer and the benchmark's declared metrics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["plan", "simulate"])
def test_workloads_are_seeded_and_fixed_in_shape(name, tmp_path):
    def argvs(seed, sub):
        work = str(tmp_path / sub)
        ops = workloads.build(name, seed, work, 2)
        return [op.kind for op in ops], [[x.replace(work, "W") for x in op.argv] for op in ops]
    kinds_a, a = argvs(1, "a")
    kinds_b, b = argvs(1, "b")
    kinds_c, c = argvs(2, "c")
    assert a == b and a != c
    assert kinds_a == kinds_c


def test_tracer_self_time_subtracts_union_of_children():
    t = tracing.Tracer()
    parent = t.open("p")
    child_a = t.open("a")
    t.close(child_a)
    child_b = t.open("b")
    t.close(child_b)
    t.close(parent)
    parent.start, parent.end = 0.0, 10.0
    child_a.start, child_a.end = 1.0, 4.0
    child_b.start, child_b.end = 3.0, 6.0
    assert t.self_times()[parent.sid] == pytest.approx(5.0)


def test_tracer_counts_calls_of_wrapped_callables():
    t = tracing.Tracer()
    search = t.wrap("search", lambda pred, hint: next(n for n in range(hint, 100) if pred(n)),
                    counted_arg=0)
    assert search(lambda n: n >= 7, 3) == 7
    (span,) = t.spans
    assert span.count == 5


def test_benchmark_json_declares_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["workloads"] and [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    t = tracing.Tracer()
    layers = tracing.layer_metrics(t, {})
    layers["trace.overhead_s"] = 0.0
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: run.layer_unit(k) for k in layers}


def test_tracer_finds_every_call_site_in_this_checkout():
    # in a fresh interpreter: installing wraps the modules for good
    code = ("import sys, json; sys.path[:0] = sys.argv[1:3]; import repeatkit.cli, tracing; "
            "print(json.dumps(tracing.install(tracing.Tracer())))")
    out = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "perfbench"),
                          os.path.join(ROOT, "src")],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    sites = json.loads(out)
    want = {f"repeatkit.{module}.{attr}" for layer in tracing._FUNCTION_SITES.values()
            for module, attr in layer}
    assert want | {"repeatkit.mc._run_chunks",
                   "repeatkit.mc.EmpiricalDistribution.from_samples",
                   "repeatkit.cli.ReportEnvelope.render"} == set(sites)
