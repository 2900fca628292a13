"""Seeded inputs of the three workloads.

``build(name, seed, work_dir, threads)`` writes any input files under
``work_dir`` and returns the workload's fixed list of operations.  Each
operation is one ``repeatkit.cli.main([...])`` call with ``--format json``
plus the parameters the oracle needs to check it.  The same seed gives the
same operations and the same files; the number of operations, the grid
shapes and the CSV row counts do not depend on the seed, so every seed asks
for the same amount of work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import oracle

WORKLOADS = ("plan", "assess", "simulate")

# Published sample-size reference grid, the CLI's ``tables`` defaults.
REFERENCE_M = (2, 3, 4, 5)
REFERENCE_CONF = (0.800, 0.900, 0.925, 0.950, 0.975, 0.990)
REFERENCE_LB = (0.700, 0.800, 0.900, 0.925, 0.950, 0.975)
REFERENCE_PSP = (0.800, 0.900, 0.925, 0.950, 0.975, 0.990)

PLAN_GRIDS = 16
PLAN_SENS_QUERIES = 60
PLAN_SENS_INFEASIBLE_EVERY = 6
ASSESS_SMALL_STUDY_ROWS = tuple(24 + 10 * k for k in range(36))
ASSESS_REGISTRY_ROWS = (100_000, 100_000)
SIM_REPLICATES = 10_000
SIM_THREAD_CHECK = dict(n=12, delta=2.0, replicates=6_000)


@dataclass
class Op:
    """One CLI call: its arguments, environment overrides and oracle inputs."""

    kind: str
    argv: list
    params: dict = field(default_factory=dict)
    out: str | None = None
    env: dict = field(default_factory=dict)
    same_as: int | None = None
    known_fault: bool = False

    def spec(self) -> dict:
        """What the worker process needs to run the operation."""
        return {"argv": self.argv, "env": self.env,
                "replicates": self.params.get("replicates")}


def _fmt_list(values, digits=3) -> str:
    return ",".join(f"{v:.{digits}f}" for v in values)


def _draw(rng, lo, hi, size=None, digits=3):
    return np.round(rng.uniform(lo, hi, size), digits)


def _strata(rng, lo, hi, size, digits=3) -> list:
    """One draw from each of ``size`` equal strata of [lo, hi), shuffled.

    Every seed then spans the range evenly, so the work that depends on
    these values varies little from seed to seed.
    """
    u = (np.arange(size) + rng.random(size)) / size
    return [float(v) for v in rng.permutation(np.round(lo + (hi - lo) * u, digits))]


def _distinct(rng, lo, hi, size, digits=3):
    # rejection keeps every drawn grid the same shape
    while True:
        vals = np.sort(_draw(rng, lo, hi, size, digits))
        if np.unique(vals).size == size:
            return [float(v) for v in vals]


# ---------------------------------------------------------------------------
# plan: prospective sample-size calculation
# ---------------------------------------------------------------------------

def _tables_op(out, m_list, conf, lb, psp, explicit=True) -> Op:
    argv = ["tables", "--out", out]
    if explicit:
        argv += ["--m-list", ",".join(str(m) for m in m_list),
                 "--conf-list", _fmt_list(conf), "--esp-lb-list", _fmt_list(lb),
                 "--psp-list", _fmt_list(psp)]
    return Op("tables", argv + ["--format", "json"], out=out,
              params={"m_list": list(m_list), "conf": list(conf), "lb": list(lb),
                      "psp": list(psp)})


def _sens_op(rng, feasible: bool) -> Op:
    m = int(rng.integers(2, 6))
    psp = float(_draw(rng, 0.90, 0.99))
    conf = float(_draw(rng, 0.80, 0.99))
    while True:
        delta = float(_draw(rng, 4.2, 6.0) if feasible else _draw(rng, 2.5, 4.0))
        attainable = oracle.attainable_sensitivity_one_sided(delta, psp)
        if feasible:
            # floors from 0.55 up to 0.02 below what a perfect estimate
            # attains, with asymptotic answers of at least 10 subjects: below
            # that the report aborts on its induced asymptotic bound
            # (a fault recorded in CHANGES.md) for some seeds only
            lb = float(_draw(rng, 0.55, attainable - 0.02))
            if oracle.sensitivity_sample_size_raw(m, delta, psp, lb, conf) >= 10.0:
                break
        else:
            lb = float(_draw(rng, attainable + 0.005, min(attainable + 0.05, 0.999)))
            if lb > attainable + 1e-6:
                break
    if rng.random() < 0.5:
        effect = ["--delta", f"{delta:.3f}"]
    else:
        # the same effect given as a raw change and a within-subject SD; the
        # program divides them back, so the oracle takes that quotient
        wsd = float(_draw(rng, 0.5, 3.0))
        effect = ["--mu-delta", repr(delta * wsd), "--wsd", repr(wsd)]
        delta = (delta * wsd) / wsd
    argv = ["samplesize-sens", "--m", str(m), "--psp", f"{psp:.3f}", *effect,
            "--ese-lb", f"{lb:.3f}", "--conf", f"{conf:.3f}", "--format", "json"]
    return Op("sens", argv, params={"m": m, "psp": psp, "delta": delta, "lb": lb,
                                    "conf": conf, "feasible": feasible})


def _plan(rng, work) -> list[Op]:
    ops = [_tables_op(os.path.join(work, "out", "tables-ref"), REFERENCE_M,
                      REFERENCE_CONF, REFERENCE_LB, REFERENCE_PSP, explicit=False)]
    for k in range(PLAN_GRIDS):
        conf = _distinct(rng, 0.80, 0.99, 6)
        psp = _distinct(rng, 0.90, 0.995, 6)
        # five floors below every target and one above all of them, so each
        # grid has the same number of searched and blank cells
        lb = _distinct(rng, 0.70, 0.895, 5) + [float(_draw(rng, 0.996, 0.999))]
        ops.append(_tables_op(os.path.join(work, "out", f"tables-{k}"),
                              REFERENCE_M, conf, lb, psp))
    for k in range(PLAN_SENS_QUERIES):
        ops.append(_sens_op(rng, feasible=k % PLAN_SENS_INFEASIBLE_EVERY != 0))
    out = os.path.join(work, "out", "fig3a")
    psp, conf = float(_draw(rng, 0.90, 0.99)), float(_draw(rng, 0.80, 0.99))
    ops.append(Op("fig3a", ["figure-data", "--figure", "3a", "--out", out,
                            "--psp", f"{psp:.3f}", "--conf", f"{conf:.3f}",
                            "--format", "json"],
                  out=out, params={"psp": psp, "conf": conf}))
    return ops


# ---------------------------------------------------------------------------
# assess: retrospective assessment of prior studies
# ---------------------------------------------------------------------------

def _replicate_counts(rng, rows: int) -> list[int]:
    counts = []
    remaining = rows
    while remaining >= 7:
        c = int(rng.integers(2, 6))
        counts.append(c)
        remaining -= c
    counts.extend([remaining] if remaining <= 5 else [3, 3])
    return counts


def write_study(path: str, rng, rows: int, wsd: float) -> tuple[float, int]:
    """Unbalanced CSV (2-5 replicates per subject) in shuffled row order.

    Returns the oracle's pooled wSD estimate and degrees of freedom for the
    values exactly as written (``repr`` round-trips every double).
    """
    counts = np.array(_replicate_counts(rng, rows))
    n = counts.size
    codes = np.repeat(np.arange(n), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    reps = np.arange(rows) - starts + 1
    values = rng.normal(100.0, 15.0, n)[codes] + wsd * rng.standard_normal(rows)
    labels = [f"S{i:06d}" for i in rng.permutation(n)]
    order = rng.permutation(rows)
    vals = values.tolist()
    lines = ["subject_id,replicate_index,value"]
    lines += [f"{labels[codes[i]]},{reps[i]},{vals[i]!r}" for i in order.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return oracle.pooled_wsd(codes, values)


def _assess(rng, work) -> list[Op]:
    os.makedirs(os.path.join(work, "data"), exist_ok=True)
    sizes = ASSESS_SMALL_STUDY_ROWS + ASSESS_REGISTRY_ROWS
    wsd_true = _strata(rng, 0.5, 5.0, len(sizes))
    psp_est = _strata(rng, 0.90, 0.99, len(sizes))
    # each estimated design is assessed twice, at two targets
    n_retro = 2 * len(sizes)
    psp = _strata(rng, 0.90, 0.99, n_retro)
    conf = _strata(rng, 0.80, 0.99, n_retro)
    near = _strata(rng, 0.002, 0.041, n_retro)
    far = _strata(rng, 0.041, 0.080, n_retro)
    small_delta = _strata(rng, 1.0, 2.99, n_retro, digits=2)
    large_delta = _strata(rng, 3.0, 5.0, n_retro, digits=2)
    ops = []
    for k, rows in enumerate(sizes):
        path = os.path.join(work, "data", f"study-{k}.csv")
        wsd_hat, nu = write_study(path, rng, rows, wsd_true[k])
        ops.append(Op("estimate", ["estimate", "--csv", path, "--psp", f"{psp_est[k]:.3f}",
                                   "--format", "json"],
                      params={"psp": psp_est[k], "wsd_hat": wsd_hat, "nu": nu}))
        for j in (2 * k, 2 * k + 1):
            bounds = [round(psp[j] - far[j], 3), round(psp[j] - near[j], 3)]
            deltas = [small_delta[j], large_delta[j]]
            ops.append(Op("retro", ["retro", "--nu", str(nu), "--psp", f"{psp[j]:.3f}",
                                    "--conf", f"{conf[j]:.3f}", "--bound", _fmt_list(bounds),
                                    "--delta", _fmt_list(deltas, 2), "--format", "json"],
                          params={"nu": nu, "psp": psp[j], "conf": conf[j],
                                  "bounds": bounds, "deltas": deltas}))
    out = os.path.join(work, "out", "fig1")
    psp = float(_draw(rng, 0.90, 0.99))
    ops.append(Op("fig1", ["figure-data", "--figure", "1", "--out", out,
                           "--psp", f"{psp:.3f}", "--format", "json"],
                  out=out, params={"psp": psp}))
    # A valid one-degree-of-freedom design whose exact rows are computable;
    # the asymptotic lower bound is undefined there.
    ops.append(Op("retro", ["retro", "--nu", "1", "--format", "json"],
                  params={"nu": 1, "psp": 0.95, "conf": 0.95, "bounds": [],
                          "deltas": []},
                  known_fault=True))
    return ops


# ---------------------------------------------------------------------------
# simulate: the Monte Carlo oracle
# ---------------------------------------------------------------------------

def _simulate_op(n, replicates, seed, delta=None, longitudinal=False, env=None,
                 same_as=None) -> Op:
    argv = ["simulate", "--n", str(n), "--replicates", str(replicates),
            "--seed", str(seed)]
    if delta is not None:
        argv += ["--delta", repr(delta)]
    if longitudinal:
        argv.append("--longitudinal")
    return Op("simulate", argv + ["--format", "json"],
              params={"n": n, "m": 2, "psp": 0.95, "delta": delta,
                      "longitudinal": longitudinal, "replicates": replicates},
              env=env or {}, same_as=same_as)


def _simulate(rng, threads: int) -> list[Op]:
    seeds = [int(s) for s in rng.integers(0, 2**32, 3)]
    small = SIM_THREAD_CHECK
    return [
        _simulate_op(54, SIM_REPLICATES, seeds[0]),
        _simulate_op(139, SIM_REPLICATES, seeds[1], delta=4.0, longitudinal=True),
        _simulate_op(small["n"], small["replicates"], seeds[2], delta=small["delta"],
                     longitudinal=True, env={"REPEATKIT_THREADS": "1"}),
        _simulate_op(small["n"], small["replicates"], seeds[2], delta=small["delta"],
                     longitudinal=True, env={"REPEATKIT_THREADS": str(threads)},
                     same_as=2),
    ]


def build(name: str, seed: int, work: str, threads: int) -> list[Op]:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    os.makedirs(work, exist_ok=True)
    if name == "plan":
        return _plan(rng, work)
    if name == "assess":
        return _assess(rng, work)
    return _simulate(rng, threads)
