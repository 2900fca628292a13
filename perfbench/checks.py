"""Check each operation's exit code, JSON envelope and written files.

``Checker.check(i, rc, stdout, stdouts)`` returns a list of problems for
operation ``i`` (empty when it agrees with the oracle).  Verdicts are cached
on the exact bytes the program produced, so re-checking identical output in
later rounds costs a hash, not a recomputation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

import oracle
from oracle import MC_BAND_SE, QUAD_ATOL, close

FIG1B_N = (10, 30, 60)


def fig1b_grid() -> np.ndarray:
    """Probability grid of the effective-specificity density figure."""
    return np.concatenate([np.linspace(0.001, 0.999, 1499),
                           1.0 - np.geomspace(1e-3, 1e-7, 41)[1:]])


class Rows:
    """Envelope results keyed by (name, method); tracks which were looked at."""

    def __init__(self, payload: dict):
        self.values: dict = {}
        for r in payload.get("results", []):
            self.values.setdefault((r["name"], r["method"]), []).append(r["value"])
        self.seen: set = set()

    def get(self, name, method):
        self.seen.add((name, method))
        vals = self.values.get((name, method))
        if not vals:
            return None
        return vals[0] if len(vals) == 1 else vals

    def skip(self, method, *names):
        """Rows that carry no independent claim (spreads, the program's own verdicts)."""
        self.seen.update((name, method) for name in names)

    def by_prefix(self, prefix, method):
        found = [(name, vals[0]) for (name, m), vals in self.values.items()
                 if m == method and name.startswith(prefix)]
        self.skip(method, *(name for name, _ in found))
        return found

    def unexpected(self):
        return sorted(set(self.values) - self.seen)


class Problems(list):
    def value(self, rows: Rows, name, method, want, *, atol=oracle.ATOL,
              rtol=oracle.RTOL, required=True):
        got = rows.get(name, method)
        if want is None:
            if got is not None:
                self.append(f"{name} [{method}]: reported {got!r} where it is undefined")
            return
        if got is None:
            if required:
                self.append(f"{name} [{method}]: missing")
            return
        if not isinstance(got, (int, float)) or isinstance(got, bool) \
                or not close(float(got), float(want), rtol, atol):
            self.append(f"{name} [{method}]: got {got!r}, oracle {float(want)!r}")

    def exact_int(self, rows: Rows, name, method, want):
        got = rows.get(name, method)
        if got != want:
            self.append(f"{name} [{method}]: got {got!r}, oracle {want!r}")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _envelope(stdout: str, command: str, probs: Problems):
    try:
        payload = json.loads(stdout)
    except ValueError:
        probs.append("stdout is not a JSON envelope")
        return None
    if payload.get("command") != command:
        probs.append(f"envelope command {payload.get('command')!r}, expected {command!r}")
        return None
    return payload


def _files_digest(out: str | None) -> str:
    if out is None or not os.path.isdir(out):
        return ""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode())
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Checker:
    def __init__(self, ops):
        self.ops = ops
        self._verdicts: dict = {}
        self._moment_cache: dict = {}

    def check(self, i: int, rc: int, stdout: str, stdouts: list) -> list:
        op = self.ops[i]
        key = (i, rc, stdout, _files_digest(op.out))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op, rc, stdout)
        probs = list(self._verdicts[key])
        if op.same_as is not None and stdout != stdouts[op.same_as]:
            probs.append(f"output differs from operation {op.same_as} "
                         f"(same inputs, other REPEATKIT_THREADS)")
        return probs

    def _check(self, op, rc, stdout) -> list:
        probs = Problems()
        want_rc = 2 if op.kind == "sens" and not op.params["feasible"] else 0
        if rc != want_rc:
            probs.append(f"exit code {rc}, oracle expects {want_rc}")
            return probs
        if want_rc != 0:
            if stdout:
                probs.append("infeasible design printed a report")
            return probs
        command = {"tables": "tables", "sens": "samplesize-sens", "retro": "retro",
                   "estimate": "estimate", "fig1": "figure-data",
                   "fig3a": "figure-data", "simulate": "simulate"}[op.kind]
        payload = _envelope(stdout, command, probs)
        if payload is None:
            return probs
        rows = Rows(payload)
        try:
            getattr(self, f"_check_{op.kind}")(op, rows, probs)
        except (OSError, ValueError, KeyError, IndexError) as e:
            probs.append(f"unreadable output: {type(e).__name__}: {e}")
        extra = [k for k in rows.unexpected() if k[0] != "file"]
        if extra:
            probs.append(f"unexpected result rows {extra}")
        return probs

    # -- plan ---------------------------------------------------------------

    def _check_tables(self, op, rows, probs):
        p = op.params
        expected_files = []
        for m in p["m_list"]:
            populated = sum(1 for _ in p["conf"] for lb in p["lb"] for psp in p["psp"]
                            if lb < psp)
            probs.exact_int(rows, f"populated_cells[m={m}]", "exact", populated)
            csv_path = os.path.join(op.out, f"samplesize_spec_m{m}.csv")
            md_path = os.path.join(op.out, f"samplesize_spec_m{m}.md")
            expected_files += [csv_path, md_path]
            table = _read_csv(csv_path)
            header = ["m", "p_conf", "p_esp_lb"] + [f"psp_{v:.3f}" for v in p["psp"]]
            if table[0] != header:
                probs.append(f"{csv_path}: header {table[0]}")
                continue
            body = table[1:]
            labels = [(f"{c:.3f}", f"{lb:.3f}") for c in p["conf"] for lb in p["lb"]]
            if [(r[1], r[2]) for r in body] != labels or any(r[0] != str(m) for r in body):
                probs.append(f"{csv_path}: row labels differ from the requested grid")
                continue
            cells_n, cells_args = [], []
            for (conf, lb), r in zip(((c, lb) for c in p["conf"] for lb in p["lb"]), body):
                for psp, cell in zip(p["psp"], r[3:]):
                    if lb >= psp:
                        if cell != "":
                            probs.append(f"m={m} conf={conf} lb={lb} psp={psp}: "
                                         f"{cell!r} where the floor is at or above target")
                    elif not cell.isdigit():
                        probs.append(f"m={m} conf={conf} lb={lb} psp={psp}: blank "
                                     "or non-integer cell for a feasible design")
                    else:
                        cells_n.append(int(cell))
                        cells_args.append((conf, lb, psp))
            if cells_n:
                conf, lb, psp = (np.array(a) for a in zip(*cells_args))
                bad = oracle.minimality_violations(
                    cells_n,
                    lambda k, m=m: oracle.specificity_confidence_exact(k * (m - 1), psp, lb),
                    conf)
                for j in bad:
                    probs.append(f"m={m} conf={conf[j]} lb={lb[j]} psp={psp[j]}: "
                                 f"n={cells_n[j]} is not the smallest qualifying n")
            with open(md_path, encoding="utf-8") as fh:
                md_rows = [line for line in fh if line.startswith("| ")][1:]
            md_cells = [[c.strip() for c in line.strip().strip("|").split("|")][2:]
                        for line in md_rows]
            if md_cells != [r[3:] for r in body]:
                probs.append(f"{md_path}: cells differ from {csv_path}")
        if rows.get("file", "exact") != expected_files:
            probs.append("file rows do not list the written tables")

    def _check_sens(self, op, rows, probs):
        p = op.params
        m, psp, delta, lb, conf = p["m"], p["psp"], p["delta"], p["lb"], p["conf"]
        raw = oracle.sensitivity_sample_size_raw(m, delta, psp, lb, conf)
        probs.value(rows, "sample_size_raw", "asymptotic", raw)
        n_asym = rows.get("sample_size", "asymptotic")
        allowed = {max(1, math.ceil(raw * (1 - oracle.RTOL))),
                   max(1, math.ceil(raw * (1 + oracle.RTOL)))}
        if n_asym not in allowed:
            probs.append(f"sample_size [asymptotic]: got {n_asym!r}, oracle {sorted(allowed)}")
            return
        n_exact = rows.get("sample_size", "exact")
        if not isinstance(n_exact, int):
            probs.append(f"sample_size [exact]: got {n_exact!r}")
        elif oracle.minimality_violations(
                [n_exact],
                lambda k: oracle.sensitivity_confidence_exact(k * (m - 1.0), delta, psp, lb),
                conf).size:
            probs.append(f"sample_size [exact]: n={n_exact} is not the smallest qualifying n")
        probs.exact_int(rows, "induced_bound_evaluated_at_n", "exact", n_asym)
        nu = n_asym * (m - 1)
        probs.value(rows, "induced_specificity_lower_bound", "exact",
                    oracle.specificity_lower_bound_exact(nu, psp, conf))
        probs.value(rows, "induced_specificity_lower_bound", "asymptotic",
                    oracle.specificity_lower_bound_asymptotic(nu, psp, conf))

    def _check_fig3a(self, op, rows, probs):
        p = op.params
        path = os.path.join(op.out, "fig3a_specificity_lower_bound.csv")
        table = _read_csv(path)
        if table[0] != ["n", "m", "nu", "specificity_lower_bound"]:
            probs.append(f"{path}: header {table[0]}")
            return
        want_nm = [(n, m) for m in (2, 3, 4, 5) for n in range(4, 101)]
        body = table[1:]
        if [(int(r[0]), int(r[1]), int(r[2])) for r in body] != \
                [(n, m, n * (m - 1)) for n, m in want_nm]:
            probs.append(f"{path}: (n, m, nu) columns differ from the figure's grid")
            return
        nu = np.array([n * (m - 1) for n, m in want_nm])
        want = oracle.specificity_lower_bound_exact(nu, p["psp"], p["conf"])
        for r, w in zip(body, want):
            if not close(float(r[3]), w):
                probs.append(f"{path}: n={r[0]} m={r[1]}: {r[3]}, oracle {w!r}")
        if rows.get("file", "exact") != path:
            probs.append("file row does not name the written figure")

    # -- assess -------------------------------------------------------------

    def _check_estimate(self, op, rows, probs):
        p = op.params
        psp, wsd_hat, nu = p["psp"], p["wsd_hat"], p["nu"]
        probs.value(rows, "wsd_hat", "exact", wsd_hat)
        probs.exact_int(rows, "degrees_of_freedom", "exact", nu)
        probs.value(rows, f"repeatability_coefficient[psp={psp:g}]", "exact",
                    oracle.coverage_z(psp) * math.sqrt(2.0) * wsd_hat)
        for conf in (0.80, 0.90, 0.95):
            probs.value(rows, f"specificity_lower_bound[conf={conf:g}]", "exact",
                        oracle.specificity_lower_bound_exact(nu, psp, conf))

    def _check_retro(self, op, rows, probs):
        p = op.params
        nu, psp, conf = p["nu"], p["psp"], p["conf"]
        asym_lb = oracle.specificity_lower_bound_asymptotic(nu, psp, conf)
        # where an asymptotic row is undefined, a report that leaves the
        # other asymptotic rows out is still complete
        need_asym = asym_lb is not None
        probs.value(rows, "expected_effective_specificity", "exact",
                    oracle.expected_specificity_exact(nu, psp), atol=QUAD_ATOL)
        probs.value(rows, "expected_effective_specificity", "asymptotic",
                    oracle.expected_specificity_asymptotic(nu, psp), atol=QUAD_ATOL,
                    required=need_asym)
        probs.value(rows, "specificity_lower_bound", "exact",
                    oracle.specificity_lower_bound_exact(nu, psp, conf))
        probs.value(rows, "specificity_lower_bound", "asymptotic", asym_lb)
        for b in p["bounds"]:
            name = f"prob_effective_specificity_below[{b:g}]"
            probs.value(rows, name, "exact", oracle.prob_specificity_below_exact(nu, psp, b))
            probs.value(rows, name, "asymptotic",
                        oracle.prob_specificity_below_asymptotic(nu, psp, b),
                        required=need_asym)
        for d in p["deltas"]:
            probs.value(rows, f"sensitivity[delta={d:g}]", "exact",
                        oracle.sensitivity_known(d, psp))
            probs.value(rows, f"expected_effective_sensitivity[delta={d:g}]", "exact",
                        oracle.expected_sensitivity_exact(nu, d, psp), atol=QUAD_ATOL)
            probs.value(rows, f"sensitivity_lower_bound[delta={d:g}]", "exact",
                        oracle.sensitivity_lower_bound_exact(nu, d, psp, conf))

    def _check_fig1(self, op, rows, probs):
        psp = op.params["psp"]
        path_a = os.path.join(op.out, "fig1a_expected_specificity.csv")
        path_b = os.path.join(op.out, "fig1b_effective_specificity_density.csv")
        table = _read_csv(path_a)
        if table[0] != ["n", "m", "nu", "expected_specificity_exact",
                        "expected_specificity_asymptotic"]:
            probs.append(f"{path_a}: header {table[0]}")
            return
        body = table[1:]
        if [(int(r[0]), int(r[1]), int(r[2])) for r in body] != \
                [(n, 2, n) for n in range(4, 101)]:
            probs.append(f"{path_a}: (n, m, nu) columns differ from the figure's grid")
            return
        nu = np.arange(4, 101)
        for col, want in ((3, oracle.expected_specificity_exact(nu, psp)),
                          (4, oracle.expected_specificity_asymptotic(nu, psp))):
            for r, w in zip(body, want):
                if not close(float(r[col]), w, atol=QUAD_ATOL):
                    probs.append(f"{path_a}: n={r[0]} {table[0][col]}: {r[col]}, "
                                 f"oracle {w!r}")
        table = _read_csv(path_b)
        grid = fig1b_grid()
        body = table[1:]
        if table[0] != ["n", "p", "density"] or len(body) != len(FIG1B_N) * grid.size:
            probs.append(f"{path_b}: header or row count differs from the figure's grid")
            return
        got = np.array([[float(x) for x in r] for r in body])
        want_n = np.repeat(FIG1B_N, grid.size)
        want_p = np.tile(grid, len(FIG1B_N))
        if not np.array_equal(got[:, 0], want_n) or \
                not np.all(np.abs(got[:, 1] - want_p) <= oracle.RTOL * want_p):
            probs.append(f"{path_b}: (n, p) columns differ from the figure's grid")
            return
        dens = np.empty_like(want_p)
        logs = np.empty_like(want_p)
        for k, n in enumerate(FIG1B_N):
            sl = slice(k * grid.size, (k + 1) * grid.size)
            dens[sl], logs[sl] = oracle.specificity_density(grid, n, psp)
        # a density evaluated in log space carries the log's absolute error
        # as relative error, so the band widens with |log f|
        tol = oracle.RTOL * np.maximum(1.0, np.abs(logs)) * dens
        bad = np.flatnonzero(~(np.abs(got[:, 2] - dens) <= np.maximum(tol, oracle.ATOL)))
        for j in bad[:5]:
            probs.append(f"{path_b}: n={want_n[j]} p={want_p[j]!r}: {got[j, 2]!r}, "
                         f"oracle {dens[j]!r}")
        if len(bad) > 5:
            probs.append(f"{path_b}: {len(bad) - 5} more density mismatches")
        if rows.get("file", "exact") != [path_a, path_b]:
            probs.append("file rows do not name the written figures")

    # -- simulate -----------------------------------------------------------

    def _moments(self, nu, psp, delta):
        key = (nu, psp, delta)
        if key not in self._moment_cache:
            self._moment_cache[key] = (
                oracle.effective_specificity_moments(nu, psp) if delta is None
                else oracle.effective_sensitivity_moments(nu, delta, psp))
        return self._moment_cache[key]

    def _mc_band(self, probs, rows, name, want, se):
        got = rows.get(name, "monte-carlo")
        if not isinstance(got, (int, float)) or abs(got - want) > MC_BAND_SE * se:
            probs.append(f"{name}: {got!r} is outside {MC_BAND_SE:g} standard errors "
                         f"({se:.3g}) of the closed form {want!r}")
        return got

    def _check_simulate(self, op, rows, probs):
        p = op.params
        nu, psp, delta, reps = p["n"] * (p["m"] - 1), p["psp"], p["delta"], p["replicates"]
        conf = 0.95
        arms = [("specificity", None, oracle.expected_specificity_exact(nu, psp),
                 oracle.specificity_lower_bound_exact(nu, psp, conf))]
        if delta is not None:
            arms.append(("sensitivity", delta, oracle.expected_sensitivity_exact(nu, delta, psp),
                         oracle.sensitivity_lower_bound_exact(nu, delta, psp, conf,
                                                              two_sided=True)))
        for arm, d, mean, lower in arms:
            _, sd = self._moments(nu, psp, d)
            got = self._mc_band(probs, rows, f"effective_{arm}.mean", mean,
                                sd / math.sqrt(reps))
            rows.skip("monte-carlo", f"effective_{arm}.sd", f"effective_{arm}.mc_se_of_mean")
            qs = sorted(rows.by_prefix(f"effective_{arm}.quantile[", "monte-carlo"),
                        key=lambda t: float(t[0].split("[")[1][:-1]))
            qv = [v for _, v in qs]
            if not qv or any(b < a for a, b in zip(qv, qv[1:])) or not 0 <= qv[0] <= qv[-1] <= 1:
                probs.append(f"effective_{arm} quantiles are missing, unordered or outside [0, 1]")
            label = f"expected_effective_{arm}"
            probs.value(rows, f"{label}.analytic", "exact", mean, atol=QUAD_ATOL)
            if rows.get(f"{label}.empirical", "monte-carlo") != got:
                probs.append(f"{label}.empirical differs from effective_{arm}.mean")
            label = f"{arm}_lower_bound[conf={conf:g}]"
            probs.value(rows, f"{label}.analytic", "exact", lower)
            rows.skip("monte-carlo", f"{label}.empirical", f"{label}.mc_se", f"{label}.agreement",
                      f"expected_effective_{arm}.mc_se", f"expected_effective_{arm}.agreement")
            if p["longitudinal"]:
                label = f"longitudinal_{arm}"
                probs.value(rows, f"{label}.analytic", "exact", mean, atol=QUAD_ATOL)
                self._mc_band(probs, rows, f"{label}.empirical", mean,
                              math.sqrt(mean * (1.0 - mean) / reps))
                rows.skip("monte-carlo", f"{label}.mc_se", f"{label}.agreement")
