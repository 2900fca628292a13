"""repeatkit benchmark: one workload, checked against independent oracles.

Usage::

    python3 perfbench/run.py --workload {plan,assess,simulate} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a repeatkit checkout; repeatkit is imported from its
``src/`` directory, never from an installed copy.  The seed fixes the
generated inputs.  The run repeats whole rounds for at least ``S`` seconds;
each round is a fresh process that imports repeatkit and runs the
workload's fixed list of CLI operations (see ``worker.py``).  Every output
is checked against ``oracle.py``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of traced
rounds with ``--trace 1``.  Generated inputs live under ``.perfbench_work/``
in the checkout and are removed at exit; the spans of the last traced round
stay there as ``trace-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORK_BASE = os.path.join(ROOT, ".perfbench_work")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("streams_per_replicate"):
        return "ratio"
    return "count"


def run_round(work: str, ops, traced: bool, threads: int, trace_out: str) -> dict:
    """Run the operation list once in a fresh worker process."""
    out_dir = os.path.join(work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spec_path = os.path.join(work, "round.json")
    result_path = os.path.join(work, "result.json")
    err_path = os.path.join(work, "worker.err")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": [op.spec() for op in ops], "trace": traced,
                   "trace_out": trace_out}, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, REPEATKIT_THREADS=str(threads))
    with open(err_path, "w", encoding="utf-8") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, WORKER, spec_path, result_path],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: leave no worker behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(err_path, encoding="utf-8") as fh:
            raise RoundError(f"worker exited with {proc.returncode}: {fh.read()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - started
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def warm_bytecode() -> None:
    """Import once so every timed round finds compiled bytecode, as users do."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import repeatkit.cli",
                    os.path.join(ROOT, "src")],
                   cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True, timeout=ROUND_TIMEOUT_S)


def end_to_end(rounds: list) -> dict:
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in rounds),
        "wall_s": med(r["wall_s"] for r in rounds),
        # The box's speed drifts between rounds; averaging the rounds' medians
        # moves smoothly with the share of slow rounds, where a pooled median
        # jumps between them.
        "op_p50_ms": 1000.0 * statistics.mean(med(o["seconds"] for o in r["ops"])
                                              for r in rounds),
        "cpu_s": med(r["cpu_s"] for r in rounds),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(traced: list, untraced: list) -> dict:
    names = traced[0]["layers"]
    m = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    m["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                             - statistics.median(r["wall_s"] for r in untraced))
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(ROOT, "src", "repeatkit", "cli.py")):
        print(f"perfbench: no repeatkit sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    work = os.path.join(WORK_BASE, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    trace_out = os.path.join(WORK_BASE, f"trace-{args.workload}-seed{args.seed}.jsonl")
    try:
        ops = workloads.build(args.workload, args.seed, work, threads)
        checker = checks.Checker(ops)
        warm_bytecode()
        schedule = (False, True) if args.trace else (False,)
        rounds = {False: [], True: []}
        attempted = failed = 0
        problems: dict = {}
        start = time.monotonic()
        while (time.monotonic() - start < args.seconds
               or len(rounds[schedule[-1]]) < (2 if args.trace else MIN_ROUNDS)):
            for traced in schedule:
                r = run_round(work, ops, traced, threads, trace_out)
                rounds[traced].append(r)
                stdouts = [o["stdout"] for o in r["ops"]]
                for i, o in enumerate(r["ops"]):
                    attempted += 1
                    found = checker.check(i, o["rc"], o["stdout"], stdouts)
                    if found:
                        failed += 1
                        problems.setdefault(i, found + [o["stderr"].strip()[-500:]])
    except (RoundError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, found in sorted(problems.items()):
        tag = "known fault" if ops[i].known_fault else "FAILED"
        print(f"[{tag}] op {i}: repeatkit {' '.join(ops[i].argv)}", file=sys.stderr)
        for line in found:
            if line:
                print(f"    {line}", file=sys.stderr)
    if args.trace:
        values = per_layer(rounds[True], rounds[False])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(rounds[False])
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(f"{args.workload} seed={args.seed}: {len(rounds[False])} untraced and "
          f"{len(rounds[True])} traced rounds of {len(ops)} operations, "
          f"{threads} Monte Carlo threads; wall_s per round: "
          + " ".join(f"{r['wall_s']:.3f}" for r in rounds[False]), file=sys.stderr)
    correct = all(ops[i].known_fault for i in problems)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
