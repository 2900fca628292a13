"""One workload round in a fresh process: import, build the parser, run the ops.

Usage: ``python3 perfbench/worker.py <round.json> <result.json>``

Imports repeatkit from the ``src/`` directory of the checkout that holds
this file and records the monotonic clock once ``repeatkit.cli`` is
imported and its parser built.  Then it runs each operation of the round
spec through ``repeatkit.cli.main`` with stdout and stderr captured, and
writes exit codes, outputs, per-operation wall times and the CPU time of
the operation list to the result file.  With ``"trace": true`` in the spec
it first wraps repeatkit's layers (see ``tracing.py``) and adds per-layer
metrics to the result.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(cli, ready: float, spec_path: str, result_path: str) -> int:
    if not cli.__file__.startswith(SRC + os.sep):
        print(f"repeatkit imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = spec["ops"]
    results = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        saved = {k: os.environ.get(k) for k in op["env"]}
        os.environ.update(op["env"])
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.op = i
                span = tracer.open("cli.main")
            try:
                rc = cli.main(op["argv"])
            except Exception:
                # an escaped exception is a failed operation, not a lost round
                rc = None
                traceback.print_exc()
            finally:
                if tracer is not None:
                    tracer.close(span)
        seconds = time.perf_counter() - start
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        results.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "seconds": seconds})
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0

    result = {"ready": ready, "wall_s": wall, "cpu_s": cpu, "ops": results}
    if tracer is not None:
        replicates = {i: op["replicates"] for i, op in enumerate(ops) if op["replicates"]}
        result["layers"] = tracing.layer_metrics(tracer, replicates)
        tracer.dump(spec["trace_out"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    import repeatkit.cli
    repeatkit.cli.build_parser()
    sys.exit(main(repeatkit.cli, time.monotonic(), sys.argv[1], sys.argv[2]))
