"""Spans and counters around repeatkit's layers, installed from outside.

``install(tracer)`` replaces the public functions of each module at the
names through which other modules call them (``repeatkit.cli.estimate_wsd``,
``repeatkit.specificity.integrate``, ``repeatkit.mc.normal_quantile`` ...)
with wrappers that open a span per call.  Spans stay in memory with a name,
start, end, parent and the operation they belong to; callables passed into
the layers are wrapped to count integrand and predicate evaluations and
replicate streams.  Nothing in ``src/`` changes.

A layer's self time is its span's duration minus the union of its child
spans' intervals.  Monte Carlo chunks run on pool threads; their spans take
the span that started the pool as parent, so overlapping children are
counted once.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("sid", "name", "parent", "op", "start", "end", "count")

    def __init__(self, sid, name, parent, op):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = time.perf_counter()
        self.end = None
        self.count = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.streams: dict[int, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1].sid if stack else None, self.op)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def add_streams(self, count: int) -> None:
        with self._lock:
            self.streams[self.op] += count

    def wrap(self, name, fn, *, count_args=None, count_result=None, counted_arg=None):
        """Span around ``fn``; optional counters from its arguments or result.

        ``counted_arg`` names the position of a callable argument whose
        invocations are added to the span's count.
        """
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                if counted_arg is not None and len(args) > counted_arg:
                    inner = args[counted_arg]

                    def counting(*a, **k):
                        span.count += 1
                        return inner(*a, **k)
                    args = args[:counted_arg] + (counting,) + args[counted_arg + 1:]
                if count_args is not None:
                    span.count += count_args(*args, **kwargs)
                result = fn(*args, **kwargs)
                if count_result is not None:
                    span.count += count_result(result)
                return result
            finally:
                self.close(span)
        return traced

    def wrap_pool(self, run_chunks):
        """Count replicate streams per chunk and parent pool-thread spans."""
        @functools.wraps(run_chunks)
        def traced(worker, chunks):
            stack = self._stack()
            parent = stack[-1] if stack else None

            def counted(start, count):
                self.add_streams(count)
                local = self._stack()
                if local or parent is None:
                    return worker(start, count)
                local.append(parent)
                try:
                    return worker(start, count)
                finally:
                    local.pop()
            return run_chunks(counted, chunks)
        return traced

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time of every span: duration minus the union of its children."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(s.sid, ())):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.sid] = (s.end - s.start) - covered
        return out

    def dump(self, path: str) -> None:
        """One JSON line per span: id, parent, operation, name, start, end, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.parent, s.op, s.name, s.start, s.end,
                                     s.count]) + "\n")


# Layer name -> (call sites, counter).  A call site is (module, attribute);
# the counter says what the span's ``count`` holds.
_FUNCTION_SITES = {
    "numerics.chisq_cdf": (("specificity", "chisq_cdf"), ("sensitivity", "chisq_cdf")),
    "numerics.chisq_quantile": (("core", "chisq_quantile"),
                                ("specificity", "chisq_quantile"),
                                ("sensitivity", "chisq_quantile")),
    "numerics.min_integer_satisfying": (("specificity", "min_integer_satisfying"),
                                        ("sensitivity", "min_integer_satisfying")),
    "numerics.integrate": (("specificity", "integrate"), ("sensitivity", "integrate")),
    "core.estimate_wsd": (("cli", "estimate_wsd"),),
    "core.TestRetestData": (("cli", "TestRetestData"),),
    "specificity.sample_size_specificity": (("cli", "sample_size_specificity"),),
    "specificity.expected_effective_specificity": (("cli", "expected_effective_specificity"),),
    "specificity.specificity_lower_bound": (("cli", "specificity_lower_bound"),),
    "sensitivity.sample_size_sensitivity": (("cli", "sample_size_sensitivity"),),
    "sensitivity.expected_effective_sensitivity": (("cli", "expected_effective_sensitivity"),),
    "mc.simulate_wsd_ratios": (("mc", "simulate_wsd_ratios"),),
    "mc.simulate_longitudinal_decisions": (("cli", "simulate_longitudinal_decisions"),),
    "mc.uniform_to_normal": (("mc", "normal_quantile"),),
    "cli.ingest": (("cli", "cmd_estimate"),),
}


def _data_rows(data, *args, **kwargs) -> int:
    return sum(len(values) for _, values in data.subjects)


_COUNTERS = {
    "numerics.min_integer_satisfying": dict(counted_arg=0),
    "numerics.integrate": dict(counted_arg=0),
    "core.estimate_wsd": dict(count_args=_data_rows),
    "mc.uniform_to_normal": dict(count_args=lambda p, *a, **k: getattr(p, "size", 1)),
    "cli.ingest": dict(count_result=lambda env: env.inputs["measurements"]),
}

LAYERS = tuple(_FUNCTION_SITES) + ("mc.EmpiricalDistribution.from_samples",
                                   "cli.render", "cli.main")


def install(tracer: Tracer) -> list:
    """Wrap every call site that exists; returns the sites wrapped."""
    installed = []
    for layer, sites in _FUNCTION_SITES.items():
        for module, attr in sites:
            mod = sys.modules.get(f"repeatkit.{module}")
            if mod is None or not hasattr(mod, attr):
                continue
            setattr(mod, attr, tracer.wrap(layer, getattr(mod, attr),
                                           **_COUNTERS.get(layer, {})))
            installed.append(f"repeatkit.{module}.{attr}")
    mc = sys.modules.get("repeatkit.mc")
    cli = sys.modules.get("repeatkit.cli")
    if mc is not None and hasattr(mc, "_run_chunks"):
        mc._run_chunks = tracer.wrap_pool(mc._run_chunks)
        installed.append("repeatkit.mc._run_chunks")
    dist = getattr(mc, "EmpiricalDistribution", None)
    if dist is not None and "from_samples" in vars(dist):
        from_samples = vars(dist)["from_samples"].__func__
        dist.from_samples = classmethod(
            tracer.wrap("mc.EmpiricalDistribution.from_samples", from_samples))
        installed.append("repeatkit.mc.EmpiricalDistribution.from_samples")
    envelope = getattr(cli, "ReportEnvelope", None)
    if envelope is not None and hasattr(envelope, "render"):
        envelope.render = tracer.wrap("cli.render", envelope.render)
        installed.append("repeatkit.cli.ReportEnvelope.render")
    return installed


def layer_metrics(tracer: Tracer, replicates_by_op: dict) -> dict:
    """Per-layer calls, counts and self seconds, plus the stream ratio."""
    self_s = tracer.self_times()
    calls = defaultdict(int)
    count = defaultdict(int)
    secs = defaultdict(float)
    for s in tracer.spans:
        calls[s.name] += 1
        count[s.name] += s.count
        secs[s.name] += self_s[s.sid]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.s"] = secs[layer]
    for layer in ("numerics.chisq_cdf", "numerics.chisq_quantile",
                  "numerics.min_integer_satisfying", "numerics.integrate",
                  "specificity.sample_size_specificity",
                  "specificity.expected_effective_specificity",
                  "specificity.specificity_lower_bound",
                  "sensitivity.sample_size_sensitivity",
                  "sensitivity.expected_effective_sensitivity",
                  "mc.simulate_wsd_ratios", "mc.simulate_longitudinal_decisions",
                  "cli.main"):
        m[f"{layer}.calls"] = calls[layer]
    m["numerics.min_integer_satisfying.evals"] = count["numerics.min_integer_satisfying"]
    m["numerics.integrate.evals"] = count["numerics.integrate"]
    m["core.estimate_wsd.rows"] = count["core.estimate_wsd"]
    m["cli.ingest.rows"] = count["cli.ingest"]
    m["mc.uniform_to_normal.elements"] = count["mc.uniform_to_normal"]
    m["mc.replicate_streams"] = sum(tracer.streams.values())
    ratios = [tracer.streams.get(op, 0) / reps for op, reps in replicates_by_op.items()]
    m["mc.streams_per_replicate"] = max(ratios, default=0.0)
    return m
