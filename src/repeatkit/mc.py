"""Monte Carlo oracle: brute-force simulation of test-retest studies.

Every analytic statement in this package reduces to the law of the
estimation-error ratio ``W = wsd_hat / w_SD``.  This module checks those
statements the expensive way.  :func:`simulate_study` makes one pass over a
design: each replicate simulates a whole test-retest study (``n`` subjects
x ``m`` replicates of ``N(mu_i, w_sd^2)`` measurements), re-estimates the
within-subject SD, and then classifies one unchanged and one changed
measurement pair against its own estimated threshold.  The effective
specificity and sensitivity of each study are monotone maps of its ratio,
so callers get their distributions by passing the stored ratios through
``effective_*_given_ratio`` and :meth:`EmpiricalDistribution.from_samples`.

Reproducibility contract (v2): a run draws from one Philox4x64-10 stream
keyed by the two 64-bit words ``[seed, 0]``.  Replicate ``r`` needs
``n*m + 4`` normals (the first ``n*m`` are the study's measurement noise,
the last 4 its decision pair) and owns the counter blocks ``[r*B, (r+1)*B)``
with ``B = ceil((n*m + 4) / 4)``, of which it uses the first ``n*m + 4``
64-bit words.  Any single replicate is regenerated with
``Philox(key=np.array([seed, 0], np.uint64)).advance(r*B)``, a shorter run
is a prefix of a longer one, and neither chunking nor thread count can
change results.
Uniforms map 64-bit raw output to the open interval via
``((raw >> 11) + 0.5) * 2^-53``, held at ``1 - 2^-53`` for the top word that
rounds to 1, and become normals through ``scipy.special.ndtri``.  A chunk
holds one buffer: ``Generator.random`` writes ``(raw >> 11) * 2^-53`` into
it, adding ``2^-54`` rounds like the map above, and ``ndtri`` runs in place.
The chunk's tables are then centred in place, subject means summed column
slice by column slice for ``m < 8`` (numpy's own left-to-right order below 8
elements) and by ``mean`` from ``m = 8`` (where numpy sums pairwise), and
pooled with one ``einsum``, so the floats match a plain ``mean`` at every m.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .core import symmetric_coverage_quantile
from .numerics import check_integer, check_probability, check_real, normal_quantile

__all__ = [
    "SimulationConfig",
    "EmpiricalDistribution",
    "StudySimulation",
    "QUANTILE_PROBES",
    "simulate_study",
]

_SQRT2 = math.sqrt(2.0)

QUANTILE_PROBES = (0.01, 0.05, 0.25, 0.50, 0.75, 0.95, 0.99)

# Work-unit size in replicates; a fixed constant (shrunk only by the
# per-replicate draw count to bound buffer memory) so the chunk layout, and
# therefore every floating-point reduction, is independent of threading.
# A design whose single replicate exceeds the draw budget is rejected.
_CHUNK_REPLICATES = 4096
_CHUNK_BUDGET_DRAWS = 8_000_000

# Memory bound on a whole run.  Besides the chunk buffers, each replicate
# keeps at most eight float64 values alive at once: its chunk's ratio and
# the concatenated ratios, then the specificity and sensitivity samples,
# their read-only copies and the temporaries of the ratio maps and of the
# quantiles.  A run over the budget is rejected before anything is drawn.
_BYTES_PER_REPLICATE = 8 * 8
_RUN_BUDGET_BYTES = 2**30


def _thread_count() -> int:
    raw = os.environ.get("REPEATKIT_THREADS", "0")
    try:
        requested = int(raw)
    except ValueError:
        requested = -1
    if requested > 0:
        return requested
    if requested < 0:
        warnings.warn(f"REPEATKIT_THREADS={raw!r} is not an integer >= 0; using auto",
                      stacklevel=2)
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulated study design and run.

    ``n`` subjects measured ``m`` times each with within-subject SD
    ``w_sd``; ``delta`` is the noise-standardized true change used by the
    sensitivity arms; ``replicates`` independent studies are generated from
    ``seed``.
    """

    n: int
    m: int
    w_sd: float = 1.0
    p_sp: float = 0.95
    delta: float = 0.0
    replicates: int = 100_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", check_integer(self.n, "n"))
        object.__setattr__(self, "m", check_integer(self.m, "replicates per subject m", 2))
        object.__setattr__(self, "w_sd", check_real(self.w_sd, "w_sd", 0.0, strict=True))
        object.__setattr__(self, "p_sp", check_probability(self.p_sp, "p_sp"))
        object.__setattr__(self, "delta", check_real(self.delta, "delta"))
        object.__setattr__(self, "replicates", check_integer(self.replicates, "replicates"))
        if self.replicates * _BYTES_PER_REPLICATE > _RUN_BUDGET_BYTES:
            raise DomainError(
                f"replicates = {self.replicates} exceed the sample memory budget of "
                f"{_RUN_BUDGET_BYTES} bytes at {_BYTES_PER_REPLICATE} bytes per replicate "
                f"(at most {_RUN_BUDGET_BYTES // _BYTES_PER_REPLICATE} replicates)")
        object.__setattr__(self, "seed", check_integer(self.seed, "seed", 0))
        if self.seed >= 2**64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.n * self.m + 4 > _CHUNK_BUDGET_DRAWS:
            raise DomainError(f"n*m + 4 = {self.n * self.m + 4} draws per replicate exceed "
                              f"the buffer budget of {_CHUNK_BUDGET_DRAWS}")

    @property
    def nu(self) -> int:
        return self.n * (self.m - 1)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Simulated samples of an operating characteristic plus their summary.

    ``quantiles`` pairs each probe level with the sample quantile;
    ``mc_standard_error_of_mean`` is ``sd / sqrt(replicates)``.  The summary
    is always recomputable from ``samples``.
    """

    samples: np.ndarray
    mean: float
    sd: float
    quantiles: tuple[tuple[float, float], ...]
    mc_standard_error_of_mean: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalDistribution":
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise DomainError("samples must be a nonempty 1-d array")
        samples = samples.copy()
        samples.flags.writeable = False
        mean = float(np.mean(samples))
        sd = float(np.std(samples, ddof=1)) if samples.size > 1 else 0.0
        quantiles = tuple(zip(QUANTILE_PROBES,
                              np.quantile(samples, QUANTILE_PROBES).tolist()))
        return cls(samples=samples, mean=mean, sd=sd, quantiles=quantiles,
                   mc_standard_error_of_mean=sd / math.sqrt(samples.size))

    def quantile(self, q: float) -> float:
        """Sample quantile at an arbitrary level (not just the stored probes)."""
        q = check_probability(q, "q")
        return float(np.quantile(self.samples, q))

    def quantile_standard_error(self, q: float) -> float:
        """Monte Carlo standard error of the ``q``-quantile.

        Binomial/density method: ``sqrt(q (1-q) / R)`` counting error scaled
        by the inverse density, the latter estimated from the quantile slope
        over ``q +- 0.01`` (narrower near 0 and 1).
        """
        q = check_probability(q, "q")
        r = self.samples.size
        h = min(0.01, 0.5 * q, 0.5 * (1.0 - q))
        if h <= 0.0 or r < 2:
            raise DomainError("too few samples or too extreme q for a quantile SE")
        slope = (np.quantile(self.samples, q + h)
                 - np.quantile(self.samples, q - h)) / (2.0 * h)
        return math.sqrt(q * (1.0 - q) / r) * float(slope)


def _run_chunks(worker, chunks):
    threads = _thread_count()
    if threads == 1 or len(chunks) == 1:
        return [worker(start, count) for start, count in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda sc: worker(*sc), chunks))


def _chunk_normals(cfg: SimulationConfig, start: int, count: int,
                   draws: int) -> np.ndarray:
    """Standard normal draws for replicates [start, start+count), shape (count, draws)."""
    blocks = -(-draws // 4)  # B: Philox blocks of four words per replicate
    gen = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, 0], np.uint64)))
    gen.bit_generator.advance(start * blocks)
    # random() is (x >> 11) * 2^-53; adding 2^-54 and holding it below 1 give the map above
    out = gen.random((count, 4 * blocks))[:, :draws]
    out += 2.0 ** -54
    np.minimum(out, 1.0 - 2.0 ** -53, out=out)
    return normal_quantile(out, out=out)


@dataclass(frozen=True)
class StudySimulation:
    """Result of :func:`simulate_study`.

    ``ratios`` holds each study's ``wsd_hat / w_SD`` (read-only);
    ``longitudinal_specificity`` is the fraction of unchanged pairs kept and
    ``longitudinal_sensitivity`` the fraction of changed pairs flagged.
    """

    ratios: np.ndarray
    longitudinal_specificity: float
    longitudinal_sensitivity: float


def simulate_study(cfg: SimulationConfig) -> StudySimulation:
    """Simulate ``cfg.replicates`` studies of the design in one pass.

    Each replicate builds a full ``n x m`` measurement table, pools the
    within-subject sums of squares, and divides the resulting SD estimate
    by the true ``w_sd``.  It then draws one unchanged and one changed (by
    ``delta * w_sd``) measurement pair and classifies both by the
    strict-exceedance rule against its estimated threshold (the same
    comparison as ``decide_change``), the only step with no closed form
    anywhere.  All of it is scale-free, so it runs in units of ``w_sd``.
    Deterministic given ``cfg``.
    """
    z = symmetric_coverage_quantile(cfg.p_sp)
    table = cfg.n * cfg.m
    draws = table + 4
    size = min(_CHUNK_REPLICATES, _CHUNK_BUDGET_DRAWS // draws)
    chunks = [(start, min(size, cfg.replicates - start))
              for start in range(0, cfg.replicates, size)]

    def worker(start, count):
        # in units of w_sd, so no draw is scaled (none overflows or underflows)
        normals = _chunk_normals(cfg, start, count, draws)
        centered = normals[:, :table].reshape(count, cfg.n, cfg.m)
        if cfg.m < 8:
            # numpy sums fewer than 8 elements left to right: the same sum, in slices
            means = centered[:, :, 0].copy()
            for j in range(1, cfg.m):
                means += centered[:, :, j]
            means /= cfg.m
            for j in range(cfg.m):
                centered[:, :, j] -= means
        else:  # from 8 elements numpy sums pairwise, which slices would not reproduce
            centered -= centered.mean(axis=2, keepdims=True)
        pooled_ss = np.einsum("rij,rij->r", centered, centered)
        ratios = np.sqrt(pooled_ss / cfg.nu)
        rc_hat = z * _SQRT2 * ratios
        pair = normals[:, table:]
        kept = np.count_nonzero(np.abs(pair[:, 1] - pair[:, 0]) <= rc_hat)
        caught = np.count_nonzero(np.abs(cfg.delta + pair[:, 3] - pair[:, 2]) > rc_hat)
        return ratios, int(kept), int(caught)

    results = _run_chunks(worker, chunks)
    ratios = np.concatenate([r[0] for r in results])
    ratios.flags.writeable = False
    return StudySimulation(
        ratios=ratios,
        longitudinal_specificity=sum(r[1] for r in results) / cfg.replicates,
        longitudinal_sensitivity=sum(r[2] for r in results) / cfg.replicates)
