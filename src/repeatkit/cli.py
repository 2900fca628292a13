"""Command-line surface for planning and assessing repeatability studies.

Subcommands::

    samplesize-spec   subjects needed for an effective-specificity floor
    samplesize-sens   subjects needed for an effective-sensitivity floor
    retro             retrospective assessment of an existing design
    estimate          within-subject SD / repeatability coefficient from CSV
    tables            regenerate the sample-size reference grids (m=2..5)
    figure-data       plot-ready CSV point sets for the standard figures
    simulate          Monte Carlo cross-check of the analytic values

Every subcommand reports through a self-describing envelope (inputs echoed,
each numeric result labeled exact/asymptotic/monte-carlo, warnings
collected, tool version pinned) rendered as a human table, JSON (floats at
10 significant digits), or CSV rows.

Exit codes: 0 success, 2 infeasible design, 64 usage error, 65 data error,
73 output I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import warnings as _warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DataValidationError, DomainError, InfeasibleError
from .core import MethodChoice, design_degrees_of_freedom, pooled_wsd, ratio_density_exact
from .specificity import (
    effective_specificity_given_ratio,
    effective_specificity_pdf,
    expected_effective_specificity,
    sample_size_specificity,
    sample_size_specificity_grid,
    specificity_lower_bound,
    specificity_shortfall,
)
from .sensitivity import (
    EffectSize,
    SensitivityApproximation,
    effective_sensitivity_given_ratio,
    expected_effective_sensitivity,
    sample_size_sensitivity,
    sensitivity,
    sensitivity_lower_bound,
)
from .mc import EmpiricalDistribution, SimulationConfig, simulate_study
from .numerics import check_integer, check_probability

__all__ = ["main", "build_parser", "ReportEnvelope"]

# Default parameter grids of the published sample-size reference tables.
TABLE_M_VALUES = (2, 3, 4, 5)
TABLE_CONF_VALUES = (0.800, 0.900, 0.925, 0.950, 0.975, 0.990)
TABLE_LB_VALUES = (0.700, 0.800, 0.900, 0.925, 0.950, 0.975)
TABLE_PSP_VALUES = (0.800, 0.900, 0.925, 0.950, 0.975, 0.990)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_CANTCREAT = 73

# Longest file name, in bytes, that common file systems take (NAME_MAX).
_MAX_FILE_NAME = 255


class UsageError(DomainError):
    """Malformed flags or flag combinations; maps to exit code 64."""


def _round10(x: float) -> float:
    # canonical 10-significant-digit float for machine-readable output; a
    # finite value that rounds past the largest double is kept as it is
    r = float(f"{x:.10g}")
    return x if math.isinf(r) and math.isfinite(x) else r


def _fmt(x) -> str:
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, float):
        # the digits of _round10(x), which the JSON rendering writes
        return f"{x:.10g}"
    return str(x)


# A list of scalars as JSON, one scalar per line: a separator of "\n" keeps
# the C encoder, which json.dumps skips whenever it indents.
_encode_lines = json.JSONEncoder(separators=("\n", ": ")).encode
# One result row of an indented JSON payload, without its leading indent.
_JSON_RESULT = ('{\n      "name": %s,\n      "value": %s,\n      "method": %s,\n'
                '      "units": %s\n    }')


def _json_block(items: list, indent: str, brackets: str = "[]") -> str:
    """``items`` one per line in ``brackets``, as an indented JSON value closed at ``indent``."""
    if not items:
        return brackets
    return f"{brackets[0]}\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}{brackets[1]}"


@dataclass
class ReportEnvelope:
    """Self-describing result container shared by all subcommands."""

    command: str
    inputs: dict
    method: tuple[str, ...]
    results: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    tool_version: str = __version__

    def add(self, name: str, value, method: str, units: str):
        self.results.append(
            {"name": name, "value": value, "method": method, "units": units})

    def take_warnings(self, caught):
        """Put the captured warnings first, then those the command added; each once."""
        messages = [str(w.message) for w in caught] + self.warnings
        self.warnings = list(dict.fromkeys(messages))

    def _json(self) -> str:
        """The envelope as ``json.dumps(payload, indent=2) + "\\n"``, in one pass.

        The payload holds the envelope's fields in order, each float of the
        inputs and results rounded by :func:`_round10`.  Every scalar is
        collected in document order (input keys are strings, input values
        scalars or lists of them) and one C-encoder call writes them one per
        line, as ``ensure_ascii`` keeps newlines out of encoded strings.  A
        ``%s`` template of the envelope's fixed layout takes the texts.
        """
        scalars = [self.command]
        entries = []
        for key, v in self.inputs.items():
            scalars.append(key)
            if isinstance(v, (list, tuple)):
                scalars.extend([_round10(x) if isinstance(x, float) else x for x in v])
                entries.append("%s: " + _json_block(["%s"] * len(v), "    "))
            else:
                scalars.append(_round10(v) if isinstance(v, float) else v)
                entries.append("%s: %s")
        scalars.extend(self.method)
        for r in self.results:
            v = r["value"]
            scalars += (r["name"], _round10(v) if isinstance(v, float) else v,
                        r["method"], r["units"])
        scalars.extend(self.warnings)
        scalars.append(self.tool_version)
        template = (f'{{\n  "command": %s,\n  "inputs": {_json_block(entries, "  ", "{}")},\n'
                    f'  "method": {_json_block(["%s"] * len(self.method), "  ")},\n'
                    f'  "results": {_json_block([_JSON_RESULT] * len(self.results), "  ")},\n'
                    f'  "warnings": {_json_block(["%s"] * len(self.warnings), "  ")},\n'
                    '  "tool_version": %s\n}\n')
        return template % tuple(_encode_lines(scalars)[1:-1].split("\n"))

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self._json()
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["name", "value", "method", "units"])
            for r in self.results:
                writer.writerow([r["name"], _fmt(r["value"]), r["method"], r["units"]])
            return buf.getvalue()
        lines = [f"repeatkit {self.command} (v{self.tool_version})", "inputs:"]
        for k, v in self.inputs.items():
            lines.append(f"  {k} = {_fmt(v)}")
        lines.append("results:")
        name_w = max((len(r["name"]) for r in self.results), default=0)
        for r in self.results:
            v = r["value"]
            if r["units"] == "probability" and isinstance(v, float):
                shown = f"{v * 100:.2f}%"
            else:
                shown = _fmt(v)
            lines.append(f"  {r['name']:<{name_w}}  {shown:>14}  [{r['method']}] {r['units']}")
        if self.warnings:
            lines.append("warnings:")
            lines.extend(f"  - {w}" for w in self.warnings)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# flag plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through UsageError for exit 64
    def error(self, message):
        raise UsageError(message)


def _list_of(kind, noun: str):
    """Flag type for a comma-separated list of ``kind``; blank items are skipped."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated {noun} list: {text!r}")
    return parse


_float_list = _list_of(float, "float")
_int_list = _list_of(int, "integer")


def _add_format_flag(sub):
    sub.add_argument("--format", choices=("table", "json", "csv"), default="table",
                     help="output rendering (default: table)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: do not mutate it."""
    parser = _Parser(prog="repeatkit",
                     description="Plan and assess test-retest repeatability studies.")
    parser.add_argument("--version", action="version", version=f"repeatkit {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("samplesize-spec", help="sample size for an effective-specificity floor")
    p.add_argument("--m", type=int, default=2, help="replicates per subject (default 2)")
    p.add_argument("--psp", type=float, default=0.95, help="target specificity (default 0.95)")
    p.add_argument("--esp-lb", type=float, required=True,
                   help="floor on the effective specificity")
    p.add_argument("--conf", type=float, default=0.95, help="confidence level (default 0.95)")
    _add_format_flag(p)

    p = subs.add_parser("samplesize-sens",
                        help="sample size for an effective-sensitivity floor")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--psp", type=float, default=0.95)
    p.add_argument("--delta", type=float, default=None,
                   help="noise-standardized effect size")
    p.add_argument("--mu-delta", type=float, default=None,
                   help="raw change in biomarker units (needs --wsd)")
    p.add_argument("--wsd", type=float, default=None,
                   help="within-subject SD for standardizing --mu-delta")
    p.add_argument("--ese-lb", type=float, required=True,
                   help="floor on the effective sensitivity")
    p.add_argument("--conf", type=float, default=0.95)
    _add_format_flag(p)

    p = subs.add_parser("retro", help="retrospective assessment of a design")
    p.add_argument("--n", type=int, default=None, help="number of subjects")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--nu", type=int, default=None,
                   help="pooled degrees of freedom (alternative to --n/--m)")
    p.add_argument("--psp", type=float, default=0.95)
    p.add_argument("--conf", type=float, default=0.95)
    p.add_argument("--bound", type=_float_list, default=(),
                   help="comma-separated floors b for P[effective specificity < b]")
    p.add_argument("--delta", type=_float_list, default=(),
                   help="comma-separated effect sizes for sensitivity summaries")
    _add_format_flag(p)

    p = subs.add_parser("estimate", help="estimate the within-subject SD from CSV data")
    p.add_argument("--csv", required=True,
                   help=f"CSV path with header {','.join(_COLUMNS)} ('-' = stdin)")
    p.add_argument("--psp", type=float, default=0.95)
    _add_format_flag(p)

    p = subs.add_parser("tables", help="regenerate the sample-size reference grids")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--m-list", type=_int_list, default=TABLE_M_VALUES)
    p.add_argument("--conf-list", type=_float_list, default=TABLE_CONF_VALUES)
    p.add_argument("--esp-lb-list", type=_float_list, default=TABLE_LB_VALUES)
    p.add_argument("--psp-list", type=_float_list, default=TABLE_PSP_VALUES)
    _add_format_flag(p)

    p = subs.add_parser("figure-data", help="emit plot-ready CSV point sets")
    p.add_argument("--figure", required=True,
                   help="figure id: one of 1, 2, 3a, 4a, 4b")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--psp", type=float, default=0.95)
    p.add_argument("--conf", type=float, default=0.95)
    p.add_argument("--delta", type=float, default=4.0)
    p.add_argument("--n", type=int, default=None,
                   help="design size override for the ratio-density figures")
    _add_format_flag(p)

    p = subs.add_parser("simulate", help="Monte Carlo cross-check of analytic values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--psp", type=float, default=0.95)
    p.add_argument("--wsd", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--longitudinal", action="store_true",
                   help="also run the end-to-end decision simulation")
    _add_format_flag(p)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_samplesize_spec(args) -> ReportEnvelope:
    env = ReportEnvelope(
        command="samplesize-spec",
        inputs={"m": args.m, "psp": args.psp, "esp_lb": args.esp_lb, "conf": args.conf},
        method=("exact", "asymptotic"))
    asym = sample_size_specificity(args.m, args.psp, args.esp_lb, args.conf,
                                   MethodChoice.ASYMPTOTIC)
    exact = sample_size_specificity(args.m, args.psp, args.esp_lb, args.conf,
                                    MethodChoice.EXACT)
    expected = expected_effective_specificity(
        design_degrees_of_freedom(exact.n, args.m), args.psp, MethodChoice.EXACT)
    env.add("sample_size_raw", asym.raw, "asymptotic", "subjects")
    env.add("sample_size", asym.n, "asymptotic", "subjects")
    env.add("sample_size", exact.n, "exact", "subjects")
    env.add("expected_effective_specificity_at_exact_n", expected, "exact", "probability")
    return env


def _resolve_effect(args) -> EffectSize:
    if args.delta is not None:
        if args.mu_delta is not None or args.wsd is not None:
            raise UsageError("--delta and --mu-delta/--wsd are mutually exclusive")
        return EffectSize(args.delta)
    if args.mu_delta is None or args.wsd is None:
        raise UsageError("provide --delta, or both --mu-delta and --wsd")
    return EffectSize.from_change(args.mu_delta, args.wsd)


def _asymptotic_specificity_bound(env: ReportEnvelope, nu: int, psp: float,
                                  conf: float) -> float | None:
    """Asymptotic specificity floor, or None where it is undefined.

    For small ``nu`` or high ``conf`` the normal approximation puts the
    ratio quantile at or below 0.  Only that row is missing then: the
    reason goes to the envelope's warnings and the rest of the report
    stands.  Callers evaluate the exact floor first, so ``psp`` and
    ``conf`` are already validated and no usage error is swallowed here.
    """
    try:
        return specificity_lower_bound(nu, psp, conf, MethodChoice.ASYMPTOTIC)
    except DomainError as e:
        env.warnings.append(str(e))
        return None


def cmd_samplesize_sens(args) -> ReportEnvelope:
    eff = _resolve_effect(args)
    env = ReportEnvelope(
        command="samplesize-sens",
        inputs={"m": args.m, "psp": args.psp, "delta": eff.signed,
                "ese_lb": args.ese_lb, "conf": args.conf},
        method=("exact", "asymptotic"))
    asym = sample_size_sensitivity(args.m, eff, args.psp, args.ese_lb, args.conf,
                                   MethodChoice.ASYMPTOTIC)
    exact = sample_size_sensitivity(args.m, eff, args.psp, args.ese_lb, args.conf,
                                    MethodChoice.EXACT)
    nu_at_asym = design_degrees_of_freedom(asym.n, args.m)
    induced_exact = specificity_lower_bound(nu_at_asym, args.psp, args.conf,
                                            MethodChoice.EXACT)
    induced_asym = _asymptotic_specificity_bound(env, nu_at_asym, args.psp, args.conf)
    env.add("sample_size_raw", asym.raw, "asymptotic", "subjects")
    env.add("sample_size", asym.n, "asymptotic", "subjects")
    env.add("sample_size", exact.n, "exact", "subjects")
    env.add("induced_bound_evaluated_at_n", asym.n, "exact", "subjects")
    env.add("induced_specificity_lower_bound", induced_exact, "exact", "probability")
    if induced_asym is not None:
        env.add("induced_specificity_lower_bound", induced_asym, "asymptotic",
                "probability")
    return env


def _resolve_nu(args) -> int:
    if args.nu is not None:
        if args.n is not None:
            raise UsageError("--nu and --n are mutually exclusive")
        return args.nu
    if args.n is None:
        raise UsageError("provide --n (with --m) or --nu")
    return design_degrees_of_freedom(args.n, args.m)


def cmd_retro(args) -> ReportEnvelope:
    nu = _resolve_nu(args)
    env = ReportEnvelope(
        command="retro",
        inputs={"n": args.n, "m": args.m, "nu": nu, "psp": args.psp,
                "conf": args.conf, "bound": list(args.bound),
                "delta": list(args.delta)},
        method=("exact", "asymptotic"))
    env.add("expected_effective_specificity",
            expected_effective_specificity(nu, args.psp, MethodChoice.EXACT),
            "exact", "probability")
    env.add("expected_effective_specificity",
            expected_effective_specificity(nu, args.psp, MethodChoice.ASYMPTOTIC),
            "asymptotic", "probability")
    env.add("specificity_lower_bound",
            specificity_lower_bound(nu, args.psp, args.conf, MethodChoice.EXACT),
            "exact", "probability")
    asym_lb = _asymptotic_specificity_bound(env, nu, args.psp, args.conf)
    if asym_lb is not None:
        env.add("specificity_lower_bound", asym_lb, "asymptotic", "probability")
    for b in args.bound:
        env.add(f"prob_effective_specificity_below[{b:g}]",
                specificity_shortfall(nu, args.psp, b, MethodChoice.EXACT),
                "exact", "probability")
        env.add(f"prob_effective_specificity_below[{b:g}]",
                specificity_shortfall(nu, args.psp, b, MethodChoice.ASYMPTOTIC),
                "asymptotic", "probability")
    for d in args.delta:
        eff = EffectSize(d)
        env.add(f"sensitivity[delta={d:g}]", sensitivity(eff, args.psp),
                "exact", "probability")
        env.add(f"expected_effective_sensitivity[delta={d:g}]",
                expected_effective_sensitivity(nu, eff, args.psp, MethodChoice.EXACT),
                "exact", "probability")
        env.add(f"sensitivity_lower_bound[delta={d:g}]",
                sensitivity_lower_bound(nu, eff, args.psp, args.conf, MethodChoice.EXACT),
                "exact", "probability")
    return env


_COLUMNS = ("subject_id", "replicate_index", "value")  # a measurement CSV's header
# Replicate indices are compared as 64-bit integers.
_MAX_REPLICATE_INDEX = 2**63 - 1


def _read_study(stream, source: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse and validate a measurement CSV into columns.

    Returns the subject ids in order of first appearance, each data row's
    subject code (its position in that list) and each data row's value.
    One pass over ``csv.reader`` checks each data row (:func:`_parsed`),
    numbers it by the line it starts on from ``reader.line_num``, and
    appends a valid row to compact columns of code, replicate index, value
    and line.  The pass stops checking at the first invalid row but reads
    on to the end, so a later decode or csv error still wins.  A repeated
    ``(subject_id, replicate_index)`` before that row (:func:`_first_repeat`)
    is reported in its place, as it comes first in file order.
    """
    reader = csv.reader(stream)
    lookup, error = {}, None
    codes, indices, values, lines = array("q"), array("q"), array("d"), array("q")
    try:
        header = next(reader, None)
        if header is None:
            raise DataValidationError(f"{source}: empty file")
        if tuple(h.strip() for h in header) != _COLUMNS:
            raise DataValidationError(
                f"{source}: header must be {','.join(_COLUMNS)!r}, got {','.join(header)!r}")
        line = reader.line_num
        for row in reader:
            start, line = line + 1, reader.line_num
            if error or not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                sid, index, value = _parsed(row)
            except DataValidationError as e:
                error = f"{source}:{start}: {e}"
                continue
            codes.append(lookup.setdefault(sid, len(lookup)))
            indices.append(index)
            values.append(value)
            lines.append(start)
    except UnicodeDecodeError:
        # the decoder's offsets count from its current chunk, not the file start
        raise DataValidationError(f"{source}: not UTF-8 text") from None
    except csv.Error as e:
        raise DataValidationError(f"{source}:{reader.line_num}: {e}") from None
    names = list(lookup)
    codes, indices = np.frombuffer(codes, np.int64), np.frombuffer(indices, np.int64)
    k = _first_repeat(codes, indices)
    if k is not None:
        raise DataValidationError(
            f"{source}:{lines[k]}: duplicate (subject_id, replicate_index) = "
            f"({names[codes[k]]}, {indices[k]})")
    if error:
        raise DataValidationError(error)
    if not names:
        raise DataValidationError(f"{source}: no data rows")
    counts = np.bincount(codes)
    short = np.flatnonzero(counts < 2)
    if short.size:
        k = short[0]
        raise DataValidationError(
            f"subject {names[k]!r} has {counts[k]} measurement(s); "
            "at least 2 replicates are required")
    return names, codes, np.frombuffer(values)


def _parsed(row: list[str]) -> tuple[str, int, float]:
    """A data row's stripped id, replicate index and value; raises at its first fault."""
    if len(row) != 3:
        raise DataValidationError(f"expected 3 columns, got {len(row)}")
    sid = row[0].strip()
    if not sid:
        raise DataValidationError("empty subject_id")
    try:
        index = int(row[1])
    except ValueError:
        raise DataValidationError(f"replicate_index {row[1]!r} is not an integer") from None
    if index < 1:
        raise DataValidationError("replicate_index must be >= 1")
    try:
        value = float(row[2])
    except ValueError:
        raise DataValidationError(f"value {row[2]!r} is not numeric") from None
    if not math.isfinite(value):
        raise DataValidationError(f"value {row[2]!r} is not finite")
    if index > _MAX_REPLICATE_INDEX:
        raise DataValidationError(f"replicate_index {row[1]!r} is out of range")
    return sid, index, value


def _first_repeat(codes: np.ndarray, indices: np.ndarray):
    """The first row, in file order, whose ``(code, index)`` an earlier row has; else None.

    A repeat shows as two equal neighbours once the rows' ``(code, index
    rank)`` keys are sorted; only then does a stable sort find its row.
    """
    distinct, rank = np.unique(indices, return_inverse=True)
    keys = codes * distinct.size + rank
    ordered = np.sort(keys)
    later = ordered[1:] == ordered[:-1]
    if not later.any():
        return None
    return int(np.argsort(keys, kind="stable")[1:][later].min())


def _checked(names, codes, idx, values):
    """``(names, codes, values)``, or None if an index or a value is invalid or a row repeats."""
    if idx.min() < 1 or not np.isfinite(values).all() or _first_repeat(codes, idx) is not None:
        return None
    return names, codes, values


_HEADER = (",".join(_COLUMNS) + "\n").encode()
# Bytes that make csv.reader's rows differ from a plain split on "," and "\n"
# (a quote, another line end, NUL), or that numpy's parser skips as blanks
# inside a number where int() and float() reject them (\x1c to \x1f).
_NOT_PLAIN = (b'"', b"\r", b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Widest parsed id column, a multiple of 8 bytes; an id that fills it may
# have been cut short.
_MAX_ID_WIDTH = 64
# Longest line of a plain file: the smallest digit limit Python lets int() have.
_MAX_PLAIN_LINE = 640
# Odd multiplier of the id hash (2**64 over the golden ratio).
_HASH_STEP = np.uint64(0x9E3779B97F4A7C15)


def _load_study(data: bytes, source: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """:func:`_read_study` of a measurement CSV given as its bytes.

    A plain file is parsed by numpy's C reader (:func:`_plain_columns`).
    Any other file, and any plain file that fails a check, goes unchanged
    to the one-pass row reader :func:`_read_study`, so every error it
    reports is that reader's.
    """
    columns = _plain_columns(data)
    if columns is None:
        return _read_study(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""),
                           source)
    return columns


def _plain_columns(data: bytes):
    """``(names, codes, values)`` of a plain, valid measurement CSV, else None.

    Plain means: UTF-8, the exact header line, no byte of ``_NOT_PLAIN``,
    and no line longer than ``_MAX_PLAIN_LINE`` or csv's field size limit.
    Its rows are then a split on "," and "\\n", and ``np.loadtxt`` parses
    the numbers as ``int`` and ``float`` would, or fails.  The file is
    valid when ``loadtxt`` parses it without a warning (there is a data
    row), the ids group without a hash collision (:func:`_id_codes`), no
    id fills its column, every id is non-empty and equal to its
    ``strip()``, every subject has 2 rows or more and :func:`_checked`
    accepts the columns.  None answers the same as :func:`_read_study`
    would, so the caller can hand the file to it.
    """
    if not data.startswith(_HEADER) or any(b in data for b in _NOT_PLAIN):
        return None
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError:
            return None
    octets = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(octets == ord("\n"))
    stops = np.append(ends[1:], len(data))
    if int((stops - ends).max()) - 1 > min(_MAX_PLAIN_LINE, csv.field_size_limit()):
        return None
    # the longest first field of a data line: up to its first comma, or the whole line
    commas = np.append(np.flatnonzero(octets == ord(",")), len(data))
    longest = int((np.minimum(commas[np.searchsorted(commas, ends)], stops) - ends).max()) - 1
    # the column is wider than every id: only a capped column can cut one
    width = min((longest // 8 + 1) * 8, _MAX_ID_WIDTH)
    del octets, ends, stops, commas  # a file's worth of indices, freed before it is parsed
    try:
        with _warnings.catch_warnings():
            # an empty body warns; no warning of this path reaches the report
            _warnings.simplefilter("error")
            table = np.loadtxt(io.BytesIO(data), delimiter=",", quotechar=None, comments=None,
                               skiprows=1, ndmin=1,
                               dtype=[("s", f"S{width}"), ("i", "i8"), ("v", "f8")])
    except (ValueError, OverflowError, Warning):
        return None
    coded = _id_codes(table["s"])
    if coded is None:
        return None
    codes, firsts = coded
    names = table["s"][firsts].tolist()
    if max(map(len, names)) == width:
        return None
    names = list(map(bytes.decode, names))
    if "" in names or list(map(str.strip, names)) != names or np.bincount(codes).min() < 2:
        return None
    return _checked(names, codes, table["i"], table["v"].copy())


def _id_codes(ids: np.ndarray):
    """Each row's code, and the row where each code's id first appears; None on a collision.

    ``ids`` is a bytes column whose width is a multiple of 8.  Rows are
    grouped by a sort of a 64-bit hash of each id's words, which is the id
    itself when it fits one word; a group's code is its rank by first row.
    Two different ids with the same hash are a collision.
    """
    n = ids.size
    words = np.ascontiguousarray(ids).view(np.uint64).reshape(n, -1)
    key = words[:, 0].copy()
    for column in words.T[1:]:
        key *= _HASH_STEP  # modulo 2**64
        key += column
    order = np.argsort(key)
    key, words = key[order], words[order]
    same = key[1:] == key[:-1]
    if (same & (words[1:] != words[:-1]).any(axis=1)).any():
        return None
    starts = np.flatnonzero(np.append(True, ~same))
    first = np.minimum.reduceat(order, starts)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    codes = np.empty(n, np.intp)
    codes[order] = np.repeat(rank, np.diff(starts, append=n))
    return codes, first[by_first]


def _input_bytes(source: str) -> bytes:
    """The bytes of the ``--csv`` input; stdin (``-``) is read whole and left open."""
    if source == "-":
        return sys.stdin.buffer.read()
    try:
        with open(source, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise DataValidationError(f"cannot read {source}: {e}") from None


def cmd_estimate(args) -> ReportEnvelope:
    check_probability(args.psp, "p_sp")
    source = args.csv
    names, codes, values = _load_study(_input_bytes(source),
                                       "<stdin>" if source == "-" else source)
    env = ReportEnvelope(
        command="estimate",
        inputs={"csv": source, "psp": args.psp,
                "subjects": len(names), "measurements": values.size},
        method=("exact",))
    est = pooled_wsd(codes, values)
    rc = est.repeatability_coefficient(args.psp)
    bounds = {conf: specificity_lower_bound(est.nu, args.psp, conf, MethodChoice.EXACT)
              for conf in (0.80, 0.90, 0.95)}
    env.add("wsd_hat", est.wsd_hat, "exact", "biomarker units")
    env.add("degrees_of_freedom", est.nu, "exact", "count")
    env.add(f"repeatability_coefficient[psp={args.psp:g}]", rc.value,
            "exact", "biomarker units")
    for conf, lb in bounds.items():
        env.add(f"specificity_lower_bound[conf={conf:g}]", lb, "exact", "probability")
    return env


# ---------------------------------------------------------------------------
# file emitters
# ---------------------------------------------------------------------------

def cmd_tables(args) -> ReportEnvelope:
    # every value is checked and every grid solved before anything is written;
    # an m is checked for its file names first, in list order
    for m in args.m_list:
        check_integer(m, "replicates per subject m", 2)
        size = len(f"samplesize_spec_m{m}.csv")
        if size > _MAX_FILE_NAME:
            raise UsageError(f"replicates per subject m = {m} makes a file name of {size} "
                             f"bytes, over the {_MAX_FILE_NAME}-byte limit")
    sizes = sample_size_specificity_grid(args.m_list, args.psp_list, args.esp_lb_list,
                                         args.conf_list)
    os.makedirs(args.out, exist_ok=True)
    env = ReportEnvelope(
        command="tables",
        inputs={"out": args.out, "m_list": list(args.m_list),
                "conf_list": list(args.conf_list),
                "esp_lb_list": list(args.esp_lb_list),
                "psp_list": list(args.psp_list)},
        method=("exact",))
    # one CSV and one markdown table per m, each written at once; the row
    # labels and headers are formatted once, and a floor at or above the
    # target leaves its cell blank
    labels = [[f"{conf:.3f}", f"{lb:.3f}"] for conf in args.conf_list for lb in args.esp_lb_list]
    psp = [f"{v:.3f}" for v in args.psp_list]
    csv_header = ",".join(["m", "p_conf", "p_esp_lb"] + [f"psp_{v}" for v in psp]) + "\n"
    md_header = ("Subjects needed so the effective specificity stays above the floor\n"
                 "(row) with the row's confidence, per target specificity (column).\n"
                 "Blank cells are infeasible (floor at or above target).\n\n"
                 "| " + " | ".join(["p_conf", "p_esp_lb"] + psp) + " |\n"
                 "|" + "---|" * (len(psp) + 2) + "\n")
    written = []
    for m, grid in zip(args.m_list, sizes):
        rows = [label + [str(n) if n else "" for n in cells]
                for label, cells in zip(labels, grid.reshape(len(labels), len(psp)).tolist())]
        csv_path = os.path.join(args.out, f"samplesize_spec_m{m}.csv")
        md_path = os.path.join(args.out, f"samplesize_spec_m{m}.md")
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            fh.write(csv_header + "".join(f"{m}," + ",".join(row) + "\n" for row in rows))
        with open(md_path, "w", encoding="utf-8") as fh:
            fh.write(f"# Exact sample sizes, m = {m}\n\n" + md_header
                     + "".join("| " + " | ".join(row) + " |\n" for row in rows))
        written.extend([csv_path, md_path])
        env.add(f"populated_cells[m={m}]", int(np.count_nonzero(grid)), "exact", "count")
    for path in written:
        env.add("file", path, "exact", "path")
    return env


def _write_points_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _figure_1a_rows(psp):
    rows = []
    for n in range(4, 101):
        nu = design_degrees_of_freedom(n, 2)
        rows.append((n, 2, nu,
                     expected_effective_specificity(nu, psp, MethodChoice.EXACT),
                     expected_effective_specificity(nu, psp, MethodChoice.ASYMPTOTIC)))
    return rows


def _figure_1b_rows(psp):
    grid = np.concatenate([
        np.linspace(0.001, 0.999, 1499),
        1.0 - np.geomspace(1e-3, 1e-7, 41)[1:],
    ])
    rows = []
    for n in (10, 30, 60):
        nu = design_degrees_of_freedom(n, 2)
        for p in grid:
            rows.append((n, float(p), effective_specificity_pdf(float(p), nu, psp)))
    return rows


def _figure_2_rows(psp):
    return [(d / 20.0, sensitivity(d / 20.0, psp)) for d in range(0, 201)]


def _figure_3a_rows(psp, conf):
    rows = []
    for m in (2, 3, 4, 5):
        for n in range(4, 101):
            nu = design_degrees_of_freedom(n, m)
            rows.append((n, m, nu,
                         specificity_lower_bound(nu, psp, conf, MethodChoice.EXACT)))
    return rows


def _figure_ratio_rows(nu, value_fn):
    rows = []
    for i in range(0, 1001):
        w = 0.5 + i / 1000.0
        rows.append((w, ratio_density_exact(w, nu), value_fn(w)))
    return rows


def cmd_figure_data(args) -> ReportEnvelope:
    figure = args.figure.lower()
    known = {"1", "2", "3a", "4a", "4b"}
    if figure not in known:
        raise UsageError(f"unknown figure id {args.figure!r}; choose from {sorted(known)}")
    os.makedirs(args.out, exist_ok=True)
    env = ReportEnvelope(
        command="figure-data",
        inputs={"figure": figure, "out": args.out, "psp": args.psp,
                "conf": args.conf, "delta": args.delta, "n": args.n},
        method=("exact", "asymptotic") if figure == "1" else ("exact",))
    if figure == "1":
        files = [("fig1a_expected_specificity.csv",
                  ["n", "m", "nu", "expected_specificity_exact",
                   "expected_specificity_asymptotic"], _figure_1a_rows(args.psp)),
                 ("fig1b_effective_specificity_density.csv", ["n", "p", "density"],
                  _figure_1b_rows(args.psp))]
    elif figure == "2":
        files = [("fig2_sensitivity_vs_delta.csv", ["delta", "sensitivity"],
                  _figure_2_rows(args.psp))]
    elif figure == "3a":
        files = [("fig3a_specificity_lower_bound.csv",
                  ["n", "m", "nu", "specificity_lower_bound"],
                  _figure_3a_rows(args.psp, args.conf))]
    elif figure == "4a":
        nu = design_degrees_of_freedom(args.n if args.n is not None else 53, 2)
        files = [("fig4a_ratio_density_specificity.csv",
                  ["w", "ratio_density", "effective_specificity"],
                  _figure_ratio_rows(
                      nu, lambda w: effective_specificity_given_ratio(w, args.psp)))]
    else:
        nu = design_degrees_of_freedom(args.n if args.n is not None else 139, 2)
        files = [("fig4b_ratio_density_sensitivity.csv",
                  ["w", "ratio_density", "effective_sensitivity"],
                  _figure_ratio_rows(nu, lambda w: effective_sensitivity_given_ratio(
                      w, args.delta, args.psp, SensitivityApproximation.FULL_TWO_SIDED)))]
    for name, header, rows in files:
        path = os.path.join(args.out, name)
        _write_points_csv(path, header, rows)
        env.add("file", path, "exact", "path")
    return env


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _add_distribution(env: ReportEnvelope, label: str, dist):
    env.add(f"{label}.mean", dist.mean, "monte-carlo", "probability")
    env.add(f"{label}.sd", dist.sd, "monte-carlo", "probability")
    env.add(f"{label}.mc_se_of_mean", dist.mc_standard_error_of_mean,
            "monte-carlo", "probability")
    for q, x in dist.quantiles:
        env.add(f"{label}.quantile[{q:g}]", x, "monte-carlo", "probability")


def _add_agreement(env: ReportEnvelope, name: str, analytic: float,
                   empirical: float, se: float):
    inside = abs(analytic - empirical) <= 3.0 * se
    env.add(f"{name}.analytic", analytic, "exact", "probability")
    env.add(f"{name}.empirical", empirical, "monte-carlo", "probability")
    env.add(f"{name}.mc_se", se, "monte-carlo", "probability")
    env.add(f"{name}.agreement", "inside" if inside else "outside",
            "monte-carlo", "+-3 MC-SE band")


def _add_lower_bound_agreement(env: ReportEnvelope, name: str, analytic: float, dist):
    # the empirical 95 % lower bound is the 0.05 quantile; without a
    # standard error for it (one replicate) the row is left out with a warning
    q = 1.0 - 0.95
    try:
        se = dist.quantile_standard_error(q)
    except DomainError as e:
        env.warnings.append(f"{name} not compared: {e}")
        return
    _add_agreement(env, name, analytic, dist.quantile(q), se)


def cmd_simulate(args) -> ReportEnvelope:
    cfg = SimulationConfig(n=args.n, m=args.m, w_sd=args.wsd, p_sp=args.psp,
                           delta=args.delta if args.delta is not None else 0.0,
                           replicates=args.replicates, seed=args.seed)
    env = ReportEnvelope(
        command="simulate",
        inputs={"n": cfg.n, "m": cfg.m, "wsd": cfg.w_sd, "psp": cfg.p_sp,
                "delta": args.delta, "replicates": cfg.replicates,
                "seed": cfg.seed, "longitudinal": bool(args.longitudinal)},
        method=("exact", "monte-carlo"))
    nu = cfg.nu

    study = simulate_study(cfg)
    spec_dist = EmpiricalDistribution.from_samples(
        effective_specificity_given_ratio(study.ratios, cfg.p_sp))
    _add_distribution(env, "effective_specificity", spec_dist)
    _add_agreement(env, "expected_effective_specificity",
                   expected_effective_specificity(nu, cfg.p_sp, MethodChoice.EXACT),
                   spec_dist.mean, spec_dist.mc_standard_error_of_mean)
    _add_lower_bound_agreement(
        env, "specificity_lower_bound[conf=0.95]",
        specificity_lower_bound(nu, cfg.p_sp, 0.95, MethodChoice.EXACT), spec_dist)

    if args.delta is not None:
        sens_dist = EmpiricalDistribution.from_samples(effective_sensitivity_given_ratio(
            study.ratios, cfg.delta, cfg.p_sp, SensitivityApproximation.FULL_TWO_SIDED))
        _add_distribution(env, "effective_sensitivity", sens_dist)
        _add_agreement(env, "expected_effective_sensitivity",
                       expected_effective_sensitivity(nu, cfg.delta, cfg.p_sp,
                                                      MethodChoice.EXACT),
                       sens_dist.mean, sens_dist.mc_standard_error_of_mean)
        _add_lower_bound_agreement(
            env, "sensitivity_lower_bound[conf=0.95]",
            sensitivity_lower_bound(nu, cfg.delta, cfg.p_sp, 0.95, MethodChoice.EXACT,
                                    SensitivityApproximation.FULL_TWO_SIDED), sens_dist)

    if args.longitudinal:
        emp_spec = study.longitudinal_specificity
        emp_sens = study.longitudinal_sensitivity
        se_spec = math.sqrt(max(emp_spec * (1.0 - emp_spec), 1e-12) / cfg.replicates)
        _add_agreement(env, "longitudinal_specificity",
                       expected_effective_specificity(nu, cfg.p_sp, MethodChoice.EXACT),
                       emp_spec, se_spec)
        if args.delta is not None:
            se_sens = math.sqrt(max(emp_sens * (1.0 - emp_sens), 1e-12) / cfg.replicates)
            _add_agreement(env, "longitudinal_sensitivity",
                           expected_effective_sensitivity(nu, cfg.delta, cfg.p_sp,
                                                          MethodChoice.EXACT),
                           emp_sens, se_sens)
    return env


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            # looked up per call, so a command rebound on this module is the one run
            envelope = globals()["cmd_" + args.subcommand.replace("-", "_")](args)
        envelope.take_warnings(caught)
    except InfeasibleError as e:
        print(f"repeatkit: infeasible design: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DataValidationError as e:
        print(f"repeatkit: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DomainError as e:
        print(f"repeatkit: usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"repeatkit: cannot write output: {e}", file=sys.stderr)
        return EXIT_CANTCREAT
    sys.stdout.write(envelope.render(args.format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
