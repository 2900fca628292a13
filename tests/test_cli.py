"""End-to-end tests of the command-line surface.

Most cases drive ``main(argv)`` in-process and parse the JSON envelope; a
couple of subprocess cases prove the installed entry points work too.
"""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from repeatkit import __version__, cli
from repeatkit.cli import (
    EXIT_CANTCREAT,
    EXIT_DATA,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from repeatkit.errors import DataValidationError

GOLDEN_DIR = Path(__file__).parent / "goldens"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

FIXTURE_CSV = (
    "subject_id,replicate_index,value\n"
    "A,1,0\nA,2,2\nB,1,5\nB,2,5\nC,1,10\nC,2,14\n"
)


def run_module(*argv, **kwargs):
    """``python -m repeatkit`` in a child process that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "repeatkit", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), **kwargs)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK, err
    return json.loads(out)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    # json.loads accepts Infinity and NaN, which are not JSON
    return json.loads(text, parse_constant=_reject_constant)


def values(payload, name, method=None):
    return [r["value"] for r in payload["results"]
            if r["name"] == name and (method is None or r["method"] == method)]


def one(payload, name, method=None):
    got = values(payload, name, method)
    assert len(got) == 1, (name, method, got)
    return got[0]


def reference_json(env):
    """``json.dumps(..., indent=2)`` of the envelope's payload, floats cleaned recursively."""
    def clean(v):
        if isinstance(v, float):
            return cli._round10(v)
        if isinstance(v, (list, tuple)):
            return [clean(item) for item in v]
        if isinstance(v, dict):
            return {k: clean(item) for k, item in v.items()}
        return v

    payload = {
        "command": env.command,
        "inputs": clean(env.inputs),
        "method": list(env.method),
        "results": clean(env.results),
        "warnings": list(env.warnings),
        "tool_version": env.tool_version,
    }
    return json.dumps(payload, indent=2) + "\n"


# Any text a --csv path or a message can hold: quotes, backslashes, line
# ends, control characters, non-ASCII and lone surrogates (undecodable argv).
_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\r\t\x00\x1f\x7f\u2028'),
                          st.characters(exclude_categories=())), max_size=8)
_FLOAT = st.floats()
_SCALAR = st.one_of(_FLOAT, _FLOAT.map(np.float64), st.integers(),
                    st.integers(2**64, 2**200), st.integers(-2**200, -2**64),
                    st.booleans(), st.none(), _TEXT)
_CORNER_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, sys.float_info.max,
                  -sys.float_info.max, 0.1 + 0.2, 1e16, 123456789.0]


@st.composite
def envelopes(draw):
    env = cli.ReportEnvelope(
        command=draw(_TEXT),
        inputs=draw(st.dictionaries(_TEXT, st.one_of(
            _SCALAR, st.lists(_SCALAR, max_size=4),
            st.lists(_SCALAR, max_size=4).map(tuple)), max_size=5)),
        method=draw(st.lists(_TEXT, max_size=3).map(tuple)),
        warnings=draw(st.lists(_TEXT, max_size=3)),
        tool_version=draw(_TEXT))
    for name, value, method, units in draw(st.lists(
            st.tuples(_TEXT, _SCALAR, _TEXT, _TEXT), max_size=6)):
        env.add(name, value, method, units)
    return env


def _corner_envelope():
    env = cli.ReportEnvelope(
        command='e"s\\t\n\x01\u00e9\U0001d11e\udcff',
        inputs={"csv": "d\u00e9j\u00e0 \"vu\".csv", "floats": _CORNER_FLOATS,
                "np": tuple(map(np.float64, _CORNER_FLOATS)), "big": [2**64, -2**70],
                "flags": [True, False, None], "empty": [], "none": None},
        method=("exact", "monte-carlo"), warnings=["a\nb", "c"])
    for x in _CORNER_FLOATS + [np.float64(x) for x in _CORNER_FLOATS]:
        env.add(f"value[{x!r}]", x, "exact", "probability")
    for x in (2**64 + 1, -2**64, 0, True, None, "path/\u00fc\"q\".csv"):
        env.add("other", x, "exact", "count")
    return env


class TestEnvelope:
    def test_json_schema_and_key_order(self, capsys):
        payload = run_json(capsys, "samplesize-spec", "--esp-lb", "0.90")
        assert list(payload) == ["command", "inputs", "method", "results",
                                 "warnings", "tool_version"]
        assert payload["command"] == "samplesize-spec"
        assert payload["method"] == ["exact", "asymptotic"]
        assert payload["tool_version"] == __version__
        for r in payload["results"]:
            assert list(r) == ["name", "value", "method", "units"]

    def test_json_floats_are_ten_significant_digits(self, capsys):
        payload = run_json(capsys, "retro", "--n", "35", "--bound", "0.9,0.94",
                           "--delta", "2,4")
        floats = [r["value"] for r in payload["results"]
                  if isinstance(r["value"], float)]
        assert floats
        for x in floats:
            assert x == float(f"{x:.10g}")

    @given(st.floats())
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @example(0.0)
    @example(-0.0)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(5e-324)
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    def test_text_shows_the_payload_digits(self, x):
        # table and CSV output format each float once; the JSON payload
        # rounds it to ten digits first, and both read the same
        assert cli._fmt(x) == f"{cli._round10(x):.10g}"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "samplesize-spec", "--esp-lb", "0.90",
                           "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "value", "method", "units"]
        by_key = {(r[0], r[2]): r[1] for r in rows[1:]}
        assert by_key[("sample_size", "exact")] == "54"
        assert by_key[("sample_size", "asymptotic")] == "53"

    def test_table_format_renders_probabilities_as_percent(self, capsys):
        code, out, _ = run(capsys, "retro", "--n", "35")
        assert code == EXIT_OK
        assert out.startswith(f"repeatkit retro (v{__version__})")
        assert "94.20%" in out
        assert "88.36%" in out

    @pytest.mark.parametrize("pure_python", [False, True])
    @given(env=envelopes())
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(env=_corner_envelope())
    @example(env=cli.ReportEnvelope("c", {}, ()))
    def test_json_is_the_indented_dump_of_the_payload(self, pure_python, env):
        # the one-pass rendering is json.dumps(..., indent=2) of the payload,
        # byte for byte, with the C encoder and with json's pure-Python one
        with contextlib.ExitStack() as stack:
            if pure_python:
                stack.enter_context(mock.patch.object(json.encoder, "c_make_encoder", None))
                stack.enter_context(mock.patch.object(
                    json.encoder, "encode_basestring_ascii",
                    json.encoder.py_encode_basestring_ascii))
            assert env.render("json") == reference_json(env)

    def test_every_subcommand_prints_the_indented_dump(self, capsys, monkeypatch, tmp_path):
        study = tmp_path / 'st\u00fcdy "1".csv'
        study.write_text(FIXTURE_CSV)
        rendered = []
        render = cli.ReportEnvelope.render
        monkeypatch.setattr(cli.ReportEnvelope, "render",
                            lambda env, fmt: rendered.append(env) or render(env, fmt))
        commands = [
            ("samplesize-spec", "--esp-lb", "0.90"),
            ("samplesize-sens", "--delta", "4", "--ese-lb", "0.75"),
            ("retro", "--n", "35", "--bound", "0.9,0.94", "--delta", "2,4"),
            ("retro", "--nu", "1"),
            ("estimate", "--csv", str(study)),
            ("tables", "--out", str(tmp_path / "tables"), "--m-list", "2,3",
             "--conf-list", "0.5,0.95"),
            ("figure-data", "--figure", "2", "--out", str(tmp_path / "figures")),
            ("simulate", "--n", "10", "--replicates", "2000", "--delta", "2",
             "--longitudinal"),
        ]
        for argv in commands:
            code, out, err = run(capsys, *argv, "--format", "json")
            assert code == EXIT_OK, (argv, err)
            assert out == reference_json(rendered[-1]), argv
        assert any(env.warnings for env in rendered)
        assert {argv[0] for argv in commands} == {
            name[4:].replace("_", "-") for name in dir(cli) if name.startswith("cmd_")}

    @pytest.mark.parametrize("argv", [
        ("samplesize-sens", "--delta", repr(sys.float_info.max), "--ese-lb", "0.5"),
        ("samplesize-sens", "--mu-delta", "1e300", "--wsd", "1e-300", "--ese-lb", "0.5"),
    ])
    def test_json_keeps_the_largest_double_finite(self, capsys, argv):
        # ten digits of the largest double round past it, so it is kept as it is
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == EXIT_OK, err
        assert strict_json(out)["inputs"]["delta"] == sys.float_info.max


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        build_parser.cache_clear()
        codes = [run(capsys, *argv)[0] for argv in [
            ("retro", "--nu", "5"), ("retro", "--nu", "x"),
            ("samplesize-spec", "--esp-lb", "0.9"), ("retro", "--nu", "5")]]
        assert codes == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
        # one tree: the root parser and its seven subcommand parsers
        assert len(built) == 8
        assert built[0] == "repeatkit"

    def test_command_rebound_after_build_is_the_one_run(self, capsys, monkeypatch):
        # a wrapper installed once the parser exists (a tracer, say) sees the call
        build_parser()
        calls = []
        cmd_retro = cli.cmd_retro
        monkeypatch.setattr(cli, "cmd_retro", lambda args: calls.append(args) or cmd_retro(args))
        assert run(capsys, "retro", "--nu", "5")[0] == EXIT_OK
        assert len(calls) == 1

    def test_usage_error_leaves_no_trace(self, capsys):
        argv = ("retro", "--nu", "5", "--bound", "0.9", "--format", "json")
        assert run(capsys, "retro", "--nu", "5", "--bound", "zero")[0] == EXIT_USAGE
        code, out, _ = run(capsys, *argv)
        fresh = run_module(*argv, text=True)
        assert code == fresh.returncode == EXIT_OK
        assert out == fresh.stdout

    def test_defaults_are_not_mutated(self, capsys):
        first = run_json(capsys, "retro", "--nu", "5", "--bound", "0.9")
        second = run_json(capsys, "retro", "--nu", "5")
        assert first["inputs"]["bound"] == [0.9]
        assert second["inputs"]["bound"] == []
        assert values(second, "prob_effective_specificity_below[0.9]") == []


class TestSampleSizeSpec:
    def test_reference_design_values(self, capsys):
        payload = run_json(capsys, "samplesize-spec", "--esp-lb", "0.90")
        assert payload["inputs"] == {"m": 2, "psp": 0.95, "esp_lb": 0.90,
                                     "conf": 0.95}
        assert one(payload, "sample_size", "exact") == 54
        assert one(payload, "sample_size", "asymptotic") == 53
        assert one(payload, "sample_size_raw") == pytest.approx(
            52.3353753, abs=1e-7)
        assert one(payload, "expected_effective_specificity_at_exact_n") == \
            pytest.approx(0.944831012, abs=1e-9)

    def test_tighter_floor(self, capsys):
        payload = run_json(capsys, "samplesize-spec", "--esp-lb", "0.925")
        assert one(payload, "sample_size", "exact") == 164
        assert one(payload, "sample_size", "asymptotic") == 162

    def test_repeated_warning_listed_once(self, capsys):
        # both the asymptotic and the exact solve warn about p_conf
        payload = run_json(capsys, "samplesize-spec", "--esp-lb", "0.9",
                           "--conf", "0.5")
        assert len(payload["warnings"]) == 1
        assert "p_conf=0.5" in payload["warnings"][0]

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run(capsys, "samplesize-spec", "--esp-lb", "0.96")
        assert code == EXIT_INFEASIBLE
        assert "infeasible design" in err

    def test_replicates_past_1e307_need_one_subject(self, capsys):
        # nu = m - 1 puts W at 1 to within any double, so every floor below
        # the target holds at n = 1
        m = 10**307
        payload = run_json(capsys, "samplesize-spec", "--m", str(m), "--psp", "0.99",
                           "--esp-lb", "0.90", "--conf", "0.95")
        assert payload["inputs"]["m"] == m
        assert one(payload, "sample_size", "exact") == 1
        assert one(payload, "sample_size", "asymptotic") == 1

    def test_search_exhaustion_exit_code(self, capsys):
        code, out, err = run(capsys, "samplesize-spec", "--esp-lb", "0.9499999",
                             "--conf", "0.99")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "10000000" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "samplesize-spec")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "samplesize-spec", "--esp-lb", "0.9",
                           "--bogus", "1")
        assert code == EXIT_USAGE


class TestSampleSizeSens:
    def test_reference_design_values(self, capsys):
        payload = run_json(capsys, "samplesize-sens", "--delta", "4",
                           "--ese-lb", "0.75")
        assert one(payload, "sample_size_raw") == pytest.approx(
            138.1135818, abs=1e-6)
        assert one(payload, "sample_size", "asymptotic") == 139
        assert one(payload, "sample_size", "exact") == 136
        assert one(payload, "induced_bound_evaluated_at_n") == 139
        assert one(payload, "induced_specificity_lower_bound", "exact") == \
            pytest.approx(0.922483773, abs=1e-9)
        assert one(payload, "induced_specificity_lower_bound", "asymptotic") == \
            pytest.approx(0.9227064481, abs=1e-9)

    def test_raw_change_form_is_equivalent(self, capsys):
        direct = run_json(capsys, "samplesize-sens", "--delta", "4",
                          "--ese-lb", "0.75")
        derived = run_json(capsys, "samplesize-sens", "--mu-delta", "2.0",
                           "--wsd", "0.5", "--ese-lb", "0.75")
        assert direct["results"] == derived["results"]
        assert derived["inputs"]["delta"] == 4.0

    @pytest.mark.parametrize("argv", [
        ("samplesize-sens", "--ese-lb", "0.75"),
        ("samplesize-sens", "--mu-delta", "2.0", "--ese-lb", "0.75"),
        ("samplesize-sens", "--delta", "4", "--wsd", "0.5", "--ese-lb", "0.75"),
        ("samplesize-sens", "--delta", "4", "--mu-delta", "2.0", "--wsd", "0.5",
         "--ese-lb", "0.75"),
    ])
    def test_effect_flag_combinations_rejected(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_unreachable_floor_is_infeasible(self, capsys):
        code, _, err = run(capsys, "samplesize-sens", "--delta", "1",
                           "--ese-lb", "0.9")
        assert code == EXIT_INFEASIBLE

    def test_floor_one_ulp_under_the_attainable_is_infeasible(self, capsys):
        # the attainable sensitivity at delta 2 is 0.29261875345420973; this
        # floor is one ulp under it, and its band edge y rounds to z itself
        code, out, err = run(capsys, "samplesize-sens", "--psp", "0.95", "--delta", "2",
                             "--ese-lb", "0.2926187534542097")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "infeasible design" in err

    def test_undefined_asymptotic_induced_bound_is_a_warning(self, capsys):
        # the asymptotic n is 2, where the normal approximation puts the
        # 0.01 ratio quantile below 0: that one row is left out
        payload = run_json(capsys, "samplesize-sens", "--delta", "6",
                           "--ese-lb", "0.5", "--psp", "0.9", "--conf", "0.99")
        assert one(payload, "sample_size", "asymptotic") == 2
        assert one(payload, "sample_size", "exact") == 1
        w = math.sqrt(stats.chi2.ppf(0.01, 2) / 2)
        z = stats.norm.ppf(0.95)
        assert one(payload, "induced_specificity_lower_bound", "exact") == \
            pytest.approx(stats.norm.cdf(z * w) - stats.norm.cdf(-z * w), rel=1e-9)
        assert values(payload, "induced_specificity_lower_bound", "asymptotic") == []
        assert len(payload["warnings"]) == 1
        assert "use the exact method" in payload["warnings"][0]


# a count that float() cannot hold
_BEYOND_DOUBLE = "1" + "0" * 400


@pytest.mark.parametrize("argv,fragment", [
    (("samplesize-spec", "--esp-lb", "0.9", "--psp", "1.5"), "p_sp"),
    (("retro", "--n", "10", "--conf", "0"), "p_conf"),
    (("tables", "--out", "{tmp}", "--m-list", "1"), "replicates per subject"),
    # --psp is checked before the file, which is itself invalid
    (("estimate", "--csv", "{tmp}/one.csv", "--psp", "3"), "p_sp"),
    (("retro", "--n", "10", "--psp", "1.5"), "p_sp"),
    (("figure-data", "--figure", "2", "--out", "{tmp}", "--psp", "1.5"), "p_sp"),
    (("samplesize-sens", "--delta", "inf", "--ese-lb", "0.7"), "delta"),
    # counts beyond the largest double
    (("samplesize-spec", "--esp-lb", "0.9", "--m", _BEYOND_DOUBLE), "replicates per subject m"),
    (("samplesize-sens", "--delta", "4", "--ese-lb", "0.7", "--m", _BEYOND_DOUBLE),
     "replicates per subject m"),
    (("retro", "--n", _BEYOND_DOUBLE), "n_subjects"),
    (("retro", "--nu", _BEYOND_DOUBLE), "nu must be"),
    (("tables", "--out", "{tmp}", "--m-list", _BEYOND_DOUBLE), "replicates per subject m"),
])
def test_out_of_domain_values_exit_64(capsys, tmp_path, argv, fragment):
    # the flags parse; the library rejects their values
    (tmp_path / "one.csv").write_text("subject_id,replicate_index,value\nA,1,2\n")
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == EXIT_USAGE
    assert out == ""
    assert "usage error:" in err
    assert fragment in err


_VANISHING_EFFECT = ("samplesize-sens", "--mu-delta", "1e-300", "--wsd", "1e300",
                     "--ese-lb", "0.5")


@pytest.mark.parametrize("argv", [
    # nu * u^2 overflows; the exact confidence is then 1
    ("samplesize-sens", "--delta", "1e155", "--ese-lb", "0.9"),
    # coverage quantiles near 0 ...
    ("retro", "--nu", "5", "--psp", "1e-17", "--bound", "0.5"),
    ("samplesize-spec", "--esp-lb", "1e-300", "--psp", "1e-200"),
    ("samplesize-sens", "--delta", "4", "--ese-lb", "0.75", "--psp", "1e-300"),
    # ... and at the largest target below 1
    ("samplesize-spec", "--esp-lb", "0.5", "--psp", "0.9999999999999999"),
    # upper-tail quantiles of probabilities whose complement rounds to 1
    ("retro", "--nu", "5", "--conf", "1e-300", "--delta", "4"),
    ("samplesize-spec", "--esp-lb", "0.9", "--conf", "1e-300"),
    ("samplesize-sens", "--delta", "4", "--ese-lb", "0.75", "--conf", "1e-300"),
    ("samplesize-sens", "--delta", "4", "--ese-lb", "1e-20"),
    ("figure-data", "--figure", "3a", "--conf", "1e-300"),
    # the ratio cap u overflows to +inf, where P[W <= u] = 1
    ("samplesize-sens", "--delta", "1e10", "--psp", "1e-300", "--ese-lb", "0.5"),
    # nu * w^2 overflows in the density, which vanishes there
    ("figure-data", "--figure", "1", "--psp", "1e-300"),
    # measurements in units of w_sd would overflow or underflow when squared
    ("simulate", "--n", "3", "--replicates", "50", "--wsd", "1e200"),
    ("simulate", "--n", "3", "--replicates", "50", "--wsd=1e-300", "--delta=-1e300",
     "--longitudinal"),
    # mu_delta / w_sd overflows or underflows; it is clamped to a finite nonzero double
    ("samplesize-sens", "--mu-delta", "1e300", "--wsd", "1e-300", "--ese-lb", "0.5"),
    _VANISHING_EFFECT,
])
def test_extreme_inputs_answer(capsys, tmp_path, argv):
    if argv == _VANISHING_EFFECT:
        # the smallest effect, like --delta 5e-324, is reported infeasible
        code, _, err = run(capsys, *argv, "--format", "json")
        assert code == EXIT_INFEASIBLE, err
        return
    if argv[0] == "figure-data":
        argv = argv + ("--out", str(tmp_path))
    payload = run_json(capsys, *argv)
    for r in payload["results"]:
        if not isinstance(r["value"], str):
            assert math.isfinite(r["value"]), r
    if argv[0].startswith("samplesize"):
        assert one(payload, "sample_size", "exact") >= 1
    for path in values(payload, "file"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row)


# Valid inputs by construction: probabilities from 1e-300 to the largest
# double below 1, effect sizes of either sign from 1e-300 to 1e300, and
# replicate and degree-of-freedom counts up to 1e9.  Flags are passed as
# --flag=value so argparse reads a negative value as a value.
_PROB = st.floats(min_value=1e-300, max_value=1.0 - 2.0**-53)


def _signed(lo, hi):
    return st.builds(lambda mag, neg: -mag if neg else mag,
                     st.floats(min_value=lo, max_value=hi), st.booleans())


_DELTA = _signed(1e-300, 1e300)
_M = st.integers(min_value=2, max_value=10**9)
_NU = st.integers(min_value=1, max_value=10**9)
# a small study: up to 6 subjects of 2 to 4 measurements from 1e-320 to 1e300
_STUDY_CSV = st.lists(st.lists(_signed(1e-320, 1e300), min_size=2, max_size=4),
                      min_size=1, max_size=6).map(
    lambda subjects: "subject_id,replicate_index,value\n" + "".join(
        f"S{i},{j + 1},{v!r}\n" for i, vals in enumerate(subjects)
        for j, v in enumerate(vals)))


def _flag_list(values_):
    return ",".join(repr(v) for v in values_)


def _lists(strategy):
    return st.lists(strategy, min_size=1, max_size=3)


def _numbers(node):
    # every int and float in a JSON value, booleans aside
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in _numbers(item)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


_CONTRACT_ARGV = st.one_of(
    st.builds(lambda m, psp, lb, conf: [
        "samplesize-spec", f"--m={m}", f"--psp={psp!r}", f"--esp-lb={lb!r}",
        f"--conf={conf!r}"], _M, _PROB, _PROB, _PROB),
    st.builds(lambda m, psp, delta, lb, conf: [
        "samplesize-sens", f"--m={m}", f"--psp={psp!r}", f"--delta={delta!r}",
        f"--ese-lb={lb!r}", f"--conf={conf!r}"], _M, _PROB, _DELTA, _PROB, _PROB),
    st.builds(lambda nu, psp, conf, bounds, deltas: [
        "retro", f"--nu={nu}", f"--psp={psp!r}", f"--conf={conf!r}",
        f"--bound={_flag_list(bounds)}", f"--delta={_flag_list(deltas)}"],
        _NU, _PROB, _PROB, _lists(_PROB), _lists(_DELTA)),
    st.builds(lambda psp, text: ["estimate", f"--psp={psp!r}", text], _PROB, _STUDY_CSV),
    st.builds(lambda ms, confs, lbs, psps: [
        "tables", f"--m-list={_flag_list(ms)}", f"--conf-list={_flag_list(confs)}",
        f"--esp-lb-list={_flag_list(lbs)}", f"--psp-list={_flag_list(psps)}"],
        _lists(_M), _lists(_PROB), _lists(_PROB), _lists(_PROB)),
    st.builds(lambda figure, psp, conf, delta, n: [
        "figure-data", f"--figure={figure}", f"--psp={psp!r}", f"--conf={conf!r}",
        f"--delta={delta!r}", f"--n={n}"],
        st.sampled_from(["1", "2", "3a", "4a", "4b"]), _PROB, _PROB, _DELTA, _NU),
    st.builds(lambda n, m, reps, seed, psp, delta, wsd, longitudinal: [
        "simulate", f"--n={n}", f"--m={m}", f"--replicates={reps}", f"--seed={seed}",
        f"--psp={psp!r}", f"--delta={delta!r}", f"--wsd={wsd!r}"]
        + (["--longitudinal"] if longitudinal else []),
        st.integers(1, 50), st.integers(2, 5), st.integers(1, 300),
        st.integers(0, 2**64 - 1), _PROB, _DELTA,
        st.floats(min_value=1e-300, max_value=1e300), st.booleans()),
)


@given(argv=_CONTRACT_ARGV)
@settings(max_examples=300, deadline=None, database=None)
def test_valid_designs_answer_or_are_infeasible(tmp_path_factory, argv):
    # every valid design gets a report (exit 0) or is infeasible (exit 2);
    # no exception escapes, no input is reported as a usage error, and a
    # report is strict JSON whose every input and result number is finite
    if argv[0] in ("figure-data", "tables"):
        argv = argv + [f"--out={tmp_path_factory.mktemp('out')}"]
    if argv[0] == "estimate":
        # the last element is the study's CSV text
        path = tmp_path_factory.mktemp("csv") / "study.csv"
        path.write_text(argv[-1])
        argv = argv[:-1] + [f"--csv={path}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format=json"])
    assert code in (EXIT_OK, EXIT_INFEASIBLE), (argv, err.getvalue())
    if code == EXIT_OK:
        payload = strict_json(out.getvalue())
        for x in _numbers([payload["inputs"], payload["results"]]):
            assert math.isfinite(x), (argv, x)


class TestRetro:
    @pytest.mark.parametrize("nu,want", [(200, "6.261109837e-14"), (400, "4.057049964e-26")])
    def test_small_shortfall_keeps_its_digits(self, capsys, nu, want):
        # P[W < z_lb / z] at 50 digits is 6.2611098365042e-14 and
        # 4.05704996364525e-26; reported as 1 - (1 - p) they read
        # 6.261657859e-14 and 0
        z = mp.sqrt(2) * mp.erfinv(mp.mpf(0.95))
        ratio = mp.sqrt(2) * mp.erfinv(mp.mpf(0.80)) / z
        exact = mp.gammainc(mp.mpf(nu) / 2, 0, nu * ratio * ratio / 2, regularized=True)
        payload = run_json(capsys, "retro", "--nu", str(nu), "--psp", "0.95",
                           "--bound", "0.80")
        got = one(payload, "prob_effective_specificity_below[0.8]", "exact")
        assert got == pytest.approx(float(exact), rel=1e-9)
        assert f"{got:.10g}" == want

    def test_reference_assessment(self, capsys):
        payload = run_json(capsys, "retro", "--n", "35", "--bound", "0.94",
                           "--delta", "4")
        assert payload["inputs"]["nu"] == 35
        assert one(payload, "expected_effective_specificity", "exact") == \
            pytest.approx(0.9419997551, abs=1e-9)
        assert one(payload, "expected_effective_specificity", "asymptotic") == \
            pytest.approx(0.9436477324, abs=1e-9)
        assert one(payload, "specificity_lower_bound", "exact") == \
            pytest.approx(0.8836418827, abs=1e-9)
        assert one(payload, "prob_effective_specificity_below[0.94]", "exact") == \
            pytest.approx(0.3974422406, abs=1e-9)
        assert one(payload, "sensitivity[delta=4]") == \
            pytest.approx(0.8074304194, abs=1e-9)
        assert one(payload, "expected_effective_sensitivity[delta=4]") == \
            pytest.approx(0.8049350206, abs=1e-9)
        assert one(payload, "sensitivity_lower_bound[delta=4]") == \
            pytest.approx(0.6880988235, abs=1e-9)

    def test_nu_equals_explicit_design(self, capsys):
        by_nu = run_json(capsys, "retro", "--nu", "20")
        by_nm = run_json(capsys, "retro", "--n", "20", "--m", "2")
        assert by_nu["results"] == by_nm["results"]
        assert one(by_nu, "specificity_lower_bound", "exact") == \
            pytest.approx(0.8511646853, abs=1e-9)

    @pytest.mark.parametrize("nu,conf", [(1, 0.95), (2, 0.9999999)])
    def test_undefined_asymptotic_bound_is_a_warning(self, capsys, nu, conf):
        # the normal approximation puts the ratio quantile at or below 0;
        # every other row of this valid design is still reported
        payload = run_json(capsys, "retro", "--nu", str(nu), "--conf", str(conf),
                           "--bound", "0.9", "--delta", "4")
        z = stats.norm.ppf(0.975)
        w = math.sqrt(stats.chi2.ppf(1 - conf, nu) / nu)
        assert one(payload, "specificity_lower_bound", "exact") == pytest.approx(
            stats.norm.cdf(z * w) - stats.norm.cdf(-z * w), rel=1e-9)
        assert one(payload, "expected_effective_specificity", "exact") == \
            pytest.approx(2 * stats.t.cdf(z, nu) - 1, rel=1e-9)
        assert values(payload, "specificity_lower_bound", "asymptotic") == []
        assert len(values(payload, "expected_effective_specificity", "asymptotic")) == 1
        assert len(values(payload, "prob_effective_specificity_below[0.9]")) == 2
        assert len(values(payload, "expected_effective_sensitivity[delta=4]")) == 1
        assert len(payload["warnings"]) == 1
        assert "use the exact method" in payload["warnings"][0]

    @pytest.mark.parametrize("argv", [
        ("retro",),
        ("retro", "--nu", "20", "--n", "20"),
        ("retro", "--nu", "0"),
        ("retro", "--n", "0"),
    ])
    def test_design_flag_combinations_rejected(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE


class TestEstimate:
    def fixture_path(self, tmp_path):
        path = tmp_path / "measurements.csv"
        path.write_text(FIXTURE_CSV)
        return str(path)

    def test_reference_estimate(self, capsys, tmp_path):
        payload = run_json(capsys, "estimate", "--csv", self.fixture_path(tmp_path))
        assert payload["inputs"]["subjects"] == 3
        assert payload["inputs"]["measurements"] == 6
        assert one(payload, "wsd_hat") == pytest.approx(1.825741858, abs=1e-8)
        assert one(payload, "degrees_of_freedom") == 3
        assert one(payload, "repeatability_coefficient[psp=0.95]") == \
            pytest.approx(5.060605248, abs=1e-8)
        assert one(payload, "specificity_lower_bound[conf=0.8]") == \
            pytest.approx(0.7434190573, abs=1e-9)
        assert one(payload, "specificity_lower_bound[conf=0.9]") == \
            pytest.approx(0.6129797275, abs=1e-9)
        assert one(payload, "specificity_lower_bound[conf=0.95]") == \
            pytest.approx(0.4979187051, abs=1e-9)
        assert any("degrees of freedom" in w for w in payload["warnings"])

    def test_reads_stdin(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(FIXTURE_CSV.encode()))
        monkeypatch.setattr(sys, "stdin", stdin)
        payload = run_json(capsys, "estimate", "--csv", "-")
        assert payload["inputs"]["csv"] == "-"
        assert one(payload, "wsd_hat") == pytest.approx(1.825741858, abs=1e-8)
        assert not stdin.buffer.closed

    @pytest.mark.parametrize("content,plain", [
        (b"subject_id,replicate_index,value\nA\xff,1,2\nA\xff,2,3\nB,1,1\nB,2,1\n", False),
        (b"subject_id,replicate_index,value\rA,1,2\rA,2,3\rB,1,1\rB,2,1\r", False),
        (FIXTURE_CSV.encode(), True),
        (b'subject_id,replicate_index,value\n"A",1,2\n"A",2,3\nB,1,1\nB,2,1\n', False),
    ], ids=["not-utf8", "cr-line-ends", "plain", "quoted"])
    def test_stdin_reads_like_a_file(self, capsys, tmp_path, content, plain):
        # the interpreter's own stdin, not a stand-in for it; a plain file is
        # parsed by numpy, the others by the row-by-row reader
        assert (cli._plain_columns(content) is not None) == plain
        path = tmp_path / "study.csv"
        path.write_bytes(content)
        file_code, file_out, file_err = run(capsys, "estimate", "--csv", str(path),
                                            "--format", "csv")
        proc = run_module("estimate", "--csv", "-", "--format", "csv", input=content)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == \
            (file_code, file_out, file_err.replace(str(path), "<stdin>"))

    def test_constant_data_warns_twice(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("subject_id,replicate_index,value\n"
                        "A,1,5\nA,2,5\nB,1,5\nB,2,5\n")
        payload = run_json(capsys, "estimate", "--csv", str(path))
        assert one(payload, "wsd_hat") == 0.0
        assert any("zero" in w for w in payload["warnings"])
        assert any("degrees of freedom" in w for w in payload["warnings"])

    def test_table_output_shows_warnings(self, capsys, tmp_path):
        code, out, _ = run(capsys, "estimate", "--csv", self.fixture_path(tmp_path))
        assert code == EXIT_OK
        assert "warnings:" in out
        assert "74.34%" in out

    @pytest.mark.parametrize("content,fragment", [
        ("", "empty file"),
        ("id,rep,value\nA,1,2\n", "header"),
        ("subject_id,replicate_index,value\n", "no data rows"),
        ("subject_id,replicate_index,value\nA,1\n", "expected 3 columns"),
        ("subject_id,replicate_index,value\n,1,2\n", "empty subject_id"),
        ("subject_id,replicate_index,value\nA,one,2\n", "not an integer"),
        ("subject_id,replicate_index,value\nA,0,2\n", "must be >= 1"),
        ("subject_id,replicate_index,value\nA,1,abc\n", "not numeric"),
        ("subject_id,replicate_index,value\nA,1,inf\n", "not finite"),
        ("subject_id,replicate_index,value\nA,1,2\nA,1,3\n", "duplicate"),
        ("subject_id,replicate_index,value\nA,9223372036854775808,2\n", "out of range"),
        ("subject_id,replicate_index,value\nA,1,2\nA,2,3\nB,1,4\n",
         "at least 2 replicates"),
        ("subject_id,replicate_index,value\nA,1,1.7e308\nA,2,-1.7e308\nB,1,1e308\n"
         "B,2,-1e308\n", "exceeds the largest double"),
        ("subject_id,replicate_index,value\nA,1,1e308\nA,2,-1e308\nB,1,0\nB,2,0\n",
         "the repeatability coefficient exceeds the largest double"),
        (b"subject_id,replicate_index,value\nA,2,\xff2\n", "bad.csv: not UTF-8 text"),
        # numpy's parser would read the lone byte as a blank
        (b"subject_id,replicate_index,value\nA,1,2\xa0\nA,2,3\n", "bad.csv: not UTF-8 text"),
        pytest.param('subject_id,replicate_index,value\n"' + "x" * 200_000 + '",1,2\n',
                     "bad.csv:2: field larger than field limit", id="oversized-field"),
    ])
    def test_invalid_data_exits_65(self, capsys, tmp_path, content, fragment):
        path = tmp_path / "bad.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        code, _, err = run(capsys, "estimate", "--csv", str(path))
        assert code == EXIT_DATA
        assert "data error" in err
        assert fragment in err

    @pytest.mark.parametrize("scale,rel", [(1e200, 1e-9), (1e-320, 1e-3)])
    def test_extreme_magnitudes(self, capsys, tmp_path, scale, rel):
        # the squares overflow or underflow; the SD is reduced in units of a power of two
        path = tmp_path / "extreme.csv"
        path.write_text("subject_id,replicate_index,value\n" + "".join(
            f"{sid},{j},{k * scale!r}\n" for sid, j, k in
            [("A", 1, 1), ("A", 2, 3), ("B", 1, 2), ("B", 2, 1)]))
        payload = run_json(capsys, "estimate", "--csv", str(path))
        # A has SS 2, B has SS 0.5, nu = 2
        assert one(payload, "wsd_hat") == pytest.approx(math.sqrt(1.25) * scale, rel=rel)
        assert not any("zero" in w for w in payload["warnings"])

    def test_error_messages_carry_line_numbers(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,replicate_index,value\nA,1,2\nA,1,3\n")
        code, _, err = run(capsys, "estimate", "--csv", str(path))
        assert code == EXIT_DATA
        assert f"{path}:3:" in err

    def test_missing_file_exits_65(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "--csv", str(tmp_path / "nope.csv"))
        assert code == EXIT_DATA

    def test_reports_first_failing_row_in_file_order(self, capsys, tmp_path):
        # a duplicate on row 3 and a non-numeric value on row 5
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,replicate_index,value\n"
                        "A,1,2\nA,1,3\nB,1,4\nB,2,x\n")
        code, _, err = run(capsys, "estimate", "--csv", str(path))
        assert code == EXIT_DATA
        assert f"{path}:3: duplicate (subject_id, replicate_index) = (A, 1)" in err

    def test_blank_rows_keep_line_numbers(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,replicate_index,value\n"
                        "A,1,2\n\nA,2,3\n   \n\nB,1,4\nB,x,5\n")
        code, _, err = run(capsys, "estimate", "--csv", str(path))
        assert code == EXIT_DATA
        assert f"{path}:8: replicate_index 'x' is not an integer" in err

    def test_multiline_field_keeps_line_numbers(self, capsys, tmp_path):
        # each quoted id spans two lines, so the bad row sits on line 6
        path = tmp_path / "ml.csv"
        path.write_text('subject_id,replicate_index,value\n'
                        '"A\nB",1,2\n"A\nB",2,3\nC,x,4\n')
        code, _, err = run(capsys, "estimate", "--csv", str(path))
        assert code == EXIT_DATA
        assert f"{path}:6: replicate_index 'x' is not an integer" in err

    def test_quoted_fields(self, capsys, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('subject_id,replicate_index,value\n"A",1,2\n"A",2,4\n'
                        '"B, C",1,1\n"B, C",2,2.5\nA ,3,3\n')
        payload = run_json(capsys, "estimate", "--csv", str(path))
        assert payload["inputs"]["subjects"] == 2
        assert payload["inputs"]["measurements"] == 5
        # A: (2, 4, 3) has SS 2; "B, C": (1, 2.5) has SS 1.125; nu = 3
        assert one(payload, "wsd_hat") == pytest.approx(math.sqrt(3.125 / 3), abs=1e-9)
        assert one(payload, "degrees_of_freedom") == 3

    def test_shuffled_unbalanced_study(self, capsys, tmp_path):
        rng = np.random.default_rng(2024)
        counts = rng.integers(2, 6, 2900)
        subjects = [(f"S{i:04d}", (rng.normal(0.0, 1e3) + rng.uniform(0.1, 10.0)
                                   * rng.standard_normal(c)).tolist())
                    for i, c in enumerate(counts)]
        rows = [(sid, j + 1, v) for sid, vals in subjects for j, v in enumerate(vals)]
        path = tmp_path / "study.csv"
        path.write_text("subject_id,replicate_index,value\n" + "".join(
            f"{sid},{j},{v!r}\n" for sid, j, v in (rows[k] for k in rng.permutation(len(rows)))))
        pooled_ss = 0.0
        for _, vals in subjects:
            mean = math.fsum(vals) / len(vals)
            pooled_ss += math.fsum((v - mean) ** 2 for v in vals)
        nu = len(rows) - len(subjects)
        payload = run_json(capsys, "estimate", "--csv", str(path))
        assert len(rows) > 10_000
        assert payload["inputs"]["subjects"] == len(subjects)
        assert payload["inputs"]["measurements"] == len(rows)
        assert one(payload, "degrees_of_freedom") == nu
        assert one(payload, "wsd_hat") == float(f"{math.sqrt(pooled_ss / nu):.10g}")


def _reference_read_study(text, source):
    """Row-by-row reading of a measurement CSV: the behaviour ``_read_study`` keeps."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as e:
        raise DataValidationError(f"{source}:{reader.line_num}: {e}") from None
    if not rows:
        raise DataValidationError(f"{source}: empty file")
    header, rows = rows[0], rows[1:]
    expected = ["subject_id", "replicate_index", "value"]
    if [h.strip() for h in header] != expected:
        raise DataValidationError(
            f"{source}: header must be {','.join(expected)!r}, got {','.join(header)!r}")
    if all(not row or (len(row) == 1 and not row[0].strip()) for row in rows):
        raise DataValidationError(f"{source}: no data rows")
    # the line each row starts on, from the tokenizer's own line count
    reader = csv.reader(io.StringIO(text, newline=""))
    starts = []
    for _ in reader:
        starts.append(reader.line_num + 1)
    sids, values, seen = [], [], set()
    for row, lineno in zip(rows, starts):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        where = f"{source}:{lineno}:"
        if len(row) != 3:
            raise DataValidationError(f"{where} expected 3 columns, got {len(row)}")
        sid = row[0].strip()
        if not sid:
            raise DataValidationError(f"{where} empty subject_id")
        try:
            idx = int(row[1])
        except ValueError:
            raise DataValidationError(f"{where} replicate_index {row[1]!r} is not an integer")
        if idx < 1:
            raise DataValidationError(f"{where} replicate_index must be >= 1")
        try:
            value = float(row[2])
        except ValueError:
            raise DataValidationError(f"{where} value {row[2]!r} is not numeric")
        if not math.isfinite(value):
            raise DataValidationError(f"{where} value {row[2]!r} is not finite")
        if idx >= 2**63:
            raise DataValidationError(f"{where} replicate_index {row[1]!r} is out of range")
        if (sid, idx) in seen:
            raise DataValidationError(
                f"{where} duplicate (subject_id, replicate_index) = ({sid}, {idx})")
        seen.add((sid, idx))
        sids.append(sid)
        values.append(value)
    names = list(dict.fromkeys(sids))
    codes = [names.index(sid) for sid in sids]
    for k, name in enumerate(names):
        if codes.count(k) < 2:
            raise DataValidationError(
                f"subject {name!r} has {codes.count(k)} measurement(s); "
                "at least 2 replicates are required")
    return names, codes, values


def _outcome(read, *args):
    try:
        names, codes, values = read(*args)
    except DataValidationError as e:
        return str(e)
    return names, list(codes), [float(v).hex() for v in values]


# ids that numpy's parser can take; the longest is one byte short of filling
# the widest id column
_PLAIN_SIDS = ["A", "B", "S000001", "é", "V" * (cli._MAX_ID_WIDTH - 1)]
# ids with embedded commas, quotes, line breaks and padding; " A", "A " and
# "\xa0A" strip to "A"
_SIDS = _PLAIN_SIDS + ["x,y", 'say "hi"', "p\nq", "r\r\ns", "t\ru", " A", "A ", "\xa0A",
                       "W" * cli._MAX_ID_WIDTH]
# numbers that int() or float() read or reject, some of which numpy's parser
# reads differently (underscores, a blank of \x1c to \x1f)
_BAD_CELLS = [
    (0, ""), (0, "   "),
    (1, "0"), (1, "-2"), (1, "x"), (1, "1.5"), (1, ""), (1, " 2 "), (1, "1_0"), (1, "2.0"),
    (1, "+3"), (1, "-0"), (1, "007"), (1, "\x1c2"), (1, "2\x1f"),
    (1, "9223372036854775807"), (1, "9223372036854775808"), (1, "-9223372036854775809"),
    (2, "nan"), (2, "inf"), (2, "-inf"), (2, "1e999"), (2, "abc"), (2, ""), (2, " 3.5 "),
    (2, " 1.5 "), (2, ".5"), (2, "5."), (2, "1_0.5"), (2, "\t2"), (2, "2\x1e"),
]


@st.composite
def _study_text(draw):
    # two files in three are plain: unquoted "\n" rows joined by "," as they
    # are, mostly of plain ids and with fewer faults
    plain = draw(st.sampled_from([True, True, False]))
    sids = draw(st.lists(st.sampled_from(
        _PLAIN_SIDS if plain and draw(st.sampled_from([True, True, True, False])) else _SIDS),
        min_size=1, max_size=5, unique=True))
    rows = []
    for sid in sids:
        # now and then a subject measured once
        for j in range(draw(st.sampled_from([2, 2, 2, 3, 3, 4, 4, 1]))):
            value = draw(st.floats(allow_nan=False, allow_infinity=False))
            rows.append([sid, str(j + 1), repr(value)])
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2] if plain else [0, 0, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(["blank", "blank", "cell", "duplicate", "short", "long"]))
        k = draw(st.integers(0, len(rows) - 1))
        if kind == "blank":
            rows.insert(k, draw(st.sampled_from([[], [""], ["  "], ["\t"]])))
        elif kind == "cell" and len(rows[k]) == 3:
            col, cell = draw(st.sampled_from(_BAD_CELLS))
            rows[k] = rows[k][:col] + [cell] + rows[k][col + 1:]
        elif kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[k]))
        elif kind == "short":
            rows[k] = rows[k][:-1]
        else:
            rows[k] = rows[k] + ["extra"]
    header = draw(st.sampled_from(
        [["subject_id", "replicate_index", "value"]] * (14 if plain else 6)
        + [[" subject_id", "replicate_index ", "value"], ["id", "replicate_index", "value"]]))
    if plain:
        text = "".join(",".join(row) + "\n" for row in [header] + rows)
        return text[:-1] if draw(st.booleans()) else text
    buf = io.StringIO()
    # a lone CR inside an id is quoted only under QUOTE_ALL or a CR line end
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])),
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_HEADER = "subject_id,replicate_index,value\n"


def _reader_examples(test):
    # each number of _BAD_CELLS in a plain file that is valid around it
    for col, cell in _BAD_CELLS:
        row = ["A", "3", "1.25"]
        row[col] = cell
        test = example(_HEADER + "A,1,2\nA,2,4\nB,1,0\nB,2,1\n" + ",".join(row) + "\n")(test)
    for body in [
        "A,1\nA,2,3,4\nB,1,1\nB,2,2\n",  # 2 fields, then 4: six in all
        "A,1,2,\nA,2,3,\n",  # a trailing comma
        "A,1,2\n\nA,2,3\n\n\n",  # blank lines
        "A,1,2\n \nA,2,3\n\t\n",  # whitespace-only lines
        "\n\n",  # no data row
        "",
        "A,1,2\nA,2,3\n,1,1\n,2,2\n",  # an empty id, twice
        "A\x00,1,2\nA,2,3\n",  # numpy drops a trailing NUL
        "\xa0A,1,2\nA,2,3\n",  # "\xa0A" strips to "A"
        "A\xa0,1,2\nA\xa0,2,3\n",
        # an id as wide as the widest column, and one cut to the same bytes
        "A,1,2\nA,2,3\n" + "W" * cli._MAX_ID_WIDTH + ",1,1\n" + "W" * cli._MAX_ID_WIDTH + ",2,2\n",
        "W" * cli._MAX_ID_WIDTH + ",1,1\n" + "W" * (cli._MAX_ID_WIDTH + 1) + ",2,2\n",
        "é,1,2\né,2,3\n",
        # past int()'s digit limit, and past csv's field size limit
        "A,1,2\nA," + "0" * 5000 + "2,3\n",
        "A,1,2\nA,2," + "0" * 140_000 + "3\n",
        # a repeat before a bad value, a bad value before a repeat: the first
        # in file order is reported; a csv error after a bad row still wins
        "A,1,2\nA,1,3\nA,2,x\nB,1,1\nB,2,2\n",
        "A,1,x\nA,2,3\nA,2,4\n",
        "A,1,x\nA,2," + "0" * 140_000 + "3\n",
    ]:
        test = example(_HEADER + body)(test)
    test = example("\ufeff" + _HEADER + "A,1,2\nA,2,3\n")(test)  # a UTF-8 BOM
    return test


@pytest.fixture
def fallbacks(monkeypatch):
    """The source of each file the row-by-row reader reads, in order."""
    sources = []
    read_study = cli._read_study
    monkeypatch.setattr(cli, "_read_study",
                        lambda fh, source: sources.append(source) or read_study(fh, source))
    return sources


class TestReadStudy:
    def test_matches_row_by_row_reference(self, fallbacks):
        # through the CLI's reader on the file's bytes: the same ids, codes and
        # bit-identical values as the row-by-row reference, or the same error
        files = []

        @_reader_examples
        @given(text=_study_text())
        @settings(max_examples=600, deadline=None, database=None)
        def check(text):
            before = len(fallbacks)
            assert _outcome(cli._load_study, text.encode(), "s.csv") == \
                _outcome(_reference_read_study, text, "s.csv")
            files.append(len(fallbacks) == before)

        check()
        # a fixed share of the files takes the fast path, so the comparison reaches it
        assert sum(files) >= 0.2 * len(files), (sum(files), len(files))

    def test_id_hash_collision_falls_back(self, monkeypatch, fallbacks):
        # with a zero step the hash of a 16-byte id is its second word, so
        # two ids that differ only in their first 8 bytes collide
        monkeypatch.setattr(cli, "_HASH_STEP", np.uint64(0))
        a, b = b"AAAAAAAA12345678", b"BBBBBBBB12345678"
        assert cli._id_codes(np.array([a, b, a], dtype="S16")) is None
        codes, firsts = cli._id_codes(np.array([a, a, b + b"x" * 8], dtype="S24"))
        assert (codes.tolist(), firsts.tolist()) == ([0, 0, 1], [0, 2])
        a, b = a.decode(), b.decode()
        text = _HEADER + f"{a},1,2\n{b},1,3\n{a},2,4\n{b},2,5\n"
        assert _outcome(cli._load_study, text.encode(), "s.csv") == \
            (["AAAAAAAA12345678", "BBBBBBBB12345678"], [0, 1, 0, 1],
             [float(v).hex() for v in (2, 3, 4, 5)])
        assert fallbacks == ["s.csv"]

    @pytest.fixture
    def id_widths(self, monkeypatch):
        """The id column width of each ``np.loadtxt`` call, in order."""
        widths = []
        loadtxt = np.loadtxt

        def spy(*args, dtype, **kwargs):
            widths.append(dtype[0][1])
            return loadtxt(*args, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return widths

    @pytest.mark.parametrize("layout", ["rows", "blank lines", "no final newline"])
    @pytest.mark.parametrize("size,width", [(7, 8), (8, 16), (9, 16), (63, 64), (64, 64),
                                            (65, 64)])
    def test_id_column_is_sized_from_the_ids(self, fallbacks, id_widths, layout, size, width):
        # a multiple of 8 above the longest id, capped; a blank line counts as
        # an empty id, and only an id that fills the capped column falls back
        sid = "S" * size
        rows = [f"{sid},1,2", "B,1,3", f"{sid},2,4", "B,2,5"]
        text = _HEADER + "".join(("\n" if layout == "blank lines" else "") + row + "\n"
                                 for row in rows)
        if layout == "no final newline":
            text = text[:-1]
        assert _outcome(cli._load_study, text.encode(), "s.csv") == \
            _outcome(_reference_read_study, text, "s.csv")
        assert id_widths == [f"S{width}"]
        assert fallbacks == ([] if size < cli._MAX_ID_WIDTH else ["s.csv"])

    def test_line_without_a_comma_is_one_long_id(self, fallbacks, id_widths):
        text = _HEADER + "A,1,2\nA,2,3\n" + "N" * 12 + "\n"
        assert _outcome(cli._load_study, text.encode(), "s.csv") == \
            _outcome(_reference_read_study, text, "s.csv") == "s.csv:4: expected 3 columns, got 1"
        assert id_widths == ["S16"]
        assert fallbacks == ["s.csv"]

    @pytest.mark.parametrize("head,fragment", [
        ("subject_id,replicate_index,value", "s.csv: not UTF-8 text"),
        ("id,replicate_index,value", "header must be"),
        ("subject_id,replicate_index,value\nA,x,2", "s.csv: not UTF-8 text"),
    ])
    def test_decodes_in_file_order(self, tmp_path, head, fragment):
        # the bad byte lies far past the head, in a later decoded chunk; a bad
        # row in the head does not end the reading
        data = head.encode() + b"\n" + b"A,1,2\nA,2,3\n" * 20_000 + b"B,1,\xff\n"
        with pytest.raises(DataValidationError, match=fragment):
            cli._read_study(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""),
                            "s.csv")
        with pytest.raises(DataValidationError, match=fragment):
            cli._load_study(data, "s.csv")

    @staticmethod
    def _peak_bytes_per_row(tmp_path, quoted):
        # a registry-sized study shaped like the benchmark's: S%06d ids, 2 to 5
        # replicates per subject, shuffled rows and repr floats; one id may be quoted
        rng = np.random.default_rng(11)
        rows = 200_000
        counts = rng.integers(2, 6, rows // 3)
        counts = counts[:np.searchsorted(np.cumsum(counts), rows - 5)]
        counts = np.append(counts, rows - counts.sum())
        codes = np.repeat(np.arange(counts.size), counts)
        reps = np.arange(rows) - np.repeat(np.cumsum(counts) - counts, counts) + 1
        values = (rng.normal(100.0, 15.0, counts.size)[codes]
                  + 2.0 * rng.standard_normal(rows)).tolist()
        labels = [f"S{i:06d}" for i in rng.permutation(counts.size)]
        lines = [f"{labels[codes[i]]},{reps[i]},{values[i]!r}\n"
                 for i in rng.permutation(rows).tolist()]
        if quoted:
            lines[0] = '"' + lines[0].replace(",", '",', 1)
        path = tmp_path / "registry.csv"
        path.write_text("subject_id,replicate_index,value\n" + "".join(lines))
        tracemalloc.start()
        try:
            _, got, _ = cli._load_study(cli._input_bytes(str(path)), str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.size == rows
        return peak / rows

    def test_memory_per_row(self, tmp_path, fallbacks):
        assert self._peak_bytes_per_row(tmp_path, quoted=False) <= 290
        assert fallbacks == []

    def test_memory_per_row_fallback(self, tmp_path, fallbacks):
        # one quoted id sends the whole file to the row-by-row reader
        assert self._peak_bytes_per_row(tmp_path, quoted=True) <= 200
        assert fallbacks == [str(tmp_path / "registry.csv")]


class TestTables:
    def test_matches_goldens_byte_for_byte(self, capsys, tmp_path):
        payload = run_json(capsys, "tables", "--out", str(tmp_path))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(p.name for p in GOLDEN_DIR.iterdir())
        for name in names:
            assert (tmp_path / name).read_bytes() == \
                (GOLDEN_DIR / name).read_bytes(), name
        for m in (2, 3, 4, 5):
            assert one(payload, f"populated_cells[m={m}]") == 126
        assert len(values(payload, "file")) == 8

    def test_custom_grid_single_cell(self, capsys, tmp_path):
        run_json(capsys, "tables", "--out", str(tmp_path), "--m-list", "2",
                 "--conf-list", "0.95", "--esp-lb-list", "0.90",
                 "--psp-list", "0.95")
        rows = list(csv.reader((tmp_path / "samplesize_spec_m2.csv")
                               .open(newline="")))
        assert rows[0] == ["m", "p_conf", "p_esp_lb", "psp_0.950"]
        assert rows[1] == ["2", "0.950", "0.900", "54"]

    def test_warning_goes_to_envelope_once(self, capsys, tmp_path):
        code, out, err = run(capsys, "tables", "--conf-list", "0.5", "--m-list", "2",
                             "--out", str(tmp_path), "--format", "json")
        assert code == EXIT_OK
        assert err == ""
        warnings = json.loads(out)["warnings"]
        assert len(warnings) == 1
        assert "p_conf=0.5 is at or below 0.5" in warnings[0]

    @pytest.mark.parametrize("lists,message", [
        (("--esp-lb-list", "1.5"),
         "p_esp_lb must lie strictly inside (0, 1), got 1.5"),
        (("--conf-list", "1.5", "--esp-lb-list", "0.99", "--psp-list", "0.9"),
         "p_conf must lie strictly inside (0, 1), got 1.5"),
        (("--m-list", "1", "--esp-lb-list", "0.99", "--psp-list", "0.9"),
         "replicates per subject m must be an integer >= 2, got 1"),
        (("--m-list", "2,0"),
         "replicates per subject m must be an integer >= 2, got 0"),
        (("--m-list", f"2,{10**234},1"),
         f"replicates per subject m = {10**234} makes a file name of 256 bytes, "
         "over the 255-byte limit"),
        (("--m-list", f"1,{10**234}"),
         "replicates per subject m must be an integer >= 2, got 1"),
    ])
    def test_every_value_is_checked_before_any_file(self, capsys, tmp_path, lists, message):
        # blank cells and later grids used to leave these values unchecked
        out = tmp_path / "tables"
        code, stdout, err = run(capsys, "tables", "--out", str(out), *lists)
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == f"repeatkit: usage error: {message}\n"
        assert not out.exists()

    def test_integer_list_rejects_a_word(self, capsys, tmp_path):
        code, stdout, err = run(capsys, "tables", "--out", str(tmp_path), "--m-list", "2,x")
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == ("repeatkit: usage error: argument --m-list: not a comma-separated "
                       "integer list: '2,x'\n")

    def test_confidence_within_1e13_of_one(self, capsys, tmp_path):
        # mpmath's least n (tests/test_specificity.py); 1 - P[W < w] gave 4718
        run_json(capsys, "tables", "--out", str(tmp_path), "--m-list", "2",
                 "--conf-list", "0.9999999999999957", "--esp-lb-list", "0.9999999999914251",
                 "--psp-list", "0.9999999999998764")
        rows = list(csv.reader((tmp_path / "samplesize_spec_m2.csv").open(newline="")))
        assert rows[1] == ["2", "1.000", "1.000", "4720"]

    def test_longest_file_name_is_written(self, capsys, tmp_path):
        m = 10**233
        payload = run_json(capsys, "tables", "--out", str(tmp_path), "--m-list", str(m),
                           "--conf-list", "0.95", "--esp-lb-list", "0.9", "--psp-list", "0.95")
        assert len(f"samplesize_spec_m{m}.csv") == 255
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(Path(f).name for f in values(payload, "file"))

    def test_shared_coverage_quantile_is_infeasible(self, capsys, tmp_path):
        for argv in (("samplesize-spec", "--m", "2", "--psp", "0.6369616873214544",
                      "--esp-lb", "0.6369616873214543", "--conf", "0.95"),
                     ("tables", "--out", str(tmp_path), "--psp-list", "0.6369616873214544",
                      "--esp-lb-list", "0.6369616873214543")):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_INFEASIBLE
            assert out == ""
            assert "coverage quantile is not below the target's" in err

    def test_separated_adjacent_doubles_are_out_of_reach(self, capsys, tmp_path):
        # 0.5 and the double below it have distinct coverage quantiles
        for argv in (("samplesize-spec", "--m", "2", "--psp", "0.5",
                      "--esp-lb", "0.49999999999999994", "--conf", "0.95"),
                     ("tables", "--out", str(tmp_path), "--psp-list", "0.5",
                      "--esp-lb-list", "0.49999999999999994")):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_INFEASIBLE
            assert out == ""
            assert "no sample size up to 10000000" in err
        assert not any(tmp_path.iterdir())

    def test_unwritable_output_exits_73(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory\n")
        code, _, err = run(capsys, "tables", "--out", str(blocker / "sub"))
        assert code == EXIT_CANTCREAT
        assert "cannot write output" in err


def read_points(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


class TestFigureData:
    def test_expected_specificity_curve(self, capsys, tmp_path):
        payload = run_json(capsys, "figure-data", "--figure", "1",
                           "--out", str(tmp_path))
        assert len(values(payload, "file")) == 2
        header, rows = read_points(tmp_path / "fig1a_expected_specificity.csv")
        assert header == ["n", "m", "nu", "expected_specificity_exact",
                          "expected_specificity_asymptotic"]
        assert len(rows) == 97
        at30 = next(r for r in rows if r[0] == 30)
        assert at30[3] == pytest.approx(0.9406532844, abs=1e-9)
        assert at30[4] == pytest.approx(0.942577624, abs=1e-9)
        assert abs(at30[3] - 0.95) < 0.01

    def test_density_curves_integrate_to_one(self, capsys, tmp_path):
        run_json(capsys, "figure-data", "--figure", "1", "--out", str(tmp_path))
        _, rows = read_points(
            tmp_path / "fig1b_effective_specificity_density.csv")
        for n in (10, 30, 60):
            pts = sorted((r[1], r[2]) for r in rows if r[0] == n)
            area = sum(0.5 * (y0 + y1) * (x1 - x0)
                       for (x0, y0), (x1, y1) in zip(pts, pts[1:]))
            assert area == pytest.approx(1.0, abs=5e-3)

    def test_sensitivity_curve(self, capsys, tmp_path):
        run_json(capsys, "figure-data", "--figure", "2", "--out", str(tmp_path))
        header, rows = read_points(tmp_path / "fig2_sensitivity_vs_delta.csv")
        assert header == ["delta", "sensitivity"]
        assert len(rows) == 201
        assert rows[0] == [0.0, pytest.approx(0.05, abs=1e-9)]
        at4 = next(r for r in rows if r[0] == 4.0)
        assert at4[1] == pytest.approx(0.8074304194, abs=1e-9)

    def test_lower_bound_curves(self, capsys, tmp_path):
        run_json(capsys, "figure-data", "--figure", "3a", "--out", str(tmp_path))
        header, rows = read_points(
            tmp_path / "fig3a_specificity_lower_bound.csv")
        assert header == ["n", "m", "nu", "specificity_lower_bound"]
        assert len(rows) == 4 * 97
        first = next(r for r in rows if r[0] == 4 and r[1] == 2)
        assert first[3] == pytest.approx(0.591291113, abs=1e-9)

    def test_ratio_density_specificity(self, capsys, tmp_path):
        run_json(capsys, "figure-data", "--figure", "4a", "--out", str(tmp_path))
        header, rows = read_points(
            tmp_path / "fig4a_ratio_density_specificity.csv")
        assert header == ["w", "ratio_density", "effective_specificity"]
        assert len(rows) == 1001
        at1 = next(r for r in rows if r[0] == 1.0)
        assert at1[1] == pytest.approx(4.094466832, abs=1e-8)
        assert at1[2] == pytest.approx(0.95, abs=1e-12)

    def test_ratio_density_sensitivity(self, capsys, tmp_path):
        run_json(capsys, "figure-data", "--figure", "4b", "--out", str(tmp_path))
        _, rows = read_points(
            tmp_path / "fig4b_ratio_density_sensitivity.csv")
        at1 = next(r for r in rows if r[0] == 1.0)
        assert at1[1] == pytest.approx(6.643726269, abs=1e-8)
        assert at1[2] == pytest.approx(0.8074304194, abs=1e-9)

    @pytest.mark.parametrize("figure", ["4a", "4b"])
    def test_ratio_density_beyond_precision_exits_64(self, capsys, tmp_path, figure):
        # at nu = 1e150 the log density's terms cancel to rounding noise, which overflows
        n = "1" + "0" * 150
        code, out, err = run(capsys, "figure-data", "--figure", figure, "--n", n,
                             "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"repeatkit: usage error: the density of W at nu={10**150} "
                       "is lost to rounding\n")
        assert not any(tmp_path.iterdir())

    def test_unknown_figure_id(self, capsys, tmp_path):
        code, _, err = run(capsys, "figure-data", "--figure", "9",
                           "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "unknown figure id" in err


class TestSimulate:
    def test_agreement_with_analytics_at_fixed_seed(self, capsys):
        payload = run_json(capsys, "simulate", "--n", "54", "--replicates",
                           "20000", "--seed", "0", "--delta", "4",
                           "--longitudinal")
        agreements = {r["name"]: r["value"] for r in payload["results"]
                      if r["name"].endswith(".agreement")}
        assert agreements == {
            "expected_effective_specificity.agreement": "inside",
            "specificity_lower_bound[conf=0.95].agreement": "inside",
            "expected_effective_sensitivity.agreement": "inside",
            "sensitivity_lower_bound[conf=0.95].agreement": "inside",
            "longitudinal_specificity.agreement": "inside",
            "longitudinal_sensitivity.agreement": "inside",
        }
        assert one(payload, "expected_effective_specificity.analytic") == \
            pytest.approx(0.944831012, abs=1e-9)

    def test_output_independent_of_thread_count(self, capsys, monkeypatch):
        argv = ["simulate", "--n", "10", "--replicates", "5000", "--seed", "3",
                "--delta", "2", "--longitudinal", "--format", "json"]
        monkeypatch.setenv("REPEATKIT_THREADS", "1")
        code = main(argv)
        serial = capsys.readouterr().out
        assert code == EXIT_OK
        monkeypatch.setenv("REPEATKIT_THREADS", "4")
        code = main(argv)
        threaded = capsys.readouterr().out
        assert code == EXIT_OK
        assert serial == threaded

    def test_thread_setting_warning_goes_to_envelope(self, capsys, monkeypatch):
        monkeypatch.setenv("REPEATKIT_THREADS", "x")
        code, out, err = run(capsys, "simulate", "--n", "10", "--replicates", "1000",
                             "--format", "json")
        assert code == EXIT_OK
        assert err == ""
        warnings = json.loads(out)["warnings"]
        assert len(warnings) == 1
        assert "REPEATKIT_THREADS='x'" in warnings[0]

    def test_table_format_shows_the_longitudinal_flag(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "10", "--replicates", "200",
                           "--longitudinal", "--format", "table")
        assert code == EXIT_OK
        assert "  longitudinal = true\n" in out

    def test_distribution_summary_rows(self, capsys):
        payload = run_json(capsys, "simulate", "--n", "10", "--replicates",
                           "2000", "--seed", "1")
        assert one(payload, "effective_specificity.mean") > 0.8
        assert one(payload, "effective_specificity.quantile[0.5]") > 0.8
        assert values(payload, "effective_sensitivity.mean") == []

    @pytest.mark.parametrize("argv", [
        ("simulate", "--n", "10", "--replicates", "0"),
        ("simulate", "--n", "0"),
        ("simulate", "--replicates", "100"),
        ("simulate", "--n", "10", "--wsd", "-1"),
        ("simulate", "--n", "4000000", "--replicates", "1"),  # over the buffer budget
        ("simulate", "--n", "54", "--replicates", str(10**12)),  # over the memory budget
    ])
    def test_bad_flags_exit_64(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE


class TestInstalledEntryPoints:
    def test_module_invocation(self):
        proc = run_module("samplesize-spec", "--esp-lb", "0.90", "--format", "json", text=True)
        assert proc.returncode == EXIT_OK
        payload = json.loads(proc.stdout)
        assert one(payload, "sample_size", "exact") == 54

    def test_version_flag(self):
        proc = run_module("--version", text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"repeatkit {__version__}"

    def test_usage_error_exit_code_in_subprocess(self):
        proc = run_module("samplesize-spec", text=True)
        assert proc.returncode == EXIT_USAGE
