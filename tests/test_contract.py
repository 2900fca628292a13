"""The library contract over every public callable in ``repeatkit.__all__``.

Valid arguments give a finite answer (a probability in [0, 1]) or a
``RepeatkitError``; one invalid argument gives a ``RepeatkitError`` whose
message names that argument.  Arguments are told apart by their public
names, so each kind is drawn, and broken, one way everywhere.
"""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repeatkit
from repeatkit import (
    EffectSize,
    MethodChoice,
    RepeatabilityCoefficient,
    RepeatkitError,
    SampleSizeResult,
    SensitivityApproximation,
    WsdEstimate,
)

PROBABILITIES = {"p", "p_sp", "p_esp_lb", "p_ese_lb", "p_conf", "target_specificity"}
COUNTS = {"nu": 1, "n_subjects": 1, "m": 2, "replicates": 2}  # name -> smallest valid
NONNEGATIVE = {"wsd", "wsd_hat", "value"}
CHOICES = {"method": MethodChoice, "approximation": SensitivityApproximation}

# Callables whose arguments are data objects, not scalars: TestRetestData and
# LongitudinalPair reject bad measurements as data (DataValidationError).
DATA_ONLY = {"TestRetestData", "LongitudinalPair", "estimate_wsd", "decide_change"}

# Results that are probabilities, so must lie in [0, 1].
RETURNS_PROBABILITY = {
    "effective_specificity_given_ratio", "expected_effective_specificity",
    "specificity_shortfall", "specificity_confidence", "specificity_lower_bound",
    "sensitivity",
    "effective_sensitivity_given_ratio", "expected_effective_sensitivity",
    "sensitivity_confidence", "sensitivity_lower_bound",
}

VALID = {
    "p": 0.9, "p_sp": 0.95, "p_esp_lb": 0.9, "p_ese_lb": 0.75, "p_conf": 0.95,
    "target_specificity": 0.95, "nu": 20, "n_subjects": 10, "m": 3, "replicates": 2,
    "delta": 4.0, "mu_delta": 2.0, "w": 1.1, "w_sd": 1.0,
    "wsd": 1.0, "wsd_hat": 1.0, "value": 2.0,
}


def _callables():
    found = {}
    for name in repeatkit.__all__:
        obj = getattr(repeatkit, name)
        if name in DATA_ONLY or not callable(obj) or (
                inspect.isclass(obj) and issubclass(obj, (Exception, MethodChoice,
                                                          SensitivityApproximation,
                                                          SampleSizeResult))):
            continue
        found[name] = obj
    found["EffectSize.from_change"] = EffectSize.from_change
    return found


CALLABLES = _callables()


def _params(fn):
    # scalar parameters only: EffectSize's sign flag and the `estimated` flag are not inputs
    return [p for p in inspect.signature(fn).parameters
            if p not in ("negative", "estimated")]


def test_every_parameter_has_a_kind():
    # a new public parameter must be given a kind here before it is covered
    unknown = {(name, p) for name, fn in CALLABLES.items() for p in _params(fn)
               if p not in VALID and p not in CHOICES}
    assert unknown == set()
    assert set(CALLABLES) >= RETURNS_PROBABILITY


# ---------------------------------------------------------------------------
# valid arguments
# ---------------------------------------------------------------------------

_PROBABILITY = st.floats(min_value=1e-300, max_value=1.0 - 1e-16)
_MAGNITUDE = st.floats(min_value=1e-300, max_value=1e300)


def _count(minimum, maximum):
    # counts come as int and as numpy integers alike
    return st.builds(lambda n, kind: kind(n), st.integers(minimum, maximum),
                     st.sampled_from([int, np.int64]))


def _strategy(param):
    if param in PROBABILITIES:
        return _PROBABILITY
    if param in COUNTS:
        return _count(COUNTS[param], 10**7 if param == "nu" else 10**4)
    if param in ("delta", "mu_delta"):
        return st.builds(lambda x, sign: sign * x, _MAGNITUDE, st.sampled_from([1.0, -1.0]))
    if param in ("w", "w_sd"):
        return _MAGNITUDE
    if param in NONNEGATIVE:
        return st.one_of(st.just(0.0), _MAGNITUDE)
    choices = CHOICES[param]
    return st.sampled_from(list(choices) + [c.value for c in choices])


def _assert_finite_answer(name, result):
    if isinstance(result, SampleSizeResult):
        assert isinstance(result.n, int) and result.n >= 1, result
        assert result.raw is None or math.isfinite(result.raw), result
        return
    if isinstance(result, (WsdEstimate, RepeatabilityCoefficient, EffectSize)):
        return  # their fields passed the constructor's own checks
    assert math.isfinite(result), (name, result)
    if name in RETURNS_PROBABILITY:
        assert 0.0 <= result <= 1.0, (name, result)


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(sorted(CALLABLES)))
    fn = CALLABLES[name]
    return name, fn, {p: draw(_strategy(p)) for p in _params(fn)}


# A floor one double below the target whose coverage quantile equals the
# target's: the closed form divided by z_lb - z = 0.
_SHARED_QUANTILE = [
    ("sample_size_specificity", dict(m=2, p_sp=p, p_esp_lb=math.nextafter(p, 0.0),
                                     p_conf=0.95, method=method))
    for p in (0.5, 0.75, 0.9, 0.1, 1e-3, 0.999999) for method in MethodChoice]


# A count that float() cannot hold, in every parameter that takes a count.
_BEYOND_DOUBLE = [
    (name, {**{p: VALID[p] for p in _params(fn) if p in VALID}, count: 10**400})
    for name, fn in sorted(CALLABLES.items()) for count in _params(fn) if count in COUNTS]


def _with_examples(test):
    for name, kwargs in _SHARED_QUANTILE + _BEYOND_DOUBLE:
        test = example((name, CALLABLES[name], kwargs))(test)
    return test


@_with_examples
@given(_calls())
@settings(max_examples=600, deadline=None)
def test_valid_arguments_answer_or_raise_repeatkit_error(call):
    name, fn, kwargs = call
    with warnings.catch_warnings():
        # advisory warnings (small nu, p_conf <= 0.5) come with a valid answer
        warnings.simplefilter("ignore")
        try:
            result = fn(**kwargs)
        except RepeatkitError:
            return
    _assert_finite_answer(name, result)


@pytest.mark.parametrize("name", sorted(name for name, fn in CALLABLES.items()
                                         if set(_params(fn)) & set(COUNTS)))
def test_numpy_integer_counts_are_counts(name):
    fn = CALLABLES[name]
    kwargs = {p: VALID[p] for p in _params(fn) if p in VALID}
    as_numpy = {p: np.int64(v) if p in COUNTS else v for p, v in kwargs.items()}
    assert fn(**as_numpy) == fn(**kwargs)


# ---------------------------------------------------------------------------
# one invalid argument at a time
# ---------------------------------------------------------------------------

def _bad_values(param):
    if param in PROBABILITIES:
        return [0.0, 1.5, math.nan]
    if param in COUNTS:
        return [0, 2.5, True]
    if param in ("delta", "mu_delta"):
        return [math.inf, -math.inf, math.nan]
    if param in ("w", "w_sd"):
        return [0.0, math.inf]
    if param in NONNEGATIVE:
        return [-1.0, math.inf, math.nan]
    return ["bogus"]


INVALID_CALLS = [
    pytest.param(fn, param, bad, id=f"{name}-{param}={bad!r}")
    for name, fn in sorted(CALLABLES.items())
    for param in _params(fn)
    for bad in _bad_values(param)
]


@pytest.mark.parametrize("fn,param,bad", INVALID_CALLS)
def test_invalid_argument_is_named(fn, param, bad):
    kwargs = {p: VALID[p] for p in _params(fn) if p in VALID}  # choices keep their defaults
    kwargs[param] = bad
    with pytest.raises(RepeatkitError) as caught:
        fn(**kwargs)
    assert param in str(caught.value)
