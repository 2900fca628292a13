"""Numerical kernels: argument checks, the normal distribution, integer search.

Three primitives live here: one check per kind of argument, whose errors
name the argument (:func:`check_integer` for counts, ``int`` or numpy
integers up to the largest double but never bools or floats;
:func:`check_real` for finite reals, never bools; :func:`check_probability`,
which is :func:`check_real` plus the open interval (0, 1)), the standard
normal CDF/quantile pair, and the monotone integer search.  The CDF is
``math.erfc`` on one float, defined at ±inf and rejecting NaN; only the
quantile, ``scipy.special.ndtri``, takes the arrays that the simulation
transforms in bulk.  The change rule's band law, the law of W and the
window search behind every exact specificity sample size live in
:mod:`repeatkit.core`; the integer search here settles the cells that a
window leaves open, and is the exact sensitivity sample size's search.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, InfeasibleError

__all__ = [
    "check_integer",
    "check_probability",
    "check_real",
    "normal_cdf",
    "normal_quantile",
    "min_integer_satisfying",
    "MAX_SUBJECTS",
]

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# argument checking
# ---------------------------------------------------------------------------

def check_real(value, name: str, minimum: float = -math.inf, strict: bool = False) -> float:
    """Validate a finite real (not a bool), ``>= minimum`` or, if ``strict``, ``> minimum``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(x) or x < minimum or (strict and x == minimum):
        bound = "" if minimum == -math.inf else f" and {'>' if strict else '>='} {minimum:g}"
        raise DomainError(f"{name} must be finite{bound}, got {x!r}")
    return x


def check_probability(value, name: str = "probability") -> float:
    """Validate a probability strictly inside (0, 1): :func:`check_real` plus the range."""
    p = check_real(value, name)
    if not 0.0 < p < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {p!r}")
    return p


def check_integer(value, name: str, minimum: int = 1) -> int:
    """Validate a count: an ``int`` or numpy integer, not a bool, ``>= minimum``.

    A count must also convert to a float, so it is at most the largest double.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        try:
            got = repr(value)
        except ValueError:
            # past the digit limit of int-to-str conversion: name its size instead
            got = f"one of {value.bit_length()} bits"
        raise DomainError(f"{name} must be an integer >= {minimum}, got {got}")
    try:
        float(value)
    except OverflowError:
        # too long to print in full: name its size instead
        raise DomainError(f"{name} must be an integer no larger than the largest double, "
                          f"got one of {value.bit_length()} bits") from None
    return int(value)


# ---------------------------------------------------------------------------
# standard normal distribution
# ---------------------------------------------------------------------------

def normal_cdf(x: float) -> float:
    """Standard normal CDF ``Φ(x)`` of one float.

    ``erfc(-x/√2)/2`` in [0, 1], which keeps full relative precision in the
    lower tail; ±inf give 1 and 0, NaN is rejected.
    """
    x = float(x)
    if math.isnan(x):
        raise DomainError(f"normal_cdf requires x that is not NaN, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p, out=None):
    """Standard normal quantile ``Φ⁻¹(p)`` for p strictly inside (0, 1).

    ``scipy.special.ndtri``; ``normal_cdf(normal_quantile(p))`` recovers
    ``p`` to better than 1e-12 across the full open interval.

    Parameters
    ----------
    p : float or ndarray
        Probabilities, each strictly between 0 and 1.
    out : ndarray, optional
        Array to write the quantiles of an array ``p`` into (may be ``p``).

    Returns
    -------
    float or ndarray
    """
    if isinstance(p, np.ndarray):
        if not (np.isfinite(p).all() and (p > 0.0).all() and (p < 1.0).all()):
            raise DomainError("normal_quantile requires probabilities in (0, 1)")
        return ndtri(p, out=out)
    return float(ndtri(check_probability(p, "p")))


# ---------------------------------------------------------------------------
# monotone integer search
# ---------------------------------------------------------------------------

# Largest subject count the exact sample-size searches try.
MAX_SUBJECTS = 10_000_000


def min_integer_satisfying(predicate: Callable[[int], bool], start_hint: int = 1,
                           limit: int = MAX_SUBJECTS) -> int:
    """Smallest ``n`` in ``[1, limit]`` with ``predicate(n)`` true, for monotone predicates.

    ``predicate`` must be false below some threshold and true from the
    threshold on.  Exponential bracketing around ``start_hint`` followed by
    bisection keeps the number of predicate evaluations logarithmic, which
    matters when each evaluation is a chi-square tail computation.

    Raises
    ------
    InfeasibleError
        If the predicate is still false at ``limit``.
    """
    hint = min(check_integer(start_hint, "start_hint"), limit)
    step = 1
    if predicate(hint):
        # walk down for the false side of the bracket
        lo, hi = 0, hint
        while hi > 1:
            cand = max(1, hi - step)
            if not predicate(cand):
                lo = cand
                break
            hi = cand
            step *= 2
    else:
        # walk up for the true side of the bracket
        lo = hint
        while lo < limit:
            hi = min(limit, hint + step)
            if predicate(hi):
                break
            lo = hi
            step *= 2
        else:
            raise InfeasibleError(f"predicate still false at n={limit}")

    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi
