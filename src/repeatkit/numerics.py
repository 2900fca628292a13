"""Numerical kernels: normal and chi-square distributions, integer search.

Everything downstream (repeatability coefficients, effective operating
characteristics, sample sizes) reduces to three primitives exposed here: the
standard normal CDF/quantile pair, the chi-square CDF/quantile pair, and a
monotone integer search.  The distribution functions validate their
arguments and delegate to ``scipy.special`` (``erfc``, ``ndtri``,
``gammainc``, ``gammaincinv``, ``gammaln``).  They are scalar-first;
``normal_cdf`` and ``normal_quantile`` also accept numpy arrays because the
simulation code transforms large uniform batches through them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import erfc as _erfc_arr, gammainc, gammaincinv, gammaln, ndtri, xlogy

from .errors import DomainError, InfeasibleError

__all__ = [
    "check_probability",
    "check_degrees_of_freedom",
    "normal_cdf",
    "normal_quantile",
    "chisq_pdf",
    "chisq_log_pdf",
    "chisq_cdf",
    "chisq_quantile",
    "min_integer_satisfying",
    "MAX_SUBJECTS",
]

_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# argument checking
# ---------------------------------------------------------------------------

def check_probability(value: float, name: str = "probability") -> float:
    """Validate a probability strictly inside (0, 1) and return it as a float."""
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(p):
        raise DomainError(f"{name} must be finite, got {p!r}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {p!r}")
    return p


def check_degrees_of_freedom(nu: int, name: str = "nu") -> int:
    """Validate a degrees-of-freedom count: a positive integer."""
    if isinstance(nu, float) and nu.is_integer():
        nu = int(nu)
    if isinstance(nu, bool) or not isinstance(nu, (int, np.integer)):
        raise DomainError(f"{name} must be a positive integer, got {nu!r}")
    nu = int(nu)
    if nu < 1:
        raise DomainError(f"{name} must be >= 1, got {nu}")
    return nu


# ---------------------------------------------------------------------------
# standard normal distribution
# ---------------------------------------------------------------------------

def normal_cdf(x):
    """Standard normal CDF ``Φ(x)``.

    Parameters
    ----------
    x : float or ndarray
        Finite evaluation point(s).

    Returns
    -------
    float or ndarray
        ``Φ(x)`` in [0, 1], computed as ``erfc(-x/√2)/2`` which keeps full
        relative precision in the lower tail.
    """
    if isinstance(x, np.ndarray):
        if not np.isfinite(x).all():
            raise DomainError("normal_cdf requires finite input")
        return 0.5 * _erfc_arr(-x / _SQRT2)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"normal_cdf requires finite x, got {x!r}")
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
# chi-square distribution
# ---------------------------------------------------------------------------

def chisq_log_pdf(x: float, nu: int) -> float:
    """Log of the chi-square density with ``nu`` degrees of freedom, ``x > 0``.

    Stays finite where :func:`chisq_pdf` underflows, e.g. far in the tails
    at ``nu ~ 1e6``.
    """
    nu = check_degrees_of_freedom(nu)
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"chisq_log_pdf requires finite x > 0, got {x!r}")
    a = 0.5 * nu
    return float(xlogy(a - 1.0, x) - 0.5 * x - a * _LOG2 - gammaln(a))


def chisq_pdf(x: float, nu: int) -> float:
    """Chi-square density with ``nu`` degrees of freedom at ``x >= 0``.

    Evaluated in log space, so it stays finite for ``nu`` up to at least
    1e6.  At ``x = 0`` the density is 0.5 for ``nu = 2``, diverges for
    ``nu = 1``, and vanishes for ``nu > 2``.
    """
    nu = check_degrees_of_freedom(nu)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"chisq_pdf requires finite x >= 0, got {x!r}")
    if x == 0.0:
        if nu == 1:
            return math.inf
        return 0.5 if nu == 2 else 0.0
    return math.exp(chisq_log_pdf(x, nu))


def chisq_cdf(x: float, nu: int) -> float:
    """Chi-square CDF ``P[X <= x]`` with ``nu`` degrees of freedom.

    The regularized lower incomplete gamma function ``P(nu/2, x/2)``
    (``scipy.special.gammainc``).
    """
    nu = check_degrees_of_freedom(nu)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"chisq_cdf requires finite x >= 0, got {x!r}")
    return float(gammainc(0.5 * nu, 0.5 * x))


def chisq_quantile(p: float, nu: int) -> float:
    """Chi-square quantile: the ``x`` with ``chisq_cdf(x, nu) = p``.

    ``2 * gammaincinv(nu/2, p)``, the inverse of :func:`chisq_cdf`.
    """
    nu = check_degrees_of_freedom(nu)
    p = check_probability(p, "p")
    return 2.0 * float(gammaincinv(0.5 * nu, p))


# ---------------------------------------------------------------------------
# monotone integer search
# ---------------------------------------------------------------------------

# Largest subject count the exact sample-size searches try.
MAX_SUBJECTS = 10_000_000


def min_integer_satisfying(predicate: Callable[[int], bool], start_hint: int = 1) -> int:
    """Smallest ``n`` in ``[1, MAX_SUBJECTS]`` with ``predicate(n)`` true, for monotone predicates.

    ``predicate`` must be false below some threshold and true from the
    threshold on.  Exponential bracketing around ``start_hint`` followed by
    bisection keeps the number of predicate evaluations logarithmic, which
    matters when each evaluation is a chi-square tail computation.

    Raises
    ------
    InfeasibleError
        If the predicate is still false at ``MAX_SUBJECTS``.
    """
    if not isinstance(start_hint, (int, np.integer)) or isinstance(start_hint, bool):
        raise DomainError(f"start_hint must be a positive integer, got {start_hint!r}")
    if start_hint < 1:
        raise DomainError(f"start_hint must be >= 1, got {start_hint}")

    cache: dict[int, bool] = {}

    def check(n: int) -> bool:
        if n not in cache:
            cache[n] = bool(predicate(n))
        return cache[n]

    hint = min(int(start_hint), MAX_SUBJECTS)
    if check(hint):
        # walk down for the false side of the bracket
        hi = hint
        lo = 0
        step = 1
        while hi > 1:
            cand = max(1, hi - step)
            if check(cand):
                hi = cand
                step *= 2
            else:
                lo = cand
                break
        else:
            return hi
        if hi == 1:
            return 1
    else:
        # walk up for the true side of the bracket
        lo = hint
        step = 1
        hi = 0
        while True:
            cand = min(MAX_SUBJECTS, hint + step)
            if check(cand):
                hi = cand
                break
            lo = cand
            if cand >= MAX_SUBJECTS:
                raise InfeasibleError(
                    f"predicate still false at n={MAX_SUBJECTS}")
            step *= 2

    while hi - lo > 1:
        mid = (lo + hi) // 2
        if check(mid):
            hi = mid
        else:
            lo = mid
    return hi
