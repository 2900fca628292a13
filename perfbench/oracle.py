"""Independent reference values for every number the benchmark checks.

Nothing here imports repeatkit.  Each quantity comes from a closed form
evaluated with scipy.special / scipy.stats, or from a plain numpy
computation on the generated data:

* expected effective specificity, exact: ``2 T_nu(z) - 1`` (Student's t),
  because ``E[Phi(z W)] = P(Z / W <= z)`` with ``W = sqrt(chi2_nu / nu)``;
* expected effective specificity, asymptotic: ``2 Phi(z / sqrt(1 + z^2/(2 nu))) - 1``,
  the Gaussian identity ``E[Phi(a + b Z)] = Phi(a / sqrt(1 + b^2))``;
* expected effective sensitivity, exact:
  ``1 - F_nct(z; nu, d) + F_nct(-z; nu, d)`` with ``d = delta / sqrt(2)``;
* lower bounds and shortfall probabilities: ``chi2.ppf`` / ``chi2.cdf``;
* sample sizes: minimality of ``n`` against ``chi2.sf`` / ``chi2.cdf``;
* wSD estimates: two-pass pooled sums with ``np.bincount``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

# The JSON envelope and the CSV emitters print 10 significant digits, so a
# correct value is within 5e-10 of the reference, relative; twice that.
RTOL = 1e-9
# Complement forms such as ``1 - (1 - p)`` lose up to one ulp of 1 absolute.
ATOL = 1e-15
# Values the program obtains by adaptive quadrature (expected effective
# specificity and sensitivity) are held to an absolute 1e-7: the program's
# quadrature misses its own 1e-11 target by up to ~6e-9 at isolated designs
# (see CHANGES.md), and a tighter band would fail on some seeds only.
QUAD_ATOL = 1e-7
# Monte Carlo agreement band, in standard errors, fixed before any run.
MC_BAND_SE = 5.0
# Decisions ``confidence >= target`` closer than this to the target are ties
# that the oracle cannot settle against an independent kernel.
TIE = 1e-12


def close(got: float, want: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return abs(got - want) <= max(atol, rtol * abs(want))


def coverage_z(p):
    """Half-width multiplier with P[-z <= Z <= z] = p (scalar or array)."""
    return special.ndtri(1.0 - (1.0 - np.asarray(p, float)) / 2.0)


def band_probability(y):
    """P[-y <= Z <= y]."""
    return special.ndtr(y) - special.ndtr(-y)


# ---------------------------------------------------------------------------
# specificity
# ---------------------------------------------------------------------------

def expected_specificity_exact(nu, psp: float):
    return 2.0 * special.stdtr(nu, coverage_z(psp)) - 1.0


def expected_specificity_asymptotic(nu, psp: float):
    z = coverage_z(psp)
    return 2.0 * special.ndtr(z / np.sqrt(1.0 + z * z / (2.0 * np.asarray(nu, float)))) - 1.0


def specificity_lower_bound_exact(nu, psp: float, conf: float):
    nu = np.asarray(nu, float)
    w = np.sqrt(stats.chi2.ppf(1.0 - conf, nu) / nu)
    return band_probability(coverage_z(psp) * w)


def specificity_lower_bound_asymptotic(nu: int, psp: float, conf: float) -> float | None:
    """None where the normal-approximation ratio quantile is at or below 0."""
    w = 1.0 + special.ndtri(1.0 - conf) / math.sqrt(2.0 * nu)
    if w <= 0.0:
        return None
    return float(band_probability(coverage_z(psp) * w))


def prob_specificity_below_exact(nu: int, psp: float, bound: float) -> float:
    r = coverage_z(bound) / coverage_z(psp)
    return float(stats.chi2.cdf(nu * r * r, nu))


def prob_specificity_below_asymptotic(nu: int, psp: float, bound: float) -> float:
    r = coverage_z(bound) / coverage_z(psp)
    return float(special.ndtr((r - 1.0) * math.sqrt(2.0 * nu)))


def specificity_confidence_exact(nu, psp, lb):
    """P[effective specificity >= lb] with nu degrees of freedom (arrays broadcast)."""
    r = coverage_z(lb) / coverage_z(psp)
    nu = np.asarray(nu, float)
    return stats.chi2.sf(nu * r * r, nu)


def specificity_density(p, nu: int, psp: float):
    """Density of the effective specificity, by change of variables in log space."""
    z = coverage_z(psp)
    y = coverage_z(p)
    w = y / z
    log_f = (stats.chi2.logpdf(nu * w * w, nu) + np.log(2.0 * w * nu)
             - (np.log(2.0 * z) - 0.5 * y * y - 0.5 * math.log(2.0 * math.pi)))
    return np.exp(log_f), log_f


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def sensitivity_known(delta: float, psp: float) -> float:
    z = coverage_z(psp)
    d = abs(delta) / math.sqrt(2.0)
    return float(1.0 - (special.ndtr(z - d) - special.ndtr(-z - d)))


def expected_sensitivity_exact(nu: int, delta: float, psp: float) -> float:
    z = coverage_z(psp)
    d = abs(delta) / math.sqrt(2.0)
    return float(1.0 - special.nctdtr(nu, d, z) + special.nctdtr(nu, d, -z))


def sensitivity_lower_bound_exact(nu: int, delta: float, psp: float, conf: float,
                                  two_sided: bool = False) -> float:
    z = coverage_z(psp)
    d = abs(delta) / math.sqrt(2.0)
    y = z * math.sqrt(stats.chi2.ppf(conf, nu) / nu)
    if two_sided:
        return float(1.0 - (special.ndtr(y - d) - special.ndtr(-y - d)))
    return float(1.0 - special.ndtr(y - d))


def attainable_sensitivity_one_sided(delta: float, psp: float) -> float:
    return float(1.0 - special.ndtr(coverage_z(psp) - abs(delta) / math.sqrt(2.0)))


def sensitivity_confidence_exact(nu, delta: float, psp: float, lb: float):
    """P[one-sided effective sensitivity >= lb]: chi-square CDF at the ratio cap."""
    u = (special.ndtri(1.0 - lb) + abs(delta) / math.sqrt(2.0)) / coverage_z(psp)
    nu = np.asarray(nu, float)
    return stats.chi2.cdf(nu * u * u, nu)


def sensitivity_sample_size_raw(m: int, delta: float, psp: float, lb: float,
                                conf: float) -> float:
    z = coverage_z(psp)
    denom = special.ndtri(1.0 - lb) + abs(delta) / math.sqrt(2.0) - z
    return float((special.ndtri(conf) * z / denom) ** 2 / (2.0 * (m - 1)))


# ---------------------------------------------------------------------------
# sample-size minimality
# ---------------------------------------------------------------------------

def minimality_violations(n, confidence_at, target: float) -> np.ndarray:
    """Indices where ``n`` is not the smallest integer reaching ``target``.

    ``confidence_at(k)`` evaluates the (increasing) confidence at arrays of
    subject counts ``k``.  ``n`` must qualify and ``n - 1`` must not;
    decisions within ``TIE`` of the target are accepted either way.
    """
    n = np.asarray(n, dtype=np.int64)
    at_n = confidence_at(n)
    bad = at_n < target - TIE
    prev = n - 1
    has_prev = prev >= 1
    at_prev = confidence_at(np.where(has_prev, prev, 1))
    bad |= has_prev & (at_prev >= target + TIE)
    return np.flatnonzero(bad | (n < 1))


# ---------------------------------------------------------------------------
# estimation from data
# ---------------------------------------------------------------------------

def pooled_wsd(codes: np.ndarray, values: np.ndarray) -> tuple[float, int]:
    """Two-pass pooled within-subject SD and its degrees of freedom."""
    counts = np.bincount(codes)
    means = np.bincount(codes, weights=values) / counts
    resid = values - means[codes]
    pooled_ss = float(np.sum(np.bincount(codes, weights=resid * resid)))
    nu = int(values.size - counts.size)
    return math.sqrt(pooled_ss / nu), nu


# ---------------------------------------------------------------------------
# Monte Carlo moments
# ---------------------------------------------------------------------------

def _chi_moment(g, nu: int) -> tuple[float, float]:
    """Mean and SD of g(W), W = sqrt(X / nu), X ~ chi2(nu), by quadrature."""
    lo = stats.chi2.ppf(1e-15, nu)
    hi = stats.chi2.isf(1e-15, nu)
    pdf = stats.chi2(nu).pdf
    pts = [stats.chi2.ppf(q, nu) for q in (0.01, 0.25, 0.5, 0.75, 0.99)]
    m1 = integrate.quad(lambda x: g(math.sqrt(x / nu)) * pdf(x), lo, hi,
                        points=pts, limit=200, epsabs=1e-13)[0]
    m2 = integrate.quad(lambda x: g(math.sqrt(x / nu)) ** 2 * pdf(x), lo, hi,
                        points=pts, limit=200, epsabs=1e-13)[0]
    return m1, math.sqrt(max(m2 - m1 * m1, 0.0))


def effective_specificity_moments(nu: int, psp: float) -> tuple[float, float]:
    z = coverage_z(psp)
    return _chi_moment(lambda w: float(band_probability(z * w)), nu)


def effective_sensitivity_moments(nu: int, delta: float, psp: float) -> tuple[float, float]:
    z = coverage_z(psp)
    d = abs(delta) / math.sqrt(2.0)
    return _chi_moment(
        lambda w: float(1.0 - (special.ndtr(z * w - d) - special.ndtr(-z * w - d))), nu)
