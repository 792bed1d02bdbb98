"""Independent reference distributions used to check the production code.

Everything here is built from textbook series and continued-fraction
identities, deliberately without importing anything from ``gofpower``, so
that agreement between the two is a genuine two-route check.
"""

import decimal
import math

import numpy as np

_EPS = 1e-16
_MAX_ITER = 10_000


def regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x).

    Power series for x < a + 1, Lentz continued fraction for the upper
    tail otherwise.
    """
    if a <= 0:
        raise ValueError("shape parameter must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # series: P(a,x) = x^a e^-x / Gamma(a) * sum_k x^k / (a(a+1)...(a+k))
        total = 1.0 / a
        term = total
        denom = a
        for _ in range(_MAX_ITER):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        return total * math.exp(-x + a * math.log(x) - lg)
    # modified Lentz for Q(a,x) = x^a e^-x / Gamma(a) * 1/(x+1-a- 1(1-a)/(x+3-a- ...))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    q = math.exp(-x + a * math.log(x) - lg) * h
    return 1.0 - q


def chi2_cdf(df: float, x: float) -> float:
    """Central chi-square CDF with df degrees of freedom."""
    if x <= 0:
        return 0.0
    return regularized_gamma_p(0.5 * df, 0.5 * x)


def chi2_quantile(df: float, p: float, tol: float = 1e-12) -> float:
    """Inverse of chi2_cdf by bisection; good enough for test fixtures."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    lo, hi = 0.0, max(1.0, float(df))
    while chi2_cdf(df, hi) < p:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("quantile bracket failure")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(df, mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def noncentral_chi2_cdf(df: float, noncentrality: float, x: float) -> float:
    """Noncentral chi-square CDF as a Poisson mixture of central CDFs.

    F(x) = sum_j e^{-l/2} (l/2)^j / j! * chi2_cdf(df + 2j, x).  Forward
    summation from j = 0; adequate for the moderate noncentralities used
    in the tests (the leading Poisson weight must not underflow).
    """
    if x <= 0:
        return 0.0
    lam = noncentrality
    if lam < 0:
        raise ValueError("noncentrality must be nonnegative")
    if lam == 0.0:
        return chi2_cdf(df, x)
    half = 0.5 * lam
    weight = math.exp(-half)
    if weight == 0.0:
        raise ValueError("noncentrality too large for forward summation")
    cum_weight = weight
    total = weight * chi2_cdf(df, x)
    for j in range(1, _MAX_ITER):
        weight *= half / j
        cum_weight += weight
        total += weight * chi2_cdf(df + 2 * j, x)
        # chi2_cdf is decreasing in df, so the dropped tail is below 1 - cum_weight
        if 1.0 - cum_weight < 1e-14:
            break
    return min(1.0, total)


def secular_spectrum(p0, a, digits: int = 50):
    """Nonzero spectrum of B = H diag(1/p0) H in ``digits``-digit decimals.

    Returns (lambda, multiplicity, summed zeta^2) per distinct eigenvalue,
    lambda ascending, where zeta_k^2 = lambda_k (q_k . a)^2 over unit
    eigenvectors q_k.  The float inputs are converted exactly.  A value r
    taken by c entries of 1/p0 is an eigenvalue of multiplicity c - 1 with
    summed zeta^2 = r |a_G - mean(a_G)|^2; every other eigenvalue is a root
    of sum_g c_g / (r_g - lambda) = 0, found by bisection inside each gap
    between consecutive r_g, with eigenvector 1/(r - lambda).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        one = decimal.Decimal(1)
        groups: dict = {}
        for p, ak in zip(p0, a):
            groups.setdefault(one / decimal.Decimal(float(p)), []).append(
                decimal.Decimal(float(ak)))
        poles = sorted(groups)
        out = []
        for r in poles:
            members = groups[r]
            if len(members) > 1:
                mean = sum(members) / len(members)
                out.append((r, len(members) - 1,
                            r * sum((x - mean) ** 2 for x in members)))
        stop = decimal.Decimal(10) ** (6 - digits)
        for lo, hi in zip(poles[:-1], poles[1:]):
            left, right = lo, hi
            while right - left > stop * hi:
                lam = (left + right) / 2
                f = sum(len(groups[r]) / (r - lam) for r in poles)
                if f > 0:
                    right = lam
                else:
                    left = lam
            lam = (left + right) / 2
            dot = sum(sum(groups[r]) / (r - lam) for r in poles)
            norm2 = sum(len(groups[r]) / (r - lam) ** 2 for r in poles)
            out.append((lam, 1, lam * dot * dot / norm2))
        return sorted(out)


def fresh_stream_statistics(seed: int, n: int, p_a, p0, trials: int):
    """X_n per trial, trial t drawn from a fresh Philox keyed [seed mod 2^64, t].

    The reference for the Monte-Carlo stream contract: one new generator
    per trial, and each statistic reduced on its own count vector.
    """
    out = np.empty(trials)
    inv_n = 1.0 / n
    for t in range(trials):
        key = np.array([seed % 2 ** 64, t], dtype=np.uint64)
        counts = np.random.Generator(np.random.Philox(key=key)).multinomial(n, p_a)
        d = counts * inv_n - p0
        out[t] = n * float(d @ d)
    return out
