"""Correctness checks on gofpower's outputs, independent of gofpower.

Only the standard library and numpy are used here, so a check that passes
is agreement between two routes, not the program agreeing with itself.
Each check returns a list of human-readable problems; an empty list is a
pass.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = np.finfo(float).eps

# F(x) is computed to abs_tol 1e-9 per integral and written with 17 digits;
# 1e-8 leaves room for the error estimate being an estimate.
CDF_TOL = 1e-8
# the Monte-Carlo mean check fails a correct sampler about once in 1.7e6
MC_SIGMAS = 5.0


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a, x) = e^-x x^a / Gamma(a+1) * sum_k x^k / ((a+1)...(a+k))
    term = 1.0
    total = 1.0
    k = a
    while abs(term) > _EPS * abs(total):
        k += 1.0
        term *= x / k
        total += term
    return total * math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))


def _upper_gamma_fraction(a: float, x: float) -> float:
    # Q(a, x) by the Legendre continued fraction, modified Lentz evaluation
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < _EPS or i > 100_000:
            break
    return h * math.exp(a * math.log(x) - x - math.lgamma(a))


def regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) for a > 0, x >= 0."""
    if a <= 0.0 or x < 0.0:
        raise ValueError("need a > 0 and x >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x)
    return 1.0 - _upper_gamma_fraction(a, x)


def uniform_null_cdf(m: int, x: float) -> float:
    """F0(x) of the uniform model over m bins: P(chi2_{m-1} <= m x).

    For p0 = 1/m, B = m H, so every sigma^2 equals 1/m and the null limit
    is a chi-square with m - 1 degrees of freedom scaled by 1/m.
    """
    return regularized_gamma_p(0.5 * (m - 1), 0.5 * m * x) if x > 0 else 0.0


def check_uniform_null(m: int, xs, f0s, tol: float = CDF_TOL) -> list[str]:
    """Null CDF values of a uniform model against the closed form."""
    problems = []
    for x, f in zip(xs, f0s):
        exact = uniform_null_cdf(m, float(x))
        if not abs(float(f) - exact) <= tol:
            problems.append(f"uniform m={m}: F0({x:g}) = {f!r}, closed form {exact!r}")
    return problems


def b_matrix(p0) -> np.ndarray:
    """B = H D H, D = diag(1/p0), H the centering projector, built densely."""
    p0 = np.asarray(p0, dtype=float)
    m = p0.size
    h = np.eye(m) - 1.0 / m
    return h @ np.diag(1.0 / p0) @ h


def check_sigma(p0, sigma) -> list[str]:
    """1/sigma^2 against the m-1 largest eigenvalues of B from eigvalsh.

    Both routes have backward error of order eps * ||B||, so the tolerance
    is absolute in units of the largest eigenvalue, plus a relative part.
    """
    lam = np.sort(np.linalg.eigvalsh(b_matrix(p0)))[::-1][:len(sigma)]
    got = np.sort(1.0 / np.asarray(sigma, dtype=float) ** 2)[::-1]
    tol = 1e-10 * lam + 1e3 * len(p0) * _EPS * lam[0]
    bad = np.flatnonzero(~(np.abs(got - lam) <= tol))
    return [f"sigma^-2[{k}] = {got[k]!r}, eigvalsh {lam[k]!r}" for k in bad[:3]]


def check_identities(p0, a, sigma, zeta) -> list[str]:
    """sum sigma^-2 = (1 - 1/m) sum 1/p0 (trace of B) and
    sum sigma^2 zeta^2 = ||a||^2 (a is orthogonal to the all-ones vector)."""
    p0 = np.asarray(p0, dtype=float)
    a = np.asarray(a, dtype=float)
    s2 = np.asarray(sigma, dtype=float) ** 2
    z2 = np.asarray(zeta, dtype=float) ** 2
    problems = []
    trace = (1.0 - 1.0 / p0.size) * float(np.sum(1.0 / p0))
    got = float(np.sum(1.0 / s2))
    if not abs(got - trace) <= 1e-9 * trace:
        problems.append(f"sum sigma^-2 = {got!r}, trace of B {trace!r}")
    norm2 = float(a @ a)
    got = float(s2 @ z2)
    if not abs(got - norm2) <= 1e-9 * norm2 + 1e-300:
        problems.append(f"sum sigma^2 zeta^2 = {got!r}, ||a||^2 {norm2!r}")
    return problems


def check_curve(name: str, f0, fa, tol: float = CDF_TOL) -> list[str]:
    """CDF columns of a power curve, by increasing x: in [0, 1] and
    non-decreasing, and the alternative never has less power than the null
    (Fa <= F0)."""
    problems = []
    for label, col in (("F0", f0), ("Fa", fa)):
        col = np.asarray(col, dtype=float)
        if not (np.all(col >= 0.0) and np.all(col <= 1.0)):
            problems.append(f"{name}: {label} leaves [0, 1]")
        drop = float(-np.min(np.diff(col), initial=0.0))
        if drop > tol:
            problems.append(f"{name}: {label} decreases by {drop:.3g}")
    excess = float(np.max(np.asarray(fa) - np.asarray(f0), initial=0.0))
    if excess > tol:
        problems.append(f"{name}: Fa exceeds F0 by {excess:.3g}")
    return problems


def check_power(alphas, powers, tol: float = 1e-7) -> list[str]:
    """Asymptotic power at increasing alpha: in [alpha, 1] and non-decreasing.

    Each (Z + zeta)^2 is stochastically larger than Z^2, so the alternative
    law dominates the null and power never falls below alpha.
    """
    problems = []
    for alpha, pw in zip(alphas, powers):
        if not (alpha - tol <= pw <= 1.0):
            problems.append(f"power at alpha={alpha:g} is {pw!r}")
    if any(b < a - tol for a, b in zip(powers, powers[1:])):
        problems.append(f"power not monotone in alpha: {powers}")
    return problems


def check_pvalues(xs, pvals, tol: float = CDF_TOL) -> list[str]:
    """P-values in [0, 1], non-increasing in the observed statistic."""
    problems = [f"pvalue({x:g}) = {p!r}" for x, p in zip(xs, pvals)
                if not 0.0 <= p <= 1.0]
    if any(b > a + tol for a, b in zip(pvals, pvals[1:])):
        problems.append(f"pvalue not monotone: {pvals}")
    return problems


def expected_statistic(p0, a, n: int) -> float:
    """E[X_n] = sum p_a (1 - p_a) + ||a||^2 with p_a = p0 + a / sqrt(n)."""
    p0 = np.asarray(p0, dtype=float)
    a = np.asarray(a, dtype=float)
    p_a = p0 + a / math.sqrt(n)
    return float(np.sum(p_a * (1.0 - p_a)) + a @ a)


def check_mc_mean(name: str, stats, p0, a, n: int) -> list[str]:
    """Sample mean of X_n within MC_SIGMAS standard errors of E[X_n]."""
    stats = np.asarray(stats, dtype=float)
    mean = float(stats.mean())
    se = float(stats.std(ddof=1)) / math.sqrt(stats.size)
    want = expected_statistic(p0, a, n)
    if not abs(mean - want) <= MC_SIGMAS * se:
        return [f"{name}: MC mean {mean:.6g}, expected {want:.6g} (se {se:.3g})"]
    return []


def check_empirical_power(name: str, powers) -> list[str]:
    """Empirical power, listed by increasing alpha: in [0, 1] and
    non-decreasing."""
    powers = np.asarray(powers, dtype=float)
    problems = []
    if not (np.all(powers >= 0.0) and np.all(powers <= 1.0)):
        problems.append(f"{name}: empirical power leaves [0, 1]")
    if np.any(np.diff(powers) < 0.0):
        problems.append(f"{name}: empirical power not monotone in alpha")
    return problems
