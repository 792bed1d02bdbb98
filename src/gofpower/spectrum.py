"""Limit-law parameters of the scaled squared-distance statistic.

For draws from p0 + a/sqrt(n), n times the squared Euclidean distance
between empirical proportions and p0 converges in distribution to
sum_k sigma_k^2 (Z_k + zeta_k)^2 over k = 1..m-1.  The sigma_k^-2 are the
m - 1 nonzero eigenvalues of B = H D H (D = diag(r) with r_k = 1/(p0)_k,
H the centering projector); the zeta mix the perturbation through the
eigenvectors.

B is D compressed onto the complement of the all-ones vector, so its
eigenpairs have a closed form (Golub 1973, SIAM Rev. 15:318).  A value r_g
taken by c_g bins is an eigenvalue of multiplicity c_g - 1, on the vectors
over those bins that sum to zero.  The others are the roots of the secular
equation sum_g c_g / (r_g - lambda) = 0, one between each pair of
consecutive distinct r_g, with eigenvectors proportional to 1/(r - lambda)
(Bunch, Nielsen & Sorensen 1978, Numer. Math. 31:31).

The roots are found by the "middle way" rational iteration of LAPACK's
dlaed4 (Li 1993, LAPACK Working Note 89; Gu & Eisenstat 1995, SIAM J.
Matrix Anal. Appl. 16:172): each step goes to the root of a two-pole model
of the secular function, inside a sign bracket that bisects a step past its
far end and probes just inside the near one.  It stops when every bracket
is two adjacent doubles, as bisection did.  Gaps are solved a block of rows
at a time, so memory is O(m) per row of the block, not O(m^2).

Every secular root lies strictly between two poles, and every tied
eigenvalue is a pole, so each nonzero eigenvalue is at least 1/max p0 > 0:
every p0 > 0 has a limit law, whatever its ratio max p0 / min p0.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .model import DimensionError, Perturbation, ProbabilityModel
from .quadform import Plan

__all__ = ["Spectrum", "compute_spectrum"]

# exponent cap: exp(x) overflows just above x = 709
_EXP_OVERFLOW = 700.0
# secular gaps solved together: the working arrays are _BLOCK x (distinct p0)
_BLOCK = 128
# 10 sweeps were measured at most; bisection alone takes under 2,100
_MAX_SWEEPS = 4096


def _groups(sigma, zeta):
    """Group equal variances of a descending sigma: (sigma2, multiplicity,
    summed zeta^2, ell).

    The distribution depends on the zetas of an eigenvalue group only
    through their summed squares, so the grouped integrand is exactly the
    ungrouped one at a fraction of the cost when eigenvalues repeat.  A
    group is a run of equal sigma^2; ``eigendecompose`` repeats a tie exactly.
    """
    s2 = sigma ** 2
    starts = np.flatnonzero(np.concatenate(([True], s2[1:] != s2[:-1])))
    arrays = (s2[starts], np.diff(starts, append=s2.size).astype(float),
              np.add.reduceat(zeta ** 2, starts))
    for arr in arrays:
        arr.flags.writeable = False
    return (*arrays, int(s2.size))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Parameters (sigma_k, zeta_k) of the limit law.

    ``Spectrum(sigma, zeta)`` sorts the two arrays jointly into descending
    sigma; tied sigma keep their input order, so a tie group's zeta stays on
    its first member.  ``ell``, the number of terms, is derived.
    ``stability_rhs`` caches the a-priori numerator bound used to pick the
    integral representation, the product over k of
    exp(zeta_k^2 sqrt(1 + 1/ell) / 2); it is 1 exactly when all zeta
    vanish, and +inf when the summed exponent passes the double range.
    ``groups`` is the law as the integrands use it, built once here:
    (sigma^2 per group, multiplicity, summed zeta^2, ell), read-only.
    """

    sigma: np.ndarray
    zeta: np.ndarray
    ell: int = field(init=False)
    stability_rhs: float = field(init=False)
    groups: tuple = field(init=False, repr=False)

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        zeta = np.asarray(self.zeta, dtype=float)
        if sigma.ndim != 1 or sigma.shape != zeta.shape or sigma.size < 1:
            raise DimensionError("sigma and zeta must be 1-d arrays of equal length >= 1")
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise ValueError("all sigma must be finite and strictly positive")
        if not np.all(np.isfinite(zeta)):
            raise ValueError("all zeta must be finite")
        order = np.argsort(-sigma, kind="stable")
        sigma, zeta = sigma[order], zeta[order]
        ell = int(sigma.size)
        exponent = 0.5 * math.sqrt(1.0 + 1.0 / ell) * float(zeta @ zeta)
        object.__setattr__(self, "stability_rhs", math.inf
                           if exponent > _EXP_OVERFLOW else math.exp(exponent))
        for arr in (sigma, zeta):
            arr.flags.writeable = False
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "groups", _groups(sigma, zeta))

    def null(self) -> "Spectrum":
        """The null law's parameters: the same sigma, every zeta 0.

        sigma depends on p0 alone, so this equals ``compute_spectrum`` on
        the zero perturbation without a second eigendecomposition.
        """
        return Spectrum(self.sigma, np.zeros(self.ell))

    @functools.cached_property
    def plan(self) -> Plan:
        """What ``quadform.cdf_many`` reads from this spectrum alone, built
        on first use: see ``quadform.Plan``."""
        return Plan(self)

    def mean(self) -> float:
        """E[X] = sum sigma_k^2 (1 + zeta_k^2)."""
        return float((self.sigma ** 2) @ (1.0 + self.zeta ** 2))

    def to_json(self, **kwargs) -> str:
        return json.dumps({
            "sigma2": (self.sigma ** 2).tolist(),
            "zeta": self.zeta.tolist(),
            "stability_rhs": self.stability_rhs,
        }, **kwargs)


def _secular_roots(poles, cnt, rows):
    """Roots of f(lambda) = sum_g cnt_g / (poles_g - lambda) in the gaps
    ``rows`` (a slice of range(poles.size - 1)) of the ascending ``poles``:
    (pole, tau, sweeps), each root being pole + tau from the nearer end of
    its gap, and sweeps the number of evaluations of f over the rows.

    f is summed row by row, so its sign at a point does not depend on the
    other rows, as a BLAS matrix-vector product's would.
    """
    g = np.arange(poles.size - 1)[rows]
    left = np.where(np.arange(poles.size) <= g[:, None], cnt, 0.0)
    right = cnt - left
    half = 0.5 * (poles[g + 1] - poles[g])
    buf = np.empty_like(left)   # reused: fresh arrays this size page-fault

    def sweep(delta, t, dl, dr):
        # f at t, and the step to the root of c + s_L/(dl - x) + s_R/(dr - x),
        # the model with f's value and its derivative parts from the poles
        # left and right of the gap at t; the root in (dl, dr) is q/c or b/q
        inv = np.subtract(delta, t[:, None], out=buf)
        np.divide(1.0, inv, out=inv)
        f = np.einsum("ij,j->i", inv, cnt)
        inv *= inv
        dpsi = np.einsum("ij,ij->i", inv, left)
        dphi = np.einsum("ij,ij->i", inv, right)
        dl, dr = dl - t, dr - t
        c = f - dl * dpsi - dr * dphi
        a = (dl + dr) * f - dl * dr * (dpsi + dphi)
        b = dl * dr * f
        q = 0.5 * (a + np.copysign(np.sqrt(np.abs(a * a - 4.0 * b * c)), a))
        return f, np.where(a > 0.0, b / q, q / c)

    # a point next to a pole can overflow f's parts into a NaN or infinite
    # step, which the loop below replaces by bisection
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        delta = poles - poles[g, None]
        f, eta = sweep(delta, half, 0.0, 2.0 * half)
        upper = f < 0.0
        pole = np.where(upper, poles[g + 1], poles[g])
        np.subtract(poles, pole[:, None], out=delta)
        dl, dr = poles[g] - pole, poles[g + 1] - pole
        lo = np.where(upper, -half, 0.0)
        hi = np.where(upper, 0.0, half)
        t = np.where(upper, -half, half) + eta
        above = ~upper   # the midpoint is hi where f(midpoint) >= 0
        sweeps = 1
        while True:
            lo_in, hi_in = np.nextafter(lo, hi), np.nextafter(hi, lo)
            live = lo_in < hi
            if not live.any():
                return pole, np.where(upper, lo, hi), sweeps
            if sweeps >= _MAX_SWEEPS:
                raise RuntimeError(f"secular root in gap {int(g[live][0])} still "
                                   f"bracketed after {sweeps} sweeps")
            # the step left the end t became: past the other end, or NaN or
            # infinite, it bisects; back at or past its own, it probes inside
            far = np.where(above, t <= lo, t >= hi)
            t = np.where(np.isfinite(t) & ~far, t, 0.5 * (lo + hi))
            t = np.minimum(np.maximum(t, lo_in), hi_in)
            f, eta = sweep(delta, t, dl, dr)
            sweeps += 1
            above = f > 0.0
            hi = np.where(live & above, t, hi)
            lo = np.where(live & ~above, t, lo)
            t = t + eta


def _secular_solve(p0):
    """The part of ``eigendecompose`` that depends on p0 alone: the distinct
    poles r_g = 1/p0 ascending, each bin's group ``which``, the counts c_g
    (int and float), each block's (pole, tau), and the nonzero eigenvalues
    in ascending ``order``."""
    poles, which, cnt = np.unique(1.0 / p0, return_inverse=True, return_counts=True)
    weight = cnt.astype(float)
    blocks = [_secular_roots(poles, weight, slice(start, start + _BLOCK))[:2]
              for start in range(0, poles.size - 1, _BLOCK)]
    # tied groups: r_g itself, c_g - 1 times
    lam = np.concatenate([np.repeat(poles, cnt - 1), *(pole + tau for pole, tau in blocks)])
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    lam.flags.writeable = False   # shared by every projection of this solve
    return poles, which, cnt, weight, blocks, lam, order


def _project(solve, a):
    """(lambda, eta) of ``eigendecompose`` from p0's ``_secular_solve``."""
    poles, which, cnt, weight, blocks, lam, order = solve
    sum_a = np.bincount(which, a)
    spread = np.bincount(which, (a - (sum_a / cnt)[which]) ** 2)
    eta = [np.zeros(which.size - poles.size)]   # the tied eigenvalues, sum(c_g - 1)
    tied = cnt > 1
    eta[0][(np.cumsum(cnt - 1) - (cnt - 1))[tied]] = np.sqrt(spread[tied])
    for pole, tau in blocks:
        # tau/(r_g - lambda), |v| <= 1; tau, the end away from the pole, is never 0
        v = tau[:, None] / ((poles - pole[:, None]) - tau[:, None])
        v *= np.sign(v[:, which[0]])[:, None]
        eta.append(np.einsum("ij,j->i", v, sum_a)
                   / np.sqrt(np.einsum("ij,j->i", v * v, weight)))
    return lam, np.concatenate(eta)[order]


# the most recent eigendecomposition's p0 and its _secular_solve, one entry
_recent: tuple = (None, None)


def eigendecompose(p0, a):
    """Nonzero eigenvalues of B = H diag(1/p0) H, ascending, and the
    components eta of ``a`` along matching unit eigenvectors.

    f(lambda) = sum_g c_g/(r_g - lambda) rises from -inf to +inf across each
    gap, so its sign at the midpoint names the nearer pole, and the root is
    found on tau = lambda - pole; forming r - lambda as (r - pole) - tau
    keeps the eigenvector accurate next to a pole.  Each sweep narrows a
    sign bracket [lo, hi] by f at t, then steps t to the root of the model
    c + s_L/(r_L - lambda) + s_R/(r_R - lambda) with f's value and its
    derivative parts from each side of the gap at t (Li 1993; Gu &
    Eisenstat 1995).  That root lies on the side the sign of f names, so a
    step back at or past the end that t became is rounding next to the
    root: it probes the double just inside that end.  A step at or past the
    other end, or a NaN or infinite one, bisects.  When every bracket is two
    adjacent doubles, tau is the end away from the pole, as bisection left
    it.  The gaps, eigenvectors included, are solved _BLOCK rows at a time;
    every sum is formed row by row, so no bit depends on _BLOCK.
    Eigenvectors are signed so that their first entry is positive.
    Within a tied group the eigenbasis is free: one vector is taken along
    the group's part of ``a``, so the group's first eta is |a_G - mean(a_G)|
    and the others are 0.
    """
    global _recent
    p0 = np.asarray(p0, dtype=float)
    a = np.asarray(a, dtype=float)
    # a NaN pole would keep the secular iteration below live for ever
    if p0.ndim != 1 or p0.shape != a.shape or not np.all((p0 > 0) & np.isfinite(p0)):
        raise ValueError("p0 must be finite and positive, with a of the same length")
    solve = _secular_solve(p0)
    _recent = (p0, solve)
    return _project(solve, a)


def compute_spectrum(model: ProbabilityModel, pert: Perturbation) -> Spectrum:
    """Full pipeline from (p0, a) to the limit-law parameters.

    sigma_k = 1/sqrt(lambda_k) over the m-1 nonzero eigenvalues, ascending,
    so sigma is descending; zeta_k = eta_k / sigma_k with eta_k the
    component of ``a`` along the k-th unit eigenvector.

    sigma depends on p0 alone, so the secular solve of the most recent
    eigendecomposition is kept, keyed on the p0 array it solved, which a
    model holds read-only: a model's null and alternative solve once.  Only
    one is kept, so memory does not grow with the models answered.  Given
    the alternative, ``Spectrum.null()`` gives the null with no solve at all.
    """
    if pert.m != model.m:
        raise DimensionError(
            f"perturbation has {pert.m} bins, model has {model.m}")
    p0, solve = _recent
    if p0 is model.probs:
        lam, eta = _project(solve, pert.entries)
    else:
        lam, eta = eigendecompose(model.probs, pert.entries)
    sigma = 1.0 / np.sqrt(lam)
    return Spectrum(sigma, eta / sigma)
