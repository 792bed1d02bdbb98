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

A ``Spectrum`` holds the law as entries, one per distinct eigenvalue, and
everything computed from it, the route, the head, the mean and the
integrands, reads their groups; the per-term sigma and zeta are views for
output.

When sum p0 != 1, the law computed is that of H diag(1/p0) H with p0 as
given, not renormalized.  The covariance form diag(p0) - p0 p0^T gives the
same law only when sum p0 = 1: the truncated Poisson p0 of examples 3 and
4 sums to 1 - 8.3e-11, and there the two differ by about 4.2e-11 relative.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from dataclasses import dataclass

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


def _frozen(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, init=False, repr=False, eq=False)   # frozen: no assignment
class Spectrum:
    """Parameters (sigma_k, zeta_k) of the limit law, held as entries.

    An entry (sigma, c, zeta) is c terms of variance sigma^2, the first with
    zeta and the rest with 0: the law sees a tie's zetas only through their
    summed squares.  ``Spectrum(sigma, zeta)`` sorts its terms jointly into
    descending sigma, ties in input order, one entry each; ``compute_spectrum``
    and ``null()`` give an entry per distinct eigenvalue.  Built on first use
    and read-only: ``groups``, the law as everything is computed from it,
    (sigma^2, multiplicity, summed zeta^2, ell) over runs of equal sigma^2,
    and ``sigma`` and ``zeta``, the terms, views for output alone.  ``ell``
    counts the terms.  ``stability_rhs``, the a-priori numerator bound that
    picks the integral representation, is exp(sqrt(1 + 1/ell)/2 sum zeta_k^2)
    with the sum taken over the groups, whose exponent also sizes the
    shifted contour's head: 1 exactly when all zeta vanish, +inf when the
    exponent passes the double range.  ``mean()`` is summed over the groups
    too.  ``secular_sweeps`` is the most sweeps a block of the secular solve
    it was projected from took (0 when it solved no gap or the spectrum was
    built by hand); ``null()`` keeps it.
    """

    def __new__(cls, sigma, zeta):
        sigma, zeta = (np.asarray(v, dtype=float) for v in (sigma, zeta))
        if sigma.ndim != 1 or sigma.shape != zeta.shape or sigma.size < 1:
            raise DimensionError("sigma and zeta must be 1-d arrays of equal length >= 1")
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise ValueError("all sigma must be finite and strictly positive")
        order = np.argsort(-sigma, kind="stable")
        return cls._of(sigma[order], np.ones(sigma.size), zeta[order])

    @classmethod
    def _of(cls, sigma, mult, zeta, secular_sweeps=0):
        """The spectrum of entries, sigma valid and descending, mult as floats."""
        if not np.all(np.isfinite(zeta)):   # a finite perturbation can overflow it
            raise ValueError("all zeta must be finite")
        spec = object.__new__(cls)
        vars(spec).update(_sigma=sigma, _mult=mult, _zeta=zeta, ell=int(mult.sum()),
                          secular_sweeps=secular_sweeps)
        return spec

    def __repr__(self):
        return (f"Spectrum(sigma={self.sigma!r}, zeta={self.zeta!r}, ell={self.ell!r}, "
                f"stability_rhs={self.stability_rhs!r})")

    def __reduce__(self):   # copies and pickles: the entries, not what is built from them
        return Spectrum._of, (self._sigma, self._mult, self._zeta, self.secular_sweeps)

    @functools.cached_property
    def sigma(self) -> np.ndarray:
        return _frozen(np.repeat(self._sigma, self._mult.astype(int)))

    @functools.cached_property
    def zeta(self) -> np.ndarray:
        terms = np.zeros(self.ell)
        terms[(np.cumsum(self._mult) - self._mult).astype(int)] = self._zeta
        return _frozen(terms)

    @functools.cached_property
    def groups(self) -> tuple:
        s2 = self._sigma ** 2
        starts = np.flatnonzero(np.concatenate(([True], s2[1:] != s2[:-1])))
        return (*map(_frozen, (s2[starts], np.add.reduceat(self._mult, starts),
                               np.add.reduceat(self._zeta ** 2, starts))), self.ell)

    @functools.cached_property
    def _log_rhs(self) -> float:
        """log of ``stability_rhs``, from the groups: finite where it overflows."""
        return 0.5 * math.sqrt(1.0 + 1.0 / self.ell) * float(self.groups[2].sum())

    @functools.cached_property
    def stability_rhs(self) -> float:
        return math.inf if self._log_rhs > _EXP_OVERFLOW else math.exp(self._log_rhs)

    def null(self) -> "Spectrum":
        """The null law's parameters: the same sigma, every zeta 0.

        sigma depends on p0 alone, so this equals ``compute_spectrum`` on
        the zero perturbation without a second eigendecomposition.
        """
        return Spectrum._of(self._sigma, self._mult, np.zeros_like(self._zeta), self.secular_sweeps)

    @functools.cached_property
    def plan(self) -> Plan:
        """What ``quadform.cdf_many`` reads from this spectrum alone, built
        on first use: see ``quadform.Plan``."""
        return Plan(self)

    def mean(self) -> float:
        """E[X] = sum sigma_k^2 (1 + zeta_k^2), summed over the groups."""
        s2, cnt, z2, _ = self.groups
        return float(s2 @ (cnt + z2))

    def to_json(self, **kwargs) -> str:
        """The terms' sigma^2 and zeta, and stability_rhs: null when +inf."""
        return json.dumps({
            "sigma2": (self.sigma ** 2).tolist(),
            "zeta": self.zeta.tolist(),
            "stability_rhs": self.stability_rhs if self.stability_rhs < math.inf else None,
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
    poles r_g = 1/p0 ascending, each bin's group ``which``, the counts c_g as
    floats, each block's (pole, tau, sweeps), the entries (lambda, multiplicity) in
    ascending ``order``, and the most sweeps a block took."""
    poles, which, cnt = np.unique(1.0 / p0, return_inverse=True, return_counts=True)
    weight = cnt.astype(float)
    solved = [_secular_roots(poles, weight, slice(start, start + _BLOCK))
              for start in range(0, poles.size - 1, _BLOCK)]
    lam = np.concatenate([poles[cnt > 1], *(pole + tau for pole, tau, _ in solved)])
    mult = np.concatenate([weight[cnt > 1] - 1.0, np.ones(poles.size - 1)])   # ties c_g - 1
    order = np.argsort(lam, kind="stable")
    lam, mult = _frozen(lam[order]), _frozen(mult[order])   # shared by its projections
    return poles, which, weight, solved, lam, mult, order, max((s for *_, s in solved), default=0)


def _project(solve, a):
    """(lambda, mult, eta) of ``eigendecompose`` from p0's ``_secular_solve``."""
    poles, which, weight, solved, lam, mult, order, _ = solve
    sum_a = np.bincount(which, a)
    with np.errstate(over="ignore"):   # an infinite spread makes zeta infinite, refused
        spread = np.bincount(which, (a - (sum_a / weight)[which]) ** 2)
    eta = [np.sqrt(spread[weight > 1.0])]   # each tied group's, along a
    for pole, tau, _ in solved:
        # tau/(r_g - lambda), |v| <= 1; tau, the end away from the pole, is never 0
        v = tau[:, None] / ((poles - pole[:, None]) - tau[:, None])
        v *= np.sign(v[:, which[0]])[:, None]
        eta.append(np.einsum("ij,j->i", v, sum_a)
                   / np.sqrt(np.einsum("ij,j->i", v * v, weight)))
    return lam, mult, np.concatenate(eta)[order]


# the most recent eigendecomposition's p0 and its _secular_solve, one entry;
# _made.solve is the solve of the calling thread's most recent one
_recent: tuple = (None, None)
_made = threading.local()


def eigendecompose(p0, a):
    """Nonzero eigenvalues of B = H diag(1/p0) H, an entry per distinct
    value: (lam ascending, multiplicity as a float, eta), with eta the
    component of ``a`` along a matching unit eigenvector.

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
    every sum is formed row by row, so no bit depends on _BLOCK.  A root is
    simple, its eigenvector signed to a positive first entry.  A tie's r_g
    has multiplicity c_g - 1 and a free eigenbasis, with one vector along the
    group's part of ``a``: its eta is |a_G - mean(a_G)|, the others' 0.
    """
    global _recent
    p0 = np.asarray(p0, dtype=float)
    a = np.asarray(a, dtype=float)
    # a NaN pole would keep the secular iteration below live for ever
    if p0.ndim != 1 or p0.shape != a.shape or not np.all((p0 > 0) & np.isfinite(p0)):
        raise ValueError("p0 must be finite and positive, with a of the same length")
    _made.solve = solve = _secular_solve(p0)
    _recent = (p0, solve)
    return _project(solve, a)


def compute_spectrum(model: ProbabilityModel, pert: Perturbation) -> Spectrum:
    """Full pipeline from (p0, a) to the limit-law parameters.

    The entries are ``eigendecompose``'s: sigma = 1/sqrt(lambda), descending
    as lambda ascends, with its multiplicity, and zeta = eta / sigma.

    sigma depends on p0 alone, so the secular solve of the most recent
    eigendecomposition is kept, keyed on the p0 array it solved, which a
    model holds read-only: a model's null and alternative solve once.  Only
    one is kept, so memory does not grow with the models answered.  Given
    the alternative, ``Spectrum.null()`` gives the null with no solve at all.
    ``secular_sweeps`` comes from the solve projected, the kept one or the
    one this thread's ``eigendecompose`` just made, whatever other threads
    keep meanwhile.
    """
    if pert.m != model.m:
        raise DimensionError(f"perturbation has {pert.m} bins, model has {model.m}")
    p0, solve = _recent
    if p0 is model.probs:
        lam, mult, eta = _project(solve, pert.entries)
    else:
        lam, mult, eta = eigendecompose(model.probs, pert.entries)
        solve = _made.solve
    sigma = 1.0 / np.sqrt(lam)
    return Spectrum._of(sigma, mult, eta / sigma, solve[-1])
