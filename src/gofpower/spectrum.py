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

Every secular root lies strictly between two poles, and every tied
eigenvalue is a pole, so each nonzero eigenvalue is at least 1/max p0 > 0:
every p0 > 0 has a limit law, whatever its ratio max p0 / min p0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .model import DimensionError, Perturbation, ProbabilityModel

__all__ = ["Spectrum", "compute_spectrum"]

# exponent cap: exp(x) overflows just above x = 709
_EXP_OVERFLOW = 700.0
# relative gap under which two variances are treated as one eigenvalue group
_GROUP_RTOL = 1e-12


def _groups(sigma, zeta):
    """Group equal variances of a descending sigma: (sigma2, multiplicity,
    summed zeta^2, ell).

    The distribution depends on the zetas of an eigenvalue group only
    through their summed squares, so the grouped integrand is exactly the
    ungrouped one at a fraction of the cost when eigenvalues repeat.
    """
    s2 = sigma ** 2
    lead = s2[0]
    g_s, g_n, g_z = [lead], [0], [0.0]
    for s, z in zip(s2, zeta ** 2):
        if lead - s > _GROUP_RTOL * lead:
            lead = s
            g_s.append(s)
            g_n.append(0)
            g_z.append(0.0)
        g_n[-1] += 1
        g_z[-1] += z
    arrays = (np.array(g_s), np.array(g_n, dtype=float), np.array(g_z))
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

    def mean(self) -> float:
        """E[X] = sum sigma_k^2 (1 + zeta_k^2)."""
        return float((self.sigma ** 2) @ (1.0 + self.zeta ** 2))

    def to_json(self, **kwargs) -> str:
        return json.dumps({
            "sigma2": (self.sigma ** 2).tolist(),
            "zeta": self.zeta.tolist(),
            "stability_rhs": self.stability_rhs,
        }, **kwargs)


def eigendecompose(p0, a):
    """Nonzero eigenvalues of B = H diag(1/p0) H, ascending, and the
    components eta of ``a`` along matching unit eigenvectors.

    Each secular root is bisected on tau = lambda - pole, from the nearer
    pole of its gap, until the bracket is two adjacent doubles; forming
    r - lambda as (r - pole) - tau keeps the eigenvector accurate next to a
    pole.  Eigenvectors are signed so that their first entry is positive.
    Within a tied group the eigenbasis is free: one vector is taken along
    the group's part of ``a``, so the group's first eta is |a_G - mean(a_G)|
    and the others are 0.
    """
    p0 = np.asarray(p0, dtype=float)
    a = np.asarray(a, dtype=float)
    # a NaN pole would keep the bisection below live for ever
    if p0.ndim != 1 or p0.shape != a.shape or not np.all((p0 > 0) & np.isfinite(p0)):
        raise ValueError("p0 must be finite and positive, with a of the same length")
    r = 1.0 / p0
    poles, which, cnt = np.unique(r, return_inverse=True, return_counts=True)

    # tied groups: r_g itself, c_g - 1 times
    lam_tied = np.repeat(poles, cnt - 1)
    eta_tied = np.zeros(lam_tied.size)
    spread = np.bincount(which, (a - (np.bincount(which, a) / cnt)[which]) ** 2)
    tied = cnt > 1
    eta_tied[(np.cumsum(cnt - 1) - (cnt - 1))[tied]] = np.sqrt(spread[tied])

    # secular roots: f(lambda) = sum_g c_g/(r_g - lambda) rises from -inf to
    # +inf across each gap, so its sign at the midpoint names the nearer pole
    half = 0.5 * (poles[1:] - poles[:-1])
    upper = (1.0 / ((poles - poles[:-1, None]) - half[:, None])) @ cnt < 0.0
    pole = np.where(upper, poles[1:], poles[:-1])
    delta = poles - pole[:, None]
    lo = np.where(upper, -half, 0.0)
    hi = np.where(upper, 0.0, half)
    while True:
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero((mid != lo) & (mid != hi))
        if live.size == 0:
            break
        t = mid[live]
        above = (1.0 / (delta[live] - t[:, None])) @ cnt > 0.0
        hi[live] = np.where(above, t, hi[live])
        lo[live] = np.where(above, lo[live], t)
    tau = np.where(upper, lo, hi)   # the end away from the pole: never 0
    v = tau[:, None] / (delta - tau[:, None])   # tau/(r_g - lambda), |v| <= 1
    v *= np.sign(v[:, which[0]])[:, None]
    eta_sec = (v @ np.bincount(which, a)) / np.sqrt((v * v) @ cnt)

    lam = np.concatenate([lam_tied, pole + tau])
    order = np.argsort(lam, kind="stable")
    return lam[order], np.concatenate([eta_tied, eta_sec])[order]


def compute_spectrum(model: ProbabilityModel, pert: Perturbation) -> Spectrum:
    """Full pipeline from (p0, a) to the limit-law parameters.

    sigma_k = 1/sqrt(lambda_k) over the m-1 nonzero eigenvalues, ascending,
    so sigma is descending; zeta_k = eta_k / sigma_k with eta_k the
    component of ``a`` along the k-th unit eigenvector.
    """
    if pert.m != model.m:
        raise DimensionError(
            f"perturbation has {pert.m} bins, model has {model.m}")
    lam, eta = eigendecompose(model.probs, pert.entries)
    sigma = 1.0 / np.sqrt(lam)
    return Spectrum(sigma, eta / sigma)
