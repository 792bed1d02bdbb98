"""Limit-law parameters of the scaled squared-distance statistic.

For draws from p0 + a/sqrt(n), n times the squared Euclidean distance
between empirical proportions and p0 converges in distribution to
sum_k sigma_k^2 (Z_k + zeta_k)^2 over k = 1..m-1.  The sigma come from
the eigenvalues of the m x m matrix B = H D H (D diagonal with entries
1/(p0)_k, H the centering projector), whose rank is m - 1; the zeta mix
the perturbation through the eigenvectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .model import DimensionError, Perturbation, ProbabilityModel
from .quadform import stability_bound

__all__ = [
    "SpectralMatrix", "Spectrum", "EigensolverError", "DegenerateModelError",
    "build_b_matrix", "eigendecompose", "compute_spectrum",
]

JACOBI_REL_TOL = 1e-14     # off-diagonal Frobenius norm relative to ||B||_F
JACOBI_MAX_SWEEPS = 50
DEGENERATE_REL_TOL = 1e-10  # eigenvalues below this times the largest are "zero"
NULLSPACE_REL_TOL = 1e-12   # ||B 1||_inf relative to max |B_jk|


class EigensolverError(RuntimeError):
    """Jacobi sweeps did not reach the target off-diagonal norm."""

    def __init__(self, residual: float, target: float):
        super().__init__(
            f"eigensolver failed to converge: off-diagonal norm {residual:.3e} "
            f"above target {target:.3e} after {JACOBI_MAX_SWEEPS} sweeps")
        self.residual = residual
        self.target = target


class DegenerateModelError(ValueError):
    """A nonzero eigenvalue fell below the degeneracy threshold.

    Happens when some model entry is numerically indistinguishable from 0
    or 1; the attached condition ratio max(p0)/min(p0) quantifies it.
    """

    def __init__(self, condition_ratio: float):
        super().__init__(
            "model is numerically degenerate: an eigenvalue of B is within "
            f"{DEGENERATE_REL_TOL:g} of zero relative to the largest "
            f"(condition ratio max p0 / min p0 = {condition_ratio:.3e})")
        self.condition_ratio = condition_ratio


@dataclass(frozen=True, eq=False)
class SpectralMatrix:
    """Dense symmetric B = H D H with the all-ones vector in its null space."""

    m: int
    entries: np.ndarray

    def __post_init__(self):
        b = self.entries
        if b.shape != (self.m, self.m):
            raise DimensionError(f"expected a {self.m}x{self.m} matrix, got {b.shape}")
        if not np.array_equal(b, b.T):
            raise ValueError("spectral matrix must be exactly symmetric")
        scale = float(np.abs(b).max())
        if scale > 0 and float(np.abs(b.sum(axis=1)).max()) > NULLSPACE_REL_TOL * scale:
            raise ValueError("the all-ones vector is not in the null space")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Parameters (sigma_k, zeta_k) of the limit law, sigma descending.

    ``stability_rhs`` caches the a-priori numerator bound used to pick the
    integral representation; it is 1 exactly when all zeta vanish.
    """

    ell: int
    sigma: np.ndarray
    zeta: np.ndarray
    stability_rhs: float = field(default=math.nan)

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        zeta = np.asarray(self.zeta, dtype=float)
        if sigma.shape != (self.ell,) or zeta.shape != (self.ell,):
            raise DimensionError("sigma and zeta must both have length ell")
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise ValueError("all sigma must be finite and strictly positive")
        if not np.all(np.isfinite(zeta)):
            raise ValueError("all zeta must be finite")
        if np.any(np.diff(sigma) > 0):
            raise ValueError("sigma must be stored in descending order")
        if math.isnan(self.stability_rhs):
            object.__setattr__(self, "stability_rhs", stability_bound(zeta, self.ell))
        for arr in (sigma, zeta):
            arr.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "zeta", zeta)

    @classmethod
    def from_params(cls, sigma, zeta) -> "Spectrum":
        """Build a spectrum from raw parameter arrays (reordered jointly)."""
        sigma = np.array(sigma, dtype=float)
        zeta = np.array(zeta, dtype=float)
        if sigma.shape != zeta.shape or sigma.ndim != 1 or sigma.size < 1:
            raise DimensionError("sigma and zeta must be 1-d arrays of equal length")
        order = np.argsort(sigma)[::-1]
        return cls(ell=sigma.size, sigma=sigma[order], zeta=zeta[order])

    def null(self) -> "Spectrum":
        """The null law's parameters: the same sigma, every zeta 0.

        sigma depends on p0 alone, so this equals ``compute_spectrum`` on
        the zero perturbation without a second eigendecomposition.
        """
        return Spectrum(ell=self.ell, sigma=self.sigma, zeta=np.zeros(self.ell))

    def mean(self) -> float:
        """E[X] = sum sigma_k^2 (1 + zeta_k^2)."""
        return float((self.sigma ** 2) @ (1.0 + self.zeta ** 2))

    def as_dict(self) -> dict:
        return {
            "sigma2": (self.sigma ** 2).tolist(),
            "zeta": self.zeta.tolist(),
            "stability_rhs": self.stability_rhs,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


def build_b_matrix(model: ProbabilityModel) -> SpectralMatrix:
    """Assemble B entrywise: off-diagonal -(r_j + r_k)/m + sum(r)/m^2 with
    r_k = 1/(p0)_k, plus r_j on the diagonal.

    The entrywise form is exactly symmetric by construction and avoids the
    rounding of an explicit triple product.
    """
    m = model.m
    r = 1.0 / model.probs
    mean2 = float(r.sum()) / (m * m)
    b = mean2 - (r[:, None] + r[None, :]) / m
    b[np.diag_indices(m)] += r
    return SpectralMatrix(m=m, entries=b)


def _round_robin(m: int):
    """Tournament pairing: each of m-1 rounds rotates m/2 disjoint pairs."""
    players = list(range(m)) if m % 2 == 0 else list(range(m)) + [-1]
    n = len(players)
    rounds = []
    for _ in range(n - 1):
        p = np.array([players[i] for i in range(n // 2)])
        q = np.array([players[n - 1 - i] for i in range(n // 2)])
        keep = (p >= 0) & (q >= 0)
        rounds.append((p[keep], q[keep]))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def _off_norm(a: np.ndarray) -> float:
    # direct masked sum; trace-subtraction cancels catastrophically when the
    # diagonal dominates
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.sqrt((off * off).sum()))


def eigendecompose(bmat: SpectralMatrix, *, rel_tol: float = JACOBI_REL_TOL,
                   max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Each sweep runs the round-robin schedule of disjoint rotation pairs;
    rotations within a round commute exactly, so applying them
    simultaneously (vectorized) equals applying them one by one.
    Returns eigenvalues in descending order (the rank-deficient zero last)
    and the orthogonal matrix of matching eigenvector columns, each column
    signed so its first nonnegligible entry is positive.
    """
    m = bmat.m
    a = bmat.entries.astype(float, copy=True)
    q = np.eye(m)
    frob = float(np.linalg.norm(a, "fro"))
    if frob == 0.0:
        return np.zeros(m), q

    target = rel_tol * frob
    rounds = _round_robin(m)
    converged = False
    for _ in range(max_sweeps):
        if _off_norm(a) <= target:
            converged = True
            break
        for p, r in rounds:
            apq = a[p, r]
            nz = apq != 0.0
            if not nz.any():
                continue
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                tau = np.where(nz, (a[r, r] - a[p, p]) / np.where(nz, 2.0 * apq, 1.0), 0.0)
                big = np.abs(tau) > 1e150
                tau_safe = np.where(big, 1.0, tau)
                t = np.where(
                    tau_safe == 0.0, 1.0,
                    np.sign(tau_safe) / (np.abs(tau_safe) + np.sqrt(1.0 + tau_safe ** 2)))
                t = np.where(big, 0.5 / np.where(big, tau, 1.0), t)
            t = np.where(nz, t, 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rows_p = a[p, :].copy()
            rows_q = a[r, :].copy()
            a[p, :] = c[:, None] * rows_p - s[:, None] * rows_q
            a[r, :] = s[:, None] * rows_p + c[:, None] * rows_q
            cols_p = a[:, p].copy()
            cols_q = a[:, r].copy()
            a[:, p] = c[None, :] * cols_p - s[None, :] * cols_q
            a[:, r] = s[None, :] * cols_p + c[None, :] * cols_q
            a[p, r] = 0.0
            a[r, p] = 0.0
            qp = q[:, p].copy()
            qq = q[:, r].copy()
            q[:, p] = c[None, :] * qp - s[None, :] * qq
            q[:, r] = s[None, :] * qp + c[None, :] * qq
    else:
        converged = _off_norm(a) <= target
    if not converged:
        raise EigensolverError(_off_norm(a), target)

    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    q = q[:, order]
    # reproducible eigenvector signs: first nonnegligible entry positive
    for k in range(m):
        col = q[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size and col[idx[0]] < 0.0:
            q[:, k] = -col
    return eigvals, q


def compute_spectrum(model: ProbabilityModel, pert: Perturbation) -> Spectrum:
    """Full pipeline from (p0, a) to the limit-law parameters.

    sigma_k = 1/sqrt(lambda_k) over the m-1 nonzero eigenvalues,
    zeta_k = (Q~^T a)_k / sigma_k with Q~ the eigenvector block for those
    eigenvalues; (sigma, zeta) are then reordered jointly so sigma is
    descending.
    """
    if pert.m != model.m:
        raise DimensionError(
            f"perturbation has {pert.m} bins, model has {model.m}")
    bmat = build_b_matrix(model)
    eigvals, q = eigendecompose(bmat)
    m = model.m
    lead = eigvals[:m - 1]
    if np.any(lead <= DEGENERATE_REL_TOL * eigvals[0]):
        ratio = float(model.probs.max() / model.probs.min())
        raise DegenerateModelError(ratio)
    sigma = 1.0 / np.sqrt(lead)
    eta = q[:, :m - 1].T @ pert.entries
    zeta = eta / sigma
    order = np.argsort(sigma)[::-1]
    return Spectrum(ell=m - 1, sigma=sigma[order], zeta=zeta[order])
