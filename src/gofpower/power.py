"""Asymptotic power curves and P-values from two CDF families.

With F0 the null CDF (zero perturbation) and Fa the alternative CDF, the
power function is traced by the points (1 - F0(x), 1 - Fa(x)) as x runs
over a grid.  Each CDF on the grid is read off a Chebyshev interpolant in
u = sqrt(x), summed from its coefficients, whose degree doubles until it
predicts its own new nodes, with an error bound.  Only the point query
``asymptotic_power`` solves for a critical value: by Newton's method on
the log of F0's smaller tail, with F0's density, from a two-cumulant
scaled chi-square quantile, then by cubic Hermite steps.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Perturbation, ProbabilityModel
from .quadform import DEFAULT_CONFIG, Method, QuadratureConfig, cdf, cdf_many
from .spectrum import Spectrum, compute_spectrum

__all__ = [
    "CurveMeta", "PowerCurve", "pvalue", "power_curve", "asymptotic_power",
    "default_grid",
]

CSV_HEADER = "x,F0,Fa,alpha,power"
ROOT_TOL = 1e-12  # |F0(x*) - (1 - alpha)| target for asymptotic_power
START_DEGREE = 16  # first Chebyshev interpolant of a curve's CDF
GRID_STEP, GRID_MAX = 1.0 / 2000.0, 5.0  # the plotting grid: 10,000 points
GRID_POINTS_MAX = 1_000_000  # 100 times the plotting grid


@dataclass(frozen=True)
class CurveMeta:
    """Cost accounting for a curve: worst node counts, amortized time, the
    method that evaluated the alternative CDF, the error bound of both
    families, and the number of CDF evaluations.

    ``max_nodes_*`` and ``unconverged_points`` count over the points
    actually evaluated (interpolation nodes, plus the grid on a fallback),
    not over the grid.
    """

    max_nodes_null: int
    max_nodes_alt: int
    seconds_per_point: float
    unconverged_points: int
    method_alt: Method
    error_bound: float
    cdf_points: int


@dataclass(frozen=True, eq=False)
class PowerCurve:
    """Ordered (alpha, power) pairs with the grid and CDF values behind them."""

    x: np.ndarray
    f0: np.ndarray
    fa: np.ndarray
    meta: CurveMeta

    @property
    def alpha(self) -> np.ndarray:
        return 1.0 - self.f0

    @property
    def power(self) -> np.ndarray:
        return 1.0 - self.fa

    def write_csv(self, fh) -> None:
        """17-significant-digit CSV, one row per grid point."""
        fh.write(CSV_HEADER + "\n")
        for x, f0, fa in zip(self.x.tolist(), self.f0.tolist(), self.fa.tolist()):
            fh.write(f"{x:.17g},{f0:.17g},{fa:.17g},{1.0 - f0:.17g},{1.0 - fa:.17g}\n")


def default_grid(step: float = GRID_STEP, x_max: float = GRID_MAX) -> np.ndarray:
    """x = step, 2*step, ..., up to x_max (10,000 points at the defaults; at most 10^6)."""
    for name, value in (("step", step), ("maximum", x_max)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"grid {name} must be finite and positive, got {value!r}")
    if step > x_max:
        raise ValueError(f"grid step {step!r} exceeds the grid maximum {x_max!r}")
    count = x_max / step + 1e-9  # compared as a float: the ratio can overflow to inf
    if count >= GRID_POINTS_MAX + 1:
        raise ValueError(f"grid step {step!r} up to {x_max!r} gives {count:.7g} points, "
                         f"more than {GRID_POINTS_MAX:,}")
    return np.arange(1, int(count) + 1) * step


def pvalue(x_statistic: float, null_spec: Spectrum,
           cfg: QuadratureConfig | None = None) -> float:
    """Asymptotic P-value 1 - F0(x) of an observed scaled statistic."""
    return 1.0 - cdf(x_statistic, null_spec, cfg).value


def _chebyshev(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Interpolant through values at t_j = cos(j pi / n), j = 0..n, at t in
    [-1, 1]: its Chebyshev coefficients are a DCT-I, the real FFT of the even
    extension, summed by Clenshaw's recurrence (Trefethen, ATAP, chs. 3, 19).
    """
    n = values.size - 1
    c = np.fft.rfft(np.concatenate((values, values[-2:0:-1]))).real / n
    c[[0, -1]] *= 0.5
    b1 = b2 = np.zeros_like(t)
    t2 = 2.0 * t   # 2.0 * t * b1 already rounds 2t first: the same bits
    for ck in c[:0:-1].tolist():
        b1, b2 = ck + t2 * b1 - b2, b1
    return c[0] + t * b1 - b2


def _cdf_on_grid(xs: np.ndarray, spec: Spectrum, cfg: QuadratureConfig):
    """F on the grid xs: (values, every CdfEvaluation spent, error bound).

    F is interpolated in u = sqrt(x), where F(u^2) is smooth even for odd
    ell, at Chebyshev points of the second kind on [sqrt(x_0), sqrt(x_-1)].
    Each doubling N -> 2N keeps the N + 1 old points; before the N new
    values are used, the old interpolant predicts them, and the largest
    miss stops the doubling once it is within max(abs_tol, the largest
    quadrature estimate).  The bound is that miss plus the Lebesgue
    constant times the largest estimate.  A point set that would hold
    half as many points as the grid is not built: the grid is then
    evaluated point by point, and the bound is its largest estimate.
    """
    lo, hi = math.sqrt(xs[0]), math.sqrt(xs[-1])
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    n = START_DEGREE
    evals: list = []
    # the first points are spent only if at least one check can follow
    if 2 * (2 * n + 1) < xs.size:
        u = mid + half * np.cos(np.arange(n + 1) * (math.pi / n))
        u[0], u[-1] = hi, lo
        evals = cdf_many(u * u, spec, cfg)
        values = np.array([e.value for e in evals])
        while 2 * (2 * n + 1) < xs.size:
            new_t = np.cos((2 * np.arange(n) + 1) * (math.pi / (2 * n)))
            new = cdf_many((mid + half * new_t) ** 2, spec, cfg)
            new_f = np.array([e.value for e in new])
            miss = float(np.max(np.abs(_chebyshev(values, new_t) - new_f)))
            evals += new
            values = np.insert(new_f, np.arange(n + 1), values)
            n *= 2
            worst = max(e.abs_error_estimate for e in evals)
            if miss <= max(cfg.abs_tol, worst):
                lebesgue = 2.0 / math.pi * math.log(n + 1) + 1.0
                curve = _chebyshev(values, (np.sqrt(xs) - mid) / half)
                return np.clip(curve, 0.0, 1.0), evals, miss + lebesgue * worst
    on_grid = cdf_many(xs, spec, cfg)
    return (np.array([e.value for e in on_grid]), evals + on_grid,
            max(e.abs_error_estimate for e in on_grid))


# the last null family: (p0, grid values, abs_tol, (F0 on the grid, read-only,
# its worst node count, unconverged points, error bound, CDF evaluations))
_recent_null: tuple = (None, None, None, None)


def power_curve(model: ProbabilityModel, pert: Perturbation,
                grid: np.ndarray | None = None,
                cfg: QuadratureConfig | None = None) -> PowerCurve:
    """Power curve (1 - F0(x), 1 - Fa(x)) over a strictly increasing grid.

    One eigendecomposition serves both spectra (the null keeps the
    alternative's sigma with zeta = 0).  Each CDF family is a Chebyshev
    interpolant in sqrt(x), grown by doubling until it predicts its new
    nodes to the quadrature's accuracy, then evaluated on the grid and
    clamped to [0, 1]; ``meta.error_bound`` bounds both families.  When
    the interpolant would need half as many points as the grid, the
    family is evaluated at every grid point with ``cdf_many`` instead.
    Per-point quadrature warnings are collected in the meta block, not
    raised.

    The null family depends on p0 alone, so the last one is kept, keyed on
    the p0 array, which a model holds read-only, on the grid's values and
    on ``abs_tol``: alternatives to one model compute it once, and only
    ``meta.seconds_per_point`` tells a kept family from a fresh one, since
    it then times the alternative alone.  The entry holds F0 and the grid
    (two copies of the grid's size) and the counts ``meta`` reads.
    """
    global _recent_null
    cfg = cfg or DEFAULT_CONFIG
    xs = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or np.any(xs <= 0) or np.any(np.diff(xs) <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    alt_spec = compute_spectrum(model, pert)

    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # unconverged points are counted in the meta block, not raised per point
        warnings.filterwarnings("ignore", message="adaptive quadrature")
        p0, grid0, tol, null = _recent_null
        if not (p0 is model.probs and tol == cfg.abs_tol and np.array_equal(grid0, xs)):
            f0, e0, bound0 = _cdf_on_grid(xs, alt_spec.null(), cfg)
            f0.flags.writeable = False
            null = (f0, max(e.nodes_used for e in e0), sum(not e.converged for e in e0),
                    bound0, len(e0))
            _recent_null = (model.probs, xs.copy(), cfg.abs_tol, null)
        fa, ea, bound_a = _cdf_on_grid(xs, alt_spec, cfg)
    dt = (time.perf_counter() - t0) / xs.size
    f0, nodes0, bad0, bound0, count0 = null
    meta = CurveMeta(nodes0, max(e.nodes_used for e in ea), dt,
                     bad0 + sum(not e.converged for e in ea), ea[0].method,
                     max(bound0, bound_a), count0 + len(ea))
    return PowerCurve(x=xs, f0=f0.copy(), fa=fa, meta=meta)


def _critical_start(alpha: float, spec: Spectrum) -> float:
    """Quantile at 1 - alpha of g chi2_h, matched to the law's first two
    cumulants: Wilson-Hilferty's h (1 - c + z sqrt(c))^3, c = 2 / (9 h), with
    the normal quantile z of Abramowitz & Stegun 26.2.23 (error < 4.5e-4).
    Where its base 1 - c + z sqrt(c) is at most 0.1, deep in the lower tail,
    it inverts the law's small-x asymptote F ~ e^(-sum zeta^2 / 2) (x/2)^(ell/2)
    / (Gamma(ell/2 + 1) prod sigma) instead."""
    s2, cnt, z2, ell = spec.groups
    k1 = spec.mean()
    k2 = 2.0 * float((s2 * s2) @ (cnt + 2.0 * z2))
    t = math.sqrt(-2.0 * math.log(min(alpha, 1.0 - alpha)))
    z = t - ((0.010328 * t + 0.802853) * t + 2.515517) / (
        ((0.001308 * t + 0.189269) * t + 1.432788) * t + 1.0)
    c = k2 / (9.0 * k1 * k1)   # 2 / (9 h) with h = 2 k1^2 / k2
    base = 1.0 - c + math.copysign(z, 0.5 - alpha) * math.sqrt(c)
    if base > 0.1:
        return k1 * base ** 3   # g h = k1
    log_f = (math.log(1.0 - alpha) + math.lgamma(0.5 * ell + 1.0)
             + 0.5 * float(cnt @ np.log(s2) + z2.sum()))
    return 2.0 * math.exp(2.0 / ell * log_f)


def asymptotic_power(alpha: float, null_spec: Spectrum, alt_spec: Spectrum,
                     cfg: QuadratureConfig | None = None) -> float:
    """Power at significance level alpha: 1 - Fa(x*) where 1 - F0(x*) = alpha.

    From the null's two-cumulant scaled chi-square quantile, Newton's method
    solves h(x) = log tail(x) - log tail(x*) = 0 on F0's smaller tail (1 - F0
    when alpha < 1/2), with h' = F0's density / tail.  From the second round,
    while the density steers (both last slopes positive, each step halving
    |h|), it steps to the zero of the cubic Hermite interpolant of x(h)
    through the last two points; else, and on the real axis, along the
    secant of the last two points.  A step is clamped to [x/4, 4x]; one that leaves the sign bracket bisects it or,
    while an end is open, moves x outward by 1.1, the factor squared each
    time.  It stops when |F0(x) - (1 - alpha)| <= ROOT_TOL or the bracket is
    a few ulp wide: 3 or 4 ``cdf`` calls per alpha, the alternative's
    included, and 6-20 with a density off by up to a factor of 100.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    cfg = cfg or DEFAULT_CONFIG
    target = 1.0 - alpha
    # h rises through 0 at x*: -log((1 - F0) / alpha), or log(F0 / (1 - alpha))
    sign, goal = (-1.0, math.log(alpha)) if alpha < 0.5 else (1.0, math.log(target))
    lo, hi = 0.0, math.inf   # F0 < target at lo, > target at hi; 0 and inf are open
    x, prev, step = _critical_start(alpha, null_spec), None, 1.1
    for _ in range(200):
        ev = cdf(x, null_spec, cfg)
        r = ev.value - target
        lo, hi = (x, hi) if r < 0.0 else (lo, x)
        if abs(r) <= ROOT_TOL or hi - lo < 4.0 * math.ulp(hi):
            return 1.0 - cdf(x, alt_spec, cfg).value
        tail = 1.0 - ev.value if sign < 0.0 else ev.value
        h = sign * (math.log(tail) - goal) if tail > 0.0 else math.nan
        slope = ev.density / tail if tail > 0.0 else math.nan
        x1, h1, s1 = prev or (x, h, math.nan)
        if prev and slope > 0.0 and s1 > 0.0 and abs(h) <= 0.5 * abs(h1):
            # the density steers: the zero of x(h)'s cubic Hermite interpolant
            t, u = h1 / (h1 - h), h / (h - h1)
            new = x - t * t * h / slope - u * u * (h1 / s1 - (1.0 + 2.0 * t) * (x1 - x))
        else:   # Newton's step in the first round, else the secant's
            rate = (h - h1) / (x - x1) if prev else slope
            new = x - h / rate if rate > 0.0 else math.nan
        prev = (x, h, slope)
        new = min(max(new, 0.25 * x), 4.0 * x)   # a NaN stays NaN
        if not lo < new < hi:
            if lo > 0.0 and hi < math.inf:
                new = 0.5 * (lo + hi)
            else:
                new, step = (x * step if r < 0.0 else x / step), step * step
        x = new
    raise RuntimeError(  # pragma: no cover - would need a discontinuous F0
        "Newton's method failed to localize the critical value")
