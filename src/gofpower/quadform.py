"""CDF of a weighted sum of squared shifted Gaussians via contour integrals.

Evaluates F(x) for X = sum_k sigma_k^2 (Z_k + zeta_k)^2 with two integral
representations:

* a shifted-contour form whose integrand carries an e^{1-y} envelope and a
  denominator bounded away from zero, used whenever an a-priori bound on
  its numerator (``stability_rhs``, from the spectrum's groups) is moderate;
* the classical real-axis inversion form (Imhof-style), whose numerator is
  bounded by 1 and decays sub-Gaussian fast exactly when that bound is
  large.

Each integral bisects panels of the embedded 10-point Gauss / 21-point
Kronrod pair on a window fixed before the first panel.  On the shifted
contour, a y-independent a-priori bound, from the exponent that gives
``stability_rhs``, sizes one head for every x, and
each x keeps the fewest of its panels past whose end a bound that
tightens with y puts the tail below 1e-4 abs_tol, or else all of them;
that bound at the window's end is part of its error estimate.  The
real-axis form's tail is summed over half-periods by Wynn's epsilon
algorithm.  The shifted contour's first panel starts halved toward 0, as
bisection would halve it, until it is no wider than 1.5 times the
distance of the integrand's pole from the axis, so that a point mostly
meets tolerance on its first integrand call.  The head's nodes and the
kernel's factors of y alone are built once, as the plan's node table, and
a point's first round reads its rows from there.  One round loop,
``_integrate``, runs the integrals of both forms, and of
``adaptive_integrate``: each round, every open integral asks for its next
tail panels or the halves of its worst head panel, and one integrand call
evaluates them all, in equal kernel calls of at most 32,768 node x group
elements that write into one array; a call over 8,192 elements keeps its
temporaries in a scratch kept per thread.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .spectrum import Spectrum

__all__ = [
    "Method", "QuadratureConfig", "CdfEvaluation",
    "NumericalFailureError", "cdf", "cdf_many",
]

# work in flight in cdf_many: integrals advanced together, and the node x
# group elements of a kernel call, at most _CALL_ELEMENTS.  A call over
# _SCRATCH_ELEMENTS works in the thread's scratch, as fresh arrays that large
# page-fault on every call; a smaller one is faster on fresh arrays.
_IN_FLIGHT = 128
_CALL_ELEMENTS = 32768
_SCRATCH_ELEMENTS = 8192
_scratch = threading.local()
# bisections an integral may spend after its first round
_MAX_BISECTIONS = 200
# real-axis tail: half-periods per round, and in all
_TAIL_ROUND = 8
_TAIL_PANELS = 64
# shifted contour: its first panel is no wider than this many times the
# distance of the integrand's pole from the axis, and a point's window ends
# where the tail bound falls to this share of abs_tol
_POLE_PANEL = 1.5
_TAIL_SHARE = 1e-4


class NumericalFailureError(ArithmeticError):
    """The integrand produced a NaN or infinity at some node."""

    def __init__(self, y: float):
        super().__init__(f"non-finite integrand value at y={y!r}")
        self.y = y


class Method(str, enum.Enum):
    SHIFTED_CONTOUR = "ShiftedContour"
    IMHOF = "Imhof"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class QuadratureConfig:
    """The absolute tolerance of every CDF integral.  A spectrum whose
    ``stability_rhs`` exceeds the constant ``stability_threshold`` is
    integrated on the real axis."""

    abs_tol: float = 1e-9
    stability_threshold: ClassVar[float] = 1e8

    def __post_init__(self):
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol!r}")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class CdfEvaluation:
    """A CDF value with its error estimate and cost accounting.  ``density``
    comes from the same panels on the shifted contour and is NaN on the real
    axis; it serves Newton steps only, with no error bound of its own."""

    value: float
    abs_error_estimate: float
    nodes_used: int
    method: Method
    converged: bool = True
    density: float = math.nan
    bisections: int = 0


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    nodes_used: int
    converged: bool
    density: float
    bisections: int = 0


# 10-point Gauss / 21-point Kronrod nodes and weights on [-1, 1]
# (QUADPACK dqk21 constants; the Gauss nodes are every second Kronrod node).
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

PANEL_SIZE = 21
_NODES = np.concatenate([-_XGK[:10], [0.0], _XGK[9::-1]])
_WK_FULL = np.concatenate([_WGK[:10], [_WGK[10]], _WGK[9::-1]])
_WG_FULL = np.zeros(PANEL_SIZE)
for _j in range(5):
    _WG_FULL[2 * _j + 1] = _WG[_j]
    _WG_FULL[20 - (2 * _j + 1)] = _WG[_j]
del _j


def _y_factors(y, ell):
    """The shifted kernel's factors that depend on the nodes y alone:
    2(y - 1), 2 sqrt(ell) y, 1 - y, sqrt(ell) y, d_re = y - 1/(1 + ell) and
    pi |d|^2, stacked on a new first axis."""
    rt = math.sqrt(ell)
    d_re = y - 1.0 / (1.0 + ell)
    d_im = rt / (1.0 + ell)
    return np.stack([2.0 * (y - 1.0), (2.0 * rt) * y, 1.0 - y, y * rt, d_re,
                     math.pi * (d_re * d_re + d_im * d_im)])


def _temps(shape: tuple, count: int) -> list:
    """``count`` arrays of ``shape`` for a kernel call of over
    _SCRATCH_ELEMENTS elements: views of this thread's scratch, which grows
    to at most count x _CALL_ELEMENTS and is never shrunk, or fresh arrays
    past that size (a lone panel at over _CALL_ELEMENTS / 21 groups)."""
    size = math.prod(shape)
    if size > _CALL_ELEMENTS:
        return list(np.empty((count, *shape)))
    if getattr(_scratch, "buf", None) is None or _scratch.buf.size < count * size:
        _scratch.buf = np.empty(count * size)
    return list(_scratch.buf[:count * size].reshape(count, *shape))


def _shifted_values(y, x, s2, cnt4, cnt2, z2h, ell, factors=None):
    """Shifted-contour integrands of F and, times pi x, of its density (ds for
    ds/s; Daniels 1954, Ann. Math. Statist. 25:631), a row per CDF argument x
    (or one x for every row).  The group constants are ``Plan.kernel_args``;
    ``factors`` are ``_y_factors(y, ell)``, built here when not given.

    Real arithmetic throughout: log w = log|w| + i atan2(Im w, Re w) factor
    by factor (a summed principal log), group sums as matrix-vector
    products, and 1/w = conj(w) / |w|^2.
    """
    shape, g = y.shape, s2.size
    rt = math.sqrt(ell)
    y2m, y2rt, one_y, y_rt, d_re, pi_d2 = _y_factors(y, ell) if factors is None else factors
    a = (s2 / x[:, None])[:, None, :]
    # the (node, group) arrays, worked in place: fresh, or the scratch's
    re = im = r2 = tmp = None
    if y.size * g > _SCRATCH_ELEMENTS:
        re, im, r2, tmp = _temps((*shape, g), 4)
        r2, tmp = r2.reshape(-1, g), tmp.reshape(-1, g)
    re = np.subtract(1.0, np.multiply(y2m[:, :, None], a, out=re), out=re).reshape(-1, g)
    im = np.multiply(y2rt[:, :, None], a, out=im).reshape(-1, g)
    r2 = np.multiply(re, re, out=r2)
    tmp = np.multiply(im, im, out=tmp)
    r2 += tmp
    log_mod = np.log(r2, out=tmp) @ cnt4  # sum_k cnt_k/2 log|w_k|
    expo_re = one_y.ravel() - log_mod
    expo_im = y_rt.ravel() - np.arctan2(im, re, out=tmp) @ cnt2
    if z2h is not None:
        inv = np.divide(1.0, r2, out=tmp)
        expo_im -= np.multiply(im, inv, out=im) @ z2h
        expo_re += np.subtract(np.multiply(re, inv, out=inv), 1.0, out=inv) @ z2h
    if __debug__:
        # denominator bound: |prod sqrt(w_k)| > e^{-1/4}
        assert (log_mod > -0.25 - 1e-9).all()
        # per-factor bound: |(1 - w)/w|^2 <= (1 + 1/ell)(1 + 1e-9)^2, with
        # |1 - w|^2 = 1 - 2 Re w + |w|^2
        assert (np.subtract(1.0, np.multiply(2.0, re, out=im), out=im) <= np.multiply(
            (1.0 + 1.0 / ell) * (1.0 + 1e-9) ** 2 - 1.0, r2, out=tmp)).all()
    # Im(e^expo / (pi d)) with d = y - 1/(1 - i rt) = d_re - i d_im
    d_im = rt / (1.0 + ell)
    amp, sin, cos = np.exp(expo_re), np.sin(expo_im), np.cos(expo_im)
    out = amp * (sin * d_re.ravel() + cos * d_im) / pi_d2.ravel()
    return out.reshape(shape), (amp * (rt * cos - sin)).reshape(shape)


def _imhof_values(y, x, s2, cnt4, cnt2, z2h, ell):
    """Real-axis inversion integrand at the nodes y, one row per CDF argument x.
    The group constants are ``Plan.kernel_args``.

    With v = 1 - i t and t = 2 y sigma^2 / x, log v = log1p(t^2)/2 - i arctan t
    factor by factor and 1/v = (1 + i t) / (1 + t^2).
    """
    shape, g = y.shape, s2.size
    # the (node, group) arrays, worked in place: fresh, or the scratch's
    t = t2 = tmp = None
    if y.size * g > _SCRATCH_ELEMENTS:
        t, t2, tmp = _temps((*shape, g), 3)
        t2, tmp = t2.reshape(-1, g), tmp.reshape(-1, g)
    t = np.multiply((2.0 * y)[:, :, None], (s2 / x[:, None])[:, None, :], out=t).reshape(-1, g)
    y = y.ravel()
    t2 = np.multiply(t, t, out=t2)
    expo_re = -(np.log1p(t2, out=tmp) @ cnt4)
    expo_im = np.arctan(t, out=tmp) @ cnt2 - y
    if z2h is not None:
        q = np.divide(1.0, np.add(1.0, t2, out=tmp), out=tmp)
        term_re = np.multiply(np.negative(t2, out=t2), q, out=t2)
        expo_im += np.multiply(t, q, out=t) @ z2h
        if __debug__:
            # numerator factors bounded by 1: Re((1-v)/(2v)) <= 0
            assert (np.multiply(term_re, z2h, out=t) <= 1e-12).all()
        expo_re += term_re @ z2h
    return (np.exp(expo_re) * np.sin(expo_im) / (math.pi * y)).reshape(shape)


def _node_table(edges, ell: int | None = None) -> tuple:
    """The node table of panels (a, b), the rows of ``edges``: their
    half-widths, and an array of their 21 abscissae y a row, with
    ``_y_factors(y, ell)`` stacked after them given ``ell``."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[:, 1] - edges[:, 0])
    mid = 0.5 * (edges[:, 0] + edges[:, 1])
    ys = (mid[:, None] + half[:, None] * _NODES)[None]
    return half, ys if ell is None else np.concatenate([ys, _y_factors(ys[0], ell)])


def _eval_panels(f, half, table, *args, out):
    """Evaluate the embedded pair in one call on panels of half-widths
    ``half`` and node table ``table`` (see ``_node_table``): f(ys, *args),
    with the table's factors last if it has any.  Returns ``out``, (3,
    panels), written with Kronrod values, error estimates and the Kronrod
    values of a density's integrand that f returns second, else NaN."""
    ys, factors = table[0], (table[1:],) if len(table) > 1 else ()
    fv, *dv = res if isinstance(res := f(ys, *args, *factors), tuple) else (res,)
    kron, err, dens = out
    np.multiply(half, fv @ _WK_FULL, out=kron)
    np.abs(kron - np.multiply(half, fv @ _WG_FULL, out=err), out=err)
    dens[:] = half * (dv[0] @ _WK_FULL) if dv else math.nan
    # every Kronrod weight is positive, so a non-finite node makes its
    # panel's sum non-finite; only then are the nodes searched
    for v, sums in zip((fv, *dv), (kron, dens)):
        if not np.isfinite(sums).all() and not (ok := np.isfinite(v)).all():
            raise NumericalFailureError(float(ys[~ok][0]))
    return out


@functools.lru_cache(maxsize=64)
def _panels(upper: float, n: int, first: float = math.inf) -> tuple:
    """n equal panels (a, b) over [0, upper], the first halved toward 0, as
    bisection would, until no wider than ``first``; a CDF grid shares a few."""
    edges = np.linspace(0.0, upper, n + 1).tolist()
    while edges[1] > first:
        edges.insert(1, 0.5 * edges[1])
    return tuple(zip(edges[:-1], edges[1:]))


def _epsilon_step(diag: list, partial: float) -> list:
    """Wynn's epsilon algorithm (Wynn 1956, MTAC 10:91): the next ascending
    diagonal of the table once ``partial`` joins the sequence whose last
    diagonal is ``diag``.  Its last even-numbered entry is the current
    extrapolation; a difference lost in rounding ends the diagonal there.
    """
    new = [partial]
    for k, old in enumerate(diag):
        diff = new[k] - old
        if abs(diff) <= 4e-16 * max(abs(new[k]), abs(old)):
            break
        new.append((diag[k - 1] if k else 0.0) + 1.0 / diff)
    return new


def _integrate(cfg: QuadratureConfig, heads: list, tail_err: list, evaluate: Callable,
               half_periods: list | None = None, first: list | None = None) -> list:
    """The adaptive integrals over the panel lists ``heads``, run in rounds;
    returns the fields of their IntegralResults, in order, as tuples.

    Integral i starts from the panels ``heads[i]``, which end at upper, with
    ``tail_err[i]`` bounding what lies past them.  Given ``half_periods``,
    it runs on past upper in panels half_periods[i] wide, _TAIL_ROUND at a
    time, whose partial sums are extrapolated by Wynn's epsilon algorithm
    (QUADPACK's dqawf) until the last three extrapolations agree to a
    tenth of ``abs_tol``, or _TAIL_PANELS have been spent.  Then its worst
    head panel is bisected until the summed error estimate is at most
    ``abs_tol``, at most _MAX_BISECTIONS times.  Each head is kept as the
    parallel lists ``panels``, ``vals``, ``errs`` and ``dens``, in order,
    and each integral decides from its own values alone.

    Each round, the panels that the open integrals ask for are stacked in
    order into one array and evaluated by ``evaluate(edges, owners)``, where
    ``owners[j]`` is the i that asked for panel j; it returns their Kronrod
    values, error estimates and density values as the rows of one array.
    ``first``, that array for every head's panels in order, stands in for
    the first round's call when no head has a tail.
    """
    abs_tol, count = cfg.abs_tol, len(heads)
    periods = half_periods or [0.0] * count
    tail_err, panels, results = list(tail_err), list(heads), [None] * count
    vals, errs, dens = [None] * count, [None] * count, [None] * count
    # each tail's epsilon table diagonal, partial sum and extrapolation after
    # each panel (lists replaced, never changed in place, so they start
    # shared), and whether it closed (None while it runs)
    diags, partial, extrap = [[]] * count, [0.0] * count, [[]] * count
    tail_ok = [None if half_periods else True] * count

    def tail_round(i):
        k, upper = len(extrap[i]), heads[i][-1][1]
        edges = (upper + periods[i] * np.arange(k, k + _TAIL_ROUND + 1)).tolist()
        return list(zip(edges[:-1], edges[1:]))

    # integral i asks for ``pairs``: the halves of its head panel j, or else
    # its head in the first round and its next tail panels
    asks = [(i, None, [*head, *tail_round(i)] if half_periods else head)
            for i, head in enumerate(heads)]
    out = first
    while asks:
        if out is None:
            out = evaluate(np.array([p for *_, pairs in asks for p in pairs]),
                           np.repeat([i for i, *_ in asks], [len(pairs) for *_, pairs in asks]))
        out = out.tolist()
        lo, now, asks = 0, asks, []
        for i, j, pairs in now:
            v, e, d = [a[lo:lo + len(pairs)] for a in out]
            lo += len(pairs)
            if j is not None:
                vals[i][j:j + 1], errs[i][j:j + 1], dens[i][j:j + 1] = v, e, d
            elif vals[i] is None:
                vals[i], errs[i], dens[i] = v, e, d
                if tail_ok[i] is None:   # its first tail round follows its head
                    n = len(heads[i])
                    v, e = v[n:], e[n:]
                    del vals[i][n:], errs[i][n:], dens[i][n:]
            if tail_ok[i] is None:
                tail_err[i] += math.fsum(e)
                diag, total, ext = diags[i], partial[i], [*extrap[i]]
                for value in v:
                    total += value
                    diag = _epsilon_step(diag, total)
                    ext.append(diag[(len(diag) - 1) & ~1])
                diags[i], partial[i], extrap[i] = diag, total, ext
                spread = abs(ext[-1] - ext[-2]) + abs(ext[-1] - ext[-3])
                if spread > 0.1 * abs_tol and len(extrap[i]) < _TAIL_PANELS:
                    asks.append((i, None, tail_round(i)))
                    continue
                tail_ok[i] = spread <= 0.1 * abs_tol
                tail_err[i] += spread
            # refine the worst head panel until the summed error meets tolerance
            bisections = len(panels[i]) - len(heads[i])
            err_sum = math.fsum(errs[i]) + tail_err[i]
            if err_sum > abs_tol and bisections < _MAX_BISECTIONS:
                j = errs[i].index(max(errs[i]))
                a, b = panels[i][j]
                mid = 0.5 * (a + b)
                panels[i] = [*panels[i][:j], (a, mid), (mid, b), *panels[i][j + 1:]]
                asks.append((i, j, panels[i][j:j + 2]))
                continue
            converged = tail_ok[i] and err_sum <= abs_tol
            if not converged:
                upper = heads[i][-1][1] + periods[i] * len(extrap[i])
                cause = "budget exhausted" if tail_ok[i] else "oscillatory tail unresolved"
                # attributed to the first frame outside this package
                frame, level = sys._getframe(), 1
                while frame is not None and frame.f_globals.get("__package__") == __package__:
                    frame, level = frame.f_back, level + 1
                warnings.warn(
                    f"adaptive quadrature {cause} (error estimate {err_sum:.3e}, "
                    f"upper limit {upper:g})", RuntimeWarning, stacklevel=level)
            # each bisection evaluated two panels and added one
            nodes = PANEL_SIZE * (len(heads[i]) + 2 * bisections + len(extrap[i]))
            results[i] = (math.fsum(vals[i]) + (extrap[i] or [0.0])[-1], err_sum, nodes,
                          converged, math.fsum(dens[i]), bisections)
        out = None
    return results


def adaptive_integrate(f: Callable, cfg: QuadratureConfig | None = None, *,
                       upper: float) -> IntegralResult:
    """Integrate f over (0, upper] with the adaptive Gauss-Kronrod scheme.

    ``f`` maps an array of abscissae to the array of values.  The window
    starts as 4 equal panels, and the worst is bisected until the summed
    10/21 error estimate is at most ``cfg.abs_tol``; if _MAX_BISECTIONS
    bisections do not suffice, the best-effort value comes with
    ``converged`` False and a RuntimeWarning.
    """
    cfg = cfg or DEFAULT_CONFIG

    def values(ys):
        return np.asarray(f(ys.ravel()), dtype=float).reshape(ys.shape)

    return IntegralResult(*_integrate(cfg, [_panels(upper, 4)], [0.0], lambda edges, _:
                                      _eval_panels(values, *_node_table(edges),
                                                   out=np.empty((3, len(edges)))))[0])


def _imhof_windows(xs, s2, cnt, z2, ell: int):
    """Head limit Y and tail half-period for each x of the Imhof integral.

    The phase slope tends to -1 only once every group has t >> 1, which a
    tiny sigma^2 puts far out; so Y is the first doubling of 10 + sqrt(ell)
    past which the exact slope moves by under 5% over one more doubling
    (at most 10 doublings), and the half-period is pi / |slope(Y)|.  The
    slopes at all eleven doublings come from (x, 11, group) passes of at
    most _CALL_ELEMENTS elements, or one x, each row worked alone.
    """
    y = (10.0 + math.sqrt(ell)) * 2.0 ** np.arange(11)
    ends, periods = [], []
    step = max(1, _CALL_ELEMENTS // (11 * s2.size))
    for part in (xs[lo:lo + step] for lo in range(0, xs.size, step)):
        a = (s2 / part[:, None])[:, None, :]
        # a q (cnt + z2 (1 - t^2) q) with t = 2 y a and q = 1/(1 + t^2), in place
        t2 = np.square((2.0 * y)[:, None] * a)
        q = np.add(1.0, t2)
        q = np.divide(1.0, q, out=q)
        np.subtract(1.0, t2, out=t2)
        t2 *= z2
        t2 *= q
        t2 += cnt
        q *= a
        q *= t2
        slope = q.sum(axis=2) - 1.0
        moving = np.abs(slope[:, 1:] - slope[:, :-1]) >= 0.05 * np.abs(slope[:, :-1])
        first = np.argmin(np.column_stack([moving, np.zeros(part.size, bool)]), axis=1)
        ends += y[first].tolist()
        periods += (math.pi / np.abs(slope[np.arange(part.size), first])).tolist()
    return ends, periods


def _tail_bound(s2, cnt, z2, ell: int) -> Callable:
    """The function (x, y) -> log T, where T bounds the integral of |f| over
    [y, inf) on the shifted contour at x (T = inf for y <= 1/(1 + ell)).

    With a_k = sigma_k^2 / x and c = ell/(1 + ell), every y' >= y has
    |w_k|^2 >= M_k = max(c, 4 ell y^2 a_k^2): the first is its minimum over
    y', (1 + 2a_k)^2 c, the second (Im w_k)^2.  So Re(1/w_k) <= M_k^(-1/2),
    and with |d| >= y' - 1/(1 + ell),
    T = exp(1 - y - sum cnt_k/4 log M_k + sum z2_k/2 (M_k^(-1/2) - 1))
    / (pi (y - 1/(1 + ell))).  The groups with M_k > c are a prefix of the
    descending sigma^2, so T costs a bisection and the spectrum's running
    sums.  T never exceeds the y-independent bound rhs e^{5/4-y} /
    (pi (y - 1/2)), since (ell/4) log c >= -1/4 and M_k^(-1/2) <= c^(-1/2).
    The arguments are a spectrum's ``groups``.
    """
    # running sums over the groups of multiplicity, multiplicity times
    # log sigma^2, summed zeta^2 and summed zeta^2 / sigma^2, each led by 0
    sums = np.zeros((4, s2.size + 1))
    np.cumsum([cnt, cnt * np.log(s2), z2, z2 / s2], axis=1, out=sums[:, 1:])
    neg_s2 = (-s2).tolist()   # ascending, for ``bisect``
    cnt, log_s2, z2, z2_s2 = sums.tolist()
    c = ell / (1.0 + ell)
    root_c, log_c, pole = math.sqrt(c), math.log(c), 1.0 / (1.0 + ell)
    two_rt, z_all = 2.0 * math.sqrt(ell), z2[-1]

    def log_tail(x: float, y: float) -> float:
        if y <= pole:
            return math.inf
        r = two_rt * y / x   # M_k = (r sigma_k^2)^2 on the prefix
        p = bisect.bisect_right(neg_s2, -root_c / r)
        log_m = 0.5 * (cnt[p] * math.log(r) + log_s2[p]) + 0.25 * (ell - cnt[p]) * log_c
        shift = 0.5 * (z2_s2[p] / r + (z_all - z2[p]) / root_c - z_all)
        return 1.0 - y - log_m + shift - math.log(math.pi * (y - pole))

    return log_tail


class Plan:
    """What ``cdf_many`` reads from a spectrum alone, built once per spectrum
    as ``Spectrum.plan``:

    * ``method``, the route taken by default, from ``stability_rhs``;
    * ``kernel_args``, the kernels' group constants: sigma^2, cnt/4, cnt/2,
      zeta^2/2 per group (None when every zeta is 0), and ell;
    * ``log_tail``, the shifted contour's tail bound (``_tail_bound``), and
      ``head(abs_tol)``, its head panels, their ends and their node table,
      each built on the shifted route's first use; ``window(x, abs_tol)``
      picks a point's prefix of the head, whose rows of the table its
      first round reads.
    """

    def __init__(self, spec: "Spectrum"):
        s2, cnt, z2, ell = self._groups = spec.groups
        self._log_rhs = spec._log_rhs
        self.method = (Method.SHIFTED_CONTOUR
                       if spec.stability_rhs <= QuadratureConfig.stability_threshold
                       else Method.IMHOF)
        self.kernel_args = (s2, 0.25 * cnt, 0.5 * cnt, 0.5 * z2 if z2.any() else None, ell)
        self._heads: dict = {}

    @functools.cached_property
    def log_tail(self) -> Callable:
        return _tail_bound(*self._groups)

    def head(self, abs_tol: float) -> tuple:
        """The shifted contour's head at ``abs_tol``, built once: its panels,
        their ends and their node table.  The table is the panels'
        half-widths and an array (7, panels, 21) of their nodes y followed
        by ``_y_factors(y, ell)``, which depend on no ``x``.

        The asserted bounds of _shifted_values give |f(y)| <= rhs e^{5/4-y}
        / (pi (y - 1/2)), whose integral past the head's end is below 0.1
        abs_tol; log rhs is the spectrum's exponent, finite where rhs
        overflows.  Each panel spans a few oscillation periods (wavelength ~
        2 pi / sqrt(ell)), and the pole of 1/d lies sqrt(ell)/(1 + ell) off
        the axis.
        """
        if abs_tol not in self._heads:
            ell = self._groups[3]
            upper = max(1.5, 1.25 + self._log_rhs - math.log(0.1 * math.pi * abs_tol))
            n0 = max(4, math.ceil(upper * math.sqrt(ell) / (4.0 * math.pi)))
            head = _panels(upper, n0, _POLE_PANEL * math.sqrt(ell) / (1.0 + ell))
            self._heads[abs_tol] = head, [b for _, b in head], _node_table(head, ell)
        return self._heads[abs_tol]

    def window(self, x: float, abs_tol: float) -> tuple:
        """The panels of the shifted head that x integrates, and T at their
        end: the fewest past whose end the y-dependent bound T is at most
        _TAIL_SHARE abs_tol, else the whole head."""
        ends, log_tail = self.head(abs_tol)[1], self.log_tail
        log_eps = math.log(_TAIL_SHARE * abs_tol)
        n = 1 + bisect.bisect_left(ends, True, 0, len(ends) - 1,
                                   key=lambda y: log_tail(x, y) <= log_eps)
        return n, math.exp(log_tail(x, ends[n - 1]))


def cdf_many(xs, spec: "Spectrum", cfg: QuadratureConfig | None = None,
             method: Method | None = None) -> list[CdfEvaluation]:
    """CDF of sum_k sigma_k^2 (Z_k + zeta_k)^2 at each x of ``xs``, in order.

    F(x) = 0 for x <= 0 with no quadrature spent.  Otherwise the shifted
    contour is integrated directly, unless the spectrum's stability bound
    exceeds ``stability_threshold``, in which case F = 1/2 minus the
    real-axis inversion integral.  Returned values are clamped to [0, 1].

    Each point runs its own adaptive quadrature, deciding from its own
    panel values; the points share only integrand calls, which is what
    makes a grid cheap.  Batching can change a point's integrand values
    by rounding (the group sums are matrix-vector products), not more.
    What depends on the spectrum alone comes from ``spec.plan``.  The
    points go to ``_integrate`` _IN_FLIGHT at a time, each batch with its
    windows; on the shifted contour, the batch's first round reads the
    head's node table, and a point that meets tolerance there is settled.
    """
    cfg = cfg or DEFAULT_CONFIG
    xs = [float(x) for x in xs]
    for x in xs:
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x!r}")
    plan = spec.plan
    method = plan.method if method is None else Method(method)
    shifted = method is Method.SHIFTED_CONTOUR
    kernel = _shifted_values if shifted else _imhof_values
    positive = [x for x in xs if x > 0.0]
    args, ell = plan.kernel_args, spec.ell if shifted else None
    # the panels of one kernel call: a round takes the fewest equal calls
    most = max(1, _CALL_ELEMENTS // (PANEL_SIZE * args[0].size))

    def evaluate(xr, total, panels):
        # ``total`` panels, the j-th at x xr[j], or every one at xr's lone
        # x.  panels(s) gives the half-widths and node table of the slice s
        # of them, built for each call so that a large round's table is
        # never whole; each call writes its slice of the round's values
        out, calls = np.empty((3, total)), -(-total // most)
        for k in range(calls):
            s = slice(total * k // calls, total * (k + 1) // calls)
            _eval_panels(kernel, *panels(s), xr if xr.size == 1 else xr[s], *args, out=out[:, s])
        return out

    results: list = []
    for k in range(0, len(positive), _IN_FLIGHT):
        part = positive[k:k + _IN_FLIGHT]
        chunk = np.array(part)
        if shifted:
            head, _, (half, table) = plan.head(cfg.abs_tol)
            sizes, tail_err = zip(*[plan.window(x, cfg.abs_tol) for x in part])
            heads, periods = [head[:n] for n in sizes], None
            # the first round reads the node table: a gather for a batch, and
            # for a lone point a slice, which copies nothing and so is faster
            if len(sizes) == 1:
                first = evaluate(chunk, sizes[0], lambda s: (half[s], table[:, s]))
            else:
                rows = np.arange(sum(sizes)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
                first = evaluate(np.repeat(chunk, sizes), rows.size,
                                 lambda s: (half[rows[s]], table[:, rows[s]]))
        else:
            ends, periods = _imhof_windows(chunk, *spec.groups)
            # one head panel per 2 pi: the phase runs at about unit speed
            heads = [_panels(y, math.ceil(y / (2.0 * math.pi))) for y in ends]
            tail_err, first = [0.0] * len(ends), None
        results += _integrate(cfg, heads, tail_err, lambda edges, owners: evaluate(
            chunk[owners], len(edges), lambda s: _node_table(edges[s], ell)), periods, first)
    results = iter(results)
    out = []
    for x in xs:
        if x <= 0.0:
            out.append(CdfEvaluation(0.0, 0.0, 0, method, density=0.0))
            continue
        value, err, nodes, converged, density, bisections = next(results)
        value = value if shifted else 0.5 - value
        out.append(CdfEvaluation(min(1.0, max(0.0, value)), err, nodes, method, converged,
                                 density / (math.pi * x), bisections))
    return out


def cdf(x: float, spec: "Spectrum", cfg: QuadratureConfig | None = None,
        method: Method | None = None) -> CdfEvaluation:
    """CDF at a single point: ``cdf_many([x], spec, cfg, method)[0]``."""
    return cdf_many([x], spec, cfg, method)[0]
