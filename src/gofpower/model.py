"""Probability models over discrete bins and local-alternative perturbations.

A model is a fully specified distribution p0 over m >= 2 bins; a
perturbation is a direction vector a with zero entry sum.  Together with a
draw count n they define the alternative distribution p0 + a/sqrt(n).
Bins are 1-indexed in file formats and diagnostics.
"""

from __future__ import annotations

import json
import math

import numpy as np

SUM_TOL = 1e-12          # a sum this close to 1 is accepted unchanged
RENORMALIZE_TOL = 1e-9   # within this, entries are renormalized; beyond, rejected
PERTURBATION_SUM_TOL = 1e-12
POISSON_BIN_CAP = 10_000


class ModelError(ValueError):
    """Base class for model and perturbation construction failures."""


class DimensionError(ModelError):
    """Wrong number of bins (fewer than 2, odd where even is required, mismatch)."""


class DistributionError(ModelError):
    """Bin masses nonpositive, nonfinite, or too far from summing to 1."""


class TruncationError(ModelError):
    """Tail truncation would need more bins than the configured cap."""


class PerturbationError(ModelError):
    """Perturbation entries nonfinite or not summing to 0."""


class AlternativeError(ModelError):
    """p0 + a/sqrt(n) leaves [0, 1], so the alternative cannot be sampled."""


class BuilderError(ModelError):
    """Malformed builder string or model/perturbation file."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class ProbabilityModel:
    """A distribution over ``m`` bins with strictly positive masses.

    Sums within ``RENORMALIZE_TOL`` of 1 are silently renormalized;
    larger deviations are rejected so that data errors in user-supplied
    files do not pass unnoticed.  Sums already within ``SUM_TOL`` are kept
    bit-for-bit, so reading entries back is lossless.
    """

    __slots__ = ("m", "probs")

    def __init__(self, probs, *, sum_tol: float = SUM_TOL,
                 renormalize_tol: float = RENORMALIZE_TOL):
        p = np.array(probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise DimensionError(f"a model needs at least 2 bins, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise DistributionError("bin masses must be finite")
        if np.any(p <= 0.0):
            bad = int(np.argmin(p)) + 1
            raise DistributionError(f"bin masses must be strictly positive (bin {bad})")
        s = float(p.sum())
        if abs(s - 1.0) > sum_tol:
            if abs(s - 1.0) <= renormalize_tol:
                p = p / s
            else:
                raise DistributionError(
                    f"bin masses sum to {s!r}; |sum - 1| exceeds {renormalize_tol:g}")
        self.m = int(p.size)
        self.probs = _readonly(p)

    def __repr__(self):
        return f"ProbabilityModel(m={self.m})"


class Perturbation:
    """Direction vector defining the alternative p0 + a/sqrt(n).

    Entries must sum to 0 within ``PERTURBATION_SUM_TOL`` relative to
    max(1, sum |a_k|), tested on a / 2^k with 2^k >= max |a_k| when either
    sum overflows.
    """

    __slots__ = ("m", "entries")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise DimensionError(f"a perturbation needs at least 2 bins, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise PerturbationError("perturbation entries must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(a.sum())
            net, size = total, float(np.abs(a).sum())
            if not math.isfinite(net + size):
                # sums past the double range: the same test on a / 2^k, 2^k >= max |a|
                b = np.ldexp(a, -math.frexp(float(np.abs(a).max()))[1])
                net, size = float(b.sum()), float(np.abs(b).sum())
        if abs(net) > PERTURBATION_SUM_TOL * max(1.0, size):
            raise PerturbationError(f"perturbation entries sum to {total!r}, expected 0")
        self.m = int(a.size)
        self.entries = _readonly(a)

    def __repr__(self):
        return f"Perturbation(m={self.m})"


def uniform_model(m: int) -> ProbabilityModel:
    """Uniform distribution over m bins."""
    if m < 2:
        raise DimensionError(f"m must be at least 2, got {m}")
    return ProbabilityModel(np.full(m, 1.0 / m))


def poisson_model(lam: float, tail_tol: float) -> ProbabilityModel:
    """Poisson(lam) truncated to its first bins; bin k holds the count k-1 mass.

    Truncates at the smallest m (at least 2) whose tail mass is below
    ``tail_tol``, and refuses one that needs more than ``POISSON_BIN_CAP``
    bins.  The kept masses are left unrenormalized, so the model's sum
    falls short of 1 by the (sub-tolerance) tail.  A lam whose exp(-lam)
    is not a normal double (lam > 708.39) is refused.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise DistributionError(f"lambda must be positive, got {lam!r}")
    if not (0.0 < tail_tol < 1.0):
        raise DistributionError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    term = math.exp(-lam)
    if term < np.finfo(float).tiny:
        raise DistributionError(
            f"lambda={lam!r} is too large: exp(-lambda) underflows the "
            f"normal double range")
    masses = [term]
    cum = term
    k = 0
    while 1.0 - cum >= tail_tol or len(masses) < 2:
        if len(masses) >= POISSON_BIN_CAP:
            raise TruncationError(
                f"tail below {tail_tol:g} needs more than {POISSON_BIN_CAP} bins")
        k += 1
        term *= lam / k
        cum += term
        masses.append(term)
    # the float sum of the kept masses can miss 1 - tail by a few ulp per bin
    tol = max(tail_tol, 4.0 * np.finfo(float).eps * len(masses))
    return ProbabilityModel(masses, sum_tol=tol, renormalize_tol=tol)


def alternating_perturbation(m: int, amplitude: float) -> Perturbation:
    """Perturbation a_k = (-1)^k * amplitude for 1-indexed k; m must be even."""
    if m < 2:
        raise DimensionError(f"m must be at least 2, got {m}")
    if m % 2 != 0:
        raise DimensionError(f"m must be even for an alternating perturbation, got {m}")
    signs = np.where(np.arange(1, m + 1) % 2 == 0, 1.0, -1.0)
    return Perturbation(signs * amplitude)


def zero_perturbation(m: int) -> Perturbation:
    """The null direction: all entries zero."""
    if m < 2:
        raise DimensionError(f"m must be at least 2, got {m}")
    return Perturbation(np.zeros(m))


def load_case(path) -> tuple[ProbabilityModel, Perturbation]:
    """Read a {"p0": [...], "a": [...]} JSON file: two equal-length arrays of numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BuilderError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BuilderError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(data, dict) or "p0" not in data or "a" not in data:
        raise BuilderError(f'{path}: expected an object with "p0" and "a" arrays')
    p0, a = data["p0"], data["a"]
    if not isinstance(p0, list) or not isinstance(a, list) or len(p0) != len(a):
        raise BuilderError(f'{path}: "p0" and "a" must be arrays of equal length')
    for name, k, v in ((n, k, v) for n in ("p0", "a") for k, v in enumerate(data[n], 1)):
        if type(v) not in (int, float):   # json gives True as a bool, 1 as an int
            raise BuilderError(f'{path}: "{name}"[{k}] is {json.dumps(v)}, not a number')
    try:
        return ProbabilityModel(p0), Perturbation(a)
    except ModelError as exc:
        raise BuilderError(f"{path}: {exc}") from exc


def model_from_spec(spec: str) -> ProbabilityModel:
    """Build a model from ``uniform:m``, ``poisson:lambda[:tol]``, or ``file:path``."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "uniform":
            return uniform_model(int(rest))
        if kind == "poisson":
            parts = rest.split(":")
            lam = float(parts[0])
            tol = float(parts[1]) if len(parts) > 1 else 1e-10
            return poisson_model(lam, tol)
        if kind == "file":
            return load_case(rest)[0]
    except (ValueError, IndexError) as exc:
        if isinstance(exc, ModelError):
            raise
        raise BuilderError(f"bad model spec {spec!r}: {exc}") from exc
    raise BuilderError(f"unknown model spec {spec!r} (use uniform:, poisson:, or file:)")


def perturbation_from_spec(spec: str, m: int) -> Perturbation:
    """Build a perturbation from ``alternating:amp``, ``zero``, or ``file:path``."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "alternating":
            return alternating_perturbation(m, float(rest))
        if kind == "zero":
            return zero_perturbation(m)
        if kind == "file":
            return load_case(rest)[1]
    except (ValueError, IndexError) as exc:
        if isinstance(exc, ModelError):
            raise
        raise BuilderError(f"bad perturbation spec {spec!r}: {exc}") from exc
    raise BuilderError(
        f"unknown perturbation spec {spec!r} (use alternating:, zero, or file:)")


def builtin_examples() -> list[tuple[str, ProbabilityModel, Perturbation]]:
    """The four benchmark cases driven by the CLI ``examples`` command.

    1. uniform over 10 bins, alternating perturbation of amplitude 1/5;
    2. one heavy bin (1/2) plus 99 light bins (1/198), mass moved onto bin 1;
    3. Poisson(3) truncated to 20 bins, alternating perturbation on bins 1-6;
    4. the same Poisson model, all perturbation mass placed on bin 1.
    """
    out = [("example1", uniform_model(10), alternating_perturbation(10, 0.2))]

    p2 = np.full(100, 1.0 / 198.0)
    p2[0] = 0.5
    a2 = np.full(100, -2.0 / 297.0)
    a2[0] = 2.0 / 3.0
    out.append(("example2", ProbabilityModel(p2), Perturbation(a2)))

    pois = poisson_model(3.0, 1e-10)
    a3 = np.zeros(pois.m)
    a3[0:4] = [-0.25, 0.25, -0.25, 0.25]
    a3[4:6] = [-0.5, 0.5]
    out.append(("example3", pois, Perturbation(a3)))

    a4 = np.zeros(pois.m)
    a4[0] = 1.0
    a4[1:12] = -1.0 / 11.0
    out.append(("example4", pois, Perturbation(a4)))
    return out
