"""Finite-n Monte-Carlo oracle for the scaled squared-distance statistic.

Each trial draws a multinomial sample of size n from p_a = p0 + a/sqrt(n)
and forms X_n = n * sum_k (Y_k - (p0)_k)^2.  Trial t draws from its own
counter-based Philox stream, keyed [seed mod 2^64, t] with its counter at
zero, so results are bit-for-bit reproducible and trial t's counts do not
depend on how many trials run or in what order.  So two threads, each in
_BLOCK / 2-row blocks, may split the trials without changing a bit; numpy's
multinomial releases the GIL, which pays once a draw outweighs its ~2 us of
Python.  On a 2-vCPU VM, 4,000 trials at n = 10^6 ran 0.74x at m = 120 and
1.2-1.9x from m = 130 to 1,000, but 1.00x at m = 200 and n = 300.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    AlternativeError,
    DimensionError,
    ModelError,
    Perturbation,
    ProbabilityModel,
)

__all__ = [
    "SimulationResult", "EmpiricalPowerPoint",
    "simulate_statistics", "empirical_power",
]

_MASK64 = (1 << 64) - 1
_BLOCK = 256  # rows of counts buffered per statistic update; bounds memory
_THREAD_BINS = 200  # from this many bins the trials are split across 2 threads
_MIN_TAIL_TRIALS = 10  # below alpha*trials of this, quantiles are unreliable


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Per-trial statistics plus the inputs needed to reproduce them."""

    statistics: np.ndarray
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.statistics.shape != (self.trials,):
            raise ValueError("statistics length must equal the trial count")


@dataclass(frozen=True)
class EmpiricalPowerPoint:
    alpha: float
    power: float
    std_error: float
    low_sample: bool = False


def _count_blocks(seed: int, n: int, p: np.ndarray, stop: int, start=0, block=_BLOCK):
    """Yield (first trial, counts) blocks of trials [start, stop), block rows at most.

    Row t of the run is trial t's multinomial(n, p) draw, equal to the draw
    of a fresh Generator(Philox(key=[seed & _MASK64, t])).  One Philox is
    re-keyed through its public state setter before each trial, which is
    much cheaper than building a generator.  The state's counter, key and
    buffer are plain lists: the setter reads them one element at a time,
    which costs less from Python ints than from uint64 arrays.  The block is
    reused: consume it before asking for the next one.
    """
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    key = [seed & _MASK64, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    buf = np.empty((min(block, stop - start), p.size), dtype=np.int64)
    for lo in range(start, stop, block):
        rows = buf[:min(block, stop - lo)]
        for i in range(rows.shape[0]):
            key[1] = lo + i
            bitgen.state = state
            rows[i] = gen.multinomial(n, p)
        yield lo, rows


def simulate_statistics(model: ProbabilityModel, pert: Perturbation,
                        n: int, trials: int, seed: int) -> SimulationResult:
    """Simulate X_n over independent trials; same (inputs, seed) — same output.

    The multinomial sampler is numpy's conditional-binomial generator
    (exact binomials via inversion / BTPE), O(m) per trial regardless of n.
    Trial t always consumes its own Philox stream keyed [seed mod 2^64, t],
    so its statistic is the same whatever the trial count.  An alternative
    p_a = p0 + a/sqrt(n) that leaves [0, 1] raises ``AlternativeError``.
    From _THREAD_BINS bins, _BLOCK trials and two usable CPUs, a worker
    thread draws trials [T/2, T), joined before the call returns; an
    exception in either half stops the other within a block and is raised.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    if pert.m != model.m:
        raise DimensionError(f"perturbation has {pert.m} bins, model has {model.m}")
    if int(n) < 1:
        raise ModelError("n must be a positive integer")
    p0 = model.probs
    p_a = p0 + pert.entries / math.sqrt(n)
    bad = np.flatnonzero((p_a < 0.0) | (p_a > 1.0))
    if bad.size:
        raise AlternativeError(
            f"p0 + a/sqrt(n) leaves [0, 1] at bins {(bad + 1).tolist()} (n={n})")
    inv_n = 1.0 / n
    stats = np.empty(trials)
    halt, errors = threading.Event(), []

    def fill(start, stop, block):
        try:
            for lo, counts in _count_blocks(seed, n, p_a, stop, start, block):
                d = counts * inv_n - p0
                # a stack of (1, m) @ (m, 1) products: matmul hands each to the
                # same 1-D dot that row @ row uses, so every statistic rounds as
                # if reduced on its own; d @ d.T, einsum or sum(axis=1) would not
                stats[lo:lo + d.shape[0]] = n * np.matmul(d[:, None, :],
                                                          d[:, :, None]).ravel()
                if halt.is_set():
                    return
        except BaseException as exc:  # raised below, on the calling thread
            errors.append(exc)
            halt.set()

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if model.m < _THREAD_BINS or trials < _BLOCK or (cpus or 1) < 2:
        fill(0, trials, _BLOCK)
    else:
        worker = threading.Thread(target=fill, args=(trials // 2, trials, _BLOCK // 2))
        worker.start()
        try:
            fill(0, trials // 2, _BLOCK // 2)
            worker.join()
        finally:  # a join cut short leaves the worker to stop within a block
            halt.set()
            worker.join()
    if errors:
        raise errors[0]
    stats.flags.writeable = False
    return SimulationResult(statistics=stats, n=n, trials=trials, seed=seed)


def empirical_power(sim_null: SimulationResult, sim_alt: SimulationResult,
                    alpha_grid) -> list[EmpiricalPowerPoint]:
    """Empirical power at each alpha from two simulations sharing n.

    The critical value is the right-continuous empirical (1 - alpha)
    quantile of the null statistics (order statistic floor((1-alpha)*T) + 1,
    capped at T), all alphas at once; power is the fraction of alternative
    statistics at or above it, counted by bisecting the sorted alternative.
    The attached standard error is sqrt(alpha (1 - alpha) / trials).
    """
    if sim_null.n != sim_alt.n:
        raise ValueError(
            f"simulations use different n: {sim_null.n} vs {sim_alt.n}")
    snull = np.sort(sim_null.statistics)
    salt = np.sort(sim_alt.statistics)
    trials = sim_null.trials
    alphas = np.asarray(alpha_grid, dtype=float)
    bad = ~((alphas > 0.0) & (alphas < 1.0))
    if bad.any():
        raise ValueError(f"alpha must lie in (0, 1), got {alphas[bad][0]!r}")
    low = alphas * trials < _MIN_TAIL_TRIALS
    for alpha in alphas[low]:
        warnings.warn(
            f"alpha={alpha:g} leaves under {_MIN_TAIL_TRIALS} tail trials; "
            "the empirical quantile is unreliable", RuntimeWarning,
            stacklevel=2)
    # right-continuous quantile, boundary ties pushed to the larger critical
    # value so the empirical size stays at or below alpha
    rank = np.minimum(trials,
                      np.floor((1.0 - alphas) * trials + 1e-9).astype(np.int64) + 1)
    critical = snull[rank - 1]
    power = (sim_alt.trials
             - np.searchsorted(salt, critical, "left")) / sim_alt.trials
    se = np.sqrt(alphas * (1.0 - alphas) / sim_alt.trials)
    return [EmpiricalPowerPoint(*row) for row in
            zip(alphas.tolist(), power.tolist(), se.tolist(), low.tolist())]
