"""Monte-Carlo simulation of the scaled statistic and empirical power."""

import functools
import itertools
import math
import os
import threading
import warnings

import numpy as np
import pytest

from oracles import empirical_power_reference, fresh_stream_statistics
from test_quadform import run_threads

from gofpower.model import (
    AlternativeError,
    Perturbation,
    ProbabilityModel,
    alternating_perturbation,
    builtin_examples,
    uniform_model,
    zero_perturbation,
)
from gofpower.cli import _MC_ALPHA_GRID
from gofpower import montecarlo
from gofpower.montecarlo import _count_blocks, empirical_power, simulate_statistics
from gofpower.quadform import cdf
from gofpower.spectrum import compute_spectrum


def use_cpus(monkeypatch, cpus):
    """Make the process look as if it may run on ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


class TestSimulateStatistics:
    def test_single_draw_two_bins(self):
        # one draw from (1/2, 1/2): counts are (1,0) or (0,1), X is always 1/2
        sim = simulate_statistics(uniform_model(2), zero_perturbation(2),
                                  n=1, trials=500, seed=3)
        assert np.all(sim.statistics == 0.5)

    def test_mean_matches_limit_law(self):
        # E[X_n] = sum p(1-p) exactly for every n; for (1/2,1/2) that is 1/2,
        # matching E[X_inf] = sum sigma^2.  3-sigma band at 40,000 trials.
        sim = simulate_statistics(uniform_model(2), zero_perturbation(2),
                                  n=10 ** 6, trials=40_000, seed=11)
        se = sim.statistics.std() / math.sqrt(sim.trials)
        assert abs(sim.statistics.mean() - 0.5) < 3 * se

    def test_deterministic_given_seed(self):
        model = uniform_model(5)
        pert = zero_perturbation(5)
        a = simulate_statistics(model, pert, 1000, 200, seed=7)
        b = simulate_statistics(model, pert, 1000, 200, seed=7)
        assert np.array_equal(a.statistics, b.statistics)
        c = simulate_statistics(model, pert, 1000, 200, seed=8)
        assert not np.array_equal(a.statistics, c.statistics)

    def test_each_trial_matches_a_fresh_generator(self, monkeypatch):
        # trial t is the draw of a fresh Philox keyed [seed mod 2^64, t],
        # bit for bit; 257 and 800 trials straddle the 256-row count blocks
        # and 512 ends on a full one; 2^64 - 1 is the largest key and 2^64
        # wraps to 0.  From 200 bins and 256 trials two threads share the
        # run: 256 and 512 split it on a 256-row block boundary, 257 and 513
        # inside a block; 199 bins and 255 trials stay on one thread
        use_cpus(monkeypatch, 2)
        n = 5000
        for m in (2, 7, 199, 200, 300):
            model = ProbabilityModel(np.arange(m, 2 * m) / (m * (3 * m - 1) / 2))
            pert = Perturbation(np.linspace(-0.05, 0.05, m))
            p_a = model.probs + pert.entries / math.sqrt(n)
            for seed, trials in itertools.product(
                    (5, -3, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64),
                    (1, 2, 255, 256, 257, 512, 513, 800)):
                sim = simulate_statistics(model, pert, n, trials, seed)
                expected = fresh_stream_statistics(seed, n, p_a, model.probs,
                                                   trials)
                assert sim.statistics.tobytes() == expected.tobytes()

    def test_invalid_alternative_rejected(self):
        with pytest.raises(AlternativeError) as err:
            simulate_statistics(uniform_model(10), alternating_perturbation(10, 0.2),
                                n=1, trials=10, seed=0)
        assert "bins" in str(err.value)

    def test_example4_rejected_at_small_n(self):
        _, model, pert = builtin_examples()[3]
        with pytest.raises(AlternativeError):
            simulate_statistics(model, pert, n=100_000, trials=10, seed=0)

    def test_statistics_nonnegative(self):
        sim = simulate_statistics(uniform_model(3), zero_perturbation(3),
                                  n=100, trials=1000, seed=1)
        assert np.all(sim.statistics >= 0.0)

    def test_per_bin_frequencies(self):
        # mean empirical proportions match p_a within 5 binomial standard errors
        model = ProbabilityModel([0.2, 0.3, 0.5])
        n, trials = 50, 200_000
        # per-bin mean occupancy of the null counts simulate_statistics draws
        # at seed 13; the stream contract test pins these to fresh generators
        totals = np.zeros(3, dtype=np.int64)
        for _, counts in _count_blocks(13, n, model.probs, trials):
            totals += counts.sum(axis=0)
        freq = totals / (n * trials)
        se = np.sqrt(model.probs * (1 - model.probs) / (n * trials))
        assert np.all(np.abs(freq - model.probs) <= 5 * se)

    def test_kolmogorov_distance_to_limit_law(self):
        # empirical CDF of X_n at n = 1e6 vs the quadrature CDF, uniform
        # 10-bin model with the alternating perturbation
        model = uniform_model(10)
        pert = alternating_perturbation(10, 0.2)
        sim = simulate_statistics(model, pert, 10 ** 6, 40_000, seed=17)
        spec = compute_spectrum(model, pert)
        xs = np.sort(sim.statistics)
        idx = np.arange(99, 40_000, 200)   # 200 evenly spaced order statistics
        worst = 0.0
        for i in idx:
            f = cdf(float(xs[i]), spec).value
            ecdf_hi = (i + 1) / 40_000
            ecdf_lo = i / 40_000
            worst = max(worst, abs(ecdf_hi - f), abs(ecdf_lo - f))
        assert worst < 0.01


def spread_model(m, seed):
    """An m-bin model with masses over one decade and a small alternative."""
    rng = np.random.default_rng(seed)
    p0 = 10.0 ** rng.uniform(0.0, 1.0, m)
    a = rng.standard_normal(m)
    return ProbabilityModel(p0 / p0.sum()), Perturbation(1e-3 * (a - a.mean()))


class TestTwoThreads:
    """From _THREAD_BINS bins a run splits its trials across two threads."""

    def threads_drawing(self, monkeypatch, cpus, fail=None):
        """Force the CPU count and record (thread, first trial) per block;
        ``fail`` maps a half's first trial to what its second block raises."""
        use_cpus(monkeypatch, cpus)
        real, seen = montecarlo._count_blocks, []

        def blocks(seed, n, p, stop, start=0, block=montecarlo._BLOCK):
            for i, (lo, rows) in enumerate(real(seed, n, p, stop, start, block)):
                if i == 1 and start in (fail or {}):
                    raise fail[start]
                seen.append((threading.get_ident(), start, lo))
                yield lo, rows

        monkeypatch.setattr(montecarlo, "_count_blocks", blocks)
        return seen

    def test_one_cpu_gives_the_same_bytes(self, monkeypatch):
        model, pert = spread_model(300, 1)
        runs = {}
        for cpus in (1, 2):
            seen = self.threads_drawing(monkeypatch, cpus)
            runs[cpus] = simulate_statistics(model, pert, 10 ** 6, 1000, 9)
            assert {start for _, start, _ in seen} == ({0} if cpus == 1 else {0, 500})
            assert len({ident for ident, _, _ in seen}) == cpus
        assert runs[1].statistics.tobytes() == runs[2].statistics.tobytes()

    def test_small_models_and_runs_stay_on_one_thread(self, monkeypatch):
        for m, trials in ((199, 1000), (300, 255)):
            seen = self.threads_drawing(monkeypatch, 2)
            model, pert = spread_model(m, 2)
            simulate_statistics(model, pert, 10 ** 6, trials, 9)
            assert {start for _, start, _ in seen} == {0}

    def test_concurrent_calls_match_serial_bytes(self, monkeypatch):
        # 4 calling threads, each starting its own worker, under a 10 us
        # switch interval
        cases = [(spread_model(300, k), 7 * k, 300 + 97 * k) for k in range(8)]
        use_cpus(monkeypatch, 1)
        serial = [simulate_statistics(model, pert, 10 ** 6, trials, seed)
                  for (model, pert), seed, trials in cases]
        use_cpus(monkeypatch, 2)
        before = threading.active_count()
        got = run_threads([functools.partial(simulate_statistics, model, pert,
                                             10 ** 6, trials, seed)
                           for (model, pert), seed, trials in cases], 4)
        assert [sim.statistics.tobytes() for sim in got] == [
            sim.statistics.tobytes() for sim in serial]
        assert threading.active_count() == before

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyboardInterrupt()])
    @pytest.mark.parametrize("half", ["worker", "caller"])
    def test_an_exception_in_either_half_is_raised(self, monkeypatch, half, exc):
        # the failing half raises at its second block; the other half stops
        # within one block of it, and no thread outlives the call
        model, pert = spread_model(300, 3)
        trials = 4000
        first = trials // 2 if half == "worker" else 0
        seen = self.threads_drawing(monkeypatch, 2, fail={first: exc})
        before = threading.active_count()
        with pytest.raises(type(exc)) as err:
            simulate_statistics(model, pert, 10 ** 6, trials, 4)
        assert err.value is exc
        assert threading.active_count() == before
        other = [lo for _, start, lo in seen if start != first]
        assert len(other) < trials // 2 // (montecarlo._BLOCK // 2)


class TestEmpiricalPower:
    def test_self_comparison_is_diagonal(self):
        # masses proportional to square roots of primes are rationally
        # independent, so two trials tie only if their count vectors are
        # equal up to rounding and the empirical quantile rank maps straight
        # back to a tail fraction; rational masses such as primes / 129 put
        # 129 n X_n on the integers and give exact ties
        roots = np.sqrt([2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
        model = ProbabilityModel(roots / roots.sum())
        sim = simulate_statistics(model, zero_perturbation(10), 10_007, 5000, seed=23)
        assert np.unique(sim.statistics).size == sim.trials
        for pt in empirical_power(sim, sim, [0.05, 0.3, 0.5, 0.9]):
            assert pt.power == pytest.approx(pt.alpha, abs=1.0 / 5000 + 1e-12)

    @pytest.mark.parametrize("m, n, trials", [
        (4, 100, 999),      # few distinct statistics: ties at the critical values
        (10, 10_000, 200),  # (1 - alpha) * trials is an integer on the grid
    ])
    def test_matches_per_alpha_reference(self, m, n, trials):
        model = uniform_model(m)
        null = simulate_statistics(model, zero_perturbation(m), n, trials, seed=43)
        alt = simulate_statistics(model, alternating_perturbation(m, 0.1), n,
                                  trials, seed=44)
        expected = empirical_power_reference(null.statistics, alt.statistics,
                                             _MC_ALPHA_GRID)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = empirical_power(null, alt, _MC_ALPHA_GRID)
        assert [(pt.alpha, pt.power, pt.std_error, pt.low_sample)
                for pt in points] == expected
        low = [alpha for alpha, _, _, flag in expected if flag]
        assert len(low) == int(np.sum(_MC_ALPHA_GRID * trials < 10)) > 0
        assert [str(w.message) for w in caught] == [
            f"alpha={alpha:g} leaves under 10 tail trials; the empirical "
            "quantile is unreliable" for alpha in low]
        assert all(w.category is RuntimeWarning and w.filename == __file__
                   for w in caught)

    def test_standard_error_annotation(self):
        sim = simulate_statistics(uniform_model(4), zero_perturbation(4),
                                  100, 40_000, seed=29)
        (pt,) = empirical_power(sim, sim, [0.5])
        assert pt.std_error == pytest.approx(0.0025, abs=1e-6)

    def test_low_sample_warning(self):
        sim = simulate_statistics(uniform_model(4), zero_perturbation(4),
                                  100, 50, seed=31)
        with pytest.warns(RuntimeWarning):
            (pt,) = empirical_power(sim, sim, [0.05])
        assert pt.low_sample

    def test_mismatched_n_rejected(self):
        model = uniform_model(4)
        a = simulate_statistics(model, zero_perturbation(4), 100, 50, seed=1)
        b = simulate_statistics(model, zero_perturbation(4), 200, 50, seed=1)
        with pytest.raises(ValueError):
            empirical_power(a, b, [0.5])

    def test_bad_alpha_rejected(self):
        sim = simulate_statistics(uniform_model(4), zero_perturbation(4),
                                  100, 50, seed=1)
        with pytest.raises(ValueError):
            empirical_power(sim, sim, [0.0])

    def test_power_detects_shift(self):
        model = uniform_model(10)
        null = simulate_statistics(model, zero_perturbation(10), 10_000, 4000, seed=41)
        alt = simulate_statistics(model, alternating_perturbation(10, 0.2),
                                  10_000, 4000, seed=42)
        (pt,) = empirical_power(null, alt, [0.05])
        assert 0.15 < pt.power < 0.3   # asymptotic value is about 0.225
