"""The benchmark's workloads: seeded inputs, one timed operation, its checks.

A workload turns the seed into inputs once (the set-up), then hands out
operations in rounds.  Every round of a workload has the same composition,
so a run that completes more rounds samples the same mix, and a percentile
over whole rounds does not depend on where the run stopped.

The program only ever receives the generated ProbabilityModel and
Perturbation objects (or, for paper-examples, the CLI's own argument list).
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gofpower
# calls go through the modules, so the tracer's rebinding sees them
from gofpower import cli, montecarlo, power, spectrum
from gofpower.quadform import DEFAULT_CONFIG, Method

# m buckets shared by the spectrum and Monte-Carlo per-layer metrics
M_BUCKETS = (("small", 1, 30), ("mid", 31, 150), ("large", 151, 10 ** 9))


def m_bucket(m: int) -> str:
    return next(name for name, lo, hi in M_BUCKETS if lo <= m <= hi)


@dataclass
class Op:
    """One unit of work: an examples run, a model to answer, or an MC case."""

    ident: str
    payload: object
    outcome: str = ""   # ok | warned | rejected | failed, see run.run_op
    start: float = 0.0  # time.perf_counter() when it began
    seconds: float = 0.0
    scale: float = 1.0  # to the reference machine speed, see run.SpeedSampler
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _stratified(rng, count: int, lo: float, hi: float,
                jitter: float = 1.0) -> np.ndarray:
    """count values in [lo, hi], one in each of count equal strata, shuffled,
    so the spread of a round barely depends on the seed.  Each value lies
    uniformly within `jitter` of its stratum's width around the centre."""
    u = (np.arange(count) + 0.5 + jitter * (rng.random(count) - 0.5)) / count
    return rng.permutation(lo + (hi - lo) * u)


ANSWERED = ("ok", "warned")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    s = sorted(values)
    return float(s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]) if s else 0.0


class Workload:
    """A workload hands out rounds of operations, runs and checks each one."""

    def rejected(self, op: Op, exc: Exception) -> bool:
        """Whether an exception is a refusal this workload expects."""
        return False


# ---------------------------------------------------------------- paper-examples

class PaperExamples(Workload):
    """`gofpower examples` in-process on the four built-in cases."""

    why = ("the paper's reproduction path: uniform-grid sweeps of per-point cdf, "
           "plus Monte-Carlo, spectrum, CSV and SVG output through the CLI")
    unit = "examples run"
    GRID_STEP = 0.005   # default_grid(0.005, 5.0): 1,000 points per curve
    TRIALS = 4000
    N = 10 ** 6
    MIN_ROUNDS = 3
    TRACE_ROUNDS = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.cases = {name: (model, pert) for name, model, pert
                      in gofpower.builtin_examples()}

    def round(self, r: int) -> list[Op]:
        out_dir = self.scratch / f"examples-{r}"
        argv = ["examples", "--out-dir", str(out_dir),
                "--grid-step", repr(self.GRID_STEP), "--grid-max", "5.0",
                "--n", str(self.N), "--trials", str(self.TRIALS),
                "--seed", str(self.seed * 1000 + r)]
        return [Op(f"examples-{r}", (argv, out_dir))]

    def run(self, op: Op) -> int:
        argv, _ = op.payload
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, op: Op, code: int) -> list[str]:
        _, out_dir = op.payload
        problems = [] if code == 0 else [f"examples exited with {code}"]
        try:
            for name, (model, _) in self.cases.items():
                cols = np.loadtxt(out_dir / f"{name}_curve.csv", delimiter=",",
                                  skiprows=1, ndmin=2)
                x, f0, fa = cols[:, 0], cols[:, 1], cols[:, 2]
                if x.size != round(5.0 / self.GRID_STEP):
                    problems.append(f"{name}: {x.size} grid points")
                problems += checks.check_curve(name, f0, fa)
                if np.all(model.probs == model.probs[0]):
                    problems += checks.check_uniform_null(model.m, x, f0)
                mc = np.loadtxt(out_dir / f"{name}_mc.csv", delimiter=",",
                                skiprows=1, ndmin=2)
                problems += checks.check_empirical_power(name, mc[:, 1])
                if (out_dir / f"{name}.svg").stat().st_size == 0:
                    problems.append(f"{name}.svg is empty")
            rows = (out_dir / "costs.csv").read_text().splitlines()
            if len(rows) != 1 + len(self.cases):
                problems.append(f"costs.csv has {len(rows)} lines")
        except (OSError, ValueError) as exc:
            problems.append(f"unreadable output: {exc}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return problems

    def details(self, ops: list[Op]) -> dict:
        ok = [op.seconds * op.scale for op in ops if op.outcome in ANSWERED]
        return {"examples_s": {"value": percentile(ok, 50), "unit": "s",
                               "samples": len(ok)}}


# ------------------------------------------------------------------ model-sweep

@dataclass
class SweepModel:
    model: gofpower.ProbabilityModel
    pert: gofpower.Perturbation
    xs: list            # observed statistics for pvalue, ascending
    structure: str      # uniform | tied | distinct
    degenerate: bool    # built with max p0 / min p0 = 1e10..1e12


class ModelSweep(Workload):
    """Seeded (p0, a) models, each answered as a user testing one model would."""

    why = ("many small models dominated by scattered cdf calls, plus a tail of "
           "large m where the Jacobi spectrum dominates")
    unit = "model"
    ALPHAS = (0.01, 0.05, 0.1)
    X_FACTORS = (0.5, 1.0, 2.0, 4.0)   # observed statistics, times the null mean
    # One round is a crossed design, so that its mix, and with it every
    # percentile, barely depends on the seed: each row is (strata, m from,
    # m to, kinds), and every m stratum holds one model of each kind for each
    # method.  110 answered models with a tail to m = 200, plus two that the
    # program at the seed commit mostly rejects as degenerate.  The 90th
    # percentile falls among the 24 models of the second row, a dense group.
    ROUND = ((10, 5, 30, ("uniform", "tied", "distinct", "distinct")),
             (6, 40, 70, ("tied", "distinct")),
             (2, 91, 150, ("distinct",)),
             (1, 190, 200, ("distinct",)))
    DEGENERATE_PER_ROUND = 2
    MIN_ROUNDS = 1      # 110 answered models: ten beyond the 90th percentile
    TRACE_ROUNDS = 1
    LOG_RATIO = (0.0, 8.0)   # log10 of max p0 / min p0, except uniform
    # sum zeta^2 ranges that land on each side of the default threshold 1e8
    # for stability_rhs = exp(sqrt(1 + 1/ell)/2 * sum zeta^2)
    SHIFTED_ZETA2 = (2.0, 30.0)
    IMHOF_ZETA2 = (45.0, 150.0)

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self._rounds: dict[int, list[Op]] = {}
        for r in range(self.MIN_ROUNDS):
            self.round(r)

    def round(self, r: int) -> list[Op]:
        if r not in self._rounds:
            self._rounds[r] = self._make_round(r)
        return self._rounds[r]

    def _make_round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        groups = []   # cells that share a row, kind and method
        for strata, lo, hi, kinds in self.ROUND:
            width = (hi - lo + 1) / strata
            for kind in dict.fromkeys(kinds):
                for imhof in (False, True):
                    ms = [int(lo + width * (j + rng.random()))
                          for j in range(strata) for k in kinds if k == kind]
                    groups.append((ms, kind, imhof))
        specs = []
        for ms, kind, imhof in groups:
            # ratio, sum zeta^2 and the number of tied levels are stratified
            # within the group too, near the strata's centres: cost depends
            # on them, and the tail rows have one model per group
            n = len(ms)
            log_ratio = _stratified(rng, n, *self.LOG_RATIO, jitter=0.25)
            zeta2 = _stratified(rng, n, *(self.IMHOF_ZETA2 if imhof
                                          else self.SHIFTED_ZETA2), jitter=0.25)
            levels = rng.permutation(2 + np.arange(n) % 4)
            specs += [(m, kind, 10.0 ** lr, z2, int(lv), False)
                      for m, lr, z2, lv in zip(ms, log_ratio, zeta2, levels)]
        for _ in range(self.DEGENERATE_PER_ROUND):
            specs.append((int(rng.integers(10, 41)), "distinct",
                          10.0 ** rng.uniform(10.0, 12.0),
                          rng.uniform(*self.SHIFTED_ZETA2), 0, True))
        order = rng.permutation(len(specs))
        return [Op(f"r{r}-model{k}", self._make_model(rng, *specs[i]))
                for k, i in enumerate(order)]

    def _make_model(self, rng, m, structure, ratio, zeta2, levels,
                    degenerate) -> SweepModel:
        span = math.log10(ratio)
        if structure == "uniform":
            w = np.ones(m)
        elif structure == "tied":
            levels = min(m, levels)
            u = np.concatenate([[0.0, 1.0], rng.random(levels - 2)])
            # every level gets at least one bin; the rest fall at random
            which = np.concatenate([np.arange(levels),
                                    rng.integers(0, levels, m - levels)])
            w = 10.0 ** (span * u[rng.permutation(which)])
        else:
            u = np.concatenate([[0.0, 1.0], rng.random(m - 2)])
            w = 10.0 ** (span * rng.permutation(u))
        p0 = w / w.sum()
        a = rng.standard_normal(m)
        a -= a.mean()
        a *= math.sqrt(zeta2 / float(np.sum(a * a / p0)))
        a -= a.mean()
        null_mean = float(np.sum(p0 * (1.0 - p0)))
        return SweepModel(
            model=gofpower.ProbabilityModel(p0), pert=gofpower.Perturbation(a),
            xs=[c * null_mean for c in self.X_FACTORS], structure=structure,
            degenerate=degenerate)

    def run(self, op: Op):
        sm: SweepModel = op.payload
        null_spec = spectrum.compute_spectrum(
            sm.model, gofpower.zero_perturbation(sm.model.m))
        alt_spec = spectrum.compute_spectrum(sm.model, sm.pert)
        powers = [power.asymptotic_power(al, null_spec, alt_spec) for al in self.ALPHAS]
        pvals = [power.pvalue(x, null_spec) for x in sm.xs]
        return null_spec, alt_spec, powers, pvals

    def rejected(self, op: Op, exc: Exception) -> bool:
        """A DegenerateModelError on a model built degenerate is a precise
        refusal, not a failure; on any other model it is a failure."""
        return isinstance(exc, spectrum.DegenerateModelError) and op.payload.degenerate

    def check(self, op: Op, result) -> list[str]:
        sm: SweepModel = op.payload
        null_spec, alt_spec, powers, pvals = result
        p0, a = sm.model.probs, sm.pert.entries
        method = (Method.SHIFTED_CONTOUR
                  if alt_spec.stability_rhs <= DEFAULT_CONFIG.stability_threshold
                  else Method.IMHOF)
        op.info = {"m": sm.model.m, "method": method.value}
        problems = checks.check_sigma(p0, alt_spec.sigma)
        if not np.array_equal(null_spec.sigma, alt_spec.sigma):
            problems.append("null and alternative sigma differ")
        problems += checks.check_identities(p0, a, alt_spec.sigma, alt_spec.zeta)
        problems += checks.check_power(self.ALPHAS, powers)
        problems += checks.check_pvalues(sm.xs, pvals)
        if sm.structure == "uniform":
            problems += checks.check_uniform_null(
                sm.model.m, sm.xs, [1.0 - p for p in pvals])
        return problems

    def details(self, ops: list[Op]) -> dict:
        answered = [op for op in ops if op.outcome in ANSWERED]
        times = [op.seconds * op.scale * 1e3 for op in answered]
        busy = sum(op.seconds * op.scale for op in ops)
        buckets = [m_bucket(op.info["m"]) for op in answered]
        methods = [op.info["method"] for op in answered]
        share = lambda xs, key: xs.count(key) / max(1, len(xs))  # noqa: E731
        return {
            "sweep_models_per_s": {"value": len(ops) / busy, "unit": "1/s"},
            "answer_ms.p50": {"value": percentile(times, 50), "unit": "ms",
                              "samples": len(times)},
            "answer_ms.p90": {"value": percentile(times, 90), "unit": "ms",
                              "samples": len(times),
                              "beyond": int(len(times) - math.ceil(0.9 * len(times)))},
            "share.method": {m.value: share(methods, m.value) for m in Method},
            "share.m_bucket": {b: share(buckets, b) for b, _, _ in M_BUCKETS},
        }


# ---------------------------------------------------------------- mc-crosscheck

class McCrosscheck(Workload):
    """Monte-Carlo null and alternative simulations plus empirical power."""

    why = ("only montecarlo works here, with m from 10 to 300 so the O(m) "
           "per-trial cost shows; quadrature or spectrum changes predict no change")
    unit = "simulated case"
    N = 10 ** 6
    TRIALS = 4000     # 20 tail trials at alpha = 0.005: no low-sample warnings
    ALPHA_GRID = np.arange(1, 200) / 200.0   # the CLI's Monte-Carlo grid
    LARGE_M = 300       # next to m = 10..100 of the examples
    MIN_ROUNDS = 20     # 100 simulated cases: ten beyond the 90th percentile
    TRACE_ROUNDS = 8

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 7])
        self.cases = [(name, model, pert) for name, model, pert
                      in gofpower.builtin_examples()]
        m = self.LARGE_M
        # log p0 stratified over one decade: the sampler's cost depends on
        # the masses, so their spread stays the same from seed to seed
        p0 = 10.0 ** _stratified(rng, m, 0.0, 1.0)
        p0 /= p0.sum()
        a = rng.standard_normal(m)
        a -= a.mean()
        a *= math.sqrt(20.0 / float(np.sum(a * a / p0)))
        a -= a.mean()
        self.cases.append((f"model-m{m}", gofpower.ProbabilityModel(p0),
                           gofpower.Perturbation(a)))
        self.zero = {case[1].m: gofpower.zero_perturbation(case[1].m)
                     for case in self.cases}

    def round(self, r: int) -> list[Op]:
        base = (self.seed * 100_003 + r) * 16
        return [Op(f"r{r}-{name}", (name, model, pert, base + 2 * k))
                for k, (name, model, pert) in enumerate(self.cases)]

    def run(self, op: Op):
        _, model, pert, mc_seed = op.payload
        sim_null = montecarlo.simulate_statistics(
            model, self.zero[model.m], self.N, self.TRIALS, mc_seed)
        sim_alt = montecarlo.simulate_statistics(
            model, pert, self.N, self.TRIALS, mc_seed + 1)
        points = montecarlo.empirical_power(sim_null, sim_alt, self.ALPHA_GRID)
        return sim_null, sim_alt, points

    def check(self, op: Op, result) -> list[str]:
        name, model, pert, _ = op.payload
        sim_null, sim_alt, points = result
        problems = checks.check_mc_mean(f"{name} null", sim_null.statistics,
                                        model.probs, np.zeros(model.m), self.N)
        problems += checks.check_mc_mean(f"{name} alt", sim_alt.statistics,
                                         model.probs, pert.entries, self.N)
        problems += checks.check_empirical_power(name, [p.power for p in points])
        return problems

    def details(self, ops: list[Op]) -> dict:
        busy = sum(op.seconds * op.scale for op in ops)
        trials = 2 * self.TRIALS * sum(op.outcome in ANSWERED for op in ops)
        return {"mc_trials_per_s": {"value": trials / busy, "unit": "1/s"}}


WORKLOADS = {
    "paper-examples": PaperExamples,
    "model-sweep": ModelSweep,
    "mc-crosscheck": McCrosscheck,
}
