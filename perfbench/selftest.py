"""Tests of the benchmark itself (not of gofpower).

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default test collection;
the whole file takes about half a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import gofpower  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _model(m=12, seed=3):
    rng = np.random.default_rng(seed)
    p0 = rng.uniform(1.0, 20.0, m)
    p0 /= p0.sum()
    a = rng.standard_normal(m)
    a -= a.mean()
    return gofpower.ProbabilityModel(p0), gofpower.Perturbation(a)


def test_sigma_check_passes_and_catches_corruption():
    model, pert = _model()
    spec = gofpower.compute_spectrum(model, pert)
    p0, a = model.probs, pert.entries
    assert checks.check_sigma(p0, spec.sigma) == []
    assert checks.check_identities(p0, a, spec.sigma, spec.zeta) == []
    sigma = spec.sigma.copy()
    sigma[0] *= 1.0 + 1e-7
    assert checks.check_sigma(p0, sigma)
    assert checks.check_identities(p0, a, sigma, spec.zeta)
    zeta = spec.zeta.copy()
    zeta[-1] *= 1.001
    assert checks.check_identities(p0, a, spec.sigma, zeta)


def test_uniform_null_check_passes_and_catches_corruption():
    m = 10
    spec = gofpower.compute_spectrum(gofpower.uniform_model(m),
                                     gofpower.zero_perturbation(m))
    xs = [0.3, 0.9, 1.7, 3.0]
    f0 = [gofpower.cdf(x, spec).value for x in xs]
    assert checks.check_uniform_null(m, xs, f0) == []
    f0[2] += 1e-6
    assert checks.check_uniform_null(m, xs, f0)


def test_regularized_gamma_against_closed_forms():
    # P(1, x) = 1 - e^-x and chi2_2 has CDF 1 - e^(-x/2), on both branches
    for x in (0.1, 1.5, 2.5, 30.0):
        assert checks.regularized_gamma_p(1.0, x) == pytest.approx(-np.expm1(-x), rel=1e-13)
    # P(1/2, x) = erf(sqrt(x))
    from math import erf, sqrt
    for x in (0.2, 1.0, 4.0, 20.0):
        assert checks.regularized_gamma_p(0.5, x) == pytest.approx(erf(sqrt(x)), abs=1e-14)


def test_curve_and_mc_checks_catch_corruption():
    x = np.linspace(0.1, 5.0, 50)
    f0 = 1.0 - np.exp(-x)
    fa = 1.0 - np.exp(-x / 2.0)
    assert checks.check_curve("c", f0, fa) == []
    bumped = f0.copy()
    bumped[10] = bumped[9] - 1e-6   # a dip: no longer non-decreasing
    assert checks.check_curve("c", bumped, fa)
    assert checks.check_curve("c", f0, np.minimum(1.0, fa + 0.5))
    rng = np.random.default_rng(0)
    p0 = np.full(4, 0.25)
    a = np.zeros(4)
    want = checks.expected_statistic(p0, a, 10 ** 6)
    stats = rng.normal(want, 1.0, 4000)
    assert checks.check_mc_mean("mc", stats, p0, a, 10 ** 6) == []
    assert checks.check_mc_mean("mc", stats + 0.5, p0, a, 10 ** 6)


def test_metric_names_and_benchmark_file():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCH["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    layer = [m["name"] for m in BENCH["per_layer"]]
    emitted = list(tracing.layer_metrics([])) + ["trace.overhead_frac"]
    assert layer == emitted
    for name in names + e2e + layer:
        assert NAME.fullmatch(name), name
    assert len(set(names + e2e + layer)) == len(names + e2e + layer)


@pytest.fixture
def small_slices(monkeypatch):
    """Shrink every workload's trace slice so the traced runs stay short."""
    monkeypatch.setattr(workloads.PaperExamples, "GRID_STEP", 0.05)
    monkeypatch.setattr(workloads.ModelSweep, "ROUND", (
        (1, 5, 30, ("uniform", "tied", "distinct")), (1, 31, 40, ("distinct",)),
        (1, 151, 155, ("distinct",))))
    monkeypatch.setattr(workloads.McCrosscheck, "TRACE_ROUNDS", 1)


# metrics that must be positive on each workload: the layers it exercises
APPLIES = {
    "paper-examples": ("spectrum.compute_spectrum.calls", "spectrum.compute_spectrum.s",
                       "spectrum.compute_spectrum.ms_p50.small",
                       "spectrum.compute_spectrum.ms_p50.mid", "spectrum.eigendecompose.s",
                       "quadform.cdf.calls", "quadform.cdf.s", "quadform.cdf.nodes",
                       "power.power_curve.", "montecarlo.simulate_statistics.s",
                       "montecarlo.trials", "montecarlo.us_per_trial.small",
                       "montecarlo.us_per_trial.mid", "montecarlo.empirical_power.s",
                       "cli.main.s", "cli.self_s", "svgplot.", "power.write_csv.s"),
    "model-sweep": ("spectrum.compute_spectrum.", "spectrum.eigendecompose.s",
                    "quadform.cdf.calls", "quadform.cdf.s", "quadform.cdf.nodes",
                    "quadform.cdf.calls.", "power.asymptotic_power.", "power.pvalue."),
    "mc-crosscheck": ("montecarlo.",),
}
# layers a workload must not touch
ABSENT = {
    "paper-examples": ("power.asymptotic_power.", "power.pvalue."),
    "model-sweep": ("montecarlo.", "cli.", "svgplot.", "power.power_curve.",
                    "power.write_csv."),
    "mc-crosscheck": ("spectrum.", "quadform.", "power.", "cli.", "svgplot."),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric(name, small_slices, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = workloads.WORKLOADS[name](5, tmp_path)
    report = {}
    ops, metrics = run.traced_run(wl, Namespace(workload=name, seed=5), report)
    assert [m["name"] for m in BENCH["per_layer"]] == list(metrics)
    assert all(op.outcome != "failed" for op in ops), [op.problems for op in ops]
    for key, (value, unit) in metrics.items():
        assert np.isfinite(value), key
        if key.startswith(APPLIES[name]):
            assert value > 0, (name, key)
        if key.startswith(ABSENT[name]):
            assert value == 0, (name, key)
    spans = [json.loads(line) for line in
             (tmp_path / f"trace-{name}-seed5.jsonl").read_text().splitlines()]
    assert len(spans) == report["spans"] > 0
    assert all(s["ctx"] and s["end"] >= s["start"] for s in spans)
    if name == "paper-examples":
        # every call under `examples` is labelled with the case it serves
        assert {s["ctx"].rsplit("/", 1)[-1] for s in spans if s["parent"] >= 0} \
            == {f"example{k}" for k in range(1, 5)}


def test_refuses_without_program_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            BENCH["command"] + ["--workload", "model-sweep", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
