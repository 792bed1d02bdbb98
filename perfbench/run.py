#!/usr/bin/env python3
"""gofpower benchmark: one workload, one process, no worker threads.

    python3 perfbench/run.py --workload model-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up time is measured in separate interpreters, one at a time, while the
measurement waits.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced slice with
``--trace 1``.  The line before it is a report: the environment, the
workload's own named figures, shares and any failures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
# the reference kernel's time on a quiet 2-core Xeon VM, to which all
# reported times are scaled
REF_NOMINAL_S = 0.009
REF_LOOPS = 60
REF_PERIOD_S = 0.25
# a single kernel time is itself noisy: average the samples this close to an
# operation, which still follows drifts that last a few seconds
REF_WINDOW_S = 1.0
# BLAS stays single-threaded so the benchmark's own eigvalsh checks cannot
# oversubscribe the cores; set before numpy is first imported
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# order of the end-to-end metrics, as in BENCHMARK.json
END_TO_END = ("setup_s", "peak_rss_mb", "op_ms.p50", "op_ms.p90", "ops_per_s")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper-examples", "model-sweep", "mc-crosscheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int, scratch: Path) -> float:
    """One set-up in a fresh interpreter: import gofpower and build inputs."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         str(ROOT), str(scratch)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(wl, op):
    """Time one operation and classify its outcome.

    ok: answered, and the answer passed every check.  warned: answered and
    passed the checks, but the program warned about its own result (an
    unconverged integral is reported only this way without tracing).
    rejected: a precise refusal the workload expects, such as
    DegenerateModelError on a model built degenerate.  failed: an answer
    that failed a check, or any other exception.
    """
    op = replace(op, problems=[], info={})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        op.start = t0 = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # every failure is counted, none stops the run
            op.seconds = time.perf_counter() - t0
            op.problems = [f"{type(exc).__name__}: {exc}"]
            op.outcome = "rejected" if wl.rejected(op, exc) else "failed"
            return op
        op.seconds = time.perf_counter() - t0
    op.problems = wl.check(op, result)
    warned = [f"{w.category.__name__}: {w.message}" for w in caught
              if issubclass(w.category, RuntimeWarning)]
    op.outcome = "failed" if op.problems else "warned" if warned else "ok"
    op.problems += warned
    return op


def reference_seconds() -> float:
    """Time a fixed piece of numpy work of the kind gofpower does."""
    import numpy as np

    y = np.linspace(0.05, 40.0, 21 * 12)[:, None]
    s2 = np.linspace(0.01, 1.0, 16)
    t0 = time.perf_counter()
    for k in range(REF_LOOPS):
        w = 1.0 - 2.0j * y * (s2 * (1.0 + 1e-3 * k))
        float(np.exp(-0.5 * np.log(w).sum(axis=1)).imag.sum())
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the reference kernel every REF_PERIOD_S while running.

    The machine is shared, and its speed drifts by tens of percent over
    seconds to minutes.  A SIGALRM handler, which runs in the main thread
    between bytecodes, samples the kernel during the operations themselves,
    so even a ten-second operation is scaled by the speed it actually met.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, kernel seconds)

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append((start, reference_seconds()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def paused(self, fn):
        """(start, fn()) with sampling paused while fn runs, so the kernel
        never competes with it, and one sample just before and after."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.sample()
        start = time.perf_counter()
        result = fn()
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return start, result

    def busy(self, t0: float, t1: float) -> float:
        """Seconds spent sampling inside [t0, t1]."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the mean kernel time of the samples taken
        within REF_WINDOW_S of [t0, t1]."""
        near = [d for s, d in self.samples
                if t0 - REF_WINDOW_S <= s < t1 + REF_WINDOW_S]
        return REF_NOMINAL_S * len(near) / sum(near)


def measure(wl, seconds: float, probe) -> tuple[list, int, list]:
    """Whole rounds until `seconds` have passed, and at least MIN_ROUNDS.

    Returns the operations, the number of rounds and the set-up samples as
    (wall, scaled) pairs.  Every operation is scaled to the reference speed
    by a SpeedSampler.  The SETUP_SAMPLES set-up probes are spread over the
    run, between operations.
    """
    sampler = SpeedSampler()
    ops, probes = [], []
    with sampler:
        probes.append(sampler.paused(probe))
        t0 = time.perf_counter()
        rounds = 0
        while rounds < wl.MIN_ROUNDS or time.perf_counter() - t0 < seconds:
            for op in wl.round(rounds):
                ops.append(run_op(wl, op))
                if (len(probes) < SETUP_SAMPLES and time.perf_counter() - t0
                        >= len(probes) * seconds / (SETUP_SAMPLES - 1)):
                    probes.append(sampler.paused(probe))
            rounds += 1
        while len(probes) < SETUP_SAMPLES:
            probes.append(sampler.paused(probe))
        sampler.sample()
    for op in ops:
        end = op.start + op.seconds
        op.seconds -= sampler.busy(op.start, end)
        op.scale = sampler.scale(op.start, end)
    setup = [(raw, raw * sampler.scale(start, start)) for start, raw in probes]
    return ops, rounds, setup


def timings(ops, setup_times, scaled: bool) -> dict:
    """The end-to-end metrics, from scaled or from plain wall times."""
    from workloads import ANSWERED, percentile

    times = [op.seconds * (op.scale if scaled else 1.0) for op in ops]
    ok = [t * 1e3 for t, op in zip(times, ops) if op.outcome in ANSWERED]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "op_ms.p50": (percentile(ok, 50), "ms"),
        "op_ms.p90": (percentile(ok, 90), "ms"),
        "ops_per_s": (len(ops) / sum(times), "1/s"),
    }
    return {name: values[name] for name in END_TO_END}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    import gofpower

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gofpower": gofpower.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_sha": git_sha(),
    }


def summary(ops) -> dict:
    """Outcome counts.  `failed` counts wrong answers and unexpected errors;
    failed_frac counts every operation that was not a clean answer."""
    outcomes = Counter(op.outcome for op in ops)
    return {
        "attempted": len(ops),
        "failed": outcomes["failed"],
        "outcomes": dict(outcomes),
        "failed_frac": 1.0 - outcomes["ok"] / len(ops),
        "problems": [f"{op.ident} ({op.outcome}): {p}" for op in ops
                     if op.outcome != "ok" for p in op.problems][:12],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gofpower" / "__init__.py").is_file():
        print(f"perfbench: no gofpower sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    import workloads  # imports numpy and gofpower
    import gofpower
    if Path(gofpower.__file__).resolve().parent != (src / "gofpower").resolve():
        print(f"perfbench: gofpower imported from {gofpower.__file__}", file=sys.stderr)
        return 2

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "why": wl.why, "op": wl.unit, "environment": environment()}
        if args.trace:
            ops, metrics = traced_run(wl, args, report)
        else:
            ops, rounds, setup = measure(
                wl, args.seconds,
                lambda: setup_probe(args.workload, args.seed, scratch))
            metrics = timings(ops, [scaled for _, scaled in setup], scaled=True)
            wall = timings(ops, [raw for raw, _ in setup], scaled=False)
            report.update(rounds=rounds, setup_samples=[raw for raw, _ in setup],
                          wall={k: v[0] for k, v in wall.items()},
                          reference_s=statistics.median(REF_NOMINAL_S / op.scale for op in ops),
                          op_samples=sum(op.outcome in workloads.ANSWERED for op in ops),
                          **wl.details(ops))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    counts = summary(ops)
    report.update(counts)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(wl, args, report):
    """The trace slice untraced, then again under the tracer."""
    import tracing

    rounds = range(wl.TRACE_ROUNDS)
    refs = [reference_seconds()]
    plain = [run_op(wl, op) for r in rounds for op in wl.round(r)]
    refs.append(reference_seconds())
    tracer = tracing.Tracer()
    traced = []
    with tracer:
        for r in rounds:
            for op in wl.round(r):
                tracer.ctx = op.ident
                traced.append(run_op(wl, op))
    refs.append(reference_seconds())
    plain_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    # the slice is timed in plain wall time; the kernel times before, between
    # and after the two passes show how loaded the machine was
    report.update(trace_rounds=len(rounds), untraced_s=plain_s, traced_s=traced_s,
                  reference_s=refs,
                  spans=len(tracer.spans), spans_file=os.path.relpath(spans_path, ROOT))
    return plain + traced, metrics


if __name__ == "__main__":
    sys.exit(main())
