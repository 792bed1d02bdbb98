"""Spans around gofpower's public functions, and the per-layer metrics.

The tracer rebinds each traced function in every gofpower module that
holds it by name (``gofpower.quadform.cdf``, ``gofpower.power.cdf``,
``gofpower.cli.cdf``, ``gofpower.cdf`` ...), so calls between modules are
seen without any change to the program.  Spans stay in memory; counts are
read from return values at the same boundaries.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from workloads import M_BUCKETS, m_bucket


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at the top
    ctx: str             # the example, model or case the span serves
    start: float
    end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _cdf_info(args, kwargs, ev):
    return {"nodes": ev.nodes_used, "method": ev.method.value,
            "converged": ev.converged}


def _model_info(args, kwargs, result):
    return {"m": args[0].m}


def _sim_info(args, kwargs, sim):
    return {"m": args[0].m, "trials": sim.trials}


def _curve_info(args, kwargs, curve):
    return {"points": int(curve.x.size)}


# (module, attribute, span name, reader of the return value)
TARGETS = (
    ("gofpower.spectrum", "compute_spectrum", "spectrum.compute_spectrum", _model_info),
    ("gofpower.spectrum", "eigendecompose", "spectrum.eigendecompose", None),
    ("gofpower.quadform", "cdf", "quadform.cdf", _cdf_info),
    ("gofpower.quadform", "adaptive_integrate", "quadform.adaptive_integrate", None),
    ("gofpower.power", "power_curve", "power.power_curve", _curve_info),
    ("gofpower.power", "asymptotic_power", "power.asymptotic_power", None),
    ("gofpower.power", "pvalue", "power.pvalue", None),
    ("gofpower.power", "PowerCurve.write_csv", "power.write_csv", None),
    ("gofpower.montecarlo", "simulate_statistics", "montecarlo.simulate_statistics", _sim_info),
    ("gofpower.montecarlo", "empirical_power", "montecarlo.empirical_power", None),
    ("gofpower.svgplot", "power_overlay_svg", "svgplot.power_overlay_svg", None),
    ("gofpower.cli", "main", "cli.main", None),
)


class Tracer:
    """Records a span per traced call while installed (a context manager)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ctx = ""
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, reader):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            ctx = spans[parent].ctx if stack else self.ctx
            if stack and spans[parent].name == "cli.main":
                # `examples` handles the built-in cases in turn, each starting
                # with its power curve; label the calls by the case they serve
                info = spans[parent].info
                if name == "power.power_curve":
                    info["examples"] = info.get("examples", 0) + 1
                if "examples" in info:
                    ctx = f"{ctx}/example{info['examples']}"
            span = Span(name, parent, ctx, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if reader is not None:
                span.info.update(reader(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [mod for mod_name, mod in list(sys.modules.items())
                   if mod_name == "gofpower" or mod_name.startswith("gofpower.")]
        for mod_name, attr, name, reader in TARGETS:
            owner = sys.modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self._wrap(name, original, reader)
            holders = [owner] if path else [
                mod for mod in modules if getattr(mod, leaf, None) is original]
            for holder in holders:
                self._undo.append((holder, leaf, original))
                setattr(holder, leaf, wrapped)
        return self

    def __exit__(self, *exc):
        for holder, leaf, original in reversed(self._undo):
            setattr(holder, leaf, original)
        self._undo.clear()
        return False

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "ctx": s.ctx, "start": s.start - t0,
                                     "end": s.end - t0, **s.info}) + "\n")


def _median_ms(spans) -> float:
    return float(np.median([s.seconds for s in spans])) * 1e3 if spans else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Every per-layer metric from one traced slice.

    A layer the workload does not exercise reports 0 for each of its
    metrics.  Self time is a span's duration minus its direct children's,
    which cannot overlap because the benchmark runs no worker threads.
    """
    by_name: dict[str, list[int]] = {}
    child_s = [0.0] * len(spans)
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
        if s.parent >= 0:
            child_s[s.parent] += s.seconds

    def sel(name):
        return [spans[i] for i in by_name.get(name, [])]

    def total(name):
        return float(sum(s.seconds for s in sel(name)))

    def self_total(name):
        return float(sum(spans[i].seconds - child_s[i] for i in by_name.get(name, [])))

    def parent_name(s):
        return spans[s.parent].name if s.parent >= 0 else ""

    out = {}
    spec = sel("spectrum.compute_spectrum")
    out["spectrum.compute_spectrum.calls"] = (len(spec), "count")
    out["spectrum.compute_spectrum.s"] = (total("spectrum.compute_spectrum"), "s")
    out["spectrum.eigendecompose.s"] = (total("spectrum.eigendecompose"), "s")
    for bucket, _, _ in M_BUCKETS:
        out[f"spectrum.compute_spectrum.ms_p50.{bucket}"] = (_median_ms(
            [s for s in spec if "m" in s.info and m_bucket(s.info["m"]) == bucket]), "ms")

    cdfs = sel("quadform.cdf")
    nodes = np.array([s.info["nodes"] for s in cdfs if "nodes" in s.info], dtype=float)
    cdf_s = total("quadform.cdf")
    out["quadform.cdf.calls"] = (len(cdfs), "count")
    out["quadform.cdf.s"] = (cdf_s, "s")
    out["quadform.cdf.self_s"] = (self_total("quadform.cdf"), "s")
    out["quadform.cdf.nodes"] = (float(nodes.sum()), "count")
    out["quadform.cdf.nodes_per_call.p50"] = (
        float(np.median(nodes)) if nodes.size else 0.0, "count")
    out["quadform.cdf.nodes_per_call.max"] = (float(nodes.max(initial=0.0)), "count")
    out["quadform.cdf.us_per_node"] = (
        cdf_s / nodes.sum() * 1e6 if nodes.sum() else 0.0, "us")
    for method, label in (("ShiftedContour", "shifted"), ("Imhof", "imhof")):
        out[f"quadform.cdf.calls.{label}"] = (
            sum(s.info.get("method") == method for s in cdfs), "count")
    out["quadform.cdf.unconverged"] = (
        sum(s.info.get("converged") is False for s in cdfs), "count")

    curves = sel("power.power_curve")
    out["power.power_curve.s"] = (total("power.power_curve"), "s")
    out["power.power_curve.self_s"] = (self_total("power.power_curve"), "s")
    out["power.power_curve.points"] = (
        sum(s.info.get("points", 0) for s in curves), "count")
    ap = sel("power.asymptotic_power")
    ap_cdf = sum(parent_name(s) == "power.asymptotic_power" for s in cdfs)
    out["power.asymptotic_power.calls"] = (len(ap), "count")
    out["power.asymptotic_power.ms_p50"] = (_median_ms(ap), "ms")
    out["power.asymptotic_power.cdf_calls_per_call"] = (
        ap_cdf / len(ap) if ap else 0.0, "count")
    pv = sel("power.pvalue")
    out["power.pvalue.calls"] = (len(pv), "count")
    out["power.pvalue.ms_p50"] = (_median_ms(pv), "ms")

    sims = sel("montecarlo.simulate_statistics")
    out["montecarlo.simulate_statistics.s"] = (total("montecarlo.simulate_statistics"), "s")
    out["montecarlo.trials"] = (sum(s.info.get("trials", 0) for s in sims), "count")
    for bucket, _, _ in M_BUCKETS:
        group = [s for s in sims if "m" in s.info and m_bucket(s.info["m"]) == bucket]
        trials = sum(s.info["trials"] for s in group)
        out[f"montecarlo.us_per_trial.{bucket}"] = (
            sum(s.seconds for s in group) / trials * 1e6 if trials else 0.0, "us")
    out["montecarlo.empirical_power.s"] = (total("montecarlo.empirical_power"), "s")

    # cli: work done directly under main, outside the power_curve it drives
    under_main = [s for s in spans if parent_name(s) == "cli.main"]
    examples = sum(s.name == "power.power_curve" for s in under_main)
    out["cli.main.s"] = (total("cli.main"), "s")
    out["cli.self_s"] = (self_total("cli.main"), "s")
    for key, name in (("cli.extra_spectrum_calls", "spectrum.compute_spectrum"),
                      ("cli.extra_cdf_calls", "quadform.cdf")):
        extra = sum(s.name == name for s in under_main)
        out[key] = (extra / examples if examples else 0.0, "1/example")
    out["svgplot.power_overlay_svg.s"] = (total("svgplot.power_overlay_svg"), "s")
    out["power.write_csv.s"] = (total("power.write_csv"), "s")
    return out
