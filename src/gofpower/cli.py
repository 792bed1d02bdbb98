"""Command-line interface.

Commands: spectrum | cdf | power | simulate | examples.  Shared flags
live on four parent parsers: case (--model, and --pert defaulting to
zero), quad (--abs-tol), grid (--grid-step, --grid-max; at most 10^6
points) and mc (--n, --trials, --seed).  Exit codes: 0 on success, 2 for
input/parse problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import stat
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .model import (
    builtin_examples,
    model_from_spec,
    perturbation_from_spec,
    zero_perturbation,
)
from .montecarlo import empirical_power, simulate_statistics
from .power import GRID_MAX, GRID_STEP, default_grid, power_curve
from .quadform import DEFAULT_CONFIG, QuadratureConfig, cdf_many
from .spectrum import compute_spectrum
from .svgplot import power_overlay_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_MC_ALPHA_GRID = np.arange(1, 200) / 200.0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gofpower",
        description="Asymptotic power of the Euclidean-distance goodness-of-fit test")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    case = argparse.ArgumentParser(add_help=False)
    case.add_argument("--model", required=True,
                      help="uniform:m | poisson:lambda[:tol] | file:path")
    case.add_argument("--pert", default="zero",
                      help="alternating:amp | zero | file:path")
    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--abs-tol", type=float, default=DEFAULT_CONFIG.abs_tol)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-step", type=float, default=GRID_STEP)
    grid.add_argument("--grid-max", type=float, default=GRID_MAX)
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--n", type=int, default=10 ** 6)
    mc.add_argument("--trials", type=int, default=40_000)
    mc.add_argument("--seed", type=int, default=1)

    sp = sub.add_parser("spectrum", parents=[case],
                        help="print the limit-law parameters as JSON")
    sp.add_argument("--out", help="write JSON here instead of stdout")
    sp.set_defaults(run=cmd_spectrum)

    sc = sub.add_parser("cdf", parents=[case, quad],
                        help="evaluate the limiting CDF at given points")
    sc.add_argument("--x", type=float, nargs="+", required=True)
    sc.set_defaults(run=cmd_cdf)

    pw = sub.add_parser("power", parents=[case, quad, grid],
                        help="write a power curve as CSV")
    pw.add_argument("--out", required=True, help="CSV output path")
    pw.add_argument("--svg", help="optional SVG plot path")
    pw.set_defaults(run=cmd_power)

    sim = sub.add_parser("simulate", parents=[case, mc],
                         help="Monte-Carlo statistics at finite n")
    sim.add_argument("--out", required=True, help="statistics dump path")
    sim.add_argument("--dump-format", choices=("csv", "npy"), default="csv")
    sim.set_defaults(run=cmd_simulate)

    ex = sub.add_parser("examples", parents=[quad, grid, mc],
                        help="reproduce the four built-in benchmark cases")
    ex.add_argument("--out-dir", default=".", help="output directory")
    ex.set_defaults(run=cmd_examples)
    # argparse takes -5 and -0.5 for numbers, not -1e-3; these parsers take all
    for parser in (p, *sub.choices.values()):
        parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return p


def _resolve_case(args):
    model = model_from_spec(args.model)
    pert = perturbation_from_spec(args.pert, model.m)
    return model, pert


def _check_counts(args) -> None:
    """Refuse a nonpositive --n or --trials before any example is computed."""
    for name in ("n", "trials"):
        if getattr(args, name) < 1:
            raise ValueError(f"{name} must be a positive integer")


@contextlib.contextmanager
def _outputs(*paths, binary=False):
    """Open a stand-in for each output path (None gives None) before any
    work, so that a path that cannot be written refuses at once.

    A regular file, or one not there yet, is written to a temporary file
    beside it, which replaces it only when the block succeeds: a failure
    leaves an earlier file as it was.  Any other existing path, such as
    /dev/null or a FIFO, is written in place and never removed.
    """
    mode, text = ("wb", {}) if binary else ("w", {"encoding": "utf-8", "newline": ""})
    staged = []   # (temporary file, the path it replaces)
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path in paths:
                if path is None:
                    handles.append(None)
                    continue
                try:
                    kept = os.stat(path)
                except FileNotFoundError:
                    kept = None
                if kept is not None and not stat.S_ISREG(kept.st_mode):
                    handles.append(stack.enter_context(open(path, mode, **text)))
                    continue
                target = os.path.realpath(path)
                fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.",
                                           dir=os.path.dirname(target))
                staged.append((tmp, target))
                handles.append(stack.enter_context(open(fd, mode, **text)))
                os.chmod(tmp, 0o666 & ~_umask() if kept is None
                         else stat.S_IMODE(kept.st_mode))
            yield handles
        for tmp, target in staged:
            os.replace(tmp, target)
    finally:
        for tmp, _ in staged:
            Path(tmp).unlink(missing_ok=True)


def _umask() -> int:
    """The process's file-mode mask, which os.umask reads only by setting it."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def cmd_spectrum(args) -> int:
    model, pert = _resolve_case(args)
    with _outputs(args.out) as (fh,):
        print(compute_spectrum(model, pert).to_json(indent=2), file=fh or sys.stdout)
    return EXIT_OK


def cmd_cdf(args) -> int:
    model, pert = _resolve_case(args)
    spec = compute_spectrum(model, pert)
    cfg = QuadratureConfig(args.abs_tol)
    for x, ev in zip(args.x, cdf_many(args.x, spec, cfg)):
        flag = "" if ev.converged else " converged=False"
        print(f"x={x:.12g} cdf={ev.value:.12g} err={ev.abs_error_estimate:.3e} "
              f"nodes={ev.nodes_used} method={ev.method}{flag}")
    return EXIT_OK


def cmd_power(args) -> int:
    model, pert = _resolve_case(args)
    grid = default_grid(args.grid_step, args.grid_max)
    with _outputs(args.out, args.svg) as (out, svg):
        curve = power_curve(model, pert, grid, QuadratureConfig(args.abs_tol))
        curve.write_csv(out)
        if svg:
            power_overlay_svg(svg, curve.alpha, curve.power)
    print(f"wrote {args.out}: {curve.x.size} points, "
          f"q0={curve.meta.max_nodes_null} qa={curve.meta.max_nodes_alt} "
          f"cdf_points={curve.meta.cdf_points} error_bound={curve.meta.error_bound:.3g}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model, pert = _resolve_case(args)
    npy = args.dump_format == "npy"
    # the name np.save gives a path: .npy appended unless it is there
    path = args.out + ".npy" if npy and not args.out.endswith(".npy") else args.out
    with _outputs(path, binary=npy) as (fh,):
        sim = simulate_statistics(model, pert, args.n, args.trials, args.seed)
        if npy:
            np.save(fh, sim.statistics)
        else:
            fh.write("statistic\n")
            for v in sim.statistics.tolist():
                fh.write(f"{v:.17g}\n")
    print(f"wrote {path}: {sim.trials} trials at n={sim.n}, seed={sim.seed}")
    return EXIT_OK


def cmd_examples(args) -> int:
    _check_counts(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = QuadratureConfig(args.abs_tol)
    grid = default_grid(args.grid_step, args.grid_max)
    examples = builtin_examples()
    null_sims = {}   # examples of one model share its null simulation
    paths = [out_dir / f"{name}{suffix}" for name, _, _ in examples
             for suffix in ("_curve.csv", "_mc.csv", ".svg")]
    with _outputs(out_dir / "costs.csv", *paths) as (costs, *files):
        costs.write("example,m,q0,qa,t\n")
        for k, (name, model, pert) in enumerate(examples):
            curve_fh, mc_fh, svg_fh = files[3 * k:3 * k + 3]
            curve = power_curve(model, pert, grid, cfg)
            curve.write_csv(curve_fh)

            if model not in null_sims:
                null_sims[model] = simulate_statistics(
                    model, zero_perturbation(model.m), args.n, args.trials, args.seed)
            sim_null = null_sims[model]
            sim_alt = simulate_statistics(model, pert, args.n, args.trials, args.seed + 1)
            points = empirical_power(sim_null, sim_alt, _MC_ALPHA_GRID)
            mc_fh.write("alpha,power,std_error\n")
            for pt in points:
                mc_fh.write(f"{pt.alpha:.17g},{pt.power:.17g},{pt.std_error:.17g}\n")

            power_overlay_svg(
                svg_fh, curve.alpha, curve.power,
                [pt.alpha for pt in points], [pt.power for pt in points], title=name)

            costs.write(f"{name},{model.m},{curve.meta.max_nodes_null},"
                        f"{curve.meta.max_nodes_alt},"
                        f"{curve.meta.seconds_per_point:.6g}\n")
            print(f"{name}: m={model.m} q0={curve.meta.max_nodes_null} "
                  f"qa={curve.meta.max_nodes_alt} "
                  f"t={curve.meta.seconds_per_point:.3g}s "
                  f"cdf_points={curve.meta.cdf_points} "
                  f"error_bound={curve.meta.error_bound:.3g} "
                  f"method={curve.meta.method_alt}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
