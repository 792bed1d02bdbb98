"""Command-line interface.

Commands: spectrum | cdf | power | simulate | examples.  Shared flags
live on four parent parsers: case (--model, and --pert defaulting to
zero), quad (--abs-tol), grid (--grid-step, --grid-max; at most 10^6
points) and mc (--n, --trials, --seed).  Exit codes: 0 on success, 2 for
input/parse problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import re
import sys
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


def cmd_spectrum(args) -> int:
    model, pert = _resolve_case(args)
    spec = compute_spectrum(model, pert)
    text = spec.to_json(indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
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
    curve = power_curve(model, pert, grid, QuadratureConfig(args.abs_tol))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        curve.write_csv(fh)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            power_overlay_svg(fh, curve.alpha, curve.power)
    print(f"wrote {args.out}: {curve.x.size} points, "
          f"q0={curve.meta.max_nodes_null} qa={curve.meta.max_nodes_alt} "
          f"cdf_points={curve.meta.cdf_points} error_bound={curve.meta.error_bound:.3g}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model, pert = _resolve_case(args)
    sim = simulate_statistics(model, pert, args.n, args.trials, args.seed)
    if args.dump_format == "npy":
        np.save(args.out, sim.statistics)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("statistic\n")
            for v in sim.statistics.tolist():
                fh.write(f"{v:.17g}\n")
    print(f"wrote {args.out}: {sim.trials} trials at n={sim.n}, seed={sim.seed}")
    return EXIT_OK


def cmd_examples(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = QuadratureConfig(args.abs_tol)
    grid = default_grid(args.grid_step, args.grid_max)
    costs_path = out_dir / "costs.csv"
    written: list[Path] = [costs_path]
    try:
        with open(costs_path, "w", encoding="utf-8", newline="") as costs:
            costs.write("example,m,q0,qa,t\n")
            for name, model, pert in builtin_examples():
                curve = power_curve(model, pert, grid, cfg)
                curve_path = out_dir / f"{name}_curve.csv"
                written.append(curve_path)
                with open(curve_path, "w", encoding="utf-8", newline="") as fh:
                    curve.write_csv(fh)

                sim_null = simulate_statistics(
                    model, zero_perturbation(model.m), args.n, args.trials,
                    args.seed)
                sim_alt = simulate_statistics(
                    model, pert, args.n, args.trials, args.seed + 1)
                points = empirical_power(sim_null, sim_alt, _MC_ALPHA_GRID)
                mc_path = out_dir / f"{name}_mc.csv"
                written.append(mc_path)
                with open(mc_path, "w", encoding="utf-8", newline="") as fh:
                    fh.write("alpha,power,std_error\n")
                    for pt in points:
                        fh.write(f"{pt.alpha:.17g},{pt.power:.17g},{pt.std_error:.17g}\n")

                svg_path = out_dir / f"{name}.svg"
                written.append(svg_path)
                with open(svg_path, "w", encoding="utf-8") as fh:
                    power_overlay_svg(
                        fh, curve.alpha, curve.power,
                        [pt.alpha for pt in points], [pt.power for pt in points],
                        title=name)

                costs.write(f"{name},{model.m},{curve.meta.max_nodes_null},"
                            f"{curve.meta.max_nodes_alt},"
                            f"{curve.meta.seconds_per_point:.6g}\n")
                print(f"{name}: m={model.m} q0={curve.meta.max_nodes_null} "
                      f"qa={curve.meta.max_nodes_alt} "
                      f"t={curve.meta.seconds_per_point:.3g}s "
                      f"cdf_points={curve.meta.cdf_points} "
                      f"error_bound={curve.meta.error_bound:.3g} "
                      f"method={curve.meta.method_alt}")
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
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
