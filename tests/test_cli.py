"""Command-line interface: commands, outputs, exit codes."""

import csv
import json
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from oracles import chi2_cdf, noncentral_chi2_cdf

from gofpower import cli
from gofpower.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from gofpower.model import builtin_examples
from gofpower.power import default_grid, power_curve
from gofpower.quadform import DEFAULT_CONFIG
from gofpower.svgplot import power_overlay_svg

CHI9_95_OVER_10 = 1.691898


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "uniform:10")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["stability_rhs"] == 1.0
        assert len(data["sigma2"]) == 9
        assert data["sigma2"][0] == pytest.approx(0.1, rel=1e-12)

    def test_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "spec.json"
        code, _, _ = run(capsys, "spectrum", "--model", "uniform:10",
                         "--pert", "alternating:0.2", "--out", str(out_path))
        assert code == EXIT_OK
        data = json.loads(out_path.read_text())
        assert data["stability_rhs"] == pytest.approx(8.233, rel=5e-4)


QUAD_COMMANDS = {
    "cdf": ["cdf", "--model", "uniform:3", "--x", "1"],
    "power": ["power", "--model", "uniform:4", "--out", "c.csv"],
    "examples": ["examples"],
}


# each command's minimal argv and every dest it parses to, with its default
SURFACE = {
    "spectrum": (["spectrum", "--model", "uniform:4"],
                 {"model": "uniform:4", "pert": "zero", "out": None}),
    "cdf": (["cdf", "--model", "uniform:4", "--x", "1"],
            {"model": "uniform:4", "pert": "zero", "abs_tol": 1e-9, "x": [1.0]}),
    "power": (["power", "--model", "uniform:4", "--out", "c.csv"],
              {"model": "uniform:4", "pert": "zero", "abs_tol": 1e-9,
               "grid_step": 0.0005, "grid_max": 5.0, "out": "c.csv", "svg": None}),
    "simulate": (["simulate", "--model", "uniform:4", "--out", "s.csv"],
                 {"model": "uniform:4", "pert": "zero", "n": 1_000_000,
                  "trials": 40_000, "seed": 1, "out": "s.csv", "dump_format": "csv"}),
    "examples": (["examples"],
                 {"abs_tol": 1e-9, "grid_step": 0.0005, "grid_max": 5.0,
                  "n": 1_000_000, "trials": 40_000, "seed": 1, "out_dir": "."}),
}


class TestCommandLineSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_options_and_defaults(self, command):
        argv, want = SURFACE[command]
        parsed = vars(cli.build_parser().parse_args(argv))
        assert parsed.pop("command") == command
        assert parsed.pop("run") is getattr(cli, f"cmd_{command}")
        assert parsed == want

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_minimal_flags_are_required(self, command):
        argv, _ = SURFACE[command]
        for i in range(1, len(argv), 2):
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv[:i] + argv[i + 2:])
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["--version"], *([c, "--help"] for c in sorted(SURFACE))],
                             ids=["version", *sorted(SURFACE)])
    def test_version_and_help_exit_0(self, capsys, argv):
        # a help text with a bare % or two parents declaring one option
        # string would raise here instead
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestQuadratureFlags:
    @pytest.mark.parametrize("command", sorted(QUAD_COMMANDS))
    def test_abs_tol_reaches_the_config(self, command):
        args = cli.build_parser().parse_args([*QUAD_COMMANDS[command], "--abs-tol", "1e-6"])
        assert args.abs_tol == 1e-6

    @pytest.mark.parametrize("value", ["0", "-1e-9", "nan", "inf"])
    def test_bad_abs_tol_exits_2(self, capsys, value):
        # a NaN tolerance would cut the shifted window at 1.5, and an
        # infinite one would accept any error estimate as converged
        code, _, err = run(capsys, "cdf", "--model", "uniform:10", "--x", "1",
                           f"--abs-tol={value}")
        assert code == EXIT_INPUT
        assert "abs_tol must be finite and positive" in err

    def test_negative_abs_tol_in_scientific_notation_as_its_own_argument(self, capsys):
        # argparse alone takes only -5 or -0.5 for a number, not -1e-9
        code, _, err = run(capsys, "cdf", "--model", "uniform:10", "--x", "1",
                           "--abs-tol", "-1e-9")
        assert code == EXIT_INPUT
        assert "abs_tol must be finite and positive" in err

    @pytest.mark.parametrize("flag", ["--rel-tol", "--stability-threshold",
                                      "--max-subdivisions"])
    @pytest.mark.parametrize("command", sorted(QUAD_COMMANDS))
    def test_dropped_flags_exit_2(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*QUAD_COMMANDS[command], flag, "1"])
        assert exc.value.code == 2


class TestCdfCommand:
    def test_quadrature_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["cdf", "--model", "uniform:3", "--x", "1"])
        assert args.abs_tol == DEFAULT_CONFIG.abs_tol

    def test_chi_square_value(self, capsys):
        code, out, _ = run(capsys, "cdf", "--model", "uniform:10",
                           "--x", str(CHI9_95_OVER_10))
        assert code == EXIT_OK
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["cdf"]) == pytest.approx(0.95, abs=1e-6)
        assert int(fields["nodes"]) >= 21
        assert fields["method"] == "ShiftedContour"

    def test_nonpositive_x_is_exactly_zero(self, capsys):
        code, out, _ = run(capsys, "cdf", "--model", "uniform:10", "--x=-1")
        assert code == EXIT_OK
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["cdf"]) == 0.0
        assert fields["nodes"] == "0"

    def test_negative_x_in_scientific_notation(self, capsys):
        code, out, _ = run(capsys, "cdf", "--model", "uniform:3", "--x", "1", "-1e-3")
        assert code == EXIT_OK
        lines = [dict(kv.split("=") for kv in line.split()) for line in out.splitlines()]
        assert [float(f["x"]) for f in lines] == [1.0, -1e-3]
        assert float(lines[0]["cdf"]) == pytest.approx(chi2_cdf(2, 3.0), abs=1e-6)
        assert (float(lines[1]["cdf"]), lines[1]["nodes"]) == (0.0, "0")

    def test_example4_routes_to_imhof(self, capsys, tmp_path):
        from gofpower.model import builtin_examples

        _, model, pert = builtin_examples()[3]
        case = tmp_path / "example4.json"
        case.write_text(json.dumps({"p0": model.probs.tolist(),
                                    "a": pert.entries.tolist()}))
        code, out, _ = run(capsys, "cdf", "--model", "poisson:3:1e-10",
                           "--pert", f"file:{case}", "--x", "1.0")
        assert code == EXIT_OK
        assert "method=Imhof" in out


class TestPowerCommand:
    def test_uniform_alternating_curve(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "power", "--model", "uniform:10",
                         "--pert", "alternating:0.2", "--grid-step", "0.1",
                         "--grid-max", "3.0", "--out", str(out_path))
        assert code == EXIT_OK
        rows = out_path.read_text().strip().split("\n")
        assert rows[0] == "x,F0,Fa,alpha,power"
        assert len(rows) == 31
        # x = 1.7 row sits within a grid step of the 5% critical point
        x, f0, fa, alpha, power = map(float, rows[17].split(","))
        assert x == pytest.approx(1.7)
        want = 1.0 - noncentral_chi2_cdf(9, 4.0, 17.0)
        assert power == pytest.approx(want, abs=1e-6)

    def test_summary_reports_interpolation(self, capsys, tmp_path):
        code, out, _ = run(capsys, "power", "--model", "uniform:10",
                           "--pert", "alternating:0.2", "--grid-step", "0.005",
                           "--out", str(tmp_path / "curve.csv"))
        assert code == EXIT_OK
        fields = dict(f.split("=") for f in out.split() if "=" in f)
        assert int(fields["cdf_points"]) < 2 * 1000
        assert 0.0 < float(fields["error_bound"]) <= 1e-8

    def test_zero_perturbation_diagonal(self, capsys, tmp_path):
        out_path = tmp_path / "diag.csv"
        code, _, _ = run(capsys, "power", "--model", "uniform:6",
                         "--pert", "zero", "--grid-step", "0.2",
                         "--grid-max", "2.0", "--out", str(out_path))
        assert code == EXIT_OK
        for line in out_path.read_text().strip().split("\n")[1:]:
            _, _, _, alpha, power = map(float, line.split(","))
            assert power == pytest.approx(alpha, abs=2e-9)

    def test_svg_written(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        svg_path = tmp_path / "c.svg"
        code, _, _ = run(capsys, "power", "--model", "uniform:4",
                         "--pert", "alternating:0.1", "--grid-step", "0.5",
                         "--grid-max", "2.0", "--out", str(out_path),
                         "--svg", str(svg_path))
        assert code == EXIT_OK
        text = svg_path.read_text()
        assert text.startswith("<svg") and "polyline" in text

    @pytest.mark.parametrize("title", ['p0 < 0.5 & a = e1', 'a "quoted" <b> & c'])
    def test_svg_title_is_escaped(self, tmp_path, title):
        path = tmp_path / "c.svg"
        with path.open("w") as fh:
            power_overlay_svg(fh, [0.0, 0.5, 1.0], [0.0, 0.7, 1.0], title=title)
        texts = ElementTree.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert title in [t.text for t in texts]

    @pytest.mark.parametrize("flags, text", [
        (["--grid-max", "inf"], "grid maximum must be finite and positive, got inf"),
        (["--grid-step", "nan"], "grid step must be finite and positive, got nan"),
        (["--grid-step", "10", "--grid-max", "5"], "grid step 10.0 exceeds the grid maximum 5.0"),
        (["--grid-step", "1e-12"], "gives 5e+12 points, more than 1,000,000"),
    ], ids=["inf-max", "nan-step", "step-above-max", "too-many-points"])
    def test_bad_grid_exits_2(self, capsys, tmp_path, flags, text):
        # a bad grid is an input error (exit 2) that names the value, not a
        # numerical error (exit 3) raised while the grid is counted
        out_path = tmp_path / "c.csv"
        code, _, err = run(capsys, "power", "--model", "uniform:4", "--pert", "zero",
                           *flags, "--out", str(out_path))
        assert code == EXIT_INPUT
        assert text in err
        assert not out_path.exists()

    def test_pert_defaults_to_zero(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        code, _, err = run(capsys, "power", "--model", "uniform:4", "--grid-step", "0.5",
                           "--out", str(out_path))
        assert code == EXIT_OK, err
        table = np.loadtxt(out_path, delimiter=",", skiprows=1)
        assert table.shape == (10, 5)
        assert np.array_equal(table[:, 3], table[:, 4])

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(capsys, "power", "--model", "poisson:3",
                             "--pert", "alternating:0.1", "--grid-step", "0.5",
                             "--grid-max", "2.0", "--out", str(p))
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSimulateCommand:
    def test_csv_dump(self, capsys, tmp_path):
        out_path = tmp_path / "stats.csv"
        code, out, _ = run(capsys, "simulate", "--model", "uniform:4",
                           "--n", "1000", "--trials", "64", "--seed", "9",
                           "--out", str(out_path))
        assert code == EXIT_OK
        rows = out_path.read_text().strip().split("\n")
        assert rows[0] == "statistic"
        assert len(rows) == 65
        assert all(float(v) >= 0 for v in rows[1:])

    def test_npy_dump_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.npy", tmp_path / "b.npy"
        for p in (a, b):
            code, _, _ = run(capsys, "simulate", "--model", "uniform:4",
                             "--n", "500", "--trials", "32", "--seed", "4",
                             "--out", str(p), "--dump-format", "npy")
            assert code == EXIT_OK
        assert np.array_equal(np.load(a), np.load(b))

    def test_invalid_alternative_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--model", "uniform:10",
                           "--pert", "alternating:0.2", "--n", "1",
                           "--trials", "8", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_INPUT
        assert "bins" in err

    def test_nonpositive_n_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--model", "uniform:4",
                           "--pert", "zero", "--n", "0",
                           "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_INPUT
        assert "n must be a positive integer" in err
        assert not (tmp_path / "x.csv").exists()

    def test_threads_flag_rejected(self, tmp_path):
        # trials run in one thread on per-trial streams; there is no thread count
        for command in ("simulate", "examples"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--model", "uniform:4", "--threads", "2",
                      "--out", str(tmp_path / "x.csv")])
            assert exc.value.code == 2


class TestExamplesCommand:
    def test_reduced_run_outputs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "examples", "--out-dir", str(tmp_path),
                           "--n", "1000000", "--trials", "400",
                           "--grid-step", "0.25", "--grid-max", "5.0",
                           "--seed", "2")
        assert code == EXIT_OK
        for k in (1, 2, 3, 4):
            assert (tmp_path / f"example{k}_curve.csv").exists()
            assert (tmp_path / f"example{k}_mc.csv").exists()
            assert (tmp_path / f"example{k}.svg").exists()
        assert b"\r" not in (tmp_path / "costs.csv").read_bytes()
        costs = (tmp_path / "costs.csv").read_text().strip().split("\n")
        assert costs[0] == "example,m,q0,qa,t"
        table = {row.split(",")[0]: row.split(",") for row in costs[1:]}
        assert [int(table[f"example{k}"][1]) for k in (1, 2, 3, 4)] == [10, 100, 20, 20]
        # q0 for example 1 within 4x of the reference cost of 230 nodes
        q0 = int(table["example1"][2])
        assert 230 / 4 <= q0 <= 230 * 4
        # the method is the one the alternative curve was evaluated with
        methods = {line.split(":")[0]: line.rsplit("method=", 1)[1]
                   for line in out.splitlines()}
        assert methods == {"example1": "ShiftedContour", "example2": "ShiftedContour",
                           "example3": "ShiftedContour", "example4": "Imhof"}

    def test_failure_removes_partial_outputs(self, capsys, tmp_path, monkeypatch):
        calls = []

        def boom(*args, **kwargs):
            calls.append(args)
            if len(calls) >= 2:
                raise ArithmeticError("synthetic failure")
            return original(*args, **kwargs)

        original = cli.power_curve
        monkeypatch.setattr(cli, "power_curve", boom)
        code, _, err = run(capsys, "examples", "--out-dir", str(tmp_path),
                           "--n", "100000", "--trials", "50",
                           "--grid-step", "1.0", "--grid-max", "3.0")
        assert code == EXIT_NUMERICAL
        assert "synthetic failure" in err
        assert list(tmp_path.iterdir()) == []


class TestRefusalsComeFirst:
    """Each refusal exits 2 before any computing and leaves no file."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("computed before refusing")

        for name in ("compute_spectrum", "power_curve", "simulate_statistics"):
            monkeypatch.setattr(cli, name, forbidden)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "uniform:4", "--out", "{missing}/s.json"],
        ["power", "--model", "uniform:4", "--out", "{missing}/c.csv"],
        ["power", "--model", "uniform:4", "--out", "{tmp}/c.csv", "--svg", "{missing}/c.svg"],
        ["simulate", "--model", "uniform:4", "--out", "{missing}/s.csv"],
        ["simulate", "--model", "uniform:4", "--out", "{missing}/s.npy",
         "--dump-format", "npy"],
        ["examples", "--trials", "0", "--out-dir", "{tmp}/ex"],
        ["examples", "--n", "0", "--out-dir", "{tmp}/ex"],
    ], ids=["spectrum-out", "power-out", "power-svg", "simulate-out", "simulate-npy",
            "examples-trials", "examples-n"])
    def test_exits_2_at_once_leaving_no_file(self, capsys, tmp_path, no_work, argv):
        argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_INPUT, err
        assert list(tmp_path.iterdir()) == []

    def test_simulate_trials_exits_2_leaving_no_file(self, capsys, tmp_path):
        # simulate_statistics refuses the count before its first trial
        code, _, err = run(capsys, "simulate", "--model", "uniform:4", "--trials", "0",
                           "--out", str(tmp_path / "s.csv"))
        assert code == EXIT_INPUT, err
        assert list(tmp_path.iterdir()) == []


class TestOutputsOnFailure:
    """A failed command leaves every output path as it found it."""

    @pytest.fixture(autouse=True)
    def failing_curve(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ArithmeticError("synthetic failure")

        monkeypatch.setattr(cli, "power_curve", boom)

    def power(self, capsys, out, svg):
        code, _, err = run(capsys, "power", "--model", "uniform:4",
                           "--out", str(out), "--svg", str(svg))
        assert code == EXIT_NUMERICAL
        assert "synthetic failure" in err

    def test_new_outputs_are_not_created(self, capsys, tmp_path):
        self.power(capsys, tmp_path / "c.csv", tmp_path / "c.svg")
        assert list(tmp_path.iterdir()) == []

    def test_earlier_outputs_are_kept(self, capsys, tmp_path):
        for name in ("c.csv", "c.svg"):
            (tmp_path / name).write_text(f"earlier {name}\n")
        self.power(capsys, tmp_path / "c.csv", tmp_path / "c.svg")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.svg"]
        for name in ("c.csv", "c.svg"):
            assert (tmp_path / name).read_text() == f"earlier {name}\n"

    def test_a_device_is_written_in_place_and_kept(self, capsys, tmp_path):
        # reached through a link, so that a regression removes the link,
        # not the device itself
        link = tmp_path / "null"
        link.symlink_to("/dev/null")
        self.power(capsys, link, tmp_path / "c.svg")
        assert list(tmp_path.iterdir()) == [link]
        assert link.is_symlink() and link.is_char_device()


class TestOutputsOnSuccess:
    def test_a_link_keeps_its_target_and_the_target_its_mode(self, capsys, tmp_path):
        target = tmp_path / "c.csv"
        target.write_text("earlier\n")
        target.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, _, err = run(capsys, "power", "--model", "uniform:4", "--grid-step", "0.5",
                           "--out", str(link))
        assert code == EXIT_OK, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "link.csv"]
        assert link.is_symlink() and target.read_text().startswith("x,")
        assert target.stat().st_mode & 0o777 == 0o640

    def test_a_new_file_gets_the_default_mode(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, _, err = run(capsys, "spectrum", "--model", "uniform:4", "--out", str(out))
        assert code == EXIT_OK, err
        assert list(tmp_path.iterdir()) == [out]
        assert out.stat().st_mode & 0o777 == 0o666 & ~cli._umask()

    def test_a_device_is_written(self, capsys, tmp_path):
        link = tmp_path / "null"
        link.symlink_to("/dev/null")
        code, _, err = run(capsys, "spectrum", "--model", "uniform:4", "--out", str(link))
        assert code == EXIT_OK, err
        assert list(tmp_path.iterdir()) == [link]
        assert link.is_symlink() and link.is_char_device()


def test_committed_example_outputs_match_the_code():
    # the curves and node counts in the repository root are what
    # `gofpower examples` writes at its defaults
    root = Path(__file__).resolve().parent.parent
    assert b"\r" not in (root / "costs.csv").read_bytes()
    with open(root / "costs.csv", encoding="utf-8") as fh:
        costs = {row["example"]: row for row in csv.DictReader(fh)}
    for name, model, pert in builtin_examples():
        curve = power_curve(model, pert)
        table = np.loadtxt(root / f"{name}_curve.csv", delimiter=",", skiprows=1)
        assert table[:, 0].tobytes() == default_grid().tobytes(), name
        assert np.abs(table[:, 1] - curve.f0).max() <= 1e-9, name
        assert np.abs(table[:, 2] - curve.fa).max() <= 1e-9, name
        assert (int(costs[name]["q0"]), int(costs[name]["qa"])) == (
            curve.meta.max_nodes_null, curve.meta.max_nodes_alt), name


def test_examples_writes_the_committed_files(capsys, tmp_path):
    # `gofpower examples` at its defaults rewrites the committed outputs
    # byte for byte, except the timing column of costs.csv
    root = Path(__file__).resolve().parent.parent
    code, _, err = run(capsys, "examples", "--out-dir", str(tmp_path))
    assert code == EXIT_OK, err
    names = [f"{name}{suffix}" for name, _, _ in builtin_examples()
             for suffix in ("_curve.csv", "_mc.csv", ".svg")]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["costs.csv"])
    for name in names:
        assert (tmp_path / name).read_bytes() == (root / name).read_bytes(), name

    def untimed(path):
        return [row.rsplit(",", 1)[0] for row in path.read_text().splitlines()]

    assert untimed(tmp_path / "costs.csv") == untimed(root / "costs.csv")


class TestPoissonModelSpec:
    def test_tail_tolerance_below_float_rounding_accepted(self, capsys, tmp_path):
        # the kept masses sum to 1 - 1.1e-16, outside a 1e-16 tolerance
        out_path = tmp_path / "stats.csv"
        code, out, err = run(capsys, "simulate", "--model", "poisson:3:1e-16",
                             "--n", "1000", "--trials", "10", "--out", str(out_path))
        assert code == EXIT_OK, err
        assert "10 trials" in out
        assert len(out_path.read_text().splitlines()) == 11

    def test_tail_tolerance_below_float_rounding_answered(self, capsys):
        # tol 1e-16 keeps masses down to ~1e-16 (max p0 / min p0 = 7e14);
        # the CDF moves by only ~1e-10 from the 1e-10 truncation's
        values = []
        for spec in ("poisson:3:1e-16", "poisson:3:1e-10"):
            code, out, err = run(capsys, "cdf", "--model", spec, "--x", "1")
            assert code == EXIT_OK, err
            fields = dict(kv.split("=") for kv in out.split())
            assert "converged" not in fields
            values.append(float(fields["cdf"]))
        assert abs(values[0] - values[1]) <= 1e-9


class TestExtremeRatioModel:
    P0 = [0.5 - 5e-12, 0.5 - 5e-12, 1e-11]   # max p0 / min p0 = 5e10

    def test_spectrum_and_cdf_answered(self, capsys, tmp_path):
        # the two heavy bins tie: sigma_1^2 = 0.5 - 5e-12, and the other
        # variance is ~1e-11, so the null is sigma_1^2 chi^2_1 to ~1e-11
        case = tmp_path / "ratio5e10.json"
        case.write_text(json.dumps({"p0": self.P0, "a": [0.0, 0.0, 0.0]}))
        code, out, err = run(capsys, "spectrum", "--model", f"file:{case}")
        assert code == EXIT_OK, err
        s2 = json.loads(out)["sigma2"]
        assert s2[0] == pytest.approx(self.P0[0], rel=4e-16)
        assert 0.0 < s2[1] < 1e-10
        xs = ["0.1", "0.5", "1", "3"]
        code, out, err = run(capsys, "cdf", "--model", f"file:{case}", "--x", *xs)
        assert code == EXIT_OK, err
        for x, line in zip(xs, out.splitlines()):
            fields = dict(kv.split("=") for kv in line.split())
            assert "converged" not in fields
            assert abs(float(fields["cdf"]) - chi2_cdf(1, float(x) / s2[0])) <= 1e-9


class TestBadInput:
    def test_malformed_model_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run(capsys, "spectrum", "--model", f"file:{bad}")
        assert code == EXIT_INPUT
        assert "JSON" in err or "json" in err

    def test_unknown_builder(self, capsys):
        code, _, err = run(capsys, "cdf", "--model", "cauchy:3", "--x", "1")
        assert code == EXIT_INPUT
        assert "model spec" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["cdf", "--model", "uniform:4", "--x", "1", "--frobnicate"])
        assert exc.value.code == 2
