"""P-values, power curves, and point power queries.

Frozen values computed with tests/oracles.py.
"""

import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from oracles import (
    POWER_AT_1PCT,
    SEEDED_CDF_REFERENCES,
    SEEDED_POWER_MODELS,
    chi2_cdf,
    chi2_quantile,
    noncentral_chi2_cdf,
    noncentral_chi2_quantile,
)

from gofpower.model import (
    Perturbation,
    alternating_perturbation,
    builtin_examples,
    uniform_model,
    zero_perturbation,
)
from gofpower import power, svgplot
from gofpower.power import (
    _cdf_on_grid,
    _chebyshev,
    asymptotic_power,
    default_grid,
    power_curve,
    pvalue,
)
from gofpower.quadform import DEFAULT_CONFIG, QuadratureConfig, cdf, cdf_many
from gofpower.spectrum import Spectrum, compute_spectrum

CHI9_95 = 16.91897760462507  # oracle chi2_quantile(9, 0.95)


@pytest.fixture(scope="module")
def null10():
    return compute_spectrum(uniform_model(10), zero_perturbation(10))


@pytest.fixture(scope="module")
def alt61():
    return compute_spectrum(uniform_model(10), alternating_perturbation(10, 0.2))


class TestPvalue:
    def test_zero_statistic(self, null10):
        assert pvalue(0.0, null10) == 1.0

    def test_five_percent_point(self, null10):
        assert pvalue(CHI9_95 / 10.0, null10) == pytest.approx(0.05, abs=1e-5)

    def test_huge_statistic(self, null10):
        assert pvalue(100.0, null10) < 1e-6


class TestDefaultGrid:
    def test_matches_plotting_grid(self):
        g = default_grid()
        assert g.size == 10_000
        assert g[0] == pytest.approx(1.0 / 2000.0)
        assert g[-1] == pytest.approx(5.0)

    def test_largest_grid_accepted(self):
        assert default_grid(5e-6).size == 10 ** 6

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            default_grid(step=-0.1)
        # each refusal names the value that a non-finite step or maximum, or
        # a step above the maximum, would carry into an empty or endless grid
        for kwargs, text in [
            ({"step": math.nan}, "grid step must be finite and positive, got nan"),
            ({"step": math.inf}, "grid step must be finite and positive, got inf"),
            ({"x_max": math.inf}, "grid maximum must be finite and positive, got inf"),
            ({"x_max": 0.0}, "grid maximum must be finite and positive, got 0.0"),
            ({"step": 10.0, "x_max": 5.0}, "grid step 10.0 exceeds the grid maximum 5.0"),
            # more than 10^6 points; x_max / step is inf at 1e-310
            ({"step": 1e-12},
             "grid step 1e-12 up to 5.0 gives 5e\\+12 points, more than 1,000,000"),
            ({"step": 1e-300}, "gives 5e\\+300 points"),
            ({"step": 1e-310}, "gives inf points"),
        ]:
            with pytest.raises(ValueError, match=text):
                default_grid(**kwargs)


class TestPowerCurve:
    def test_zero_perturbation_is_diagonal(self):
        curve = power_curve(uniform_model(6), zero_perturbation(6),
                            grid=np.linspace(0.05, 3.0, 40))
        assert np.abs(curve.power - curve.alpha).max() <= 2e-9

    def test_alpha_nonincreasing_and_power_monotone(self, alt61):
        curve = power_curve(uniform_model(10), alternating_perturbation(10, 0.2),
                            grid=np.linspace(0.05, 4.0, 60))
        assert np.all(np.diff(curve.alpha) <= 2e-9)
        assert np.all(np.diff(curve.power) <= 2e-9)
        assert np.all((curve.power >= 0) & (curve.power <= 1))

    def test_matches_noncentral_oracle_at_five_percent(self):
        # power at alpha = 0.05 equals 1 - ncx2(9, 4) at the chi2(9) quantile
        grid = np.sort(np.unique(np.concatenate([
            np.linspace(0.5, 4.0, 50), [CHI9_95 / 10.0]])))
        curve = power_curve(uniform_model(10), alternating_perturbation(10, 0.2),
                            grid=grid)
        i = int(np.argmin(np.abs(curve.x - CHI9_95 / 10.0)))
        want = 1.0 - noncentral_chi2_cdf(9, 4.0, CHI9_95)
        assert curve.power[i] == pytest.approx(want, abs=1e-6)
        assert curve.alpha[i] == pytest.approx(0.05, abs=1e-6)

    def test_rejects_bad_grid(self):
        m = uniform_model(4)
        with pytest.raises(ValueError):
            power_curve(m, zero_perturbation(4), grid=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            power_curve(m, zero_perturbation(4), grid=np.array([-1.0, 1.0]))

    def test_meta_collects_costs(self, alt61):
        curve = power_curve(uniform_model(10), alternating_perturbation(10, 0.2),
                            grid=np.linspace(0.5, 2.0, 8))
        assert curve.meta.max_nodes_null >= 21
        assert curve.meta.max_nodes_alt >= 21
        assert curve.meta.seconds_per_point > 0
        assert curve.meta.unconverged_points == 0

    def test_csv_format_and_determinism(self):
        grid = np.linspace(0.2, 1.0, 5)
        model = uniform_model(4)
        pert = alternating_perturbation(4, 0.1)
        buf1, buf2 = io.StringIO(), io.StringIO()
        power_curve(model, pert, grid).write_csv(buf1)
        power_curve(model, pert, grid).write_csv(buf2)
        text = buf1.getvalue()
        assert text == buf2.getvalue()
        lines = text.strip().split("\n")
        assert lines[0] == "x,F0,Fa,alpha,power"
        assert len(lines) == 6
        row = lines[1].split(",")
        assert len(row) == 5
        assert float(row[3]) == pytest.approx(1.0 - float(row[1]), abs=1e-16)

    def test_csv_text_matches_numpy_scalar_formatting(self):
        # write_csv formats Python floats; the text must be what formatting
        # the curve's numpy scalars gives
        _, model, pert = builtin_examples()[0]
        curve = power_curve(model, pert, default_grid(0.005))
        buf = io.StringIO()
        curve.write_csv(buf)
        rows = [f"{x:.17g},{f0:.17g},{fa:.17g},{1.0 - f0:.17g},{1.0 - fa:.17g}\n"
                for x, f0, fa in zip(curve.x, curve.f0, curve.fa)]
        assert isinstance(curve.x[0], np.float64)
        assert buf.getvalue() == "x,F0,Fa,alpha,power\n" + "".join(rows)

    def test_svg_text_matches_numpy_scalar_formatting(self):
        # the polyline formats Python floats; the text must be what
        # formatting the curve's numpy scalars gives
        _, model, pert = builtin_examples()[0]
        curve = power_curve(model, pert, default_grid(0.005))
        buf = io.StringIO()
        svgplot.power_overlay_svg(buf, curve.alpha, curve.power, title="example1")
        pts = " ".join(f"{svgplot._px(a):.2f},{svgplot._py(p):.2f}"
                       for a, p in zip(curve.alpha, curve.power))
        assert isinstance(curve.alpha[0], np.float64)
        assert buf.getvalue().splitlines()[-2] == (
            f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{pts}"/>')


@pytest.fixture
def families(monkeypatch):
    """The spectra whose CDF family ``power_curve`` computes, in order."""
    specs = []

    def counting(xs, spec, cfg):
        specs.append(spec)
        return _cdf_on_grid(xs, spec, cfg)

    monkeypatch.setattr(power, "_cdf_on_grid", counting)
    return specs


def fresh_curve(model, pert, grid, cfg=None):
    power._recent_null = (None, None, None, None)
    return power_curve(model, pert, grid, cfg)


def assert_same_curve(got, want):
    assert got.f0.tobytes() == want.f0.tobytes()
    assert got.fa.tobytes() == want.fa.tobytes()
    assert (dataclasses.replace(got.meta, seconds_per_point=0.0)
            == dataclasses.replace(want.meta, seconds_per_point=0.0))


class TestNullFamilyMemo:
    """``power_curve`` keeps the last null family, keyed on p0's array, the
    grid's values and abs_tol."""

    grid = default_grid(0.05)   # 100 points: interpolated

    def test_a_shared_model_computes_its_null_once(self, families):
        (_, model, pert3), (_, same, pert4) = builtin_examples()[2:]
        assert same is model
        power_curve(model, pert3, self.grid)
        got = power_curve(model, pert4, self.grid)
        assert [s.stability_rhs == 1.0 for s in families] == [True, False, False]
        assert_same_curve(got, fresh_curve(model, pert4, self.grid))

    def test_a_changed_key_never_hits(self, families):
        (_, model, pert), = builtin_examples()[3:]
        twin = type(model)(model.probs)   # equal values in another array
        grid = self.grid.copy()
        power_curve(model, pert, grid)
        grid *= 1.5   # the same array, changed in place
        for args in ((twin, pert, self.grid), (model, pert, grid),
                     (model, pert, self.grid, QuadratureConfig(1e-10))):
            families.clear()
            got = power_curve(*args)
            assert [s.stability_rhs == 1.0 for s in families] == [True, False]
            assert_same_curve(got, fresh_curve(*args))

    def test_a_returned_f0_is_the_callers(self):
        (_, model, pert3), (_, _, pert4) = builtin_examples()[2:]
        first = power_curve(model, pert3, self.grid)
        first.f0[:] = 0.5
        assert_same_curve(power_curve(model, pert4, self.grid),
                          fresh_curve(model, pert4, self.grid))

    def test_the_entry_holds_no_evaluations(self):
        _, model, pert = builtin_examples()[0]
        curve = power_curve(model, pert, self.grid)
        p0, grid, abs_tol, (f0, *counts) = power._recent_null
        assert p0 is model.probs and abs_tol == DEFAULT_CONFIG.abs_tol
        assert grid.tobytes() == self.grid.tobytes() and grid is not self.grid
        assert f0.tobytes() == curve.f0.tobytes() and not f0.flags.writeable
        assert [type(c) for c in counts] == [int, int, float, int]


def lobatto(n):
    return np.cos(np.arange(n + 1) * (math.pi / n))


class TestChebyshev:
    @pytest.mark.parametrize("n", [1, 2, 16, 128, 256])
    def test_reproduces_a_polynomial_of_its_degree(self, n):
        rng = np.random.default_rng(n)
        coef = rng.standard_normal(n + 1) * 0.9 ** np.arange(n + 1)
        poly = np.polynomial.Chebyshev(coef)
        t = rng.uniform(-1.0, 1.0, 200)
        scale = np.abs(coef).sum()
        assert np.abs(_chebyshev(poly(lobatto(n)), t) - poly(t)).max() <= 1e-14 * scale

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_reproduces_each_chebyshev_polynomial(self, n):
        # T_k through the points is T_k; at t = cos(theta) it is cos(k theta)
        theta = np.linspace(0.0, math.pi, 37)
        for k in range(n + 1):
            got = _chebyshev(np.cos(k * np.arange(n + 1) * (math.pi / n)), np.cos(theta))
            assert np.abs(got - np.cos(k * theta)).max() <= 1e-13, k

    def test_endpoints_return_their_values(self):
        rng = np.random.default_rng(7)
        for n in (16, 32, 64, 128, 256):
            values = np.sort(rng.uniform(0.0, 1.0, n + 1))[::-1]
            got = _chebyshev(values, np.array([1.0, -1.0]))
            assert np.abs(got - values[[0, -1]]).max() <= 16 * np.spacing(1.0), n


@pytest.fixture(scope="module")
def example_curves():
    """Each example's interpolated curve on the default grid, with the
    per-point CdfEvaluations of both families on the same grid."""
    grid = default_grid()
    out = {}
    for name, model, pert in builtin_examples():
        alt = compute_spectrum(model, pert)
        out[name] = (power_curve(model, pert, grid),
                     cdf_many(grid, alt.null()), cdf_many(grid, alt))
    return out


class TestInterpolatedCurve:
    def test_within_bound_of_pointwise_cdf(self, example_curves):
        for name, (curve, e0, ea) in example_curves.items():
            assert curve.meta.cdf_points < curve.x.size
            for got, evs in ((curve.f0, e0), (curve.fa, ea)):
                want = np.array([e.value for e in evs])
                est = np.array([e.abs_error_estimate for e in evs])
                assert np.all(np.abs(got - want) <= curve.meta.error_bound + est), name

    def test_curve_rules(self, example_curves):
        # values in [0, 1], no drop over 1e-8, Fa <= F0 + 1e-8
        for name, (curve, _, _) in example_curves.items():
            for col in (curve.f0, curve.fa):
                assert np.all((col >= 0.0) & (col <= 1.0)), name
                assert np.diff(col).min() >= -1e-8, name
            assert np.all(curve.fa <= curve.f0 + 1e-8), name

    def test_single_mode_null_is_chi_square_in_sqrt_x(self):
        # ell = 1: F(x) = P(chi2_1 <= 2x) ~ sqrt(x) near 0, smooth only in sqrt(x)
        grid = default_grid(0.005)
        curve = power_curve(uniform_model(2), zero_perturbation(2), grid)
        assert curve.meta.cdf_points < grid.size
        want = np.array([chi2_cdf(1, 2.0 * x) for x in grid])
        assert np.abs(curve.f0 - want).max() <= 1e-8

    def test_short_grid_falls_back_to_pointwise(self):
        model, pert = uniform_model(10), alternating_perturbation(10, 0.2)
        grid = np.linspace(0.05, 4.0, 20)
        curve = power_curve(model, pert, grid)
        alt = compute_spectrum(model, pert)
        for got, spec in ((curve.f0, alt.null()), (curve.fa, alt)):
            want = np.array([e.value for e in cdf_many(grid, spec)])
            assert got.tobytes() == want.tobytes()
        assert curve.meta.cdf_points == 2 * grid.size

    def test_unpredictable_nodes_fall_back_to_pointwise(self):
        # on 300 points, no interpolant of up to 129 nodes predicts example
        # 2's next nodes, and a larger one would hold half as many points as
        # the grid
        _, model, pert = builtin_examples()[1]
        spec = compute_spectrum(model, pert)
        grid = default_grid(5.0 / 300.0)
        values, evals, bound = _cdf_on_grid(grid, spec, DEFAULT_CONFIG)
        per_point = cdf_many(grid, spec)
        assert values.tobytes() == np.array([e.value for e in per_point]).tobytes()
        assert len(evals) == 129 + grid.size
        assert bound == max(e.abs_error_estimate for e in per_point)

    @pytest.mark.parametrize("name", ["r0-model76", "r0-model102"])
    def test_interpolant_recovers_seeded_reference(self, name):
        # per-point cdf misses these references by 1.3e-7 and 1.6e-8 with
        # tiny estimates; the interpolant through its nodes stays within
        # its bound of the 30-digit value
        ref = SEEDED_CDF_REFERENCES[name]
        spec = Spectrum(ref["sigma"], ref["zeta"])
        grid = default_grid(0.005) * spec.null().mean()
        i = int(np.flatnonzero(grid == ref["x"])[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            values, evals, bound = _cdf_on_grid(grid, spec, DEFAULT_CONFIG)
        assert len(evals) < grid.size
        assert abs(values[i] - ref["cdf"]) <= bound


class TestPowerAt:
    def test_diagonal_at_zero_perturbation(self):
        spec = compute_spectrum(uniform_model(6), zero_perturbation(6))
        got = asymptotic_power(0.3, spec.null(), spec)
        assert got == pytest.approx(0.3, abs=1e-6)

    def test_alpha_near_one(self, null10, alt61):
        assert asymptotic_power(0.999, null10, alt61) > 0.999

    def test_matches_curve_interpolation(self, null10, alt61):
        got = asymptotic_power(0.05, null10, alt61)
        curve = power_curve(uniform_model(10), alternating_perturbation(10, 0.2),
                            grid=np.linspace(1.2, 2.2, 400))
        interp = np.interp(0.05, curve.alpha[::-1], curve.power[::-1])
        assert got == pytest.approx(interp, abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_oracle_value(self, null10, alt61, alpha):
        want = 1.0 - noncentral_chi2_cdf(9, 4.0, chi2_quantile(9, 1.0 - alpha))
        assert asymptotic_power(alpha, null10, alt61) == pytest.approx(want, abs=1e-9)

    def test_rejects_bad_alpha(self, null10, alt61):
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                asymptotic_power(alpha, null10, alt61)

    def test_respects_config(self, null10, alt61):
        loose = QuadratureConfig(abs_tol=1e-6)
        got = asymptotic_power(0.05, null10, alt61, loose)
        assert got == pytest.approx(0.22536101968546052, abs=1e-4)


@pytest.mark.parametrize("name", sorted(SEEDED_POWER_MODELS))
def test_seeded_benchmark_power_not_below_alpha(name):
    # tiny sigma^2 carrying most of the shift gave a slow real-axis tail that
    # the doubling-window march cut short, pushing the power at 1% below
    # alpha; the extrapolated tail converges without a warning.  Where a
    # 30-digit power is frozen, the critical value's stop rule must leave
    # the power within 1e-9 of it
    ref = SEEDED_POWER_MODELS[name]
    alt = Spectrum(ref["sigma"], ref["zeta"])
    alphas = (0.01, 0.05, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        powers = [asymptotic_power(alpha, alt.null(), alt) for alpha in alphas]
    assert all(p >= alpha - 1e-7 for alpha, p in zip(alphas, powers)), powers
    assert powers == sorted(powers)
    if name in POWER_AT_1PCT:
        assert abs(powers[0] - POWER_AT_1PCT[name]) <= 1e-9


@pytest.fixture
def cdf_calls(monkeypatch):
    """The x of every cdf call that the power module makes."""
    calls = []

    def counting_cdf(*args, **kwargs):
        calls.append(args[0])
        return cdf(*args, **kwargs)

    monkeypatch.setattr(power, "cdf", counting_cdf)
    return calls


@pytest.mark.parametrize("case", ["example1", "example2", "example3", "example4",
                                  *sorted(SEEDED_POWER_MODELS)])
def test_critical_value_cost_and_range(case, cdf_calls):
    # Newton's method on the smaller tail from the two-cumulant start: at
    # most 16 cdf calls per alpha, the alternative's included, from alpha =
    # 1e-10 to 0.999, and at most 5 at the levels model-sweep asks for
    if case in SEEDED_POWER_MODELS:
        alt = Spectrum(SEEDED_POWER_MODELS[case]["sigma"],
                       SEEDED_POWER_MODELS[case]["zeta"])
    else:
        _, model, pert = builtin_examples()[int(case[-1]) - 1]
        alt = compute_spectrum(model, pert)
    for alpha in (1e-10, 1e-6, 0.01, 0.05, 0.1, 0.5, 0.999):
        cdf_calls.clear()
        got = asymptotic_power(alpha, alt.null(), alt)
        cap = 5 if alpha in (0.01, 0.05, 0.1) else 16
        assert len(cdf_calls) <= cap, (alpha, len(cdf_calls))
        assert alpha - 1e-7 <= got <= 1.0, (alpha, got)


def test_hermite_steps_save_null_calls(cdf_calls):
    # while the density steers, each step goes to the zero of x(h)'s cubic
    # Hermite interpolant through the last two points.  On 30 seeded shifted
    # spectra at the three levels model-sweep asks for, Newton's step took
    # 3.54 null calls per alpha (41 threes, 49 fours); these take at most 3.1
    # on average, and none more than 4
    rng = np.random.default_rng(3434)
    counts = []
    for _ in range(30):
        ell = int(rng.integers(2, 80))
        sigma2 = 10.0 ** -rng.uniform(0.0, rng.uniform(0.0, 3.0), ell)
        zeta = rng.standard_normal(ell)
        zeta *= math.sqrt(rng.uniform(0.5, 15.0) / (zeta @ zeta))
        alt = Spectrum(np.sqrt(sigma2), zeta)
        for alpha in (0.01, 0.05, 0.1):
            cdf_calls.clear()
            assert asymptotic_power(alpha, alt.null(), alt) >= alpha - 1e-7
            counts.append(len(cdf_calls) - 1)   # the last is the alternative's
    assert np.mean(counts) <= 3.1 and max(counts) <= 4, np.bincount(counts)


@pytest.mark.parametrize("scale", [0.01, 0.1, 0.5, 2.0, 10.0, 100.0])
def test_critical_value_survives_a_wrong_slope(scale, null10, alt61, monkeypatch):
    # the density only steers the steps, and only while they halve the
    # log-tail residual; otherwise the secant of the last two points does.
    # One 10 or 100 times too small overshoots every time and one 2 or more
    # times too large creeps from one side; the cap of 24 calls per alpha
    # fails any rule that lets either creep
    calls = []

    def skewed_cdf(*args, **kwargs):
        calls.append(args[0])
        ev = cdf(*args, **kwargs)
        return dataclasses.replace(ev, density=ev.density * scale)

    monkeypatch.setattr(power, "cdf", skewed_cdf)
    for alpha in (0.01, 0.05, 0.1, 0.5, 0.999):
        calls.clear()
        want = 1.0 - noncentral_chi2_cdf(9, 4.0, chi2_quantile(9, 1.0 - alpha))
        assert asymptotic_power(alpha, null10, alt61) == pytest.approx(want, abs=1e-9)
        assert len(calls) <= 24, (alpha, len(calls))


@pytest.mark.parametrize("a", [[0.2, -0.1, -0.1], [0.2, -0.2, 0.2, -0.2], [0.2, -0.2]])
@pytest.mark.parametrize("level", [1e-4, 1e-6, 1e-8, 1e-10])
def test_critical_value_at_tiny_x(a, level, cdf_calls):
    # alpha = 1 - level puts x* at the null's level-quantile, near zero,
    # where the shifted contour's density is least accurate.  Uniform m = 3,
    # 4 and 2 nulls are chi2 with ell = 2, 3 and 1 degrees of freedom,
    # scaled.  The start inverts the small-x asymptote there, so a start
    # far above x* that the [x/4, 4x] clamp walks down fails the cap
    m = len(a)
    alt = compute_spectrum(uniform_model(m), Perturbation(a))
    lam = float(np.sum(alt.zeta ** 2))
    want = 1.0 - noncentral_chi2_cdf(m - 1, lam, chi2_quantile(m - 1, level))
    assert asymptotic_power(1.0 - level, alt.null(), alt) == pytest.approx(want, abs=1e-9)
    assert len(cdf_calls) <= 6, len(cdf_calls)


@pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.1, 0.5, 0.999])
def test_critical_value_on_the_real_axis(alpha, cdf_calls):
    # a null whose stability bound exceeds the threshold runs on the real
    # axis, which gives no density: Newton's slope is then the secant of the
    # log tail.  Nine unit sigma^2 with sum zeta^2 = 60 make F0 the
    # noncentral chi2(9, 60) CDF, against chi2(9, 80)
    null = Spectrum(np.ones(9), [math.sqrt(60.0)] + [0.0] * 8)
    alt = Spectrum(np.ones(9), [math.sqrt(80.0)] + [0.0] * 8)
    assert null.stability_rhs > DEFAULT_CONFIG.stability_threshold
    assert math.isnan(cdf(10.0, null).density)
    want = 1.0 - noncentral_chi2_cdf(9, 80.0, noncentral_chi2_quantile(9, 60.0, 1.0 - alpha))
    assert asymptotic_power(alpha, null, alt) == pytest.approx(want, abs=1e-9)
    assert len(cdf_calls) <= 8


class TestDominance:
    def test_builtin_examples_never_anticonservative(self):
        # local alternatives cannot push power below the significance level
        # for these spectra (checked on a coarse grid, 2-tolerance slack)
        from gofpower.model import builtin_examples

        for _, model, pert in builtin_examples():
            curve = power_curve(model, pert, grid=np.linspace(0.1, 5.0, 25))
            assert np.all(curve.power >= curve.alpha - 2e-9)
