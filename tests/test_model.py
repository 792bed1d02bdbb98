"""Model and perturbation construction, validation, builders, file I/O."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from gofpower.model import (
    AlternativeError,
    BuilderError,
    DimensionError,
    DistributionError,
    ModelError,
    Perturbation,
    PerturbationError,
    ProbabilityModel,
    TruncationError,
    alternating_perturbation,
    builtin_examples,
    load_case,
    model_from_spec,
    perturbation_from_spec,
    poisson_model,
    uniform_model,
    zero_perturbation,
)
from gofpower.montecarlo import simulate_statistics


class TestProbabilityModel:
    def test_lossless_readback(self):
        probs = [0.2, 0.3, 0.5]
        m = ProbabilityModel(probs)
        assert m.probs.tolist() == probs

    def test_renormalizes_within_gate(self):
        m = ProbabilityModel([0.25, 0.25, 0.25, 0.25 + 5e-10])
        assert m.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_beyond_gate(self):
        with pytest.raises(DistributionError):
            ProbabilityModel([0.25, 0.25, 0.25, 0.25 + 5e-9])

    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(DistributionError):
            ProbabilityModel([0.5, 0.5, 0.0])
        with pytest.raises(DistributionError):
            ProbabilityModel([0.6, 0.5, -0.1])
        with pytest.raises(DistributionError):
            ProbabilityModel([0.5, 0.5, math.nan])

    def test_rejects_single_bin(self):
        with pytest.raises(DimensionError):
            ProbabilityModel([1.0])

    def test_entries_immutable(self):
        m = uniform_model(3)
        with pytest.raises(ValueError):
            m.probs[0] = 0.9


class TestUniform:
    def test_ten_equal_bins(self):
        m = uniform_model(10)
        assert np.all(m.probs == 0.1)

    def test_two_bins(self):
        assert uniform_model(2).probs.tolist() == [0.5, 0.5]

    def test_m_below_two(self):
        with pytest.raises(DimensionError):
            uniform_model(1)

    @pytest.mark.parametrize("m", [2, 3, 7, 100, 999])
    def test_sums_to_one(self, m):
        assert abs(uniform_model(m).probs.sum() - 1.0) < 1e-15


class TestPoisson:
    def test_twenty_bins_at_1e10(self):
        m = poisson_model(3.0, 1e-10)
        assert m.m == 20

    def test_first_mass(self):
        m = poisson_model(3.0, 1e-10)
        assert m.probs[0] == pytest.approx(0.049787068367863944, rel=1e-15)

    def test_unrenormalized_sum(self):
        m = poisson_model(3.0, 1e-10)
        deficit = 1.0 - m.probs.sum()
        assert 0.0 < deficit < 1e-10

    def test_smallest_truncation(self):
        # the 19-bin truncation leaves too much tail at 1e-10
        tail_19 = 1.0 - sum(math.exp(-3.0) * 3.0 ** k / math.factorial(k)
                            for k in range(19))
        assert tail_19 > 1e-10

    def test_degenerate_lambda(self):
        m = poisson_model(1e-300, 1e-6)
        assert m.m == 2
        assert m.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_beyond_lambda(self):
        m = poisson_model(3.0, 1e-12)
        tail = m.probs[3:]   # counts k-1 >= 3 = lambda
        assert np.all(np.diff(tail) < 0)

    def test_tail_tolerance_below_sum_rounding(self):
        m = poisson_model(3.0, 1e-16)
        assert 0.0 <= 1.0 - m.probs.sum() < 1e-15

    def test_truncation_cap(self, monkeypatch):
        monkeypatch.setattr("gofpower.model.POISSON_BIN_CAP", 10)
        with pytest.raises(TruncationError, match="more than 10 bins"):
            poisson_model(3.0, 1e-10)

    def test_large_lambda(self):
        # exp(-700) is a normal double; exp(-745) is subnormal and exp(-800)
        # is 0, from which no mass could be built up
        assert poisson_model(700.0, 1e-10).m == 876
        for lam in (745.0, 800.0):
            with pytest.raises(DistributionError, match="exp.*underflows"):
                poisson_model(lam, 1e-10)

    def test_bad_parameters(self):
        with pytest.raises(DistributionError):
            poisson_model(-1.0, 1e-10)
        with pytest.raises(DistributionError):
            poisson_model(3.0, 2.0)


class TestPerturbation:
    def test_alternating_benchmark_case(self):
        p = alternating_perturbation(10, 0.2)
        assert p.entries[0] == -0.2
        assert p.entries[1] == 0.2
        assert p.entries.sum() == 0.0

    def test_alternating_zero_amplitude(self):
        assert alternating_perturbation(2, 0.0).entries.tolist() == [0.0, 0.0]

    def test_alternating_odd_m(self):
        with pytest.raises(DimensionError):
            alternating_perturbation(3, 1.0)

    @pytest.mark.parametrize("m", [2, 4, 10, 50])
    def test_alternating_sum_exactly_zero(self, m):
        assert alternating_perturbation(m, 0.37).entries.sum() == 0.0

    def test_sum_tolerance_scales(self):
        Perturbation([1e6, -1e6 + 1e-7])  # fine: tol scales with sum|a|
        with pytest.raises(PerturbationError):
            Perturbation([1.0, -1.0 + 1e-9])
        # either side of the bound 1e-12 sum |a| = 2e-6
        Perturbation([1e6, -1e6 + 1.9e-6])
        with pytest.raises(PerturbationError):
            Perturbation([1e6, -1e6 + 2.1e-6])
        # both sums overflow, yet a sums to 0 exactly
        assert Perturbation([1e308, 1e308, -1e308, -1e308]).m == 4

    @pytest.mark.parametrize("entries, total", [
        ([1e308, -5e307, -4e307], "1.0000000000000001e+307"),   # sum |a| overflows
        ([1e308, 1e308, -1e308], "inf")],                       # so does sum a
        ids=["sum-abs", "both"])
    def test_overflowing_sums_are_refused(self, entries, total):
        # an infinite sum |a| once made the test pass anything; the sums are
        # taken on a / 2^k instead, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PerturbationError, match=re.escape(f"sum to {total}, expected 0")):
                Perturbation(entries)

    def test_zero_perturbation(self):
        z = zero_perturbation(5)
        assert z.m == 5 and not z.entries.any()


class TestAlternative:
    # simulate_statistics checks (p0, a, n) before its first draw
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            simulate_statistics(uniform_model(4), zero_perturbation(5), 10,
                                trials=1, seed=0)

    def test_nonpositive_n(self):
        for n in (0, -3):
            with pytest.raises(ModelError, match="n must be a positive integer"):
                simulate_statistics(uniform_model(4), zero_perturbation(4), n,
                                    trials=1, seed=0)

    def test_valid_benchmark_case(self):
        simulate_statistics(uniform_model(10), alternating_perturbation(10, 0.2),
                            1_000_000, trials=1, seed=0)

    def test_zero_perturbation_always_valid(self):
        simulate_statistics(uniform_model(6), zero_perturbation(6), 1,
                            trials=1, seed=0)

    def test_invalid_at_small_n(self):
        with pytest.raises(AlternativeError) as err:
            simulate_statistics(uniform_model(10), alternating_perturbation(10, 0.2),
                                1, trials=1, seed=0)
        # 0.1 - 0.2 < 0 on the odd bins, 1-indexed
        assert str(err.value) == (
            "p0 + a/sqrt(n) leaves [0, 1] at bins [1, 3, 5, 7, 9] (n=1)")


class TestBuildersAndFiles:
    def test_uniform_spec(self):
        assert model_from_spec("uniform:10").m == 10

    def test_poisson_spec_with_default_tol(self):
        assert model_from_spec("poisson:3").m == 20

    def test_poisson_spec_with_tol(self):
        assert model_from_spec("poisson:3:1e-6").m == 15

    def test_bad_specs(self):
        for bad in ("uniform", "uniform:x", "gauss:3", "poisson:"):
            with pytest.raises(BuilderError):
                model_from_spec(bad)
        with pytest.raises(BuilderError):
            perturbation_from_spec("wiggle:1", 4)
        with pytest.raises(BuilderError):
            perturbation_from_spec("alternating:abc", 4)

    def test_pert_specs(self):
        assert perturbation_from_spec("zero", 6).entries.tolist() == [0.0] * 6
        p = perturbation_from_spec("alternating:0.5", 4)
        assert p.entries.tolist() == [-0.5, 0.5, -0.5, 0.5]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({"p0": [0.25, 0.25, 0.5], "a": [0.1, 0.1, -0.2]}))
        model, pert = load_case(path)
        assert model.m == 3
        assert pert.entries.tolist() == [0.1, 0.1, -0.2]
        assert model_from_spec(f"file:{path}").m == 3
        assert perturbation_from_spec(f"file:{path}", 3).m == 3

    def test_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BuilderError):
            load_case(bad)
        uneven = tmp_path / "uneven.json"
        uneven.write_text(json.dumps({"p0": [0.5, 0.5], "a": [0.0, 0.0, 0.0]}))
        with pytest.raises(BuilderError):
            load_case(uneven)
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"p0": [0.5, 0.5]}))
        with pytest.raises(BuilderError):
            load_case(missing)


    @pytest.mark.parametrize("name, k, value", [
        ("a", 1, True), ("a", 2, False), ("p0", 2, "0.5"), ("p0", 1, None),
        ("a", 2, [-1.0]), ("p0", 2, {"x": 0.5})])
    def test_refuses_entries_that_are_not_numbers(self, tmp_path, name, k, value):
        # true would otherwise be read as 1, and an array as its entry
        data = {"p0": [0.5, 0.5], "a": [1.0, -1.0]}
        data[name][k - 1] = value
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data))
        with pytest.raises(BuilderError) as info:
            load_case(path)
        assert str(info.value) == (f'{path}: "{name}"[{k}] is {json.dumps(value)}, '
                                   "not a number")

    def test_integer_entries_are_numbers(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text('{"p0": [0.5, 0.5], "a": [1, -1]}')
        assert load_case(path)[1].entries.tolist() == [1.0, -1.0]


class TestBuiltinExamples:
    def test_shapes_and_validity(self):
        cases = builtin_examples()
        assert [name for name, _, _ in cases] == [
            "example1", "example2", "example3", "example4"]
        assert [model.m for _, model, _ in cases] == [10, 100, 20, 20]
        for _, model, pert in cases:
            assert pert.m == model.m

    def test_example4_mass_on_first_bin(self):
        _, _, pert = builtin_examples()[3]
        assert pert.entries[0] == 1.0
        assert pert.entries[12:].tolist() == [0.0] * 8

    def test_example_validity_at_large_n(self):
        for _, model, pert in builtin_examples():
            simulate_statistics(model, pert, 10 ** 6, trials=1, seed=0)

    def test_example4_invalid_at_n_1e5(self):
        # bin 12 mass e^-3 3^11/11! is smaller than (1/11)/sqrt(1e5)
        _, model, pert = builtin_examples()[3]
        with pytest.raises(AlternativeError) as err:
            simulate_statistics(model, pert, n=100_000, trials=1, seed=0)
        assert str(err.value).endswith("at bins [12] (n=100000)")
