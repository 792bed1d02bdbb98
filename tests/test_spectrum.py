"""Spectral matrix assembly, Jacobi eigendecomposition, limit-law parameters."""

import json
import math

import numpy as np
import pytest

from gofpower.model import (
    Perturbation,
    ProbabilityModel,
    alternating_perturbation,
    builtin_examples,
    uniform_model,
    zero_perturbation,
)
from gofpower.spectrum import (
    DegenerateModelError,
    SpectralMatrix,
    Spectrum,
    build_b_matrix,
    compute_spectrum,
    eigendecompose,
)


def random_model_pert(rng, m):
    p = rng.uniform(0.05, 1.0, m)
    p /= p.sum()
    a = rng.normal(size=m)
    a -= a.mean()
    return ProbabilityModel(p), Perturbation(a)


class TestBuildBMatrix:
    def test_uniform_two_bins(self):
        b = build_b_matrix(uniform_model(2)).entries
        assert np.allclose(b, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)

    def test_uniform_ten_bins_is_scaled_projector(self):
        b = build_b_matrix(uniform_model(10)).entries
        expected = np.full((10, 10), -1.0)
        np.fill_diagonal(expected, 9.0)
        assert np.allclose(b, expected, atol=1e-13)

    def test_one_third_two_thirds(self):
        b = build_b_matrix(ProbabilityModel([1 / 3, 2 / 3])).entries
        assert np.allclose(b, [[1.125, -1.125], [-1.125, 1.125]], atol=1e-14)

    def test_matches_triple_product(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 7, 30):
            model, _ = random_model_pert(rng, m)
            b = build_b_matrix(model).entries
            h = np.eye(m) - np.full((m, m), 1.0 / m)
            d = np.diag(1.0 / model.probs)
            assert np.allclose(b, h @ d @ h, atol=1e-10 * np.abs(b).max())

    def test_exact_symmetry_and_nullspace(self):
        rng = np.random.default_rng(6)
        for m in (2, 5, 40):
            model, _ = random_model_pert(rng, m)
            bm = build_b_matrix(model)
            b = bm.entries
            assert np.array_equal(b, b.T)
            assert np.abs(b.sum(axis=1)).max() <= 1e-12 * np.abs(b).max()

    def test_invariants_enforced(self):
        asym = np.array([[1.0, -1.0], [-0.5, 0.5]])
        with pytest.raises(ValueError):
            SpectralMatrix(m=2, entries=asym)
        no_null = np.eye(3)
        with pytest.raises(ValueError):
            SpectralMatrix(m=3, entries=no_null)


class TestEigendecompose:
    def test_hand_checked_two_by_two(self):
        bm = build_b_matrix(uniform_model(2))
        vals, q = eigendecompose(bm)
        assert vals == pytest.approx([2.0, 0.0], abs=1e-14)
        assert np.allclose(q @ np.diag(vals) @ q.T, bm.entries, atol=1e-14)

    def test_rank_nine_projector(self):
        bm = build_b_matrix(uniform_model(10))
        vals, _ = eigendecompose(bm)
        assert vals[:9] == pytest.approx([10.0] * 9, rel=1e-13)
        assert abs(vals[9]) < 1e-10 * vals[0]

    def test_zero_matrix(self):
        zero = SpectralMatrix(m=3, entries=np.zeros((3, 3)))
        vals, q = eigendecompose(zero)
        assert not vals.any()
        assert np.array_equal(q, np.eye(3))

    @pytest.mark.parametrize("m", [2, 5, 17, 60, 100])
    def test_contract_on_random_models(self, m):
        rng = np.random.default_rng(m)
        model, _ = random_model_pert(rng, m)
        bm = build_b_matrix(model)
        vals, q = eigendecompose(bm)
        scale = np.abs(bm.entries).max()
        # descending order, theoretical zero last
        assert np.all(np.diff(vals) <= 0)
        assert abs(vals[-1]) <= 1e-10 * vals[0]
        # reconstruction and orthonormality
        assert np.abs(q @ np.diag(vals) @ q.T - bm.entries).max() <= 1e-12 * scale
        assert np.abs(q.T @ q - np.eye(m)).max() <= 1e-12

    def test_agrees_with_lapack(self):
        for _, model, _ in builtin_examples():
            bm = build_b_matrix(model)
            vals, _ = eigendecompose(bm)
            ref = np.linalg.eigvalsh(bm.entries)[::-1]
            assert np.abs(vals - ref).max() <= 1e-10 * ref.max()

    def test_sign_convention(self):
        bm = build_b_matrix(uniform_model(6))
        _, q = eigendecompose(bm)
        for k in range(6):
            lead = q[:, k][np.abs(q[:, k]) > 1e-12][0]
            assert lead > 0

    def test_nonconvergence_raises_with_residual(self):
        from gofpower.spectrum import EigensolverError

        rng = np.random.default_rng(2)
        model, _ = random_model_pert(rng, 12)
        bm = build_b_matrix(model)
        with pytest.raises(EigensolverError) as err:
            eigendecompose(bm, rel_tol=1e-30, max_sweeps=1)
        assert err.value.residual > err.value.target


class TestComputeSpectrum:
    def test_uniform_null(self):
        spec = compute_spectrum(uniform_model(10), zero_perturbation(10))
        assert spec.ell == 9
        assert spec.sigma ** 2 == pytest.approx([0.1] * 9, rel=1e-13)
        assert not spec.zeta.any()
        assert spec.stability_rhs == 1.0

    def test_uniform_alternating(self):
        spec = compute_spectrum(uniform_model(10), alternating_perturbation(10, 0.2))
        assert float(spec.zeta @ spec.zeta) == pytest.approx(4.0, rel=1e-12)
        assert spec.stability_rhs == pytest.approx(8.233, rel=5e-4)

    def test_benchmark_stability_constants(self):
        expected = {"example2": 2.443, "example3": 24.05, "example4": 1.478e16}
        for name, model, pert in builtin_examples()[1:]:
            spec = compute_spectrum(model, pert)
            rel = 5e-3 if name == "example4" else 5e-4
            assert spec.stability_rhs == pytest.approx(expected[name], rel=rel)

    def test_null_from_alternative_is_bitwise_identical(self):
        # sigma depends on p0 alone, so the null spectrum needs no second
        # eigendecomposition
        for _, model, pert in builtin_examples():
            null = compute_spectrum(model, pert).null()
            direct = compute_spectrum(model, zero_perturbation(model.m))
            assert null.ell == direct.ell
            assert null.sigma.tobytes() == direct.sigma.tobytes()
            assert null.zeta.tobytes() == direct.zeta.tobytes()
            assert null.stability_rhs == direct.stability_rhs == 1.0

    @pytest.mark.parametrize("m", [3, 8, 25])
    def test_zeta_norm_identity(self, m):
        # sum zeta_k^2 equals a^T D a because H a = a when the entries sum to 0
        rng = np.random.default_rng(100 + m)
        model, pert = random_model_pert(rng, m)
        spec = compute_spectrum(model, pert)
        expected = float((pert.entries ** 2 / model.probs).sum())
        assert float(spec.zeta @ spec.zeta) == pytest.approx(expected, rel=1e-10)

    def test_zeta_norm_equals_a_norm_for_uniform(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=12)
        a -= a.mean()
        spec = compute_spectrum(uniform_model(12), Perturbation(a))
        # equal sigma: sum zeta^2 = m * ||a||^2; and ||eta|| = ||a||
        assert float(spec.zeta @ spec.zeta) == pytest.approx(
            12 * float(a @ a), rel=1e-10)

    @pytest.mark.parametrize("m", [2, 5, 20, 50])
    def test_uniform_closed_form(self, m):
        spec = compute_spectrum(uniform_model(m), zero_perturbation(m))
        assert spec.sigma ** 2 == pytest.approx([1.0 / m] * (m - 1), rel=1e-12)

    def test_sigma_descending(self):
        for _, model, pert in builtin_examples():
            spec = compute_spectrum(model, pert)
            assert np.all(np.diff(spec.sigma) <= 0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        model, pert = random_model_pert(rng, 9)
        spec = compute_spectrum(model, pert)
        perm = rng.permutation(9)
        spec_p = compute_spectrum(ProbabilityModel(model.probs[perm]),
                                  Perturbation(pert.entries[perm]))
        # the sigma multiset is invariant
        assert np.allclose(np.sort(spec.sigma), np.sort(spec_p.sigma), rtol=1e-10)
        # per distinct eigenvalue, the summed zeta^2 is invariant; these random
        # models have simple spectra so compare pairwise after sorting by sigma
        order = np.argsort(spec.sigma)
        order_p = np.argsort(spec_p.sigma)
        assert np.allclose(spec.zeta[order] ** 2, spec_p.zeta[order_p] ** 2,
                           rtol=1e-8, atol=1e-12)

    def test_degenerate_model_rejected(self):
        # two heavy bins force an O(1) eigenvalue; the tiny bin forces a huge
        # one, so their ratio crosses the 1e-10 degeneracy threshold
        probs = np.array([0.5 - 5e-12, 0.5 - 5e-12, 1e-11])
        model = ProbabilityModel(probs)
        with pytest.raises(DegenerateModelError) as err:
            compute_spectrum(model, zero_perturbation(3))
        assert err.value.condition_ratio == pytest.approx(5e10, rel=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            compute_spectrum(uniform_model(4), zero_perturbation(5))


class TestSpectrumType:
    def test_from_params_sorts_jointly(self):
        spec = Spectrum.from_params([1.0, 3.0, 2.0], [0.1, 0.2, 0.3])
        assert spec.sigma.tolist() == [3.0, 2.0, 1.0]
        assert spec.zeta.tolist() == [0.2, 0.3, 0.1]

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            Spectrum.from_params([1.0, 0.0], [0.0, 0.0])

    def test_stability_cached(self):
        spec = Spectrum.from_params([1.0], [math.sqrt(2.0)])
        assert spec.stability_rhs == pytest.approx(math.exp(math.sqrt(2.0)), rel=1e-12)

    def test_stability_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = Spectrum.from_params(rng.uniform(0.1, 2.0, 5),
                                        rng.normal(size=5))
            assert spec.stability_rhs >= 1.0

    def test_json_dump_format(self):
        spec = Spectrum.from_params([2.0, 1.0], [0.5, -0.5])
        data = json.loads(spec.to_json())
        assert set(data) == {"sigma2", "zeta", "stability_rhs"}
        assert data["sigma2"] == [4.0, 1.0]

    def test_mean(self):
        spec = Spectrum.from_params([2.0, 1.0], [1.0, 0.0])
        assert spec.mean() == pytest.approx(4.0 * 2.0 + 1.0)
