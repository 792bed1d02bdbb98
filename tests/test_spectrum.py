"""Closed-form (secular-equation) spectrum and limit-law parameters."""

import copy
import decimal
import gc
import json
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest

from oracles import bisect_secular_roots, secular_spectrum
from test_quadform import run_threads

from gofpower.model import (
    DimensionError,
    Perturbation,
    ProbabilityModel,
    alternating_perturbation,
    builtin_examples,
    uniform_model,
    zero_perturbation,
)
from gofpower import power, spectrum
from gofpower.power import asymptotic_power, power_curve, pvalue
from gofpower.quadform import DEFAULT_CONFIG, Method, cdf_many
from gofpower.spectrum import (
    _BLOCK,
    _MAX_SWEEPS,
    Spectrum,
    _secular_roots,
    compute_spectrum,
    eigendecompose,
)

EPS = np.finfo(float).eps


def random_model_pert(rng, m):
    p = rng.uniform(0.05, 1.0, m)
    p /= p.sum()
    a = rng.normal(size=m)
    a -= a.mean()
    return ProbabilityModel(p), Perturbation(a)


def b_matrix(p0):
    # B = H D H entrywise: r_j on the diagonal, -(r_j + r_k)/m + sum(r)/m^2
    r = 1.0 / np.asarray(p0, dtype=float)
    m = r.size
    b = float(r.sum()) / (m * m) - (r[:, None] + r[None, :]) / m
    b[np.diag_indices(m)] += r
    return b


def secular_case(seed, kind, ratio):
    """p0 with max/min = ratio (1 is uniform): distinct entries, tied
    levels, or pairs that differ by a few parts in 1e14; a random a."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(5, 40))
    if kind == "distinct":
        u = np.concatenate([[0.0, 1.0], rng.random(m - 2)])
    elif kind == "tied":
        levels = np.concatenate([[0.0, 1.0], rng.random(3)])
        u = levels[np.concatenate([np.arange(5), rng.integers(0, 5, m - 5)])]
    else:
        half = np.concatenate([[0.0, 1.0], rng.random(m // 2 - 1)])
        u = np.concatenate([half, half[:m - half.size]])
    w = ratio ** rng.permutation(u)
    if kind == "near-tied":
        w[m // 2:] *= 1.0 + 1e-14 * rng.integers(1, 5, m - m // 2)
    a = rng.normal(size=m)
    a -= a.mean()
    return ProbabilityModel(w / w.sum()), Perturbation(a)


SECULAR_CASES = [(seed, kind, ratio)
                 for seed, kind in enumerate(("distinct", "tied", "near-tied"))
                 for ratio in (1.0, 1.001, 10.0, 1e3, 1e6, 1e9, 1e12, 1e15)]


def sweep_shaped_p0(rng):
    """p0 shaped like the benchmark's model-sweep: m from 5 to 200, uniform,
    tied at 2 to 5 levels, or distinct, with max/min p0 up to 1e8."""
    m = int(rng.integers(5, 201))
    kind = ("uniform", "tied", "distinct")[int(rng.integers(3))]
    span = rng.uniform(0.0, 8.0)
    if kind == "uniform":
        w = np.ones(m)
    elif kind == "tied":
        levels = int(rng.integers(2, 6))
        u = np.concatenate([[0.0, 1.0], rng.random(levels - 2)])
        which = np.concatenate([np.arange(levels), rng.integers(0, levels, m - levels)])
        w = 10.0 ** (span * u[rng.permutation(which)])
    else:
        w = 10.0 ** (span * rng.permutation(np.concatenate([[0.0, 1.0], rng.random(m - 2)])))
    return w / w.sum()


def distinct_p0(m, ratio, seed):
    rng = np.random.default_rng(seed)
    w = ratio ** rng.permutation(np.concatenate([[0.0, 1.0], rng.random(m - 2)]))
    return w / w.sum()


def reference_p0():
    """(name, p0) for the bisection comparisons: the SECULAR_CASES models,
    200 model-sweep-shaped ones and one distinct model at m = 1,000."""
    out = [(f"secular-{seed}-{kind}-{ratio:g}", secular_case(seed, kind, ratio)[0].probs)
           for seed, kind, ratio in SECULAR_CASES]
    rng = np.random.default_rng(2022)
    out += [(f"sweep-{k}", sweep_shaped_p0(rng)) for k in range(200)]
    out.append(("distinct-1000", distinct_p0(1000, 1e4, 1000)))
    return out


def within_ulp(got, want, ulp):
    return np.abs(got - want) <= ulp * np.spacing(np.abs(want))


def per_eigenvalue(lam, mult, eta):
    """``eigendecompose``'s entries as one (lambda, eta) per eigenvalue, in
    the same order: each lambda mult times, its eta on the first copy and 0
    on the others."""
    counts = mult.astype(int)
    full = np.zeros(counts.sum())
    full[np.cumsum(counts) - counts] = eta
    return np.repeat(lam, counts), full


def oracle_runs(model, pert):
    """The oracle's distinct eigenvalues as runs (start, length, lambda,
    summed zeta^2) over a spectrum's entries, which run by lambda ascending."""
    runs, k = [], 0
    for lam, mult, zeta2 in secular_spectrum(model.probs, pert.entries):
        runs.append((k, mult, lam, zeta2))
        k += mult
    assert k == model.m - 1
    return runs


class TestEigendecompose:
    def test_hand_checked_two_by_two(self):
        # uniform: B = [[1, -1], [-1, 1]], eigenvalue 2 on (1, -1)/sqrt(2)
        lam, eta = per_eigenvalue(*eigendecompose([0.5, 0.5], [0.25, -0.25]))
        assert lam.tolist() == [2.0]
        assert eta == pytest.approx([math.sqrt(0.125)], rel=1e-15)
        # p0 = (1/3, 2/3): B = 1.125 [[1, -1], [-1, 1]], the secular root of
        # 1/(3 - lambda) + 1/(1.5 - lambda) = 0
        lam, eta = per_eigenvalue(*eigendecompose([1 / 3, 2 / 3], [0.1, -0.1]))
        assert lam == pytest.approx([2.25], rel=2 * EPS)
        assert eta == pytest.approx([0.1 * math.sqrt(2.0)], rel=1e-15)

    def test_rank_nine_projector(self):
        # uniform over 10 bins: B = 10 H, the value 10 nine times
        lam, _ = per_eigenvalue(*eigendecompose(uniform_model(10).probs, np.zeros(10)))
        assert lam.tolist() == [10.0] * 9

    @pytest.mark.parametrize("m", [2, 5, 17, 60, 100])
    def test_contract_on_random_models(self, m):
        rng = np.random.default_rng(m)
        model, pert = random_model_pert(rng, m)
        lam, eta = per_eigenvalue(*eigendecompose(model.probs, pert.entries))
        ref = np.linalg.eigvalsh(b_matrix(model.probs))
        # the m - 1 nonzero eigenvalues, ascending
        assert lam.shape == eta.shape == (m - 1,)
        assert np.all(np.diff(lam) >= 0) and lam[0] > 0
        assert np.abs(lam - ref[1:]).max() <= EPS * m * ref[-1]
        # orthonormal eigenvectors spanning the complement of 1, which holds
        # a: the components keep its norm
        a = pert.entries
        assert float(eta @ eta) == pytest.approx(float(a @ a), rel=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_independent_of_block_size(self, seed, monkeypatch):
        # each row's sums are formed on their own, so the number of rows
        # solved together moves no bit of lambda or eta
        p0 = distinct_p0(300, 1e3, seed)
        a = np.random.default_rng(seed).normal(size=p0.size)
        a -= a.mean()
        runs = []
        for block in (7, 128):
            monkeypatch.setattr("gofpower.spectrum._BLOCK", block)
            runs.append(per_eigenvalue(*eigendecompose(p0, a)))
        (lam7, eta7), (lam128, eta128) = runs
        assert np.array_equal(lam7, lam128)
        assert np.array_equal(eta7, eta128)

    def test_sweep_cap_raises(self, monkeypatch):
        # a bracket left open fails, naming its gap, instead of looping on
        monkeypatch.setattr("gofpower.spectrum._MAX_SWEEPS", 1)
        with pytest.raises(RuntimeError, match=r"gap 0 .* after 1 sweeps"):
            eigendecompose([0.2, 0.3, 0.5], [0.1, 0.0, -0.1])

    def test_agrees_with_lapack(self):
        for _, model, _ in builtin_examples():
            lam, _ = per_eigenvalue(*eigendecompose(model.probs, np.zeros(model.m)))
            ref = np.linalg.eigvalsh(b_matrix(model.probs))[1:]
            assert np.abs(lam - ref).max() <= EPS * model.m * ref[-1]
            spec = compute_spectrum(model, zero_perturbation(model.m))
            assert np.abs(1.0 / spec.sigma ** 2 - ref).max() <= EPS * model.m * ref[-1]

    def test_sign_convention(self):
        # with a = e_1 - 1/m, eta_k = q_k . a = (q_k)_1, since q_k sums to 0:
        # positive for every secular root
        rng = np.random.default_rng(12)
        for m in (2, 7, 30):
            p = rng.uniform(0.05, 1.0, m)
            a = -np.full(m, 1.0 / m)
            a[0] += 1.0
            lam, eta = per_eigenvalue(*eigendecompose(p / p.sum(), a))
            assert np.all(np.diff(lam) > 0)
            assert np.all(eta > 0)
        # a tied group's basis follows a: eta >= 0 on its first member only
        lam, eta = per_eigenvalue(*eigendecompose(uniform_model(6).probs,
                                                  [-0.5, 0.1, 0.1, 0.1, 0.1, 0.1]))
        assert eta[0] == pytest.approx(math.sqrt(0.3), rel=1e-15)
        assert not eta[1:].any()

    @pytest.mark.parametrize("p0, a", [
        ([0.5, math.nan], [0.0, 0.0]), ([0.5, 0.0], [0.0, 0.0]),
        ([1.5, -0.5], [0.0, 0.0]), ([0.5, 0.5], [0.0, 0.0, 0.0])])
    def test_rejects_invalid_input(self, p0, a):
        with pytest.raises(ValueError):
            eigendecompose(p0, a)

    @pytest.mark.parametrize("seed, kind, ratio", SECULAR_CASES)
    def test_sigma2_within_4_ulp_of_oracle(self, seed, kind, ratio):
        model, pert = secular_case(seed, kind, ratio)
        spec = compute_spectrum(model, pert)
        s2 = spec.sigma ** 2
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for start, mult, lam, _ in oracle_runs(model, pert):
                for k in range(start, start + mult):
                    rel = abs(decimal.Decimal(float(s2[k])) * lam - 1)
                    assert rel <= 4 * EPS, (k, float(rel) / EPS)

    # Left out: near-tied at ratio 1, where all poles 1/p0 lie within 4e-14
    # of each other.  Rounding 1/p0 to double moves them by 0.25 % of that
    # spread, so the float p0 does not fix each root's zeta^2 better than that.
    @pytest.mark.parametrize("seed, kind, ratio", [
        c for c in SECULAR_CASES if c[1:] != ("near-tied", 1.0)])
    def test_group_zeta2_matches_oracle(self, seed, kind, ratio):
        # when the poles crowd within 1e-3 of each other, their gaps are
        # ~1e-5 of their size, and the eigenvectors move by eps/gap ~ 1e-11
        # under the rounding of 1/p0 itself; wider spreads get 1e-13
        tol = 1e-10 if ratio == 1.001 else 1e-13
        model, pert = secular_case(seed, kind, ratio)
        spec = compute_spectrum(model, pert)
        z2 = spec.zeta ** 2
        runs = oracle_runs(model, pert)
        total = float(sum(zeta2 for *_, zeta2 in runs))
        for start, mult, _, zeta2 in runs:
            got = float(z2[start:start + mult].sum())
            assert abs(got - float(zeta2)) <= tol * total

    def test_tie_group_carries_zeta_on_first_member(self):
        p0 = np.array([0.1, 0.2, 0.1, 0.1, 0.3, 0.2])
        a = np.array([0.3, -0.1, -0.2, 0.05, -0.1, 0.05])
        lam, eta = per_eigenvalue(*eigendecompose(p0, a))
        # r = 10/3 once, 5 twice and 10 three times: 5 once and 10 twice,
        # plus one secular root in each of the two gaps
        assert lam.size == 5
        assert lam[1] == 5.0 and lam[3] == lam[4] == 10.0
        assert 10.0 / 3.0 < lam[0] < 5.0 < lam[2] < 10.0
        assert eta[1] == pytest.approx(abs(a[1] - a[5]) / math.sqrt(2.0), rel=1e-15)
        group = a[[0, 2, 3]] - a[[0, 2, 3]].mean()
        assert eta[3] == pytest.approx(math.sqrt(group @ group), rel=1e-15)
        assert eta[4] == 0.0
        # lambda ascending is sigma descending, entry for entry
        spec = compute_spectrum(ProbabilityModel(p0), Perturbation(a))
        assert spec.zeta[3] == pytest.approx(eta[3] * math.sqrt(10.0), rel=1e-15)
        assert spec.zeta[4] == 0.0

    def test_one_entry_per_distinct_eigenvalue(self):
        # r = 10/3 once, 5 twice and 10 three times: a root, 5, a root and 10
        # twice, each distinct value once with its multiplicity
        p0 = np.array([0.1, 0.2, 0.1, 0.1, 0.3, 0.2])
        a = np.array([0.3, -0.1, -0.2, 0.05, -0.1, 0.05])
        lam, mult, eta = eigendecompose(p0, a)
        assert lam.size == mult.size == eta.size == 4
        assert mult.tolist() == [1.0, 1.0, 1.0, 2.0]
        assert lam[1] == 5.0 and lam[3] == 10.0
        assert np.all(np.diff(lam) > 0)
        assert not lam.flags.writeable and not mult.flags.writeable
        group = a[[0, 2, 3]] - a[[0, 2, 3]].mean()
        assert eta[3] == pytest.approx(math.sqrt(group @ group), rel=1e-15)
        # the spectrum keeps them as its groups: sigma descends as lambda ascends
        s2, cnt, z2, ell = compute_spectrum(ProbabilityModel(p0), Perturbation(a)).groups
        assert s2.tolist() == ((1.0 / np.sqrt(lam)) ** 2).tolist()
        assert cnt.tolist() == mult.tolist() and ell == 5
        assert z2[3] == pytest.approx(10.0 * eta[3] ** 2, rel=1e-14)


class TestSecularIteration:
    """The rational-interpolation secular solver against the bisection it
    replaced (``oracles.bisect_secular_roots``)."""

    @staticmethod
    def f(poles, weight, pole, t):
        # f(pole + t) = sum_g c_g / ((r_g - pole) - t), summed row by row
        return np.einsum("ij,j->i", 1.0 / ((poles - pole[:, None]) - t[:, None]), weight)

    def test_sigma2_within_2_ulp_of_bisection(self):
        for name, p0 in reference_p0():
            s2 = compute_spectrum(ProbabilityModel(p0), zero_perturbation(p0.size)).sigma ** 2
            want = (1.0 / np.sqrt(bisect_secular_roots(p0))) ** 2
            assert np.all(within_ulp(s2, want, 2)), name

    def test_sweeps_and_sign_bracket(self):
        # at most 12 sweeps (bisection takes 54 to 58), and each root is
        # left as bisection leaves it: f changes sign between tau and the
        # double next to it on the pole's side, and the root lies between
        for name, p0 in reference_p0():
            poles, cnt = np.unique(1.0 / p0, return_counts=True)
            if poles.size < 2:
                continue
            weight = cnt.astype(float)
            pole, tau, sweeps = _secular_roots(poles, weight, slice(None))
            assert sweeps <= 12, (name, sweeps)
            at_tau = self.f(poles, weight, pole, tau) > 0.0
            inside = self.f(poles, weight, pole, np.nextafter(tau, 0.0)) > 0.0
            assert np.all(at_tau != inside), name
            assert np.all(at_tau == (tau > 0.0)), name

    @pytest.mark.parametrize("p0", [
        uniform_model(7).probs,                                  # no secular row
        np.array([0.3, 0.7]),                                    # m = 2
        np.array([0.1] * 8 + [0.2]),                             # one distinct value
        np.array([1.0, 1.0 + 1e-14, 1e15, 1e15 * (1.0 + 2e-14),  # near-tied poles
                  1e7, 1e7 * (1.0 + 3e-14)]),                    # at ratio 1e15
        distinct_p0(_BLOCK + 2, 1e3, 7),                         # a block plus one row
    ], ids=["uniform", "m2", "one-distinct", "near-tied-1e15", "block-plus-one"])
    def test_edge_shapes_match_bisection(self, p0):
        p0 = p0 / p0.sum()
        rng = np.random.default_rng(p0.size)
        a = rng.normal(size=p0.size)
        a -= a.mean()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = compute_spectrum(ProbabilityModel(p0), Perturbation(a))
        assert np.all(np.isfinite(spec.sigma)) and np.all(np.isfinite(spec.zeta))
        want = (1.0 / np.sqrt(bisect_secular_roots(p0))) ** 2
        assert np.all(within_ulp(spec.sigma ** 2, want, 1))


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
        cases = [(model, pert) for _, model, pert in builtin_examples()]
        cases += [secular_case(seed, kind, ratio) for seed, kind, ratio in (
            (5, "tied", 10.0), (6, "tied", 1e6), (7, "distinct", 1e9),
            (8, "near-tied", 1e6))]
        for model, pert in cases:
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
        for m in (12, 40):
            rng = np.random.default_rng(9)
            a = rng.normal(size=m)
            a -= a.mean()
            spec = compute_spectrum(uniform_model(m), Perturbation(a))
            # equal sigma: sum zeta^2 = m * ||a||^2; and ||eta|| = ||a||
            assert float(spec.zeta @ spec.zeta) == pytest.approx(
                m * float(a @ a), rel=1e-10)
            # one (m-1)-fold tie: its zeta sits on the tie's first member,
            # where the joint sort in Spectrum must leave it
            assert spec.zeta[0] == pytest.approx(math.sqrt(m * float(a @ a)),
                                                 rel=1e-10)
            assert not spec.zeta[1:].any()

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

    def test_extreme_ratio_answered(self):
        # max p0 / min p0 = 5e10: every nonzero eigenvalue is at least
        # 1/max p0, so the spectrum exists however small min p0 is.  The two
        # heavy bins tie at the pole 1/max p0; the secular root lies between
        # that pole and 1/min p0, and both are within 4 ulp of the oracle
        probs = np.array([0.5 - 5e-12, 0.5 - 5e-12, 1e-11])
        model, pert = ProbabilityModel(probs), zero_perturbation(3)
        lam, _ = per_eigenvalue(*eigendecompose(model.probs, pert.entries))
        assert lam[0] == 1.0 / probs[0]
        assert 1.0 / probs[0] < lam[1] < 1.0 / probs[2]
        s2 = compute_spectrum(model, pert).sigma ** 2
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for start, _, lam_k, _ in oracle_runs(model, pert):
                assert abs(decimal.Decimal(float(s2[start])) * lam_k - 1) <= 4 * EPS

    @pytest.mark.parametrize("p0, a", [
        ([0.5, 0.5], [1e308, -1e308]),                  # a tie: its spread overflows
        ([1 / 3] * 3, [1e200, -1e200, 0.0]),
        ([0.2, 0.3, 0.5], [1e308, -1e308, 0.0])],       # roots: eta / sigma overflows
        ids=["tie-m2", "tie-m3", "roots"])
    def test_overflowing_zeta_is_refused(self, p0, a):
        # a finite a can project to an infinite zeta, which no law has
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="all zeta must be finite"):
                compute_spectrum(ProbabilityModel(p0), Perturbation(a))

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            compute_spectrum(uniform_model(4), zero_perturbation(5))


class TestSecularSolveCache:
    """compute_spectrum keeps the most recent model's secular solve."""

    @staticmethod
    def fresh(model, pert):
        # an equal model that no cache has seen, its masses kept bit for bit
        twin = ProbabilityModel(model.probs.copy(), sum_tol=math.inf)
        assert twin.probs.tobytes() == model.probs.tobytes()
        return compute_spectrum(twin, pert)

    @staticmethod
    def same(got, want):
        return (got.sigma.tobytes() == want.sigma.tobytes()
                and got.zeta.tobytes() == want.zeta.tobytes())

    def test_null_then_alternative_match_a_fresh_model(self):
        cases = [(model, pert) for _, model, pert in builtin_examples()]
        cases += [secular_case(seed, kind, ratio) for seed, kind, ratio in (
            (5, "tied", 10.0), (7, "distinct", 1e9), (8, "near-tied", 1e6))]
        for model, pert in cases:
            zero = zero_perturbation(model.m)
            null, alt = compute_spectrum(model, zero), compute_spectrum(model, pert)
            assert self.same(null, self.fresh(model, zero))
            assert self.same(alt, self.fresh(model, pert))

    def test_models_in_turn_are_each_answered(self):
        rng = np.random.default_rng(41)
        (a, pa), (b, pb) = random_model_pert(rng, 9), random_model_pert(rng, 14)
        first = compute_spectrum(a, pa)
        between = compute_spectrum(b, pb)
        again = compute_spectrum(a, pa)
        assert self.same(first, again) and self.same(again, self.fresh(a, pa))
        assert self.same(between, self.fresh(b, pb))

    def test_one_entry_after_fifty_models(self):
        rng = np.random.default_rng(42)
        probs = []
        for k in range(50):
            model, pert = random_model_pert(rng, 5 + k % 20)
            compute_spectrum(model, zero_perturbation(model.m))
            compute_spectrum(model, pert)
            probs.append(weakref.ref(model.probs))
        del model, pert
        gc.collect()
        alive = [ref() for ref in probs if ref() is not None]
        assert len(alive) == 1 and alive[0] is spectrum._recent[0]

    @pytest.mark.parametrize("m", [12, 300])
    def test_null_then_alternative_solve_once(self, m, monkeypatch):
        # a call per block of secular rows, not a call per block per spectrum
        real, calls = spectrum._secular_roots, []

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(spectrum, "_secular_roots", counting)
        model, pert = random_model_pert(np.random.default_rng(m), m)
        compute_spectrum(model, zero_perturbation(m))
        compute_spectrum(model, pert)
        assert calls == [slice(k, k + _BLOCK) for k in range(0, m - 1, _BLOCK)]


class TestSecularSweeps:
    """``Spectrum.secular_sweeps`` reports the secular solve's sweep count."""

    @pytest.mark.parametrize("m", [3, 12, 300])
    def test_null_and_alternative_report_one_solve(self, m):
        model, pert = random_model_pert(np.random.default_rng(m), m)
        null = compute_spectrum(model, zero_perturbation(m))
        alt = compute_spectrum(model, pert)
        assert 1 <= alt.secular_sweeps <= _MAX_SWEEPS
        assert null.secular_sweeps == alt.secular_sweeps == alt.null().secular_sweeps

    def test_zero_without_a_solved_gap(self):
        assert Spectrum([1.0, 2.0], [0.5, 0.0]).secular_sweeps == 0
        spec = compute_spectrum(uniform_model(6), alternating_perturbation(6, 0.1))
        assert spec.secular_sweeps == spec.null().secular_sweeps == 0

    @pytest.mark.parametrize("kept", [False, True], ids=["solved", "kept"])
    def test_count_is_the_projected_solves(self, kept, monkeypatch):
        # another thread's eigendecomposition replaces the kept solve while
        # this spectrum is projected: its count stays its own solve's
        model, pert = random_model_pert(np.random.default_rng(300), 300)
        other = random_model_pert(np.random.default_rng(3), 3)[0]
        own, theirs = (spectrum._secular_solve(p.probs) for p in (model, other))
        assert own[-1] != theirs[-1]
        if kept:
            compute_spectrum(model, zero_perturbation(model.m))
        real = spectrum._project

        def replacing(solve, a):
            out = real(solve, a)
            spectrum._recent = (other.probs, theirs)
            return out

        monkeypatch.setattr(spectrum, "_project", replacing)
        assert compute_spectrum(model, pert).secular_sweeps == own[-1]

    def test_threads_each_report_their_own_count(self):
        # four threads answer eight models at once, so the kept solve keeps
        # changing hands: each spectrum still reports its own model's count
        models = [random_model_pert(np.random.default_rng(seed), m)
                  for seed, m in enumerate((3, 5, 12, 40, 90, 150, 220, 300))]
        want = [spectrum._secular_solve(model.probs)[-1] for model, _ in models]
        assert len(set(want)) > 1
        jobs = [lambda case=case: compute_spectrum(*case).secular_sweeps for case in models * 6]
        assert run_threads(jobs, 4) == want * 6

    def test_not_in_repr_or_json(self):
        _, model, pert = builtin_examples()[2]
        spec = compute_spectrum(model, pert)
        assert spec.secular_sweeps > 0
        assert "secular_sweeps" not in repr(spec)
        assert "secular_sweeps" not in spec.to_json()


def entry_cases():
    """(model, perturbation) pairs for the entry tests: the four examples,
    the tied and near-tied SECULAR_CASES, and 60 model-sweep-shaped models
    with sum zeta^2 from 2 to 150."""
    cases = [(model, pert) for _, model, pert in builtin_examples()]
    cases += [secular_case(*c) for c in SECULAR_CASES if c[1] != "distinct"]
    rng = np.random.default_rng(2037)
    for _ in range(60):
        p0 = sweep_shaped_p0(rng)
        a = rng.normal(size=p0.size)
        a -= a.mean()
        a *= math.sqrt(rng.uniform(2.0, 150.0) / float(a @ (a / p0)))
        cases.append((ProbabilityModel(p0), Perturbation(a - a.mean())))
    return cases


class TestSpectrumEntries:
    """A spectrum kept as entries, with per-term views built from them."""

    def test_computing_builds_no_term_view(self, monkeypatch):
        # the route, the head, the mean and every integrand read the groups;
        # sigma and zeta are built for output alone
        made = []

        def keep(fn):
            def kept(*args, **kwargs):
                made.append(fn(*args, **kwargs))
                return made[-1]
            return kept

        monkeypatch.setattr(power, "compute_spectrum", keep(compute_spectrum))
        monkeypatch.setattr(Spectrum, "null", keep(Spectrum.null))
        routes = set()
        for _, model, pert in builtin_examples()[2:]:   # the shifted contour and Imhof
            alt = compute_spectrum(model, pert)
            null = compute_spectrum(model, zero_perturbation(model.m))
            for spec in (alt, null, alt.null()):
                cdf_many([0.5 * spec.mean(), spec.mean()], spec)
                pvalue(spec.mean(), spec)
            asymptotic_power(0.05, null, alt)
            power_curve(model, pert, grid=np.linspace(0.05, 5.0, 100))
            routes.add(alt.plan.method)
            for spec in (alt, null, *made):
                assert "sigma" not in vars(spec) and "zeta" not in vars(spec)
        assert routes == set(Method) and len(made) >= 4

    def test_groups_exponent_keeps_the_route(self):
        # the stability exponent summed over the groups is within 4 ulp of
        # the sum over the terms, and picks the same representation
        threshold = DEFAULT_CONFIG.stability_threshold
        cases = entry_cases() + [secular_case(*c) for c in SECULAR_CASES if c[1] == "distinct"]
        for model, pert in cases:
            alt = compute_spectrum(model, pert)
            for spec in (compute_spectrum(model, zero_perturbation(model.m)), alt, alt.null()):
                terms = 0.5 * math.sqrt(1.0 + 1.0 / spec.ell) * float(spec.zeta @ spec.zeta)
                assert abs(spec._log_rhs - terms) <= 4 * math.ulp(terms)
                rhs = math.inf if terms > 700.0 else math.exp(terms)
                assert (rhs <= threshold) == (spec.stability_rhs <= threshold)

    def test_terms_rebuild_the_same_law(self):
        # Spectrum(sigma, zeta) on the views: one entry per term, yet the
        # same groups and stability bound, bit for bit
        for model, pert in entry_cases():
            alt = compute_spectrum(model, pert)
            for spec in (compute_spectrum(model, zero_perturbation(model.m)), alt, alt.null()):
                again = Spectrum(spec.sigma, spec.zeta)
                assert again.ell == spec.ell
                for got, want in zip(again.groups[:3], spec.groups[:3]):
                    assert got.tobytes() == want.tobytes()
                assert again.groups[3] == spec.groups[3]
                assert repr(again.stability_rhs) == repr(spec.stability_rhs)

    def test_views_put_each_tie_on_its_first_term(self):
        for model, pert in entry_cases()[:20]:
            spec = compute_spectrum(model, pert)
            s2, cnt, z2, ell = spec.groups
            starts = np.cumsum(cnt).astype(int) - cnt.astype(int)
            assert spec.sigma.size == spec.zeta.size == ell == model.m - 1
            assert np.array_equal(spec.sigma ** 2, np.repeat(s2, cnt.astype(int)))
            assert np.all(spec.zeta[np.setdiff1d(np.arange(ell), starts)] == 0.0)

    @pytest.mark.parametrize("name", ["ell", "groups", "sigma", "zeta", "stability_rhs",
                                      "secular_sweeps", "plan"])
    def test_immutable(self, name):
        model, pert = secular_case(1, "tied", 10.0)
        for spec in (compute_spectrum(model, pert), Spectrum([2.0, 1.0], [0.5, 0.0])):
            with pytest.raises(AttributeError):   # before first use of a view
                setattr(spec, name, None)
            getattr(spec, name)
            with pytest.raises(AttributeError):   # and after
                setattr(spec, name, None)
            with pytest.raises(AttributeError):
                delattr(spec, name)

    def test_views_are_read_only(self):
        model, pert = secular_case(1, "tied", 10.0)
        for spec in (compute_spectrum(model, pert), Spectrum([2.0, 1.0], [0.5, 0.0])):
            for arr in (spec.sigma, spec.zeta, *spec.groups[:3]):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0

    def test_copies_and_pickles_keep_the_law(self):
        # they carry the entries, so a spectrum whose plan holds closures
        # still copies and pickles
        model, pert = secular_case(1, "tied", 10.0)
        spec = compute_spectrum(model, pert)
        assert spec.plan.log_tail
        for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert type(twin) is Spectrum and twin is not spec
            assert twin.ell == spec.ell and twin.secular_sweeps == spec.secular_sweeps
            for got, want in zip((twin.sigma, twin.zeta, *twin.groups[:3]),
                                 (spec.sigma, spec.zeta, *spec.groups[:3])):
                assert got.tobytes() == want.tobytes()
            assert repr(twin) == repr(spec)

    def test_repr_shows_the_terms(self):
        spec = Spectrum([1.0, 2.0], [0.0, 0.5])
        assert repr(spec) == ("Spectrum(sigma=array([2., 1.]), zeta=array([0.5, 0. ]), "
                              f"ell=2, stability_rhs={spec.stability_rhs!r})")


class TestSpectrumType:
    def test_sorts_jointly(self):
        spec = Spectrum([1.0, 3.0, 2.0], [0.1, 0.2, 0.3])
        assert spec.sigma.tolist() == [3.0, 2.0, 1.0]
        assert spec.zeta.tolist() == [0.2, 0.3, 0.1]
        assert spec.ell == 3
        # ties keep their input order, past the 16 entries numpy sorts stably
        # by default
        spec = Spectrum(np.tile([1.0, 2.0], 20), np.arange(40.0))
        assert spec.zeta.tolist() == list(range(1, 40, 2)) + list(range(0, 40, 2))

    def test_groups_are_runs_of_exact_ties(self):
        s2, cnt, z2, ell = Spectrum([1.0, math.nextafter(1.0, 0.0)], [0.5, 0.25]).groups
        assert s2.tolist() == [1.0, math.nextafter(1.0, 0.0) ** 2]
        assert cnt.tolist() == [1.0, 1.0] and z2.tolist() == [0.25, 0.0625]
        assert ell == 2
        s2, cnt, z2, ell = Spectrum([1.0, 2.0, 1.0, 1.0], [0.5, 3.0, 1.0, 2.0]).groups
        assert s2.tolist() == [4.0, 1.0] and cnt.tolist() == [1.0, 3.0]
        assert z2.tolist() == [9.0, 0.25 + 1.0 + 4.0]
        assert ell == 4
        assert not any(arr.flags.writeable for arr in (s2, cnt, z2))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            Spectrum([], [])

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            Spectrum([1.0, 0.0], [0.0, 0.0])

    def test_stability_cached(self):
        # ell = 1, zeta^2 = 2: exp(sqrt(2))
        spec = Spectrum([1.0], [math.sqrt(2.0)])
        assert spec.stability_rhs == pytest.approx(math.exp(math.sqrt(2.0)), rel=1e-14)

    def test_stability_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = Spectrum(rng.uniform(0.1, 2.0, 5), rng.normal(size=5))
            assert spec.stability_rhs >= 1.0

    def test_json_dump_format(self):
        spec = Spectrum([2.0, 1.0], [0.5, -0.5])
        data = json.loads(spec.to_json())
        assert set(data) == {"sigma2", "zeta", "stability_rhs"}
        assert data["sigma2"] == [4.0, 1.0]

    def test_mean(self):
        spec = Spectrum([2.0, 1.0], [1.0, 0.0])
        assert spec.mean() == pytest.approx(4.0 * 2.0 + 1.0)
