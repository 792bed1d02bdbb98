"""Self-checks of the reference oracles against scipy and known constants."""

import decimal

import numpy as np
import pytest
import scipy.stats as st

from oracles import (
    bisect_secular_roots,
    chi2_cdf,
    chi2_pdf,
    chi2_quantile,
    noncentral_chi2_cdf,
    noncentral_chi2_pdf,
    noncentral_chi2_quantile,
    secular_spectrum,
)


def test_chi2_known_values():
    # chi2(1) at 1 is erf(1/sqrt(2))
    assert chi2_cdf(1, 1.0) == pytest.approx(0.6826894921370859, abs=1e-14)
    # 95% point of chi2(1)
    assert chi2_cdf(1, 3.841458820694124) == pytest.approx(0.95, abs=1e-13)
    assert chi2_cdf(9, 16.918977604620448) == pytest.approx(0.95, abs=1e-13)


def test_chi2_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        df = rng.integers(1, 60)
        x = rng.uniform(0.0, 4.0 * df)
        assert chi2_cdf(df, x) == pytest.approx(st.chi2.cdf(x, df), abs=1e-12)


def test_chi2_quantile_roundtrip():
    for df in (1, 3, 9, 25):
        for p in (0.01, 0.05, 0.5, 0.95, 0.999):
            q = chi2_quantile(df, p)
            assert chi2_cdf(df, q) == pytest.approx(p, abs=1e-10)
    assert chi2_quantile(9, 0.95) == pytest.approx(16.918977604620448, rel=1e-10)


def test_noncentral_against_scipy():
    rng = np.random.default_rng(11)
    for _ in range(100):
        df = rng.integers(1, 40)
        lam = rng.uniform(0.0, 30.0)
        x = rng.uniform(0.0, 3.0 * (df + lam))
        assert noncentral_chi2_cdf(df, lam, x) == pytest.approx(
            st.ncx2.cdf(x, df, lam), abs=1e-11
        )


def test_noncentral_reduces_to_central():
    for x in (0.5, 2.0, 10.0):
        assert noncentral_chi2_cdf(9, 0.0, x) == chi2_cdf(9, x)


def test_chi2_pdf_against_mpmath():
    # the closed form, in 30 digits
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(13)
    with mpmath.workdps(30):
        for _ in range(100):
            df = int(rng.integers(1, 60))
            x = float(rng.uniform(1e-6, 5.0 * df))
            k = mpmath.mpf(df) / 2
            want = mpmath.mpf(x) ** (k - 1) * mpmath.exp(-mpmath.mpf(x) / 2) / (
                2 ** k * mpmath.gamma(k))
            assert abs(chi2_pdf(df, x) - want) <= 1e-13 * want


def test_noncentral_pdf_against_mpmath_bessel():
    # the Bessel form, not the Poisson mixture: e^(-(x+l)/2) (x/l)^(k/4-1/2)
    # I_(k/2-1)(sqrt(l x)) / 2, in 30 digits
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    with mpmath.workdps(30):
        for _ in range(100):
            df = int(rng.integers(1, 40))
            lam = float(rng.uniform(0.1, 40.0))
            x = float(rng.uniform(1e-3, 3.0 * (df + lam)))
            mx, ml = mpmath.mpf(x), mpmath.mpf(lam)
            want = (mpmath.exp(-(mx + ml) / 2) * (mx / ml) ** (mpmath.mpf(df) / 4 - 0.5)
                    * mpmath.besseli(mpmath.mpf(df) / 2 - 1, mpmath.sqrt(ml * mx)) / 2)
            assert abs(noncentral_chi2_pdf(df, lam, x) - want) <= 1e-12 * want
    assert noncentral_chi2_pdf(9, 0.0, 3.0) == chi2_pdf(9, 3.0)


def test_noncentral_quantile_roundtrip():
    for df, lam in ((1, 2.0), (9, 4.0), (9, 60.0)):
        for p in (1e-10, 1e-6, 0.01, 0.05, 0.5, 0.999, 1.0 - 1e-6):
            q = noncentral_chi2_quantile(df, lam, p)
            # relative to p in the lower tail, to 1e-10 in the upper
            assert abs(noncentral_chi2_cdf(df, lam, q) - p) <= min(1e-9 * p, 1e-10)
            assert st.ncx2.ppf(p, df, lam) == pytest.approx(q, rel=1e-9)


def test_edge_cases():
    assert chi2_cdf(5, 0.0) == 0.0
    assert chi2_cdf(5, -1.0) == 0.0
    assert noncentral_chi2_cdf(5, 2.0, -1.0) == 0.0
    assert chi2_pdf(5, 0.0) == noncentral_chi2_pdf(5, 2.0, -1.0) == 0.0
    with pytest.raises(ValueError):
        chi2_quantile(3, 1.5)


SECULAR_P0 = [
    [0.1, 0.2, 0.3, 0.4],
    [0.2, 0.2, 0.2, 0.1, 0.3],                  # a tied group of three
    [0.25, 0.25 * (1 + 1e-14), 0.3, 0.2 - 0.25e-14],  # near-tie
    [1e-9, 0.5, 0.25, 0.25 - 1e-9],             # ratio 5e8 and a near-tie
]


@pytest.mark.parametrize("p0", SECULAR_P0)
def test_secular_spectrum_against_mpmath_eigsy(p0):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(len(p0))
    a = rng.normal(size=len(p0))
    a -= a.mean()
    spec = secular_spectrum(p0, a)
    m = len(p0)
    with mpmath.workdps(60):
        r = [1 / mpmath.mpf(float(p)) for p in p0]
        h = mpmath.eye(m) - mpmath.ones(m) / m
        b = h * mpmath.diag(r) * h
        vals, vecs = mpmath.eigsy(b)
        order = sorted(range(m), key=lambda k: vals[k])[1:]   # drop the zero
        av = mpmath.matrix([mpmath.mpf(float(x)) for x in a])
        k = 0
        for lam, mult, zeta2 in spec:
            want_zeta2 = 0
            for j in order[k:k + mult]:
                assert abs(vals[j] - mpmath.mpf(str(lam))) <= mpmath.mpf(10) ** -35 * vals[j]
                q = vecs[:, j]
                want_zeta2 += vals[j] * (q.T * av)[0] ** 2
            k += mult
            assert abs(mpmath.mpf(str(zeta2)) - want_zeta2) <= (
                mpmath.mpf(10) ** -30 * (1 + want_zeta2))
        assert k == m - 1


@pytest.mark.parametrize("p0", SECULAR_P0)
def test_bisect_secular_roots_against_decimal_oracle(p0):
    lam = bisect_secular_roots(p0)
    want = [ref for ref, mult, _ in secular_spectrum(p0, np.zeros(len(p0)))
            for _ in range(mult)]
    assert lam.size == len(want) == len(p0) - 1
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for got, ref in zip(lam, want):
            assert abs(decimal.Decimal(float(got)) / ref - 1) <= 2 * np.finfo(float).eps
