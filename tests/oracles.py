"""Independent reference distributions used to check the production code.

Everything here is built from textbook series and continued-fraction
identities, deliberately without importing anything from ``gofpower``, so
that agreement between the two is a genuine two-route check.
"""

import decimal
import math

import numpy as np

_EPS = 1e-16
_MAX_ITER = 10_000


def regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x).

    Power series for x < a + 1, Lentz continued fraction for the upper
    tail otherwise.
    """
    if a <= 0:
        raise ValueError("shape parameter must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # series: P(a,x) = x^a e^-x / Gamma(a) * sum_k x^k / (a(a+1)...(a+k))
        total = 1.0 / a
        term = total
        denom = a
        for _ in range(_MAX_ITER):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        return total * math.exp(-x + a * math.log(x) - lg)
    # modified Lentz for Q(a,x) = x^a e^-x / Gamma(a) * 1/(x+1-a- 1(1-a)/(x+3-a- ...))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    q = math.exp(-x + a * math.log(x) - lg) * h
    return 1.0 - q


def chi2_cdf(df: float, x: float) -> float:
    """Central chi-square CDF with df degrees of freedom."""
    if x <= 0:
        return 0.0
    return regularized_gamma_p(0.5 * df, 0.5 * x)


def chi2_pdf(df: float, x: float) -> float:
    """Central chi-square density x^(k/2-1) e^(-x/2) / (2^(k/2) Gamma(k/2)),
    k = df, on x > 0, summed in the log; 0 for x <= 0."""
    if x <= 0:
        return 0.0
    k = 0.5 * df
    return math.exp((k - 1.0) * math.log(x) - 0.5 * x - k * math.log(2.0) - math.lgamma(k))


def chi2_quantile(df: float, p: float, tol: float = 1e-12) -> float:
    """Inverse of chi2_cdf by bisection; good enough for test fixtures."""
    return noncentral_chi2_quantile(df, 0.0, p, tol)


def noncentral_chi2_quantile(df: float, noncentrality: float, p: float,
                             tol: float = 1e-12) -> float:
    """Inverse of noncentral_chi2_cdf by bisection to a relative width tol
    in x, so that a quantile near 0 keeps its leading digits."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    lo, hi = 0.0, max(1.0, df + noncentrality)
    while noncentral_chi2_cdf(df, noncentrality, hi) < p:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("quantile bracket failure")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if noncentral_chi2_cdf(df, noncentrality, mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    return 0.5 * (lo + hi)


def noncentral_chi2_cdf(df: float, noncentrality: float, x: float) -> float:
    """Noncentral chi-square CDF as a Poisson mixture of central CDFs.

    F(x) = sum_j e^{-l/2} (l/2)^j / j! * chi2_cdf(df + 2j, x).  Forward
    summation from j = 0; adequate for the moderate noncentralities used
    in the tests (the leading Poisson weight must not underflow).
    """
    if x <= 0:
        return 0.0
    lam = noncentrality
    if lam < 0:
        raise ValueError("noncentrality must be nonnegative")
    if lam == 0.0:
        return chi2_cdf(df, x)
    half = 0.5 * lam
    weight = math.exp(-half)
    if weight == 0.0:
        raise ValueError("noncentrality too large for forward summation")
    cum_weight = weight
    total = weight * chi2_cdf(df, x)
    for j in range(1, _MAX_ITER):
        weight *= half / j
        cum_weight += weight
        total += weight * chi2_cdf(df + 2 * j, x)
        # chi2_cdf is decreasing in df, so the dropped tail is below 1 - cum_weight
        if 1.0 - cum_weight < 1e-14:
            break
    return min(1.0, total)


def noncentral_chi2_pdf(df: float, noncentrality: float, x: float) -> float:
    """Noncentral chi-square density as a Poisson mixture of central ones.

    f(x) = sum_j e^{-l/2} (l/2)^j / j! * chi2_pdf(df + 2j, x), summed
    forward.  Past j = l/2 the weights fall faster than geometrically, and
    every chi2_pdf with df + 2j >= 2 is at most 1/2, so the loop stops once
    the dropped tail is below 1e-16 of the sum.
    """
    if x <= 0:
        return 0.0
    if noncentrality < 0:
        raise ValueError("noncentrality must be nonnegative")
    if noncentrality == 0.0:
        return chi2_pdf(df, x)
    half = 0.5 * noncentrality
    weight = math.exp(-half)
    if weight == 0.0:
        raise ValueError("noncentrality too large for forward summation")
    total = weight * chi2_pdf(df, x)
    for j in range(1, _MAX_ITER):
        weight *= half / j
        total += weight * chi2_pdf(df + 2 * j, x)
        ratio = half / (j + 1)
        if ratio < 1.0 and 0.5 * weight * ratio / (1.0 - ratio) <= 1e-16 * total:
            break
    return total


def shifted_tail_masses(sigma, zeta, x: float, edges, past: float = 40.0,
                        width: float = 0.1) -> list:
    """Integral of |g| over [Y, inf) for each Y of the ascending ``edges``,
    where g is the shifted-contour integrand in complex form, one factor per
    term: exp((1-y) + i y rt + sum(z2 (1/w - 1)/2 - log(w)/2)) over
    pi (y - 1/(1 - i rt)), w = 1 - 2(y - 1) s2/x + 2i y rt s2/x, rt = sqrt(ell).
    The real-valued integrand of F is Im g, so these bound its tail too.

    20-point Gauss-Legendre on sub-panels no wider than ``width`` between
    consecutive edges, and on to ``past`` beyond the last, where |g| has
    fallen by about e^-past; the masses are the suffix sums.
    """
    s2 = np.asarray(sigma, dtype=float) ** 2
    z2 = np.asarray(zeta, dtype=float) ** 2
    rt = math.sqrt(s2.size)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    stops = [*edges, edges[-1] + past]
    lo, hi, owner = [], [], []   # sub-panels and the edge interval of each
    for j, (a, b) in enumerate(zip(stops[:-1], stops[1:])):
        cuts = np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)
        lo += cuts[:-1].tolist()
        hi += cuts[1:].tolist()
        owner += [j] * (cuts.size - 1)
    lo, hi = np.array(lo), np.array(hi)
    mass = np.zeros(lo.size)
    for k in range(0, lo.size, 32):   # 640 nodes at a time
        half = 0.5 * (hi[k:k + 32] - lo[k:k + 32])
        y = (lo[k:k + 32, None] + half[:, None] * (nodes + 1.0)).ravel()
        w = (1.0 - 2.0 * (y[:, None] - 1.0) * (s2 / x)
             + 2.0j * y[:, None] * (s2 * rt / x))
        log_mod = ((1.0 - y) + (0.5 * z2 * ((1.0 / w).real - 1.0)
                                - 0.5 * np.log(np.abs(w))).sum(axis=1))
        g = np.exp(log_mod) / (math.pi * np.abs(y - 1.0 / (1.0 - 1.0j * rt)))
        mass[k:k + 32] = (g.reshape(-1, 20) @ weights) * half
    pieces = np.bincount(owner, weights=mass, minlength=len(edges))
    return np.cumsum(pieces[::-1])[::-1].tolist()


def secular_spectrum(p0, a, digits: int = 50):
    """Nonzero spectrum of B = H diag(1/p0) H in ``digits``-digit decimals.

    Returns (lambda, multiplicity, summed zeta^2) per distinct eigenvalue,
    lambda ascending, where zeta_k^2 = lambda_k (q_k . a)^2 over unit
    eigenvectors q_k.  The float inputs are converted exactly.  A value r
    taken by c entries of 1/p0 is an eigenvalue of multiplicity c - 1 with
    summed zeta^2 = r |a_G - mean(a_G)|^2; every other eigenvalue is a root
    of sum_g c_g / (r_g - lambda) = 0, found by bisection inside each gap
    between consecutive r_g, with eigenvector 1/(r - lambda).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        one = decimal.Decimal(1)
        groups: dict = {}
        for p, ak in zip(p0, a):
            groups.setdefault(one / decimal.Decimal(float(p)), []).append(
                decimal.Decimal(float(ak)))
        poles = sorted(groups)
        out = []
        for r in poles:
            members = groups[r]
            if len(members) > 1:
                mean = sum(members) / len(members)
                out.append((r, len(members) - 1,
                            r * sum((x - mean) ** 2 for x in members)))
        stop = decimal.Decimal(10) ** (6 - digits)
        for lo, hi in zip(poles[:-1], poles[1:]):
            left, right = lo, hi
            while right - left > stop * hi:
                lam = (left + right) / 2
                f = sum(len(groups[r]) / (r - lam) for r in poles)
                if f > 0:
                    right = lam
                else:
                    left = lam
            lam = (left + right) / 2
            dot = sum(sum(groups[r]) / (r - lam) for r in poles)
            norm2 = sum(len(groups[r]) / (r - lam) ** 2 for r in poles)
            out.append((lam, 1, lam * dot * dot / norm2))
        return sorted(out)


def bisect_secular_roots(p0):
    """Nonzero eigenvalues of B = H diag(1/p0) H, ascending, by bisection.

    A value r taken by c entries of 1/p0 is an eigenvalue c - 1 times.  Each
    gap between consecutive distinct r holds one root of f(lambda) =
    sum_g c_g / (r_g - lambda), which rises from -inf to +inf across it: the
    sign of f at the midpoint names the nearer pole, and the root is bisected
    on tau = lambda - pole until the bracket is two adjacent doubles, then
    taken at the end away from the pole.  One sweep over the gaps per halving,
    54 to 58 of them, in double precision.  f is summed row by row
    (``einsum``): a BLAS matrix-vector product rounds a row differently with
    the number of rows it is given, which would tie the double where f
    changes sign to the order of the evaluations.
    """
    poles, cnt = np.unique(1.0 / np.asarray(p0, dtype=float), return_counts=True)
    weight = cnt.astype(float)

    def f(delta, t):
        return np.einsum("ij,j->i", 1.0 / (delta - t[:, None]), weight)

    half = 0.5 * (poles[1:] - poles[:-1])
    upper = f(poles - poles[:-1, None], half) < 0.0
    pole = np.where(upper, poles[1:], poles[:-1])
    delta = poles - pole[:, None]
    lo = np.where(upper, -half, 0.0)
    hi = np.where(upper, 0.0, half)
    while True:
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero((mid != lo) & (mid != hi))
        if live.size == 0:
            break
        above = f(delta[live], mid[live]) > 0.0
        hi[live] = np.where(above, mid[live], hi[live])
        lo[live] = np.where(above, lo[live], mid[live])
    return np.sort(np.concatenate([np.repeat(poles, cnt - 1),
                                   pole + np.where(upper, lo, hi)]))


def fresh_stream_statistics(seed: int, n: int, p_a, p0, trials: int):
    """X_n per trial, trial t drawn from a fresh Philox keyed [seed mod 2^64, t].

    The reference for the Monte-Carlo stream contract: one new generator
    per trial, and each statistic reduced on its own count vector.
    """
    out = np.empty(trials)
    inv_n = 1.0 / n
    for t in range(trials):
        key = np.array([seed % 2 ** 64, t], dtype=np.uint64)
        counts = np.random.Generator(np.random.Philox(key=key)).multinomial(n, p_a)
        d = counts * inv_n - p0
        out[t] = n * float(d @ d)
    return out


def empirical_power_reference(null_stats, alt_stats, alpha_grid):
    """(alpha, power, std_error, low_sample) per alpha, one alpha at a time.

    The critical value is the null order statistic of rank
    floor((1 - alpha) T + 1e-9) + 1, capped at T, computed in float64; power
    is the share of alternative statistics at or above it, found by
    bisecting the sorted alternative.  low_sample is alpha T < 10.
    """
    snull = np.sort(np.asarray(null_stats))
    salt = np.sort(np.asarray(alt_stats))
    trials, alt_trials = snull.size, salt.size
    out = []
    for alpha in np.asarray(alpha_grid, dtype=float):
        rank = min(trials, int(math.floor((1.0 - alpha) * trials + 1e-9)) + 1)
        critical = snull[rank - 1]
        above = alt_trials - int(np.searchsorted(salt, critical, "left"))
        out.append((float(alpha), above / alt_trials,
                    math.sqrt(alpha * (1.0 - alpha) / alt_trials),
                    bool(alpha * trials < 10)))
    return out


# Spectra of seeded (p0, a) models, with sigma and zeta written out
# repr-exact, a CDF argument x each, and a 30-digit F(x).
#
# The first three are from the benchmark's model-sweep (seed 1, round 0).
# F(x) is a 30-digit mpmath Imhof integral: mpmath.quad over (0, Y] plus
# mpmath.quadosc with omega = x/2 beyond.  Y = 100 and 200 (and 400 for the
# first two) agree to 20 digits; for r0-model94, Y = 60 and 120 (in the
# variable u = 2y/x) agree to 25.  The contour integral of
# tests/regen_cdf_refs.py reproduces each to within its double rounding.
# Each was once returned flagged converged, yet off by 1e-9 to 1.3e-7.
#
# The "seedS-drawK" entries are draw K of numpy default_rng(S), each draw
# being: m = rng.integers(3, 41); r = rng.uniform(10, 15); u = [0, 1] +
# rng.random(m - 2); p0 proportional to 10^(r * rng.permutation(u)); a =
# rng.standard_normal(m), centred; s = rng.uniform(2, 150); a scaled so that
# sum a^2/p0 = s and centred again.  So max p0 / min p0 = 10^r, from 1e10 to
# 1e15, and sum zeta^2 = s on the alternative.  F(x) is from
# tests/regen_cdf_refs.py, two independent ways at 40 digits: the Imhof
# integral with its tail between the true zeros of the phase, split at Y =
# 100 and 200, and the trapezoidal rule on a contour through the saddle
# point.  All three agree to 1e-40.
SEEDED_CDF_REFERENCES = {
    # m = 6; its stability_rhs of 3.8e34 routes it to the Imhof form
    "r0-model76": dict(
        sigma=[0.4840144748963909, 0.2776872746443486, 0.27271071942924285,
               0.006020184104240193, 0.00041309798102841515],
        zeta=[0.005438961347558565, -0.03450902760541655, 0.011137197040957345,
              -0.5920287463476901, -12.042866629702557],
        x=0.2739093267584571,
        cdf=0.49187419348302585),
    # m = 41; stability_rhs 2.4e15, the Imhof form
    "r0-model102": dict(
        sigma=[0.5892701995042924, 0.37776197951841417, 0.28226890969049834,
               0.1905941796692975, 0.15110658695766407, 0.11686195925325102,
               0.09530092533457701, 0.09039764322502697, 0.08484165941226958,
               0.08032912576779185, 0.07775584618200262, 0.0694991199569647,
               0.06634951219057353, 0.05980590406162134, 0.03888690398531272,
               0.030510290963889443, 0.02793326111670509, 0.02602801589049719,
               0.02400696121578613, 0.021794530052102308, 0.01919979319195234,
               0.01720389934651386, 0.016629021830943693, 0.009098331454332673,
               0.0072680723071884435, 0.006572895069329552, 0.00635798691440693,
               0.00545785368685539, 0.0036088480989567816, 0.002417193422112012,
               0.0020902057164178286, 0.0019498584967884971,
               0.0015977637097595594, 0.0014241740633016673,
               0.0012132383820985212, 0.001096174761536004,
               0.0010690023787564608, 0.0009048072311695139,
               0.0008734085133468999, 0.0008296402884033833],
        zeta=[-0.005154216157933973, 0.00089954692699129, 0.027070047511113526,
              -0.03548434357248624, -0.015080997969380224, 0.02016991299800682,
              -0.034105624483081326, 0.012225463874440918, 0.02942162082572513,
              0.009965796057388548, -0.0032546380184303955,
              -0.024366236525673487, -0.06705262367922457,
              -0.06315314592818354, -0.04326900127671127, -0.1277352021923662,
              -0.22003256587494607, -0.1005185834685497, -0.07467083960777189,
              -0.14372877904035267, 0.017997682272564326, 0.2518706113489861,
              0.1317772528672339, -0.013947254085834295, -0.1605609804998275,
              0.5210169630524325, 1.0340654676512064, -0.1556310508989039,
              0.19347046223929135, 0.6839736779544059, 0.9858446507745481,
              -0.6433786630919495, 2.403453911976637, 1.467205786121689,
              -0.3143639883037312, -0.6529629787111131, 1.1126684556271624,
              -0.015172119765276968, -1.7445816876872235, -7.331698904780007],
        x=2.6014477752973715,
        cdf=0.98773566729260093),
    # m = 16; stability_rhs 1.2e18, the Imhof form
    "r0-model94": dict(
        sigma=[0.4714040041596714, 0.4714040041596714, 0.4714040041596714,
               0.2087045361361678, 0.1515056138123117, 0.1515056138123117,
               0.1515056138123117, 0.09536014918492916, 0.08726627921873108,
               0.03458277683573337, 0.0285124147413195, 0.0285124147413195,
               0.0285124147413195, 0.0285124147413195, 0.0013304043000358719],
        zeta=[0.03863826770028497, 0.0, 0.0, -0.02672760313301226,
              0.18837770623183073, 0.0, 0.0, -0.10644765984998997,
              0.0242263459678014, -0.16976785778019837, 0.4192017226075686,
              0.0, 0.0, 0.0, -8.968221831479896],
        x=2.004619480630544,
        cdf=0.96111928956429362032),
    # m = 27, max/min p0 = 5.6e10; the null, the shifted contour; x is the mean
    "seed18-draw4-null": dict(
        sigma=[0.5340359995812485, 0.45931709016938915, 0.3394889931368572,
               0.2783310115195374, 0.25199695543484574, 0.13973404917916746,
               0.08271742115668436, 0.0474829571134027, 0.030554918480523992,
               0.025464858923487866, 0.01297473290291014, 0.010135528951637869,
               0.0022015734634330073, 0.0017082715497158262,
               0.001033309040782858, 0.0008546568208022999,
               0.0004973738120560887, 0.00027399298822773795,
               0.00014327617658555525, 6.313071026542639e-05,
               3.763612146102385e-05, 3.27082404605665e-05,
               3.0734383627026787e-05, 1.7529404380979583e-05,
               3.0132058356583626e-06, 2.4751919318458764e-06],
        zeta=[0.0] * 26,
        x=0.7828754883599114,
        cdf=0.60688960790448744286),
    # m = 32, max/min p0 = 5.5e11; stability_rhs 1.6e4, the shifted contour;
    # x is the mean
    "seed18-draw6": dict(
        sigma=[0.5956117110455338, 0.3675316504542314, 0.2644369994030161,
               0.1901224342197144, 0.10475078007472498, 0.03535584101957916,
               0.023286208176896275, 0.016242801091599313,
               0.011314449063696054, 0.006434583577751331,
               0.0045730246072272825, 0.0024172744312086747,
               0.0014577929451781361, 0.0006388993721733186,
               0.0003991293085882422, 0.00022102830290365614,
               0.0001691968163805572, 0.00010035686217304728,
               5.956650592370565e-05, 5.5911219985742656e-05,
               5.090661280164958e-05, 3.075226903488492e-05,
               1.664161173219142e-05, 9.803328242112562e-06,
               8.582976042212012e-06, 5.470368683587167e-06,
               4.315064057916855e-06, 3.7484965287765546e-06,
               1.936315105141588e-06, 1.771944850899977e-06,
               1.0334103745339885e-06],
        zeta=[1.5214091686514963e-05, -2.4518490123159267e-06,
              3.848727214835016e-05, -1.8582670182940363e-06,
              -5.8005649824721605e-05, 3.143599565886034e-05,
              -0.00043545524691643875, -0.00018746961272046936,
              -0.00019913864615292272, 0.00015274510574308974,
              -0.000647861165120554, 0.0015321020923647229,
              -1.7998501543880072e-05, -0.0016836526602927123,
              -0.011236238781166235, -0.04083794694492592,
              -0.024911844062858096, -0.0691995488247093, 0.06725947505040111,
              0.13096525396967446, 0.029968796035945038, 0.08267641479461814,
              -0.24385072523654502, -0.08957727524760478, -1.1732929844982376,
              0.3636827290918382, -1.2527140233770067, -2.4401748256313542,
              0.3331316620967869, -2.8988330366035613, -1.2000189242143715],
        x=0.6091340967738885,
        cdf=0.63924036880763338322),
    # m = 37, max/min p0 = 3.1e14; stability_rhs 5.6e23, the Imhof form; x is
    # half the mean
    "seed18-draw8": dict(
        sigma=[0.38041598189706277, 0.09393071314615858, 0.05783542742379337,
               0.037659973927037016, 0.02318391849991226, 0.013684900155665598,
               0.011366632998370412, 0.01094924863700713, 0.008841750973646322,
               0.005303481713774783, 0.0025094020167846535,
               0.001279443570847957, 0.0010507436879896787,
               0.0009508698849974597, 0.0008339211438531955,
               0.0006707358729685079, 0.0002315884116457434,
               3.1826965074889106e-05, 2.134381531687437e-05,
               6.332173493015632e-06, 5.843494792804446e-06,
               5.461354361656395e-06, 4.938745422954571e-06,
               4.200414877924895e-06, 3.3926485647831877e-06,
               2.8303192676487636e-06, 2.725768319271247e-06,
               9.968347164277333e-07, 9.496210154009578e-07,
               6.020135463787211e-07, 5.642079517606677e-07,
               3.409572051144079e-07, 1.5473677495234328e-07,
               1.431500345698057e-07, 7.205764442353609e-08,
               5.469495462894275e-08],
        zeta=[-2.4255294777538413e-07, -5.438017326998947e-06,
              -8.469076406595779e-06, -7.375231430020219e-07,
              -1.8263200265646857e-06, 1.714411618877808e-05,
              4.612077310324428e-06, 1.647169524569512e-07,
              -2.2399724775437246e-06, 3.416026877256844e-05,
              0.00012785151655286044, -6.192280896415406e-06,
              -6.858885844876658e-05, 0.000407801810509728,
              -2.1477159683529276e-05, 0.0005676652994551262,
              -0.0012787800996610676, 0.0063248914464525555,
              -0.0005753370241517019, 0.022880674785382794,
              -0.00916101711887555, -0.04533430873403375, 0.0646148416136369,
              -0.009504656141336469, -0.04023310791267594,
              -0.000829665645939891, 0.11113955121980133, 0.37212839095886147,
              -0.43920538357126726, 0.24274441388442514, -0.5308511970538936,
              1.1543111865184403, -1.2540330702388074, -2.1762117108071983,
              -4.878016877600562, 8.704076920655885],
        x=0.07969690588843571,
        cdf=0.49262431236847481213),
    # m = 4, max/min p0 = 2.6e14; stability_rhs 8.4e33, the Imhof form; x is
    # twice the mean
    "seed18-draw10": dict(
        sigma=[0.4176860565007911, 5.230855396105257e-05, 6.844229888657621e-08],
        zeta=[-4.2322352445358617e-07, -0.003622098833339338,
              -11.632077015899242],
        x=0.34892328906414505,
        cdf=0.84270079457770992459),
    # m = 4, max/min p0 = 8.5e14; stability_rhs 44, the shifted contour; x is
    # twice the mean
    "seed18-draw11": dict(
        sigma=[0.0048473408576470995, 0.00013543711429442166,
               3.949734672028803e-08],
        zeta=[-0.00010489393685546278, -0.003443017156391337,
              2.5617006999869587],
        x=4.7030114179832366e-05,
        cdf=0.84278173843834213712),
    # the nulls of the last two at the same x, the shifted contour: all but
    # chi-square on one degree of freedom, with ell = 3.  The head's panel
    # estimates come to 2e-14 here, below the window's tail, which an
    # estimate that holds must carry
    "seed18-draw10-null": dict(
        sigma=[0.4176860565007911, 5.230855396105257e-05, 6.844229888657621e-08],
        zeta=[0.0] * 3,
        x=0.34892328906414505,
        cdf=0.84270079457814547457),
    "seed18-draw11-null": dict(
        sigma=[0.0048473408576470995, 0.00013543711429442166,
               3.949734672028803e-08],
        zeta=[0.0] * 3,
        x=4.7030114179832366e-05,
        cdf=0.84278174172769752758),
}

# r0-model85 (seed 1, round 0): m = 26, stability_rhs 24.1, the shifted
# contour.  At this x its 10/21 Kronrod-Gauss head estimate once came out
# small by chance, while the first head panel held the integrand's pole.
# F(x) is a 30-digit mpmath Imhof integral as above, with Y = 1e4 and 2e4
# (in u = 2y/x) agreeing to 24 digits.
HEAD_ESTIMATE_MISS = dict(
    sigma=[0.37025745482629996] * 6 + [0.10065437969881758]
    + [0.06982198317498843] * 7 + [0.02057055453045713]
    + [0.01877649726815589] * 2 + [0.007409820706381774]
    + [0.00619853605663055] * 7,
    zeta=[0.027802940662613206, 0.0, 0.0, 0.0, 0.0, 0.0,
          0.0036544906012286886, 0.17431243787498013, 0.0, 0.0, 0.0, 0.0,
          0.0, 0.0, -0.09062144355230252, 0.2352695787586509, 0.0,
          0.823950561859319, 2.338761719190686, 0.0, 0.0, 0.0, 0.0, 0.0,
          0.0],
    x=0.01235291864413407,
    cdf=7.5757218728838282563e-09)

# F of HEAD_ESTIMATE_MISS's model at 12 nodes of the 513-point sqrt-x
# Chebyshev grid on default_grid(0.005) times its null mean (nodes 0, 64,
# ..., 512, with 432 and the old miss, 463), x -> F(x), from
# tests/regen_cdf_refs.py as above.
HEAD_ESTIMATE_GRID = {
    0.0043412634321065005: 1.7955283531301977749e-12,
    0.007271460304578793: 1.327008157106368735e-10,
    0.01235291864413407: 7.5757218728838282563e-09,
    0.020358067096621784: 2.4680696294249176148e-07,
    0.03422903741480889: 6.5174766792828416643e-06,
    0.13058892427365237: 4.5054032594162068532e-03,
    0.4742559128279644: 0.20696755730299284973,
    1.1550425757259333: 0.76800128181677627789,
    2.1339241742365305: 0.98140084698752559392,
    3.197255999221585: 0.99919566607600613714,
    4.027151692829357: 0.99993993310613764812,
    4.3412634321065005: 0.9999779805996699582,
}

# poisson:3 with alternating:0.1, whose summed zeta^2 = 2.1e7 sits on
# sigma^2 = 5e-10 (test_tiny_variance_with_large_shift): its spectrum as
# compute_spectrum returns it, repr-exact, and x -> F(x) from
# tests/regen_cdf_refs.py as above.
TINY_VARIANCE = dict(
    sigma=[0.4733305479845852, 0.43616351471865616, 0.39642138694635526,
           0.3346513335458131, 0.25027844855993486, 0.22380809752361594,
           0.1548795310256172, 0.09493179366535186, 0.054635832395999055,
           0.02981216176658684, 0.015513152668677695, 0.007731822232126626,
           0.0037038476056429877, 0.0017103404768898966,
           0.0007632353911216317, 0.0003298586237861148,
           0.0001383318352136531, 5.6385963623240416e-05,
           2.237016088911527e-05],
    zeta=[0.29877927135587107, -0.061724733768273754, 0.35704115186838287,
          0.18292246838885878, -0.5930884421577747, -0.015528346096791271,
          -0.731951006276743, 0.9867312309215903, -1.9435961647376008,
          3.215082226740856, -6.752139655424499, 12.47026109906813,
          -28.06821827749145, 56.60888959896081, -135.4851352781142,
          294.51933526527836, -744.6449561689371, 1726.103565427776,
          -4622.971779776344],
    cdf={0.5: 0.13154242402918655023, 1.0: 0.56532763880041227965,
         1.5: 0.83035272571443952377, 2.0: 0.93971222219563411415})

# Converged values of the Imhof route that miss these references by 1.5 to
# 6 times their estimates; a strict xfail in tests/test_quadform.py pins
# them.  Each is a draw of the recipe above, with r = rng.uniform(6, 9.9)
# and s = rng.uniform(45, 150) for seed2-draw39, and F(x) is from
# tests/regen_cdf_refs.py in the same way.  In each, the real-axis head ends
# at 10 + sqrt(ell), where the phase slope has not settled, and the
# epsilon-extrapolated tail starts there.
IMHOF_TAIL_MISSES = {
    # m = 36, max/min p0 = 9.5e8; stability_rhs 6.8e21; x is half the mean.
    # Reachable before the degeneracy refusal was deleted
    "seed2-draw39": dict(
        sigma=[0.5801192475057623, 0.4314441830050253, 0.32848073449079834,
               0.17733504670737193, 0.1319367901609658, 0.08610385334742757,
               0.06408430469802825, 0.0564992702760899, 0.04566408359482607,
               0.030315867442213793, 0.0225515541759247, 0.014412579961330163,
               0.006181468929107669, 0.005127147096913503,
               0.004705400230137564, 0.003932623628466883,
               0.0035281032779187235, 0.002863362258488043,
               0.0012168209497921752, 0.0010326941497444822,
               0.0008883165488403056, 0.0004133452136134282,
               0.00035266219437162357, 0.0002584116296945785,
               0.0002457964949641164, 0.0002280953538950089,
               0.00021628418855153917, 0.0001557313221901077,
               0.00014770514696799616, 0.00013065256723395906,
               8.125311797220205e-05, 4.5211390569056546e-05,
               2.8908456187676977e-05, 2.4719839495743383e-05,
               2.2321271958501236e-05],
        zeta=[5.485072216013639e-06, -0.00058297182265269,
              -6.762131445444962e-05, -0.0005910105141917768,
              0.0024804868147234164, 0.0012708753364898422,
              -0.00042171721303701923, -0.007205810772673321,
              0.0006122114220960677, -0.009946481987556002,
              0.000627374595103877, 0.0032811870959097286,
              0.018135459338361408, -0.05412267476482406,
              -0.005860309054466287, -0.1207318751486659, -0.08531586110050295,
              0.005511068134151776, 0.05517617249206204, -0.03677891368285252,
              0.12409209020575163, 0.8143601266742426, 0.059086275862699905,
              0.8749588602131844, 0.14024621231158663, 0.7749980689380732,
              -1.1494685973268903, -1.489052724510731, -2.1640261702940387,
              -1.1194269730584967, 2.138275467012473, 2.6778032998156722,
              0.01593601745441711, -7.646134830855032, -4.166080692723519],
        x=0.3489992670883016,
        cdf=0.30355347907227301249),
    # m = 35, max/min p0 = 4.8e11; stability_rhs 1.1e22; x is the mean.  Its
    # null at its own mean misses in the same way on the forced Imhof route
    "seed18-draw14": dict(
        sigma=[0.5623882820094546, 0.39182325327282963, 0.319298095492944,
               0.267140580891598, 0.20462441797033315, 0.1238556359201252,
               0.07548406100956691, 0.061161537732558675, 0.054801206492460425,
               0.036411421908892766, 0.03300210371020413, 0.027215368587727395,
               0.023626467490552375, 0.01958728617897935,
               0.0034173232014333183, 0.00316172382498897,
               0.002406258758112768, 0.001828334841218721,
               0.0015917215721230962, 0.0006820512303226083,
               0.000486598557072235, 0.00032656819961523255,
               0.0002113447042343629, 0.0001248721922868223,
               5.085801150526678e-05, 4.428832356206633e-05,
               3.949214986033275e-05, 3.7644011114266524e-05,
               8.530980797511551e-06, 3.439245774801704e-06,
               2.212700531448763e-06, 1.3012828453727447e-06,
               1.1718707552691022e-06, 1.00207877249845e-06],
        zeta=[-1.7918967256324914e-06, -1.0791341516475555e-05,
              -8.92660375615706e-06, 6.321508140841706e-05,
              2.5143260616567518e-05, -7.159049271606471e-06,
              3.5930454904630624e-05, -4.287496137246836e-05,
              -1.0150538676162915e-05, 5.822679885850341e-05,
              4.805988507293789e-05, -6.580192257251067e-05,
              0.00012089233225037793, 0.0002540307324306357,
              0.0010947854965109324, 0.0023057788722525324,
              0.0022835692020113556, 5.722973360261238e-05,
              -0.0023938599940968907, 0.008998140766890697,
              0.015773911409674355, 0.0009726297712203189,
              0.041413241709345246, -0.08351356320364138, 0.11481434386712337,
              -0.012402015689977909, -0.07593644541475911,
              -0.02306411718758821, 0.387023705815412, -0.8077054618295412,
              2.0346996912113036, -5.197585986918162, -7.67757540610861,
              -3.012740667935485],
        x=0.7169062227647118,
        cdf=0.61780477004267993254),
    # m = 36, max/min p0 = 3.9e13; stability_rhs 1.8e8; x is half the mean
    "seed18-draw1": dict(
        sigma=[0.5835799293396846, 0.3791986177649455, 0.2499307797671077,
               0.18900700445591073, 0.14255003579697345, 0.12002479799559317,
               0.1061654045341103, 0.028323036466282744, 0.013499943277786197,
               0.0121729586409996, 0.0046781526162225666,
               0.0030526406738593725, 0.0026629450693748885,
               0.002300022144895781, 0.002143269050358189,
               0.0021242770072868677, 0.0016616202243509037,
               0.0010235626234170547, 0.0008330287474916007,
               0.0006822241321945865, 0.000652353822713028,
               0.0002077505919078545, 6.081321263841332e-05,
               5.259273876315923e-05, 4.350420623728261e-05,
               2.1289035120625987e-05, 1.6462839028422276e-05,
               9.856814488546547e-06, 9.466495305747339e-07,
               8.770171766406304e-07, 8.222674852296959e-07,
               4.4372999477069315e-07, 1.8112949819687006e-07,
               1.3661291620146953e-07, 1.2131126428005e-07],
        zeta=[-9.525817317551756e-07, -2.0167877287349167e-07,
              -3.879945195688291e-06, 1.9168318625590745e-06,
              -1.5914000642148505e-06, -9.667469914227928e-07,
              -7.1320017283551685e-06, 1.8674050601177756e-05,
              6.961026385873459e-05, 5.658788556682252e-05,
              -5.701330585042934e-05, -5.686471664681886e-05,
              0.0001757034206219947, 0.00017043257969953144,
              -0.00014455316527790037, -0.0003539968280974287,
              -0.00015149136538510747, -4.661772619510242e-05,
              0.00031263035781790486, -1.0139064520703053e-06,
              -0.0005896863897043395, 0.004156450743169099,
              -0.006170850809292522, 0.006582717375496299,
              -0.005732608294278405, 0.02640163676484907, 0.04131888839303272,
              0.050437388252931904, 0.3384239401208152, -0.28164388622219694,
              -0.1725488147554586, -1.5753758369493107, 3.0448557472535893,
              -5.005079374079559, -0.6478522170814607],
        x=0.3148672435002972,
        cdf=0.31168723065699457468),
}

# Benchmark models (model-sweep, the seed and round in the key's comment)
# with sigma and zeta repr-exact.  On the first three a truncated real-axis
# tail once made asymptotic_power return a power below alpha at alpha =
# 0.01; on seed4201-r0-model25 the bisection's stop rule |F0 - 0.99| < 1e-8
# left the power 2.6e-7 from the power at the root.
# POWER_AT_1PCT holds powers at alpha = 0.01 in 30-digit mpmath, from
# tests/regen_power_refs.py: the critical value x* solves F0(x*) = 0.99 by
# mpmath.findroot on the null's Imhof integral, and the power is 1 - Fa(x*).
# x* = 3.317020393253876 for r0-model25 and 2.991326528002009 for
# seed4201-r0-model25.
SEEDED_POWER_MODELS = {
    # seed 2202, round 0: m = 14
    "r0-model25": dict(
        sigma=[0.7070235338812128, 0.01276282677269034, 0.00678063379839833,
               0.00678063379839833, 0.00678063379839833, 0.00678063379839833,
               0.0013571958872178832, 0.001040381863871287,
               0.001040381863871287, 0.001040381863871287,
               0.001040381863871287, 0.0002932100954102836,
               0.00027214939810604256],
        zeta=[0.001696703311735295, -0.02144612753480629, 0.21458646707908405,
              0.0, 0.0, 0.0, 1.7635994843110803, 3.6307419090711757, 0.0, 0.0,
              0.0, 2.6879086762395006, 8.26779249232667],
    ),
    # seed 3201, round 1: m = 16
    "r1-model27": dict(
        sigma=[0.7071048729423486, 0.0017740199410553278, 0.000694461732980397,
               0.000694461732980397, 0.000694461732980397,
               0.000694461732980397, 0.0006749166352141517,
               0.0006506297696529689, 0.0006506297696529689,
               0.0006506297696529689, 0.0006506297696529689,
               0.0006506297696529689, 0.0006506297696529689,
               0.0001137223842313483, 0.0001065438814620432],
        zeta=[0.0013572013806167607, -0.2807234312591604, 2.7608619850268816,
              0.0, 0.0, 0.0, -0.0070174015078845325, 3.5731310451191103, 0.0,
              0.0, 0.0, 0.0, 0.0, -1.6603438986018138, 8.90825979285606],
    ),
    # seed 17, round 0: m = 5
    "r0-model89": dict(
        sigma=[0.7071067144492877, 0.000492301340955141,
               0.00015892298900581855, 0.0001245994794474797],
        zeta=[0.0011585787704002826, 0.2751857497388966, 1.6590557221185787,
              10.953427319966854],
    ),
    # seed 4201, round 0: m = 5
    "seed4201-r0-model25": dict(
        sigma=[0.5638644856215508, 0.5638644856215508, 0.1915698483002885,
               0.15193835191325472],
        zeta=[1.3077687665422755, 0.0, -0.4622057346094808, 9.98512880779876],
    ),
}
POWER_AT_1PCT = {"r0-model25": 0.010000420251350803155716,
                 "seed4201-r0-model25": 0.6414937556367186967407892}
