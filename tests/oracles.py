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


def chi2_quantile(df: float, p: float, tol: float = 1e-12) -> float:
    """Inverse of chi2_cdf by bisection; good enough for test fixtures."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    lo, hi = 0.0, max(1.0, float(df))
    while chi2_cdf(df, hi) < p:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("quantile bracket failure")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(df, mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
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


# Spectra of seeded (p0, a) models from the benchmark's model-sweep (seed 1,
# round 0), with sigma and zeta written out repr-exact, a CDF argument x
# each, and F(x) from a 30-digit mpmath Imhof integral: mpmath.quad over
# (0, Y] plus mpmath.quadosc with omega = x/2 beyond.  Y = 100 and 200 (and
# 400 for the first two) agree to 20 digits; for r0-model94, Y = 60 and 120
# (in the variable u = 2y/x) agree to 25.  Each was once returned flagged
# converged, yet off by 1e-9 to 1.3e-7.
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
}

# r0-model85 (seed 1, round 0): m = 26, stability_rhs 24.1, the shifted
# contour.  At this x its 10/21 Kronrod-Gauss head estimate comes out small
# by chance.  F(x) is a 30-digit mpmath Imhof integral as above, with Y =
# 1e4 and 2e4 (in u = 2y/x) agreeing to 24 digits.
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
