"""Recompute the 30-digit CDF references of ``tests/oracles.py`` with mpmath.

    python3 tests/regen_cdf_refs.py [name ...]

Not collected by pytest, and needs mpmath, which the test suite does not.
For each entry of ``oracles.SEEDED_CDF_REFERENCES`` and
``oracles.IMHOF_TAIL_MISSES``, and each x of ``oracles.HEAD_ESTIMATE_GRID``
(named r0-model85@x) and of ``oracles.TINY_VARIANCE`` (tiny-variance@x),
all of them by default, F(x) is computed two independent ways at 40 digits:

* Imhof's (1961) inversion integral, ``regen_power_refs.imhof_cdf``, with
  the tail split at Y and at 2Y; their difference is printed.
* The trapezoidal rule on the hyperbola s(t) = c + g (cosh t - 1 + i sinh t)
  through the saddle c < 0 of K(s) - s x - log|s|, where K is the
  cumulant generating function: F(x) = -(1/pi) int_0^oo
  Im[exp(K(s) - s x) s'(t) / s] dt.  The step is halved until two levels
  agree; the difference from the Imhof value is printed.

A point takes from a few seconds to a few minutes on one core.  The exit
status is 1 if the two ways differ by more than 1e-30 anywhere.
"""

import sys

import mpmath as mp

from oracles import (
    HEAD_ESTIMATE_GRID,
    HEAD_ESTIMATE_MISS,
    IMHOF_TAIL_MISSES,
    SEEDED_CDF_REFERENCES,
    TINY_VARIANCE,
)
from regen_power_refs import imhof_cdf

Y = 100


def contour_cdf(x, lam, delta2, tol):
    """F(x) by the trapezoidal rule on a hyperbola through the saddle c < 0."""
    def k_of(s):
        return sum(-mp.log(1 - 2 * s * l) / 2 + d * (1 / (1 - 2 * s * l) - 1) / 2
                   for l, d in zip(lam, delta2))

    def g(c):
        return k_of(c) - c * x - mp.log(-c)

    c = mp.findroot(lambda v: mp.diff(g, v), -1 / x)
    if not c < 0:
        raise ArithmeticError(f"saddle {c} not on the left of 0")
    gamma = min(1 / mp.sqrt(mp.diff(g, c, 2)), -c)

    def f(t):
        s = c + gamma * (mp.cosh(t) - 1 + 1j * mp.sinh(t))
        ds = gamma * (mp.sinh(t) + 1j * mp.cosh(t))
        return mp.im(mp.exp(k_of(s) - s * x) * ds / s)

    # truncate where the integrand is below tol times its value at 0
    ts = [mp.mpf(0)]
    while abs(f(ts[-1] + 1)) > tol * abs(f(0)) or ts[-1] < 2:
        ts.append(ts[-1] + 1)
    top = ts[-1] + 1
    h, total = mp.mpf(1), f(0) / 2 + sum(f(t) for t in ts[1:])
    old = -total / mp.pi
    while True:
        h /= 2
        total += sum(f(h * (2 * j + 1)) for j in range(int(top / h / 2)))
        new = -h * total / mp.pi
        if abs(new - old) < tol:
            return new
        old = new


def cases():
    """(name, sigma, zeta, x) of every reference."""
    for name, ref in {**SEEDED_CDF_REFERENCES, **IMHOF_TAIL_MISSES}.items():
        yield name, ref["sigma"], ref["zeta"], ref["x"]
    for x in HEAD_ESTIMATE_GRID:
        yield f"r0-model85@{x!r}", HEAD_ESTIMATE_MISS["sigma"], HEAD_ESTIMATE_MISS["zeta"], x
    for x in TINY_VARIANCE["cdf"]:
        yield f"tiny-variance@{x!r}", TINY_VARIANCE["sigma"], TINY_VARIANCE["zeta"], x


def main(names):
    mp.mp.dps = 40
    agree = True
    for name, sigma, zeta, x in cases():
        if names and not any(name == n or name.startswith(n + "@") for n in names):
            continue
        # F is P(sum (lam/x) (Z + delta)^2 <= 1): at x = 1 the phase falls
        # past u = ell or so, however small x is
        lam = [mp.mpf(s) ** 2 / mp.mpf(x) for s in sigma]
        delta2 = [mp.mpf(z) ** 2 for z in zeta]
        f1, f2 = (imhof_cdf(1, lam, delta2, y) for y in (Y, 2 * Y))
        fc = contour_cdf(1, lam, delta2, mp.mpf(10) ** -35)
        agree &= max(abs(f1 - f2), abs(f1 - fc)) <= mp.mpf(10) ** -30
        print(f"{name}: cdf = {mp.nstr(f1, 30)}, Y and 2Y differ by "
              f"{mp.nstr(abs(f1 - f2), 3)}, the contour by {mp.nstr(abs(f1 - fc), 3)}",
              flush=True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
