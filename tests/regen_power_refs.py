"""Recompute the 30-digit powers of ``oracles.POWER_AT_1PCT`` with mpmath.

    python3 tests/regen_power_refs.py [name ...]

Not collected by pytest, and needs mpmath, which the test suite does not.
For each model of ``oracles.SEEDED_POWER_MODELS`` (all of
``POWER_AT_1PCT``'s by default), the critical value x* solves
F0(x*) = 0.99 by mpmath.findroot on the null's Imhof integral, and the
power is 1 - Fa(x*).  Each CDF is Imhof's (1961) inversion integral,

    F(x) = 1/2 - (1/pi) int_0^oo sin(theta(u)) / (u rho(u)) du,

with Gauss-Legendre mpmath.quad over (0, Y] and, beyond Y, mpmath.quadosc
between consecutive zeros of sin(theta), each located by findroot.
Integrating between the true zeros matters when some sigma^2 are tiny:
their phase keeps growing linearly far past Y, so theta's period is not
2 pi / (x/2) there.  The tail starts at Y itself, so the splits at Y and
at 2Y extrapolate different series.  The power is printed with the tail
split at Y; its difference from the split at 2Y is printed too.  At 40
digits a model takes about five minutes on one core.
"""

import sys

import mpmath as mp

from oracles import POWER_AT_1PCT, SEEDED_POWER_MODELS

ALPHA = mp.mpf("0.01")
Y = 40


def imhof_cdf(x, lam, delta2, upper):
    """P(sum lam_k (Z_k + delta_k)^2 <= x), the tail split at u = upper."""
    def theta(u):
        return sum((mp.atan(l * u) + d * l * u / (1 + (l * u) ** 2)) / 2
                   for l, d in zip(lam, delta2)) - x * u / 2

    def integrand(u):
        if u == 0:
            return (sum(l * (1 + d) for l, d in zip(lam, delta2)) - x) / 2
        log_rho = 0
        for l, d in zip(lam, delta2):
            t = l * u
            log_rho += mp.log1p(t * t) / 4 + d * t * t / (2 * (1 + t * t))
        return mp.sin(theta(u)) / (u * mp.exp(log_rho))

    # zeros(n), n >= 1: the n-th u > upper where theta(u) is a multiple of pi
    roots = [mp.mpf(upper)]
    first = mp.floor(-theta(roots[0]) / mp.pi) + 1

    def zeros(n):
        n = int(n)
        while len(roots) <= n:
            prev, k = roots[-1], first + len(roots) - 1
            slope = -mp.diff(theta, prev)
            if slope <= 0:
                raise ArithmeticError(f"theta does not fall past u = {prev}")
            u = mp.findroot(lambda v: theta(v) + k * mp.pi,
                            prev + (theta(prev) + k * mp.pi) / slope)
            if not u > prev:
                raise ArithmeticError(f"zeros out of order near u = {prev}")
            roots.append(u)
        return roots[n]

    head = mp.quad(integrand, mp.linspace(0, upper, upper + 1),
                   method="gauss-legendre")
    tail = mp.quadosc(integrand, [upper, mp.inf], zeros=zeros)
    return mp.mpf(1) / 2 - (head + tail) / mp.pi


def power_at_1pct(sigma, zeta):
    """x* and 1 - Fa(x*) at alpha = 0.01, the power with the tail split at
    u = Y and at 2Y."""
    lam = [mp.mpf(s) ** 2 for s in sigma]
    delta2 = [mp.mpf(z) ** 2 for z in zeta]
    null2 = [mp.mpf(0)] * len(lam)
    start = sum(lam) + 2.33 * mp.sqrt(2 * sum(v * v for v in lam))
    x_star = mp.findroot(lambda x: imhof_cdf(x, lam, null2, Y) - (1 - ALPHA), start)
    return x_star, [1 - imhof_cdf(x_star, lam, delta2, y) for y in (Y, 2 * Y)]


def main(names):
    mp.mp.dps = 40
    for name in names or sorted(POWER_AT_1PCT):
        ref = SEEDED_POWER_MODELS[name]
        x_star, (p1, p2) = power_at_1pct(ref["sigma"], ref["zeta"])
        print(f"{name}: x* = {mp.nstr(x_star, 20)}, power = {mp.nstr(p1, 25)}, "
              f"Y and 2Y differ by {mp.nstr(abs(p1 - p2), 3)}")


if __name__ == "__main__":
    main(sys.argv[1:])
