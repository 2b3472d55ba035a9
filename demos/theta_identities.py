"""Tour of the elliptic layer: the normalized theta function and the four
quasi-periodic kernels built from it.

Every law printed here is exact; the numbers show how far double precision
carries the series evaluation.  Run: python3 demos/theta_identities.py
"""

import cmath
import math

from ellbethe import (
    Torus,
    eta,
    phi,
    rho,
    rho_prime,
    sigma,
    theta,
    theta_derivs,
    theta_dtau,
)


def relerr(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def main():
    ctx = Torus(0.3 + 0.8j)
    tau = ctx.tau
    print("torus tau = %s" % tau)

    print("\n-- normalization: theta'(0) = 1 --")
    d = theta_derivs(0.0, ctx, 1)
    print("theta(0)  = %.3e (odd function)" % abs(d[0]))
    print("theta'(0) = %s" % d[1])

    print("\n-- quasi-periodicity of theta --")
    x = 0.31 + 0.17j
    for k, l in ((1, 0), (0, 1), (2, -1)):
        mult = (-1) ** (k + l) * cmath.exp(
            -1j * math.pi * l * l * tau - 2j * math.pi * l * x)
        lhs = theta(x + k + l * tau, ctx)
        print("shift (%2d,%2d): relative error %.2e"
              % (k, l, relerr(lhs, mult * theta(x, ctx))))

    print("\n-- kernel ladder under x -> x + tau --")
    w = 0.22 - 0.09j
    rows = (
        ("rho   -> rho - 2 pi i", rho(x + tau, ctx), rho(x, ctx) - 2j * math.pi),
        ("rho'  -> rho' (elliptic)", rho_prime(x + tau, ctx), rho_prime(x, ctx)),
        ("sigma -> e^{-2 pi i w} sigma", sigma(x + tau, w, ctx),
         cmath.exp(-2j * math.pi * w) * sigma(x, w, ctx)),
        ("phi   -> e^{+2 pi i w} phi", phi(x + tau, w, ctx),
         cmath.exp(2j * math.pi * w) * phi(x, w, ctx)),
        ("eta   -> eta - 4 pi i rho - 4 pi^2", eta(x + tau, ctx),
         eta(x, ctx) - 4j * math.pi * rho(x, ctx) + (2j * math.pi) ** 2),
    )
    for label, lhs, rhs in rows:
        print("%-36s relative error %.2e" % (label, relerr(lhs, rhs)))

    print("\n-- sigma product identity --")
    lhs = sigma(x, w, ctx) * sigma(x, -w, ctx)
    rhs = rho_prime(w, ctx) - rho_prime(x, ctx)
    print("sigma(x,w) sigma(x,-w) = rho'(w) - rho'(x): error %.2e"
          % relerr(lhs, rhs))

    print("\n-- heat equation for the normalized theta --")
    third = theta_derivs(0.0, ctx, 3)[3]
    for point in (0.23 + 0.11j, 0.25 + 0.9 * tau):  # second reduces with l != 0
        lhs = 4j * math.pi * theta_dtau(point, ctx)
        d = theta_derivs(point, ctx, 2)
        rhs = d[2] - third * d[0]
        print("4 pi i d/dtau theta = theta'' - theta'''(0) theta at %s: error %.2e"
              % (point, abs(lhs - rhs) / max(1.0, abs(rhs))))


if __name__ == "__main__":
    main()
