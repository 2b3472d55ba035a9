"""The Bethe-ansatz fiber of the elliptic Wronski map at desk scale.

For 2m = 4 marked points and a spectral parameter mu deep enough in the
upper half plane, the Bethe equations have exactly C(4,2) = 6 solutions,
one per 2-element subset of sites; each root sits a displacement
1/(2 pi i mu) from its site.  The demo solves all six, certifies each as
a Wronski-fiber point, shows the involution pairing, and scans mu down
to where the count breaks.

Run: python3 demos/bethe_fiber.py
"""

import itertools
import math

from ellbethe import (
    BetheProblem,
    Torus,
    asymptotic_deviation,
    enumerate_fiber,
    scan_mu_grid,
    scan_mu_min,
    seed_asymptotic,
    solve_bae,
)

Z4 = (0.13, 0.41 + 0.12j, 0.55 + 0.31j, 0.77 + 0.05j)


def main():
    ctx = Torus(1j)
    prob = BetheProblem(2, Z4, 6j, ctx)

    print("-- solving the Bethe equations, subset by subset (mu = 6i) --")
    for subset in itertools.combinations(range(4), 2):
        sol = solve_bae(prob, seed_asymptotic(prob, subset))
        roots = "  ".join("%.4f%+.4fj" % (t.real, t.imag) for t in sol.t)
        print("subset %s: residual %.1e   t = %s" % (subset, sol.residual, roots))

    print("\n-- fiber enumeration with Wronskian certificates --")
    report = enumerate_fiber(prob)
    print("count %d of expected %d; pairing:" % (report.count, report.expected))
    for a, b in report.pairing:
        print("  %s <-> %s (complementary tags)" % (a, b))
    worst = max(p.wr_residual for p in report.points)
    print("worst pointwise Wr(f,g) = c * target residual: %.1e" % worst)

    print("\n-- first-order root law t_j = z_{i_j} + 1/(2 pi i mu) + O(1/mu^2) --")
    for mu in (10j, 20j, 40j):
        rep = enumerate_fiber(BetheProblem(2, Z4, mu, ctx))
        dev = max(asymptotic_deviation(p) for p in rep.points)
        print("mu = %4s: max |(t - z) 2 pi i mu - 1| = %.4f  (x |mu| = %.3f)"
              % (mu, dev, dev * abs(mu)))

    print("\n-- how deep must mu be? --")
    grid = (8j, 6j, 4j, 2j)
    mu_min = scan_mu_min(scan_mu_grid(prob, grid))
    print("full certified count on the grid %s down to |Im mu| = %s"
          % (list(grid), mu_min))
    failed = enumerate_fiber(BetheProblem(2, Z4, 1.3j, ctx)).failed
    print("mu = 1.3i: %d of 6 subsets fail (%s)"
          % (len(failed), failed[0][1] if failed else "-"))


if __name__ == "__main__":
    main()
