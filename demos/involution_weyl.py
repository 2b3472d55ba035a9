"""The analytic involution and the Weyl involution agree on eigenfunctions.

The analytic involution swaps the two theta-polynomials of a fiber point,
sending a Bethe solution (mu, t) to a partner (-mu, s) whose roots cluster
at the complementary sites.  The Weyl involution acts on zero-weight-space
functions by v_I -> v_{complement} and lambda -> -lambda.  On Bethe
eigenfunctions the two coincide up to one overall constant — the demo
measures that constant's spread over lambda samples and basis components.

Run: python3 demos/involution_weyl.py
"""

import numpy as np

from ellbethe import (
    BetheProblem,
    Torus,
    analytic_involution,
    enumerate_fiber,
    psi_derivs,
    weyl_involution,
    zero_weight_space,
)

Z4 = (0.13, 0.41 + 0.12j, 0.55 + 0.31j, 0.77 + 0.05j)


def main():
    ctx = Torus(1j)
    prob = BetheProblem(2, Z4, 6j, ctx)
    sp = zero_weight_space(4)
    lams = [0.31 + 0.12j, 0.52 - 0.04j, 0.18 + 0.27j, 0.74 + 0.09j]

    print("-- the involution on solutions (mu = 6i) --")
    report = enumerate_fiber(prob)
    for point in report.points:
        par = point.partner
        print("subset %s: partner parameter %5s, partner roots near sites %s"
              % (point.subset_tag, complex(par.mu), point.partner_tag))

    print("\n-- s(Psi(., mu, t)) / Psi(., -mu, s): one constant per point --")
    for point in report.points:
        sol = point.solution
        par = analytic_involution(sol)
        # (s Psi)(lambda) = s . Psi(-lambda)
        ratios = np.array([weyl_involution(psi_derivs(-lam, sol)[0], sp)
                           / psi_derivs(lam, par)[0] for lam in lams])
        mean = ratios.mean()
        spread = np.max(np.abs(ratios - mean)) / abs(mean)
        print("subset %s: ratio %10.4f%+10.4fj  spread %.1e"
              % (point.subset_tag, mean.real, mean.imag, spread))

    print("\nThe ratio is constant across lambda and all six components:")
    print("the group-theoretic symmetry reproduces the analytic one.")


if __name__ == "__main__":
    main()
