"""Verifying the commuting KZB operators on a Bethe eigenfunction.

Each Bethe solution (mu, t) produces a zero-weight-space-valued function
Psi(lambda) that is a joint eigenfunction of the KZB operators H_0..H_n.
The demo checks the eigen relations, the sum rule, the two independent
routes to the operator S2 (KZB combination vs column determinant), and
the scalar operator d^2/dx^2 + B2(x) that the pair (f, g) solves.

Run: python3 demos/kzb_verification.py
"""

import itertools

import numpy as np

from ellbethe import (
    BetheProblem,
    Torus,
    analytic_involution,
    apply_kzb,
    apply_rst_n2,
    fundamental_b2,
    kzb_eigenvalues,
    kzb_operators,
    psi_derivs,
    s2_via_kzb,
    seed_asymptotic,
    solve_bae,
    wronskian,
)

Z4 = (0.13, 0.41 + 0.12j, 0.55 + 0.31j, 0.77 + 0.05j)


def main():
    ctx = Torus(1j)
    prob = BetheProblem(2, Z4, 10j, ctx)
    sol = solve_bae(prob, seed_asymptotic(prob, (0, 1)), subset_tag=(0, 1))
    ev = kzb_eigenvalues(sol)
    lam = 0.37 + 0.21j
    jet = psi_derivs(lam, sol)  # (Psi, Psi', Psi'') at lam, shared by every operator
    # the operators depend on (lambda, z, tau) only; their rows H_a Psi serve S2 too
    outs = apply_kzb(kzb_operators(lam, Z4, ctx), jet)

    print("-- eigen relations H_a Psi = E_a Psi at lambda = %s --" % lam)
    v = jet[0]
    nv = np.linalg.norm(v)
    expected = (ev.e0,) + ev.e
    for a, out in enumerate(outs):
        rel = np.linalg.norm(out - expected[a] * v) / nv
        print("H_%d: eigenvalue %9.4f%+9.4fj   relative residual %.1e"
              % (a, expected[a].real, expected[a].imag, rel))
    print("sum rule |sum_s H_s Psi| / |Psi| = %.1e"
          % (np.linalg.norm(np.sum(outs[1:], axis=0)) / nv))
    print("eigenvalue sum |E_1 + ... + E_4| = %.1e" % abs(sum(ev.e)))

    print("\n-- two routes to S2(x), and the scalar operator --")
    x = 0.52 + 0.33j
    via_kzb = s2_via_kzb(x, outs, v, Z4, ctx)
    via_det = apply_rst_n2(x, jet, lam, Z4, ctx)
    b2 = fundamental_b2(x, sol)
    print("KZB combination vs column determinant: %.1e"
          % (np.linalg.norm(via_kzb - via_det) / np.linalg.norm(via_kzb)))
    print("S2(x) Psi vs B2(x) Psi:                %.1e"
          % (np.linalg.norm(via_kzb - b2 * v) / nv))
    print("B2 double periodicity:                 %.1e / %.1e"
          % (abs(fundamental_b2(x + 1, sol) - b2),
             abs(fundamental_b2(x + ctx.tau, sol) - b2)))

    print("\n-- (d^2/dx^2 + B2) annihilates f/sqrt(Wr) and g/sqrt(Wr) --")
    par = analytic_involution(sol)
    wr = wronskian(sol.poly(), par.poly())
    for name, poly in (("f", sol.poly()), ("g", par.poly())):
        pd = poly.derivs(x, 2)
        wd = wr.derivs(x, 2)
        v_log = pd[1] / pd[0] - 0.5 * wd[1] / wd[0]
        vp = (pd[2] / pd[0] - (pd[1] / pd[0]) ** 2
              - 0.5 * (wd[2] / wd[0] - (wd[1] / wd[0]) ** 2))
        print("u = %s/sqrt(Wr): |v' + v^2 + B2| / |B2| = %.1e"
              % (name, abs(vp + v_log ** 2 + b2) / abs(b2)))

    print("\n-- B2 separates the solutions (it is an orbit invariant) --")
    others = [s for s in itertools.combinations(range(4), 2) if s != (0, 1)]
    for subset in others[:2]:
        other = solve_bae(prob, seed_asymptotic(prob, subset), subset_tag=subset)
        print("|B2(x; %s) - B2(x; (0, 1))| = %.3f"
              % (subset, abs(fundamental_b2(x, other) - b2)))
    print("|B2(x; partner of (0, 1)) - B2(x; (0, 1))| = %.1e"
          % abs(fundamental_b2(x, par) - b2))


if __name__ == "__main__":
    main()
