"""Verifying the commuting KZB operators on a Bethe eigenfunction.

Each Bethe solution (mu, t) produces a zero-weight-space-valued function
Psi(lambda) that is a joint eigenfunction of the KZB operators H_0..H_n.
The demo runs `verify_eigen` on one solution and its involution partner:
the eigen relations, the sum rule, the two independent routes to the
operator S2 (KZB combination vs column determinant), and the scalar
operator d^2/dx^2 + B2(x) that the pair (f, g) solves.

Run: python3 demos/kzb_verification.py
"""

import itertools

from ellbethe import (
    BetheProblem,
    Torus,
    analytic_involution,
    fundamental_b2,
    kzb_eigenvalues,
    seed_asymptotic,
    solve_bae,
    verify_eigen,
)

Z4 = (0.13, 0.41 + 0.12j, 0.55 + 0.31j, 0.77 + 0.05j)

CHECKS = (
    ("eigen_relation", "H_a Psi = E_a Psi, a = 0..4, over |Psi|"),
    ("eigen_sum_rule", "sum rule sum_s H_s Psi = 0, over |Psi|"),
    ("eigenvalue_sum", "eigenvalue sum E_1 + ... + E_4"),
    ("s2_routes", "KZB combination vs column determinant"),
    ("s2_eigen_b2", "S2(x) Psi vs B2(x) Psi, over |Psi|"),
    ("b2_periodicity", "B2 double periodicity"),
    ("kernel_membership", "(d^2/dx^2 + B2) on f/sqrt(Wr), g/sqrt(Wr)"),
    ("weyl_ratio", "spread of s Psi / Psi_partner"),
)


def main():
    ctx = Torus(1j)
    prob = BetheProblem(2, Z4, 10j, ctx)
    sol = solve_bae(prob, seed_asymptotic(prob, (0, 1)))
    par = analytic_involution(sol)
    ev, = kzb_eigenvalues([sol])
    lams = [0.37 + 0.21j, 0.62 + 0.74j, 0.15 + 0.48j]
    xs = [0.52 + 0.33j, 0.29 + 0.86j, 0.91 + 0.61j]

    print("-- eigenvalues of H_0, ..., H_4 on Psi --")
    for a, e in enumerate(ev):
        print("E_%d = %9.4f%+9.4fj" % (a, e.real, e.imag))

    print("\n-- verify_eigen at %d lambdas and %d points x --" % (len(lams), len(xs)))
    result = verify_eigen([(sol, par)], lams, xs)
    for name, text in CHECKS:
        print("%-44s %.1e" % (text + ":", result.worst[name]))

    print("\n-- B2 separates the solutions (it is an orbit invariant) --")
    x = xs[0]
    b2 = fundamental_b2(x, sol)
    others = [s for s in itertools.combinations(range(4), 2) if s != (0, 1)]
    for subset in others[:2]:
        other = solve_bae(prob, seed_asymptotic(prob, subset))
        print("|B2(x; %s) - B2(x; (0, 1))| = %.3f"
              % (subset, abs(fundamental_b2(x, other) - b2)))
    print("|B2(x; partner of (0, 1)) - B2(x; (0, 1))| = %.1e"
          % abs(fundamental_b2(x, par) - b2))


if __name__ == "__main__":
    main()
