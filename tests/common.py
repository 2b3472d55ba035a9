"""Fixtures shared by the test modules and by the CI's config writers.

    PYTHONPATH=src:tests python -c "from common import M4_CONFIG; print(M4_CONFIG)"
"""

from ellbethe.bethe import BetheProblem, seed_asymptotic, solve_bae
from ellbethe.elliptic import Torus

CTX = Torus(1j)
Z4 = (0.13, 0.41 + 0.12j, 0.55 + 0.31j, 0.77 + 0.05j)
Z2 = Z4[:2]
# cell coordinates (a, b) of sites z = a + b tau; at tau = i these extend Z4,
# at least 0.18 apart mod the lattice; cell_problem(6, 22j) and (7, 26j) are
# complete
CELL_AB = ((0.13, 0.0), (0.41, 0.12), (0.55, 0.31), (0.77, 0.05),
           (0.05, 0.55), (0.29, 0.71), (0.62, 0.83), (0.88, 0.47),
           (0.35, 0.42), (0.71, 0.63), (0.18, 0.28), (0.88, 0.22),
           (0.48, 0.95), (0.95, 0.85))
# seed-1 benchmark scan sites: below 2.6i some subsets converge onto other
# subsets' points
MERGED_Z = (0.12890928334489193 + 0.8705894159142823j,
            0.5731648745745974 + 0.7985952968328152j,
            0.6952530335957309 + 0.05419763380688547j,
            0.46772907960594134 + 0.5771382780492729j,
            0.5505276633859453 + 0.9508925304238594j,
            0.0038096713445530117 + 0.019650900869300436j)
# the CLI config of cell_problem(4, 14j)
M4_CONFIG = {"m": 4, "mu": [0.0, 14.0], "z": [list(ab) for ab in CELL_AB[:8]]}


def relerr(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def solve_subset(prob, subset):
    return solve_bae(prob, seed_asymptotic(prob, subset))


def cell_problem(m, mu, tau=1j):
    return BetheProblem(m, [a + b * tau for a, b in CELL_AB[:2 * m]], mu,
                        Torus(tau))
