"""Fixtures shared by the test modules and by the CI's config writer.

    PYTHONPATH=src:tests python -c "from common import write_ci_configs; write_ci_configs('.')"
"""

import json
import os

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


def write_ci_configs(folder):
    """Write the CI hash-seed rows' configs into `folder`, one NAME.json
    each, as json.dump writes them: the cell_problem ones carry their m,
    tau, sites and mu on the imaginary axis."""
    def cell(m, mu, tau=1j):
        p = cell_problem(m, mu * 1j, tau)
        return {"m": m, "tau": [p.ctx.tau.real, p.ctx.tau.imag],
                "z": [[v.real, v.imag] for v in p.z], "mu": [0.0, mu]}

    merged = [[v.real, v.imag] for v in MERGED_Z]
    configs = {
        "m4": M4_CONFIG,
        "tau003": {"tau": [0.0, 0.03]},
        "merged": {"m": 3, "z": merged, "mu": [0.0, 2.2]},
        "merged25": {"m": 3, "z": merged, "mu": [0.0, 2.5]},
        "skew": cell(3, 10.0, 0.3 + 0.8j),
        "cell5": cell(5, 18.0),
        "mixed": {"z": [[0.01, 0.005], [0.41, 0.12], [0.55, 0.31], [0.77, 0.003]],
                  "mu": [3.3, 6.0]},
        "skewtau": {"tau": [0.3, 0.8]},
        "mu80": {"mu": [0.0, 80.0]},
        "mu120": {"mu": [0.0, 120.0]},
        "mu200": {"mu": [0.0, 200.0]},
        "cell7": cell(7, 26.0),
        "cell4-120": cell(4, 120.0),
        "cell4-skew": cell(4, 14.0, 0.3 + 0.8j),
    }
    for name, config in configs.items():
        with open(os.path.join(folder, name + ".json"), "w") as out:
            json.dump(config, out)
