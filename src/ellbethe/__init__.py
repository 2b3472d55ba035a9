"""Desk-scale numerics for the dynamical elliptic Bethe algebra of sl2.

Layers, bottom to top:

- `elliptic`: normalized theta function and the quasi-periodic kernels
  (rho, sigma, phi, eta) on a torus context.
- `thetapoly`: theta-polynomials, their Wronskian, canonical coordinates,
  and the Wronskian-equation solver.
- `bethe`: elliptic Bethe-ansatz problems, the Newton solver, lattice
  moves, and the analytic involution.
- `repspace`: the zero weight space and its move table, the eigenfunction
  Psi, the KZB operators, the S2 routes, B2, the Weyl involution, verify_eigen.
- `wronski`: fiber enumeration of the elliptic Wronski map (each point and
  its partner from two Bethe solves, at mu and -mu) with pointwise
  Wronskian certificates and threshold scans.
- `cli`: the `ellbethe` command (identities | solve | fiber | eigen).
"""

from .bethe import (
    BetheProblem,
    BetheSolution,
    CoalescedRootsError,
    InvolutionMismatchError,
    SeedTooCoarseError,
    analytic_involution,
    bae_jacobian,
    bae_residual,
    normalize_solution,
    seed_asymptotic,
    solve_bae,
    solve_bae_batch,
    solve_subsets,
    translate_root,
    wronskian_residues,
)
from .elliptic import (
    PoleError,
    RangeError,
    Torus,
    eta,
    lattice_distance,
    phi,
    rho,
    rho_prime,
    rho_second,
    sigma,
    sigma_jet,
    theta,
    theta_derivs,
    theta_dtau,
)
from .repspace import (
    EigenVerification,
    ZeroWeightSpace,
    apply_kzb,
    apply_rst_n2,
    fundamental_b2,
    kzb_eigenvalues,
    kzb_operators,
    psi_derivs,
    s2_via_kzb,
    verify_eigen,
    weyl_involution,
    zero_weight_space,
)
from .thetapoly import (
    DegenerateMultipliersError,
    FundamentalParallelogram,
    MultipleRootError,
    ResidueViolationError,
    SolveError,
    ThetaPoly,
    Wronskian,
    canonical_coords,
    fourier_basis,
    solve_wronskian,
    stacked_derivs,
    wronskian,
)
from .wronski import (
    FiberPoint,
    FiberReport,
    asymptotic_deviation,
    enumerate_fiber,
    fiber_points,
    partner_asymptotic_deviation,
    scan_mu_grid,
    scan_mu_min,
    wr_certificates,
)

__version__ = "0.1.0"

__all__ = [
    "BetheProblem",
    "BetheSolution",
    "CoalescedRootsError",
    "DegenerateMultipliersError",
    "EigenVerification",
    "FiberPoint",
    "FiberReport",
    "FundamentalParallelogram",
    "InvolutionMismatchError",
    "MultipleRootError",
    "PoleError",
    "RangeError",
    "ResidueViolationError",
    "SeedTooCoarseError",
    "SolveError",
    "ThetaPoly",
    "Torus",
    "Wronskian",
    "ZeroWeightSpace",
    "analytic_involution",
    "apply_kzb",
    "apply_rst_n2",
    "asymptotic_deviation",
    "bae_jacobian",
    "bae_residual",
    "canonical_coords",
    "enumerate_fiber",
    "eta",
    "fiber_points",
    "fourier_basis",
    "fundamental_b2",
    "kzb_eigenvalues",
    "kzb_operators",
    "lattice_distance",
    "normalize_solution",
    "partner_asymptotic_deviation",
    "phi",
    "psi_derivs",
    "rho",
    "rho_prime",
    "rho_second",
    "s2_via_kzb",
    "scan_mu_grid",
    "scan_mu_min",
    "seed_asymptotic",
    "sigma",
    "sigma_jet",
    "solve_bae",
    "solve_bae_batch",
    "solve_subsets",
    "solve_wronskian",
    "stacked_derivs",
    "theta",
    "theta_derivs",
    "theta_dtau",
    "translate_root",
    "verify_eigen",
    "weyl_involution",
    "wr_certificates",
    "wronskian",
    "wronskian_residues",
    "zero_weight_space",
]
