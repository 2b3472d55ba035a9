"""Fiber enumeration for the elliptic Wronski map at large |Im mu|.

A fiber point over h = e^{-2 pi i mu x} prod_a theta(x - z_a) is a pair
(f, g) of degree-m theta-polynomials with Wr(f, g) proportional to h,
presented in the normal form f = prod theta(x - t_j) (label 0) and
g = e^{2 pi i (-mu + k) x} prod theta(x - s_j) with integer k.  Fiber
points are found by solving the Bethe equations from the asymptotic
seed of each m-element site subset, and the partner (-mu, s) by solving
them again at -mu from the seed of the complementary subset (`fiber_point`);
the pair is accepted only if Wr(f, g) passes `wr_certificate`.  For
|Im mu| above an instance-dependent threshold this yields all C(2m, m)
points, pairwise distinct, with complementary subset tags inside each
involution pair.  `bethe.analytic_involution`, which inverts the
Wronskian instead, is the independent route to the same partner.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bethe import (
    BetheProblem,
    BetheSolution,
    SeedTooCoarseError,
    _pairs,
    nearest_site_tag,
    seed_asymptotic,
    solve_bae,
)
from .elliptic import lattice_distances
from .thetapoly import (
    ResidueViolationError,
    SolveError,
    ThetaPoly,
    golden_points,
    wronskian,
)

TWOPI_I = 2j * math.pi

RESIDUAL_GATE = 1e-10      # max BAE residual for an accepted solution
WR_RESIDUAL_GATE = 1e-9    # max relative sampling residual of Wr(f,g) vs h
DEDUP_TOL = 1e-6           # below this normal-form distance, same point


class IncompleteFiberError(ArithmeticError):
    """Some subset seed failed to produce a certified fiber point."""

    code = "incomplete_fiber"

    def __init__(self, partial, failed):
        self.partial = partial
        self.failed = tuple(failed)
        names = ", ".join("%s (%s)" % (tag, why) for tag, why in self.failed)
        super().__init__("fiber enumeration incomplete; failed subsets: " + names)


@dataclass(frozen=True)
class FiberPoint:
    """One labeled point of the Wronski fiber, with its certificates."""

    f: ThetaPoly
    g: ThetaPoly
    subset_tag: tuple
    partner_tag: tuple
    wr_residual: float
    solution: BetheSolution
    partner: BetheSolution


@dataclass(frozen=True)
class FiberReport:
    problem: BetheProblem
    points: tuple
    count: int
    expected: int
    pairing: tuple
    warnings: tuple = ()


def wr_certificate(f: ThetaPoly, g: ThetaPoly, problem: BetheProblem) -> float:
    """Relative sampling residual of Wr(f, g) against e^{-2 pi i mu x}
    prod_a theta(x - z_a); pointwise-relative, so the mu-envelope spanning
    many decades across the cell does not mask errors.

    Wr(f, g) - c * target is a degree-2m theta-polynomial with the target's
    multipliers, so it has 2m zeros in the cell unless it vanishes; the
    first point fixes c and the other 2m + 1 (at least 7) force it to zero.
    Both sides are evaluated at all points in one array pass each.
    """
    target = ThetaPoly(1.0, -problem.mu, problem.z, problem.ctx)
    avoid = tuple(f.roots) + tuple(g.roots) + tuple(problem.z)
    count = max(8, 2 * problem.m + 2)
    xs = np.array(golden_points(problem.cell, count, (0.5, 0.37), avoid=avoid, margin=1e-3))
    a = wronskian(f, g).eval(xs)
    b = target.eval(xs)
    fit = a[0] / b[0] * b[1:]
    err = np.abs(a[1:] - fit) / np.maximum(np.abs(a[1:]), np.abs(fit))
    # fmax skips NaN the way the running max(worst, err) did
    return float(np.fmax.reduce(err, initial=0.0))


def _root_key(sol: BetheSolution) -> np.ndarray:
    """The roots reduced into the problem cell and sorted: the dedup key,
    so two solutions are one fiber point when their keys are within
    DEDUP_TOL of each other, root by root, mod the lattice."""
    cell = sol.problem.cell
    key = lambda c: (round(c.real, 9), round(c.imag, 9))
    return np.array(sorted((cell.reduce(t)[0] for t in sol.t), key=key))


def _gated_solve(problem, seed, tol, subset_tag=None):
    """Newton solve from `seed`, held to the residual gate."""
    sol = solve_bae(problem, seed, tol=tol, subset_tag=subset_tag)
    if not sol.converged or sol.residual > RESIDUAL_GATE:
        raise SolveError("no convergence (residual %.2e)" % sol.residual)
    return sol


def fiber_point(problem: BetheProblem, subset) -> FiberPoint:
    """Solve, pair, certify, and package one subset's fiber point.

    The solution (mu, t) comes from the asymptotic seed of `subset`; its
    partner (-mu, s) from the Bethe equations at -mu, seeded at the
    complementary sites (s_j = z_a - 1/(2 pi i mu) + O(mu^-2)), so g has
    label exactly -mu and no Wronskian has to be inverted.  Both solves
    must meet RESIDUAL_GATE, no two roots or sites may collide, and
    Wr(f, g) must pass `wr_certificate`.  The partner's tag is read off
    its roots (`nearest_site_tag`), not assumed.

    The solution is used raw (not cell-normalized): f = prod theta(x - t_j)
    has label exactly 0 only for root representatives satisfying the Bethe
    equations at mu itself, and lattice-reducing a root would silently turn
    the pair into a different section (caught by the Wr certificate).

    Every exception raised here carries a `stage` attribute naming the
    step that failed: seed, newton, partner or certificate.
    """
    subset = tuple(subset)
    # Bethe-equation terms grow like |2 pi mu|, so the convergence floor in
    # double precision does too; keep the demand proportionate (and always
    # far below RESIDUAL_GATE at desk scale).
    tol = max(1e-12, 2e-14 * abs(TWOPI_I * problem.mu))
    stage = "seed"
    try:
        seed = seed_asymptotic(problem, subset)
        stage = "newton"
        sol = _gated_solve(problem, seed, tol, subset)
        stage = "partner"
        # 0.0 - mu, not -mu: keeps a negative zero out of the g-label
        mirror = dataclasses.replace(problem, mu=0.0 - problem.mu)
        complement = tuple(sorted(set(range(problem.n)) - set(subset)))
        par = _gated_solve(mirror, seed_asymptotic(mirror, complement), tol)
        par = dataclasses.replace(par, subset_tag=nearest_site_tag(par.t, problem))
        stage = "certificate"
        f = ThetaPoly(1.0, 0.0, sol.t, problem.ctx)
        g = ThetaPoly(1.0, (par.mu - sol.mu) / 2.0, par.t, problem.ctx)
        roots = np.array(tuple(sol.t) + tuple(par.t) + tuple(problem.z))
        i, j = _pairs(len(roots))
        if (lattice_distances(roots[i] - roots[j], problem.ctx) < 1e-6).any():
            raise SolveError("fiber roots collide with each other or a site")
        residual = wr_certificate(f, g, problem)
        if residual > WR_RESIDUAL_GATE:
            raise ResidueViolationError(
                "Wr(f,g) fails the target-shape certificate (%.2e)" % residual)
    except (ArithmeticError, ValueError, SolveError) as exc:
        exc.stage = stage
        raise
    return FiberPoint(f, g, subset, par.subset_tag, residual, sol, par)


def enumerate_fiber(problem: BetheProblem, subsets=None) -> FiberReport:
    """Enumerate the labeled fiber over e^{-2 pi i mu x} prod theta(x - z_a).

    One Bethe solve per m-element site subset.  A subset repeated in an
    explicit `subsets` list collapses onto its own point; one whose solve
    lands on another subset's point (below-threshold mu can merge basins)
    fails at stage dedup.  Raises IncompleteFiberError, carrying the
    partial report and the failing subsets, if any subset fails.

    Each accepted point's `_root_key` is kept as a row of `keys`, and a new
    point is compared with all earlier ones in one array of lattice
    distances; the first twin in list order decides.
    """
    if subsets is None:
        subsets = itertools.combinations(range(problem.n), problem.m)
    failures = []
    points = []
    keys = np.empty((0, problem.m), dtype=complex)
    warnings = []
    for subset in subsets:
        try:
            point = fiber_point(problem, subset)
        except (SolveError, SeedTooCoarseError, ArithmeticError) as exc:
            failures.append((subset, "%s: %s [stage %s]"
                             % (exc.__class__.__name__, exc, exc.stage)))
            continue
        key = _root_key(point.solution)
        close = lattice_distances(keys - key, problem.ctx).max(axis=1) < DEDUP_TOL
        twin = points[np.argmax(close)].subset_tag if close.any() else None
        if twin is not None:
            if twin != point.subset_tag:
                failures.append((subset, "same point as subset %s [stage dedup]" % (twin,)))
            continue
        expected_partner = tuple(sorted(set(range(problem.n)) - set(subset)))
        if point.partner_tag != expected_partner:
            warnings.append(
                "subset %s pairs with %s, not its complement (below-threshold mu?)"
                % (subset, point.partner_tag))
        points.append(point)
        keys = np.vstack([keys, key])
    pairing = tuple(sorted({tuple(sorted((p.subset_tag, p.partner_tag)))
                            for p in points}))
    report = FiberReport(
        problem=problem,
        points=tuple(points),
        count=len(points),
        expected=math.comb(problem.n, problem.m),
        pairing=pairing,
        warnings=tuple(warnings),
    )
    if failures:
        raise IncompleteFiberError(report, failures)
    return report


def scan_mu_grid(problem: BetheProblem, mu_grid):
    """Enumerate the fiber at each grid value of mu, lazily and in order.

    The grid must be sorted by |Im mu| descending (checked before the first
    enumeration).  Yields (mu, report, failed, complete) per grid value:
    `failed` lists the (subset, reason) pairs of an incomplete enumeration,
    and `complete` means every subset certified, none paired off its
    complement, and the count reached C(2m, m).
    """
    grid = list(mu_grid)
    mags = [abs(complex(mu).imag) for mu in grid]
    if mags != sorted(mags, reverse=True):
        raise ValueError("mu_grid must be sorted by |Im mu| descending")

    def rows():
        for mu in grid:
            try:
                report, failed = enumerate_fiber(dataclasses.replace(problem, mu=mu)), ()
            except IncompleteFiberError as exc:
                report, failed = exc.partial, exc.failed
            complete = (not failed and not report.warnings
                        and report.count == report.expected)
            yield mu, report, failed, complete

    return rows()


def estimate_mu_min(problem: BetheProblem, mu_grid) -> float:
    """Smallest |Im mu| on the grid with a complete, certified fiber.

    The grid must be sorted by |Im mu| descending; scanning stops at the
    first failure.  Returns None when even the largest grid value fails.
    """
    best = None
    for mu, _, _, complete in scan_mu_grid(problem, mu_grid):
        if not complete:
            break
        best = abs(complex(mu).imag)
    return best


def count_ratios(problem: BetheProblem) -> int:
    """Number of fiber points in the k = 0 normal form F = g/f, i.e. with
    g carrying label exactly -mu (then F' is proportional to
    e^{-2 pi i mu x} prod theta(x - z_a) / prod theta(x - t_j)^2)."""
    report = enumerate_fiber(problem)
    count = 0
    for point in report.points:
        k = point.g.mu + problem.mu
        if abs(k) < 1e-8:
            count += 1
    return count


def asymptotic_deviation(point: FiberPoint) -> float:
    """max_j |(t_j - z_{i_j}) 2 pi i mu - 1|, pairing each root to the
    nearest tagged site; O(1/|mu|) at a fiber point (first-order law)."""
    problem = point.solution.problem
    mu = point.solution.mu
    out = 0.0
    for t in point.solution.t:
        dev = min(abs((t - problem.z[a]) * TWOPI_I * mu - 1.0)
                  for a in point.subset_tag)
        out = max(out, dev)
    return out


def partner_asymptotic_deviation(point: FiberPoint) -> float:
    """Mirrored law for the involution partner: s_j = z_{a} - 1/(2 pi i mu)
    + O(mu^-2) over the partner's own tag, using the partner parameter."""
    problem = point.solution.problem
    nu = point.partner.mu
    out = 0.0
    for s in point.partner.t:
        dev = min(abs((s - problem.z[a]) * TWOPI_I * nu - 1.0)
                  for a in point.partner_tag)
        out = max(out, dev)
    return out
