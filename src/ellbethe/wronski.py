"""Fiber enumeration for the elliptic Wronski map at large |Im mu|.

A fiber point over h = e^{-2 pi i mu x} prod_a theta(x - z_a) is a pair
(f, g) of degree-m theta-polynomials with Wr(f, g) proportional to h,
presented in the normal form f = prod theta(x - t_j) (label 0) and
g = e^{2 pi i (-mu + k) x} prod theta(x - s_j) with integer k.  Fiber
points are found by solving the Bethe equations from the asymptotic
seed of each m-element site subset, and the partner (-mu, s) by solving
them again at -mu from the seed of the complementary subset; all subsets of
an enumeration and their complements are seeded and solved in one lockstep
Newton batch (`bethe.solve_subsets`, called by `fiber_points`).
A pair is accepted only if Wr(f, g) passes `wr_certificates`.  For
|Im mu| above an instance-dependent threshold this yields all C(2m, m)
points, pairwise distinct, with complementary subset tags inside each
involution pair.  `bethe.analytic_involution`, which inverts the
Wronskian instead, is the independent route to the same partner.
`enumerate_fiber` returns one `FiberReport`, complete or not: the
certified points and, for every subset without one, the reason and the
stage it failed at; `fiber`, the mu-grid scan and `eigen` all read it.
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
    _by_rows,
    _pairs,
    solve_subsets,
)
from .elliptic import lattice_distances
from .thetapoly import (
    ResidueViolationError,
    SolveError,
    ThetaPoly,
    _wronskian_rows,
    golden_candidates,
    golden_points,
    stacked_derivs,
)

TWOPI_I = 2j * math.pi

RESIDUAL_GATE = 1e-10      # max BAE residual for an accepted solution
WR_RESIDUAL_GATE = 1e-9    # max relative sampling residual of Wr(f,g) vs h
DEDUP_TOL = 1e-6           # below this normal-form distance, same point


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
    """The one record of an enumeration: the certified points, the
    (subset, reason) pair of every subset that has none, and the warnings
    for partners off the complement."""

    problem: BetheProblem
    points: tuple
    count: int
    expected: int
    pairing: tuple
    warnings: tuple = ()
    failed: tuple = ()

    @property
    def complete(self) -> bool:
        """Every subset certified, none paired off its complement, and the
        count reached C(2m, m)."""
        return not self.failed and not self.warnings and self.count == self.expected


def _sample_points(pairs, problem: BetheProblem) -> list:
    """Per pair (f, g), all of one degree, its `golden_points(cell, count,
    (0.5, 0.37))` clear by 1e-3 of the roots of f and g and of the sites,
    as an array, or the ArithmeticError of their placement.

    Every pair draws from the same candidate sequence, so its first block
    is tested against every pair's avoided points in one array of lattice
    distances; only a pair with a blocked candidate places its points
    with a `golden_points` call of its own."""
    count = max(8, 2 * problem.m + 2)
    block = golden_candidates(problem.cell, (0.5, 0.37), np.arange(1, count + 1))
    avoid = np.array([tuple(f.roots) + tuple(g.roots) + problem.z for f, g in pairs])
    clear = (lattice_distances(block[:, None] - avoid[:, None, :], problem.ctx)
             > 1e-3).all(axis=(1, 2))
    out = []
    for ok, row in zip(clear, avoid):
        try:
            out.append(block if ok else np.array(
                golden_points(problem.cell, count, (0.5, 0.37), avoid=row, margin=1e-3)))
        except ArithmeticError as exc:
            out.append(exc)
    return out


def wr_certificates(pairs, problem: BetheProblem) -> list:
    """Relative sampling residual of Wr(f, g) against e^{-2 pi i mu x}
    prod_a theta(x - z_a) for every pair (f, g), all of one degree, at
    once: per pair its residual, or the ArithmeticError its own certificate
    raises.  The residual is pointwise-relative, so the mu-envelope
    spanning many decades across the cell does not mask errors, and a NaN
    at any sample makes it NaN.

    Wr(f, g) - c * target is a degree-2m theta-polynomial with the target's
    multipliers, so it has 2m zeros in the cell unless it vanishes; the
    first point fixes c and the other 2m + 1 (at least 7) force it to zero.
    Each pair keeps its own sample points, clear of its roots and the
    sites (`_sample_points`, one array pass for all pairs).  Wr(f, g) at
    all of them comes from one theta batch over every f and g, and the
    target from one more (`stacked_derivs`) over the distinct sample rows
    only, which most pairs share; a pair that raises inside a batch is
    certified again on its own (`_by_rows`).
    """
    if not pairs:
        return []
    target = ThetaPoly(1.0, -problem.mu, problem.z, problem.ctx)
    out = [None] * len(pairs)
    kept, xs = [], []
    for k, x in enumerate(_sample_points(pairs, problem)):
        if isinstance(x, Exception):
            out[k] = x
        else:
            kept.append(k)
            xs.append(x)

    def certify(idx, x):
        if not len(idx):
            return (np.zeros(0),)
        d = stacked_derivs([pairs[k][0] for k in idx] + [pairs[k][1] for k in idx],
                           np.concatenate([x, x]), 1)
        df, dg = [v[:len(idx)] for v in d], [v[len(idx):] for v in d]
        a, = _wronskian_rows(df, dg)
        rows, inverse = np.unique(x, axis=0, return_inverse=True)
        b = stacked_derivs([target] * len(rows), rows, 0)[0][inverse.ravel()]
        fit = a[:, :1] / b[:, :1] * b[:, 1:]
        err = np.abs(a[:, 1:] - fit) / np.maximum(np.abs(a[:, 1:]), np.abs(fit))
        return (np.max(err, axis=1, initial=0.0),)

    if kept:
        (residuals,), errors = _by_rows(certify, np.array(kept), np.array(xs))
        for k, residual, exc in zip(kept, residuals, errors):
            out[k] = float(residual) if exc is None else exc
    return out


def _root_key(sol: BetheSolution) -> np.ndarray:
    """The roots reduced into the problem cell and sorted: the dedup key,
    so two solutions are one fiber point when their keys are within
    DEDUP_TOL of each other, root by root, mod the lattice."""
    cell = sol.problem.cell
    key = lambda c: (round(c.real, 9), round(c.imag, 9))
    return np.array(sorted((cell.reduce(t)[0] for t in sol.t), key=key))


def _gated(result):
    """A Newton result held to RESIDUAL_GATE alone: the solution, or the
    exception of a failed solve."""
    if not isinstance(result, Exception) and not result.residual <= RESIDUAL_GATE:
        return SolveError("no convergence (residual %.2e)" % result.residual)
    return result


def _staged(exc, stage):
    exc.stage = stage
    return exc


def fiber_points(problem: BetheProblem, subsets) -> list:
    """Solve, pair, certify, and package the fiber point of every subset
    at once: per subset its FiberPoint, or the exception (ArithmeticError,
    ValueError or SolveError) of the first stage it fails.

    The solution (mu, t) comes from the asymptotic seed of the subset; its
    partner (-mu, s) from the Bethe equations at -mu, seeded at the
    complementary sites (s_j = z_a - 1/(2 pi i mu) + O(mu^-2)), so g has
    label exactly -mu and no Wronskian has to be inverted.  Both solves
    must meet RESIDUAL_GATE, no two roots or sites may collide, and
    Wr(f, g) must pass `wr_certificates` at WR_RESIDUAL_GATE.  The
    partner's tag is the one the solver reads off its roots (the sites
    nearest them), not assumed.

    The solution is used raw (not cell-normalized): f = prod theta(x - t_j)
    has label exactly 0 only for root representatives satisfying the Bethe
    equations at mu itself, and lattice-reducing a root would silently turn
    the pair into a different section (caught by the Wr certificate).

    Every solution and partner is seeded and solved in one
    `solve_subsets` batch (the subsets, then their complements); the pairs
    that pass both residual gates are checked for collisions in one
    distance array and certified in one `wr_certificates` pass.  Every exception
    carries a `stage` attribute naming the first step that failed, in the
    order seed, newton, partner, certificate, whatever the other systems
    of the batch did.
    """
    subsets = [tuple(s) for s in subsets]
    count = len(subsets)
    # 0.0 - mu, not -mu: keeps a negative zero out of the g-label
    mirror = dataclasses.replace(problem, mu=0.0 - problem.mu)
    complements = [tuple(sorted(set(range(problem.n)) - set(s))) for s in subsets]
    results = [_gated(r) for r in solve_subsets([problem] * count + [mirror] * count,
                                                subsets + complements)]
    out = [None] * count
    pairs = {}      # subset index -> (f, g, solution, partner)
    for k in range(count):
        sol, par = results[k], results[count + k]
        if isinstance(sol, Exception):
            out[k] = _staged(sol, getattr(sol, "stage", "newton"))
            continue
        if isinstance(par, Exception):
            out[k] = _staged(par, "partner")
            continue
        f = ThetaPoly(1.0, 0.0, sol.t, problem.ctx)
        g = ThetaPoly(1.0, (par.mu - sol.mu) / 2.0, par.t, problem.ctx)
        pairs[k] = (f, g, sol, par)
    if not pairs:
        return out

    order = list(pairs)
    roots = np.array([tuple(pairs[k][2].t) + tuple(pairs[k][3].t) + problem.z for k in order])
    i, j = _pairs(roots.shape[1])
    (collide,), errors = _by_rows(
        lambda r: ((lattice_distances(r[:, i] - r[:, j], problem.ctx) < 1e-6).any(axis=1),),
        roots)
    for k, hit, exc in zip(order, collide, errors):
        if exc is None and hit:
            exc = SolveError("fiber roots collide with each other or a site")
        if exc is not None:
            out[k] = _staged(exc, "certificate")
            del pairs[k]
    order = list(pairs)
    residuals = wr_certificates([pairs[k][:2] for k in order], problem)
    for k, residual in zip(order, residuals):
        if not isinstance(residual, Exception) and not residual <= WR_RESIDUAL_GATE:
            residual = ResidueViolationError(
                "Wr(f,g) fails the target-shape certificate (%.2e)" % residual)
        if isinstance(residual, Exception):
            out[k] = _staged(residual, "certificate")
            continue
        f, g, sol, par = pairs[k]
        out[k] = FiberPoint(f, g, subsets[k], par.subset_tag, residual, sol, par)
    return out


def enumerate_fiber(problem: BetheProblem, subsets=None) -> FiberReport:
    """Enumerate the labeled fiber over e^{-2 pi i mu x} prod theta(x - z_a).

    One `fiber_points` batch over the m-element site subsets.  A subset
    repeated in an explicit `subsets` list collapses onto its own point;
    one whose solve lands on another subset's point (below-threshold mu
    can merge basins) fails at stage dedup.  The report is returned
    whether or not the fiber is complete: each failing subset is in
    `failed` with the exception and stage `fiber_points` gave it, or its
    dedup twin.

    Each point's `_root_key` is row k of `keys`, k its subset's position.
    One array of lattice distances between the keys' first roots finds the
    pairs that can be twins, and only those are compared root by root; a
    point's twin is the first accepted point in list order whose key is
    within DEDUP_TOL of its own.
    """
    if subsets is None:
        subsets = itertools.combinations(range(problem.n), problem.m)
    subsets = list(subsets)
    results = fiber_points(problem, subsets)
    found = [k for k, point in enumerate(results) if not isinstance(point, Exception)]
    keys = np.zeros((len(results), problem.m), dtype=complex)
    if found:
        keys[found] = [_root_key(results[k].solution) for k in found]
    # earlier[k, q]: q < k, and the first roots of their keys are within DEDUP_TOL
    i, j = np.tril_indices(len(results), -1)
    earlier = np.zeros((len(results),) * 2, dtype=bool)
    earlier[i, j] = lattice_distances(keys[j, 0] - keys[i, 0], problem.ctx) < DEDUP_TOL
    failures = []
    points = []
    kept = set()
    warnings = []
    for k, (subset, point) in enumerate(zip(subsets, results)):
        if isinstance(point, Exception):
            failures.append((subset, "%s: %s [stage %s]"
                             % (point.__class__.__name__, point, point.stage)))
            continue
        twin = next((results[q].subset_tag for q in np.flatnonzero(earlier[k]) if q in kept
                     and lattice_distances(keys[q] - keys[k], problem.ctx).max() < DEDUP_TOL),
                    None)
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
        kept.add(k)
    pairing = tuple(sorted({tuple(sorted((p.subset_tag, p.partner_tag)))
                            for p in points}))
    return FiberReport(
        problem=problem,
        points=tuple(points),
        count=len(points),
        expected=math.comb(problem.n, problem.m),
        pairing=pairing,
        warnings=tuple(warnings),
        failed=tuple(failures),
    )


def scan_mu_grid(problem: BetheProblem, mu_grid):
    """Enumerate the fiber at each grid value of mu, lazily and in order.

    The grid must be sorted by |Im mu| descending (checked before the first
    enumeration).  Yields (mu, report) per grid value, the report of
    `enumerate_fiber` at that mu; `report.complete` is the row's verdict.
    """
    grid = list(mu_grid)
    mags = [abs(complex(mu).imag) for mu in grid]
    if mags != sorted(mags, reverse=True):
        raise ValueError("mu_grid must be sorted by |Im mu| descending")
    return ((mu, enumerate_fiber(dataclasses.replace(problem, mu=mu))) for mu in grid)


def estimate_mu_min(problem: BetheProblem, mu_grid) -> float:
    """Smallest |Im mu| on the grid with a complete, certified fiber.

    The grid must be sorted by |Im mu| descending; scanning stops at the
    first failure.  Returns None when even the largest grid value fails.
    """
    return scan_mu_min(scan_mu_grid(problem, mu_grid))


def scan_mu_min(rows) -> float:
    """The |Im mu| of the last complete row before the first incomplete
    one, of `scan_mu_grid` rows; None if the first row is incomplete.
    Reads no row past the first incomplete one."""
    best = None
    for mu, report in rows:
        if not report.complete:
            break
        best = abs(complex(mu).imag)
    return best


def asymptotic_deviation(point: FiberPoint) -> float:
    """max_j |(t_j - z_{i_j}) 2 pi i mu - 1|, pairing each root to the
    nearest tagged site; O(1/|mu|) at a fiber point (first-order law)."""
    return _deviation(point.solution, point.subset_tag)


def partner_asymptotic_deviation(point: FiberPoint) -> float:
    """Mirrored law for the involution partner: s_j = z_{a} - 1/(2 pi i mu)
    + O(mu^-2) over the partner's own tag, using the partner parameter."""
    return _deviation(point.partner, point.partner_tag)


def _deviation(sol: BetheSolution, tag) -> float:
    """max(0, max_x min_a |(x - z_a) 2 pi i mu - 1|) over the roots x of
    sol and the tagged sites a, with sol's own mu."""
    z = sol.problem.z
    return max([0.0] + [min(abs((x - z[a]) * TWOPI_I * sol.mu - 1.0) for a in tag)
                        for x in sol.t])
