"""Fiber enumeration for the elliptic Wronski map at large |Im mu|.

A fiber point over h = e^{-2 pi i mu x} prod_a theta(x - z_a) is a pair
(f, g) of degree-m theta-polynomials with Wr(f, g) proportional to h,
presented in the normal form f = prod theta(x - t_j) (label 0) and
g = e^{2 pi i (-mu + k) x} prod theta(x - s_j) with integer k.  Fiber
points are found by solving the Bethe equations from the asymptotic
seed of each m-element site subset, and the partner (-mu, s) by solving
them again at -mu from the seed of the complementary subset; all subsets of
an enumeration and their complements are seeded and solved in one
safeguarded Halley batch (`bethe.solve_subsets`, called by `fiber_points`).
The solver stops each system at `bethe._newton_tol`, and a solve is
accepted when it is `converged`: its residual meets `bethe.RESIDUAL_GATE`.
A pair is accepted only if it passes `wr_certificates`, the whole
certificate of a pair: no two of its roots and the sites collide, and
Wr(f, g) passes on one row of samples clear of the sites: Wr(f, g) - c h
has 2m zeros in the cell unless it vanishes, wherever the roots of f and
g lie.  The certificate cancels the envelopes e^{2 pi i (label) x} of f,
g and h before it evaluates anything, so it does not overflow at large
|Im mu|.  For
|Im mu| above an instance-dependent threshold this yields all C(2m, m)
points, pairwise distinct, with complementary subset tags inside each
involution pair.  `bethe.analytic_involution`, which inverts the
Wronskian instead, is the independent route to the same partner.
`enumerate_fiber` returns one `FiberReport`, complete or not: the
certified points and, for every subset without one, the reason and the
stage it failed at; `fiber`, the mu-grid scan and `eigen` all read it.
Two subsets whose solves land on one point fail the dedup: a point is its
set of roots mod the lattice, the same as another when each root lies
within DEDUP_TOL of one of the other's (one to one if its roots are over 2
DEDUP_TOL apart); buckets of root sums keep it linear in the points.
`scan_mu_grid` solves every grid row in one batch, then pairs, certifies
and deduplicates each row as `enumerate_fiber` does.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bethe import (
    RESIDUAL_GATE,
    BetheProblem,
    BetheSolution,
    _by_rows,
    _pairs,
    site_wronskian,
    solve_subsets,
)
from .elliptic import TWOPI_I, _exp, lattice_distances
from .thetapoly import (
    ResidueViolationError,
    SolveError,
    ThetaPoly,
    _wronskian_rows,
    golden_points,
    stacked_derivs,
)

WR_RESIDUAL_GATE = 1e-9    # max relative sampling residual of Wr(f,g) vs h
DEDUP_TOL = 1e-6           # below this normal-form distance, same point
_GRID_MAX = 1 << 20        # dedup buckets per cell period at most: numbers fit int64


class GridOrderError(ValueError):
    """A mu grid that is not sorted by |Im mu| descending."""


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


def wr_certificates(pairs, problem: BetheProblem) -> list:
    """The certificate of every pair (f, g), all of one degree, at once:
    per pair the relative sampling residual of Wr(f, g) against the target
    h = e^{-2 pi i mu x} prod_a theta(x - z_a), or the exception that
    fails it.  A pair fails first if any two of f's roots, g's roots and
    the sites lie within 1e-6 of each other mod the lattice (SolveError),
    then if the sample row cannot be placed, and then by its own residual
    or the ArithmeticError its Wr check raises.  The residual is
    pointwise-relative, so the mu-envelope spanning many decades across
    the cell does not mask errors, and a NaN at any sample makes it NaN.

    Wr(f, g) - c h is a degree-2m theta-polynomial with h's multipliers, so
    it has 2m zeros in the cell unless it vanishes; the first sample fixes
    c and the other 2m + 1 (at least 7) force it to zero.  Only h(x_0) is
    divided by, so the samples avoid the sites alone, never the roots of f
    and g: one row, placed once per call, serves every pair, and its
    placement error is that of every pair without a collision.  No
    envelope is formed: with f = e^{ax} F, g = e^{bx} G and h = e^{cx} H
    (H = `bethe.site_wronskian`),
    Wr(f, g) = e^{(a+b)x} (Wr(F, G) + (b - a) F G), so F, G and H are
    evaluated with label 0 and only e^{(a+b-c)x} is exponentiated
    (`elliptic._exp`), exactly 1 for a fiber pair.  The collision test
    takes one distance array over every pair and H is evaluated once on
    the row, Wr(F, G) in one theta batch over every F and G clear of
    collisions; a pair that raises inside a batch is tested again on its
    own (`_by_rows`).
    """
    if not pairs:
        return []
    roots = np.array([f.roots + g.roots + problem.z for f, g in pairs])
    i, j = _pairs(roots.shape[1])
    (collide,), errors = _by_rows(
        lambda r: ((lattice_distances(r[:, i] - r[:, j], problem.ctx) < 1e-6).any(axis=1),),
        roots)
    out = [SolveError("fiber roots collide with each other or a site") if exc is None and hit
           else exc for hit, exc in zip(collide, errors)]
    clear = np.array([k for k, exc in enumerate(out) if exc is None], dtype=int)
    try:
        x = np.array(golden_points(problem.cell, max(8, 2 * problem.m + 2), (0.5, 0.37),
                                   avoid=problem.z, margin=1e-3))
        b = site_wronskian(problem).eval(x)
    except (ArithmeticError, ValueError) as placement:
        return [placement if exc is None else exc for exc in out]

    def certify(idx):
        if not len(idx):
            return (np.zeros(0),)
        fs, gs = [pairs[k][0] for k in idx], [pairs[k][1] for k in idx]
        d = stacked_derivs([dataclasses.replace(p, mu=0.0) for p in fs + gs],
                           np.broadcast_to(x, (2 * len(idx), len(x))), 1)
        df, dg = [v[:len(idx)] for v in d], [v[len(idx):] for v in d]
        wr, = _wronskian_rows(df, dg)
        rates = TWOPI_I * np.array([[g.mu - f.mu, f.mu + g.mu + problem.mu]
                                    for f, g in zip(fs, gs)])
        a = _exp(rates[:, 1:] * x) * (wr + rates[:, :1] * df[0] * dg[0])
        fit = a[:, :1] / b[:1] * b[1:]
        err = np.abs(a[:, 1:] - fit) / np.maximum(np.abs(a[:, 1:]), np.abs(fit))
        return (np.max(err, axis=1, initial=0.0),)

    (residuals,), errors = _by_rows(certify, clear)
    for k, residual, exc in zip(clear, residuals, errors):
        out[k] = float(residual) if exc is None else exc
    return out


def _staged(exc, stage):
    exc.stage = stage
    return exc


def _solved(problems, subsets) -> list:
    """Per problem, the `solve_subsets` result of every subset at its mu,
    then of every complement at -mu, an unconverged solve turned into a
    SolveError.  The problems share sites and torus, and all their systems
    go through one batch: a system's bits do not depend on its batch."""
    batch, tags = [], []
    for problem in problems:
        # 0.0 - mu, not -mu: keeps a negative zero out of the g-label
        mirror = dataclasses.replace(problem, mu=0.0 - problem.mu)
        batch += [problem] * len(subsets) + [mirror] * len(subsets)
        tags += subsets + [tuple(sorted(set(range(problem.n)) - set(s))) for s in subsets]
    results = [r if isinstance(r, Exception) or r.converged else
               SolveError("no convergence (residual %.2e)" % r.residual)
               for r in solve_subsets(batch, tags)]
    size = 2 * len(subsets)
    return [results[k * size:(k + 1) * size] for k in range(len(problems))]


def _paired(problem: BetheProblem, subsets, results) -> list:
    """Pair each subset's solution with its partner (`_solved`'s row of
    `problem`), and certify every pair that has both in one
    `wr_certificates` call: per subset its FiberPoint or its staged
    exception."""
    count = len(subsets)
    out, solved = [], []
    for sol, par in zip(results[:count], results[count:]):
        if isinstance(sol, Exception):
            out.append(_staged(sol, getattr(sol, "stage", "newton")))
        elif isinstance(par, Exception):
            out.append(_staged(par, "partner"))
        else:
            solved.append(len(out))
            out.append((ThetaPoly(1.0, 0.0, sol.t, problem.ctx),
                        ThetaPoly(1.0, (par.mu - sol.mu) / 2.0, par.t, problem.ctx), sol, par))
    for k, residual in zip(solved, wr_certificates([out[k][:2] for k in solved], problem)):
        if not isinstance(residual, Exception) and not residual <= WR_RESIDUAL_GATE:
            residual = ResidueViolationError(
                "Wr(f,g) fails the target-shape certificate (%.2e)" % residual)
        f, g, sol, par = out[k]
        out[k] = (_staged(residual, "certificate") if isinstance(residual, Exception)
                  else FiberPoint(f, g, subsets[k], par.subset_tag, residual, sol, par))
    return out


def fiber_points(problem: BetheProblem, subsets) -> list:
    """Solve, pair, certify, and package the fiber point of every subset
    at once: per subset its FiberPoint, or the exception (ArithmeticError,
    ValueError or SolveError) of the first stage it fails.

    The solution (mu, t) comes from the asymptotic seed of the subset; its
    partner (-mu, s) from the Bethe equations at -mu, seeded at the
    complementary sites (s_j = z_a - 1/(2 pi i mu) + O(mu^-2)), so g has
    label exactly -mu and no Wronskian has to be inverted.  Both solves
    must be `converged` (residual <= RESIDUAL_GATE; Newton's own target,
    `bethe._newton_tol`, accepts nothing), and the pair must pass
    `wr_certificates`, which owns the collision test of roots and sites,
    at WR_RESIDUAL_GATE.  The partner's tag is the one the solver reads
    off its roots (the sites nearest them), not assumed.

    The solution is used raw (not cell-normalized): f = prod theta(x - t_j)
    has label exactly 0 only for root representatives satisfying the Bethe
    equations at mu itself, and lattice-reducing a root would silently turn
    the pair into a different section (caught by the Wr certificate).

    Every solution and partner is seeded and solved in one
    `solve_subsets` batch (the subsets, then their complements), and the
    pairs that pass both residual gates are certified in one
    `wr_certificates` call.  Every exception carries a `stage` attribute
    naming the first step that failed, in the order seed, newton, partner,
    certificate, whatever the other systems of the batch did.
    """
    subsets = [tuple(s) for s in subsets]
    return _paired(problem, subsets, _solved([problem], subsets)[0])


def _close_keys(roots: np.ndarray, problem: BetheProblem) -> list:
    """Per row of `roots` (one point's roots, as solved), the earlier rows
    that are the same point, in ascending order: every root of each lies
    within DEDUP_TOL of some root of the other mod the lattice.

    That match is one to one, so the root sums lie within m DEDUP_TOL mod
    the lattice, whenever a point's roots are more than 2 DEDUP_TOL apart.
    So each point is bucketed by the cell coordinates (a, b) of its root
    sum, on a grid whose buckets are at least 2 m DEDUP_TOL wide in the
    plane (twice the bound, so rounding stays far inside a bucket): a
    displacement of length d moves b by at most d / Im tau and a by at most
    d (1 + |Re tau| / Im tau).  The grid has a whole number of buckets per
    period, so it wraps at the cell edges, and a point is compared only with
    the earlier points in its own bucket and the eight around it (a binary
    search of the sorted bucket numbers), in one (pairs, m, m) array of
    root distances subtracted as earlier minus later.
    """
    count, m = roots.shape
    tau = problem.ctx.tau
    side = 2 * m * DEDUP_TOL
    sizes = np.array([min(_GRID_MAX, max(1, int(1.0 / (side * (1.0 + abs(tau.real) / tau.imag))))),
                      min(_GRID_MAX, max(1, int(tau.imag / side)))])
    cells = np.floor(np.stack(problem.cell.coords(roots.sum(axis=1)), axis=-1) * sizes)
    cells = cells.astype(np.int64) % sizes
    # the distinct steps to a neighbour: a grid under 3 buckets wide wraps onto itself
    steps = np.array(sorted({(da % sizes[0], db % sizes[1])
                             for da in (-1, 0, 1) for db in (-1, 0, 1)}))
    place = np.array([sizes[1], 1])     # a bucket's number is cells @ place
    order = np.argsort(cells @ place, kind="stable")
    ranked = (cells @ place)[order]
    near = (((cells[:, None, :] + steps) % sizes) @ place).ravel()
    lo = np.searchsorted(ranked, near, "left")
    span = np.searchsorted(ranked, near, "right") - lo
    later = np.repeat(np.arange(count).repeat(len(steps)), span)
    earlier = order[np.arange(span.sum()) + np.repeat(lo - np.cumsum(span) + span, span)]
    ahead = earlier < later
    later, earlier = later[ahead], earlier[ahead]
    d = lattice_distances(roots[earlier, :, None] - roots[later, None, :], problem.ctx)
    same = np.maximum(d.min(axis=1).max(axis=1), d.min(axis=2).max(axis=1)) < DEDUP_TOL
    out = [[] for _ in range(count)]
    for k, q in sorted(zip(later[same].tolist(), earlier[same].tolist())):
        out[k].append(q)
    return out


def _report(problem: BetheProblem, subsets, results) -> FiberReport:
    """The FiberReport of `results`, the `fiber_points` list of `subsets`:
    their exceptions, and their points deduplicated (see enumerate_fiber)."""
    found = [k for k, point in enumerate(results) if not isinstance(point, Exception)]
    roots = np.array([results[k].solution.t for k in found], dtype=complex).reshape(-1, problem.m)
    close = dict(zip(found, ([found[q] for q in row] for row in _close_keys(roots, problem))))
    failures, points, warnings = [], [], []
    kept = np.zeros(len(results), dtype=bool)
    for k, (subset, point) in enumerate(zip(subsets, results)):
        if isinstance(point, Exception):
            failures.append((subset, "%s: %s [stage %s]"
                             % (point.__class__.__name__, point, point.stage)))
            continue
        twin = next((results[q].subset_tag for q in close[k] if kept[q]), None)
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
        kept[k] = True
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


def enumerate_fiber(problem: BetheProblem, subsets=None) -> FiberReport:
    """Enumerate the labeled fiber over e^{-2 pi i mu x} prod theta(x - z_a).

    One `fiber_points` batch over the m-element site subsets.  A subset
    repeated in an explicit `subsets` list collapses onto its own point;
    one whose solve lands on another subset's point (below-threshold mu
    can merge basins) fails at stage dedup.  The report is returned
    whether or not the fiber is complete: each failing subset is in
    `failed` with the exception and stage `fiber_points` gave it, or its
    dedup twin.

    Two points are the same when every root of each lies within DEDUP_TOL
    of some root of the other mod the lattice, whatever their order or
    cell; this is a one-to-one match within DEDUP_TOL wherever a point's
    roots are more than 2 DEDUP_TOL apart.  A point's twin is the first
    accepted earlier point that is the same.  Points are compared only
    within neighbour buckets of their root sums (`_close_keys`), so the
    dedup takes time and memory linear in the points where they are well
    apart, not an array over all pairs.
    """
    if subsets is None:
        subsets = itertools.combinations(range(problem.n), problem.m)
    subsets = list(subsets)
    return _report(problem, subsets, fiber_points(problem, subsets))


def scan_mu_grid(problem: BetheProblem, mu_grid) -> list:
    """Enumerate the fiber at each grid value of mu: a list of (mu,
    report), the report that `enumerate_fiber` gives at that mu;
    `report.complete` is the row's verdict.

    The grid must be sorted by |Im mu| descending (GridOrderError, a
    ValueError, before anything is solved).  Every row's subsets and
    complements are solved in one `solve_subsets` batch, each system at its
    own row's mu; then each row is paired, certified and deduplicated as
    `enumerate_fiber` does it, with the same bits.
    """
    grid = list(mu_grid)
    mags = [abs(complex(mu).imag) for mu in grid]
    if mags != sorted(mags, reverse=True):
        raise GridOrderError("mu_grid must be sorted by |Im mu| descending")
    problems = [dataclasses.replace(problem, mu=mu) for mu in grid]
    subsets = list(itertools.combinations(range(problem.n), problem.m))
    return [(mu, _report(p, subsets, _paired(p, subsets, row)))
            for mu, p, row in zip(grid, problems, _solved(problems, subsets))]


def scan_mu_min(rows) -> float:
    """Smallest |Im mu| on the grid with a complete, certified fiber: the
    |Im mu| of the last complete row before the first incomplete one, of
    `scan_mu_grid` rows; None if the first row is incomplete."""
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
