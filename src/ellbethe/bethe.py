"""Bethe-ansatz equations on the torus and their master function.

For n = 2m sites z_1..z_n (each carrying the two-dimensional irreducible) and
a twist parameter mu, the master function of the weight-zero subspace is

    Phi(t; z, tau, mu) = (pi i / 2) mu^2 tau + 2 pi i mu (sum t_i - (1/2) sum z_s)
                         + 2 sum_{i<j} ln theta(t_i - t_j)
                         - sum_{i,s} ln theta(t_i - z_s)
                         + (1/2) sum_{s<r} ln theta(z_s - z_r),

with m Bethe roots t.  Its critical-point equations are the Bethe-ansatz
equations

    F_j(t) = 2 pi i mu + 2 sum_{k != j} rho(t_j - t_k) - sum_s rho(t_j - z_s) = 0.

`solve_bae_batch` solves them from asymptotic seeds by a safeguarded Halley
iteration (Newton's step where the cubic model is out of reach), many
systems in lockstep, from one theta jet per round.

Solutions are equivalent under t_j -> t_j + 1 and under the simultaneous move
(t_j -> t_j + tau, mu -> mu - 2); `normalize_solution` reduces the roots into
a fundamental cell while shifting mu accordingly.

`analytic_involution` maps a solution (mu, t) to its Wronskian partner
(-mu + 2d, s): the theta polynomial g with Wr(f, g) = prod theta(x - z_s),
f = e^{pi i mu x} prod theta(x - t_j), has roots s that again solve the
Bethe equations, for a parameter that is -mu mod 2Z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .elliptic import (
    TWOPI_I,
    Torus,
    _log_derivs,
    _theta_jets,
    _theta_table,
    eta,
    lattice_distances,
    rho,
    theta,
    theta_derivs,
)
from .thetapoly import (
    FundamentalParallelogram,
    ThetaPoly,
    _residues_over_f_squared,
    solve_wronskian,
)

RESIDUAL_GATE = 1e-10      # max BAE residual of a converged (accepted) solution


class SeedTooCoarseError(ValueError):
    """Asymptotic seed displacement exceeds half the minimal site separation."""


class CoalescedRootsError(ArithmeticError):
    """Two Bethe roots (or a root and a site) collided during the solve."""


class InvolutionMismatchError(ArithmeticError):
    """Wronskian partner does not satisfy the Bethe equations as expected."""


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """Read-only index arrays (i, j) of the pairs i < j < n, in
    itertools.combinations order."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@dataclass(frozen=True)
class BetheProblem:
    """n = 2m sites, twist mu, and the cell used for normal forms.

    Sites must be pairwise distinct mod the lattice (separation > 1e-6) and
    lie in the half-open fundamental cell, which must be on the problem's
    torus.
    """

    m: int
    z: tuple
    mu: complex
    ctx: Torus
    cell: FundamentalParallelogram = None
    # the smallest site distance mod the lattice, from the validating pass
    min_separation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(complex(v) for v in self.z))
        object.__setattr__(self, "mu", complex(self.mu))
        if self.cell is None:
            object.__setattr__(self, "cell", FundamentalParallelogram(0.0, self.ctx))
        if self.cell.ctx.tau != self.ctx.tau:
            raise ValueError("the cell is on tau = %r, the problem on tau = %r"
                             % (self.cell.ctx.tau, self.ctx.tau))
        n = len(self.z)
        if n != 2 * self.m:
            raise ValueError("need exactly 2m = %d sites, got %d" % (2 * self.m, n))
        # the first failure in the order of a loop over sites i that checks
        # site i against the cell, then the pairs (i, j > i): the pairs
        # before the first site outside the cell, from one distance array
        z = np.array(self.z, dtype=complex)
        outside = int(np.append(np.flatnonzero(~self.cell.contains(z)), n)[0])
        i, j = _pairs(n)
        reached = i < outside
        dist = lattice_distances(z[i[reached]] - z[j[reached]], self.ctx)
        close = dist <= 1e-6
        if close.any():
            k = int(np.argmax(close))
            raise ValueError("sites %d and %d coincide mod the lattice" % (i[k], j[k]))
        if outside < n:
            raise ValueError("site %d = %r outside the fundamental cell"
                             % (outside, self.z[outside]))
        object.__setattr__(self, "min_separation", float(dist.min(initial=math.inf)))

    @property
    def n(self) -> int:
        return 2 * self.m


@dataclass(frozen=True)
class BetheSolution:
    """Bethe roots t with the parameter mu they actually satisfy.

    `mu` starts equal to problem.mu but changes by even integers under the
    normalization moves, so it is carried explicitly.  `subset_tag` is the
    sorted indices of the sites nearest (mod the lattice) to the roots.
    `residual` is max_j |F_j(t)| at mu; Newton stops at `_newton_tol`, and
    `converged`, the one acceptance rule, is residual <= RESIDUAL_GATE.
    """

    problem: BetheProblem
    t: tuple
    mu: complex
    residual: float
    subset_tag: tuple
    # Newton counters: accepted steps and rejected step lengths
    iterations: int = field(default=0, compare=False)
    backtracks: int = field(default=0, compare=False)

    @property
    def converged(self) -> bool:  # false for a NaN residual
        return self.residual <= RESIDUAL_GATE

    def poly(self) -> ThetaPoly:
        """The associated theta polynomial f = e^{pi i mu x} prod theta(x - t_j).

        Note the half: the ThetaPoly label is mu/2.  This is what makes the
        residues of W/f^2 vanish exactly at the Bethe equations (the residue
        condition at a root reads sum_s rho(t_j - z_s) = 2 pi i (2 label)
        + 2 sum_k rho(t_j - t_k)), and it is why lattice moves shift the label
        by sum l_j but the Bethe parameter by 2 sum l_j.
        """
        return ThetaPoly(1.0, self.mu / 2.0, self.t, self.problem.ctx)


# ---------------------------------------------------------------------------
# master function and Bethe equations
# ---------------------------------------------------------------------------


def _differences(t, problem: BetheProblem) -> tuple:
    """The root pairs t_i - t_j (i < j), root-site differences t_i - z_s
    and site pairs z_s - z_r (s < r), each flat in row order; roots t of
    shape (..., m) give the first two with the same leading axes."""
    t, z = np.array(t, dtype=complex), np.array(problem.z)
    i, j = _pairs(t.shape[-1])
    s, r = _pairs(len(z))
    return t[..., i] - t[..., j], (t[..., None] - z).reshape(t.shape[:-1] + (-1,)), z[s] - z[r]


def master_phi(t, problem: BetheProblem) -> complex:
    """Phi(t); uses principal logarithms, so only defined mod 2 pi i.

    Derivatives (master_gradient, bae_residual) are single-valued and
    are what the eigenvalue formulas consume.
    """
    z, mu, ctx, tau = problem.z, problem.mu, problem.ctx, problem.ctx.tau
    t = [complex(v) for v in t]
    roots, mixed, sites = map(np.log, _theta_table(
        ctx, (theta, *((d,) for d in _differences(t, problem))))[0])
    return (0.5j * math.pi * mu * mu * tau + TWOPI_I * mu * (sum(t) - 0.5 * sum(z))
            + 2.0 * roots.sum() - mixed.sum() + 0.5 * sites.sum())


def master_gradient(t, problem: BetheProblem, mu) -> np.ndarray:
    """(dPhi/dtau, dPhi/dz_1, ..., dPhi/dz_n) of S solutions, roots t an
    (S, m) array and mu their S parameters: the Hamiltonian eigenvalues, an
    (S, n + 1) array from one theta table for eta at all the `_differences`
    and theta'''(0) (4 pi i d/dtau ln theta(u) = eta(u) - eta(0)), and rho
    at every solution and site pair."""
    z, t = np.array(problem.z), np.array(t, dtype=complex)
    pairs = np.subtract.outer(z, z)[~np.eye(problem.n, dtype=bool)]
    etas, (d0,), (mixed, sites) = _theta_table(
        problem.ctx, (eta, *((d,) for d in _differences(t, problem))), (theta_derivs, (0.0,)),
        (rho, (z[:, None] - t[:, None, :],), (pairs,)))
    return _master_eigenvalues(etas, d0[3], mixed, sites, mu)


def _master_eigenvalues(etas, eta0, mixed, sites, mu) -> np.ndarray:
    """(dPhi/dtau, dPhi/dz) as `master_gradient` gives them, from eta at the three
    `_differences` and eta0 = theta'''(0), and rho at z_s - t_j, (S, n, m), and at
    z_s - z_p, p != s, in row order."""
    mu = [complex(v) for v in mu]
    roots, roots_sites, site_pairs = (v - eta0 for v in etas)
    acc = 2.0 * roots.sum(axis=1) - roots_sites.sum(axis=1) + 0.5 * site_pairs.sum()
    dtau = [0.5j * math.pi * v * v + a / (4j * math.pi) for v, a in zip(mu, acc)]
    dz = (np.array([-1j * math.pi * v for v in mu])[:, None] - mixed.sum(axis=2)
          + 0.5 * sites.reshape(mixed.shape[1], -1).sum(axis=1))
    return np.column_stack([dtau, dz])


def _distinct(keys: np.ndarray) -> tuple:
    """(first, inverse) of a flat array: the position of each distinct
    value's first occurrence, in the order they occur, and each entry's
    index into them."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _bethe_kernels(t: np.ndarray, z: tuple, ctx: Torus) -> tuple:
    """rho, rho' and rho'' of S systems with roots t, an (S, m) array, from
    one order-3 theta jet over the differences of all S systems: the three
    at the m(m-1)/2 root pairs j < k, as (S, m, m) arrays (pairs above the
    diagonal), then the three at the m n root-site differences t_j - z_s,
    as (S, m, n) arrays, then the gap, per system the smallest modulus of
    one of these differences (no lattice reduction).

    rho and rho'' are odd and rho' even, so each unordered pair is
    evaluated once; rows 0-2 of a jet do not depend on its order, so rho
    and rho' have the bits of an order-2 jet.  Where systems share roots
    (the seed round), the jet is taken once per distinct root pair, then at
    the n site differences of each distinct root (keyed on its bits, so
    +0.0 and -0.0 stay apart), both in first-occurrence order, and gathered
    onto the systems; otherwise (a lone system, a later round) at each
    system's differences in turn.  A point's jet does not depend on its
    batch, nor then a system's values, and a PoleError names the first
    offending difference of a lone system; a jet, rho, rho' or rho'' that
    is not finite raises OverflowError."""
    (count, m), n = t.shape, len(z)
    i, j = _pairs(m)
    diff = np.concatenate([t[:, i] - t[:, j], (t[:, :, None] - np.array(z)).reshape(count, m * n)],
                          axis=1)
    points, gather = diff, None
    # roots shared (the seed round): a set of their values also merges +0.0 and -0.0
    if len(set(t.ravel().tolist())) < t.size:
        root_at, root_ids = _distinct(t.ravel().view("V16"))
        root_ids = root_ids.reshape(count, m)
        pair_at, pair_ids = _distinct((root_ids[:, i] * len(root_at) + root_ids[:, j]).ravel())
        points = np.concatenate([diff[:, :len(i)].ravel()[pair_at],
                                 diff[:, len(i):].reshape(count * m, n)[root_at].ravel()])
        gather = np.concatenate([pair_ids.reshape(count, len(i)), len(pair_at) + (
            root_ids[:, :, None] * n + np.arange(n)).reshape(count, m * n)], axis=1)
    # a Newton candidate far from the cell can pass the largest double in
    # the jet's derivative rows: it fails here, not with a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = _theta_jets(points, ctx, 3, pole="rho")
        values = _log_derivs(d)
    if not all(np.isfinite(v).all() for v in [d] + values):
        raise OverflowError("rho, rho' or rho'' is not finite")
    if gather is not None:
        values = [v[gather] for v in values]
    pairs = np.zeros((3, count, m, m), dtype=complex)
    pairs[:, :, i, j] = [v[:, :len(i)] for v in values]
    return (*pairs, *(v[:, len(i):].reshape(count, m, n) for v in values),
            np.abs(diff).min(axis=1))


def _residuals(kernels, drive: np.ndarray) -> np.ndarray:
    """The Bethe equation values F_j of each system in `kernels`, with
    drive[k] = 2 pi i mu_k, as an (S, m) array."""
    pair_r, site_r = kernels[0], kernels[3]
    return drive[:, None] + 2.0 * (pair_r.sum(axis=2) - pair_r.sum(axis=1)) - site_r.sum(axis=2)


def _assembled(pairs: np.ndarray, site: np.ndarray) -> np.ndarray:
    """The (S, m, m) matrices with off-diagonal entries -pairs[:, j, l] and
    diagonal entries sum_l pairs[:, j, l] - site[:, j]."""
    diag = np.zeros_like(pairs)
    k = np.arange(pairs.shape[1])
    diag[:, k, k] = pairs.sum(axis=2) - site
    return diag - pairs


def _jacobians(kernels) -> np.ndarray:
    """dF_j/dt_l of each system in `kernels`, as an (S, m, m) array; mu
    does not enter.  rho' is even, so one evaluation serves both entries
    of a root pair."""
    pair = kernels[1]
    return _assembled(2.0 * (pair + pair.transpose(0, 2, 1)), kernels[4].sum(axis=2))


def _jacobian_slopes(kernels, s: np.ndarray) -> np.ndarray:
    """The derivative of each system's Jacobian along its row of the (S, m)
    directions s, sum_k d^2 F_j/dt_l dt_k s_k, as an (S, m, m) array; from
    rho'' (odd, so again one evaluation per pair)."""
    pair = kernels[2]
    return _assembled(2.0 * (pair - pair.transpose(0, 2, 1)) * (s[:, :, None] - s[:, None, :]),
                      kernels[5].sum(axis=2) * s)


def _one_system(t, problem: BetheProblem) -> tuple:
    """`_bethe_kernels` of the single system with roots t."""
    return _bethe_kernels(np.array([[complex(v) for v in t]]), problem.z, problem.ctx)


def bae_residual(t, problem: BetheProblem, mu: complex = None) -> np.ndarray:
    """Vector of Bethe equation values F_j(t) (zero at a solution)."""
    if mu is None:
        mu = problem.mu
    return _residuals(_one_system(t, problem), np.array([TWOPI_I * mu]))[0]


def bae_jacobian(t, problem: BetheProblem) -> np.ndarray:
    """dF_j/dt_l at t."""
    return _jacobians(_one_system(t, problem))[0]


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def seed_asymptotic(problem: BetheProblem, subset) -> tuple:
    """Seed roots t_j = z_{i_j} + 1/(2 pi i mu) for a size-m site subset.

    For large Im mu each Bethe root sits this close to its site; the seed is
    rejected (ValueError) if the subset holds an index outside [0, n), and
    (SeedTooCoarseError) if the displacement exceeds half the minimal site
    separation.
    """
    subset = tuple(subset)
    if len(subset) != problem.m or len(set(subset)) != problem.m:
        raise ValueError("subset must pick m distinct sites")
    if not all(0 <= i < problem.n for i in subset):
        raise ValueError("subset %s holds a site index outside [0, %d)" % (subset, problem.n))
    rate = abs(TWOPI_I * problem.mu)
    # tested without dividing by mu, so that mu = 0 is rejected too
    if 0.5 * problem.min_separation * rate < 1.0:
        raise SeedTooCoarseError(
            "seed displacement %.3g exceeds half the minimal site separation %.3g"
            % (1.0 / rate if rate else math.inf, 0.5 * problem.min_separation))
    return tuple(problem.z[i] + 1.0 / (TWOPI_I * problem.mu) for i in subset)


def _by_rows(fn, *rows) -> tuple:
    """fn over arrays that share a leading row axis, as (outputs, errors);
    fn returns a tuple of arrays with that row axis.

    One call serves all rows.  If it raises ArithmeticError or ValueError,
    fn runs again on each row alone, so that every row gets exactly the
    value or the exception it gets alone (the theta jets give a point the
    same bits in any batch).  errors[k] is the exception of row k, whose
    output rows are then left zero."""
    count = len(rows[0])
    try:
        return fn(*rows), [None] * count
    except (ArithmeticError, ValueError):
        pass
    outs = tuple(np.zeros((count,) + a.shape[1:], a.dtype) for a in fn(*(r[:0] for r in rows)))
    errors = [None] * count
    for k in range(count):
        try:
            for out, a in zip(outs, fn(*(r[k:k + 1] for r in rows))):
                out[k] = a[0]
        except (ArithmeticError, ValueError) as exc:
            errors[k] = exc
    return outs, errors


def _newton_steps(jacobians, residuals) -> tuple:
    """The step -J^{-1} F of each system, in one stacked solve."""
    return (np.linalg.solve(jacobians, -residuals[..., None])[..., 0],)


def _newton_tol(mu: complex) -> float:
    """Newton's stopping target at mu: 1e-12, growing like the Bethe-equation
    terms, |2 pi mu|, past |mu| = 25/pi (their rounding floor grows faster)."""
    return max(1e-12, 2e-14 * abs(TWOPI_I * mu))


# a system takes the Halley step only while its Newton step is at most this
# many times the gap of `_bethe_kernels` (its closest root-root or root-site
# difference); farther out the cubic model is not to be trusted
HALLEY_REACH = 2.0


def _shared_problem(problems) -> BetheProblem:
    """problems[0], whose sites and torus every problem must share (ValueError otherwise)."""
    if any(p.z != problems[0].z or p.ctx != problems[0].ctx for p in problems):
        raise ValueError("the problems of one batch must share sites and torus")
    return problems[0]


def solve_bae_batch(problems, seeds, *, max_iter: int = 50) -> list:
    """Safeguarded Halley iteration for S Bethe systems that share sites
    and torus, in lockstep.

    System k solves the Bethe equations of problems[k] from seeds[k].
    Each system keeps the sequence of a solve on its own.  From the
    current iterate it takes the Newton step s_N = -J^{-1} F and, where
    max |s_N| <= HALLEY_REACH times the iterate's gap, the Halley step
    s_H = -(J + T/2)^{-1} F, T the derivative of J along s_N (cubic
    convergence, from the rho'' the same jet gives).  A system's pending
    candidate is a rung of one ladder: rung -1 the Halley step, rung a >= 0
    the Newton step times 2^-a.  A candidate is accepted when its residual
    norm is at most (1 - 1e-4 * 2^-max(a, 0)) times the current one; an
    accepted step resets the rung to -1 (Halley within reach and solvable)
    or 0, and a rejected candidate moves one rung down.  The seed is the
    first candidate, accepted against an infinite norm.  A system stops at
    the current iterate once its residual is below `_newton_tol` of its
    own mu, at rung 20, or after max_iter accepted steps (`converged` reads
    that residual against RESIDUAL_GATE).  A seed whose residual lands on a
    pole raises PoleError once it needs a step.  Counters: the accepted
    steps (`iterations`) and the rejected candidates (`backtracks`).

    Every round evaluates the pending candidate of each running system in
    one `_bethe_kernels` call and solves the Jacobians of the systems that
    go on in one stacked `np.linalg.solve`, and the Halley systems of the
    round in one more; `_by_rows` gives each system the bits, and the
    exception, of a solve on its own.  In the seed round, where systems
    share roots, the kernels take one jet per distinct root pair and per
    distinct root's site differences.  A Halley system that is singular
    takes its Newton step.

    Returns, per system, its BetheSolution or the exception its own solve
    raises: CoalescedRootsError if roots collide with each other or a site
    (separation < 1e-8), which the separation check raises before any
    convergence verdict, or the ArithmeticError or ValueError of an
    evaluation.  A solution's `subset_tag` is read off the root-site
    distances of that same check: the sorted indices of the sites nearest
    its roots.
    """
    count = len(seeds)
    if not count:
        return []
    prob = _shared_problem(problems)
    z, ctx = prob.z, prob.ctx
    mus = [p.mu for p in problems]
    drive = np.array([TWOPI_I * mu for mu in mus])
    tol = np.array([_newton_tol(mu) for mu in mus])
    t = np.array([[complex(v) for v in seed] for seed in seeds])
    step, halley = np.zeros((2,) + t.shape, dtype=complex)
    # each system's pending candidate: rung -1 the Halley step, rung a >= 0
    # the Newton step times 2^-a (the seed: rung 0 and a zero step)
    rung = np.zeros(count, dtype=int)
    norm = np.full(count, math.inf)
    iterations = np.full(count, -1)     # the seed's acceptance makes it 0
    backtracks = np.zeros(count, dtype=int)
    failed = [None] * count     # the exception that ends a system
    kernels = functools.partial(_bethe_kernels, z=z, ctx=ctx)
    running = np.arange(count)  # systems with a candidate to evaluate
    cand = t.copy()
    while running.size:
        kern, errors = _by_rows(kernels, cand[running])
        cres = _residuals(kern, drive[running])
        cnorm = np.abs(cres).max(axis=1)
        for pos, exc in enumerate(errors):
            if isinstance(exc, ArithmeticError):
                cnorm[pos] = math.inf
            elif exc is not None:
                failed[running[pos]] = exc
        live = np.array([failed[k] is None for k in running], dtype=bool)
        lam = np.ldexp(1.0, -np.maximum(rung[running], 0))
        accept = live & (cnorm <= (1.0 - 1e-4 * lam) * norm[running])
        iterations[running[accept]] += 1
        # rejected: one rung down, and a system stops at rung 20
        back = running[live & ~accept]
        rung[back] += 1
        backtracks[back] += 1
        retry = back[rung[back] < 20]
        # accepted: move, and go on unless converged or out of steps
        moved = np.flatnonzero(accept)
        idx = running[moved]
        t[idx], norm[idx] = cand[idx], cnorm[moved]
        on = (iterations[idx] < max_iter) & ~(norm[idx] < tol[idx])
        # a residual that raised (a seed on a pole) fails once it needs a step
        for pos, k in zip(moved[on], idx[on]):
            if errors[pos] is not None:
                failed[k] = errors[pos]
        on &= np.array([errors[pos] is None for pos in moved], dtype=bool)
        go, rows = idx[on], moved[on]
        if go.size:
            jac = _jacobians([a[rows] for a in kern])
            steps, singular = _by_rows(_newton_steps, jac, cres[rows])
            step[go] = steps[0]
            for k, exc in zip(go, singular):
                failed[k] = exc
            keep = np.array([exc is None for exc in singular], dtype=bool)
            go, rows, jac = go[keep], rows[keep], jac[keep]
            rung[go] = 0
            # kern[-1]: the gaps
            near = np.abs(step[go]).max(axis=1) <= HALLEY_REACH * kern[-1][rows]
            if near.any():
                near_go, near_rows = go[near], rows[near]
                slopes = _jacobian_slopes([a[near_rows] for a in kern], step[near_go])
                (steps,), singular = _by_rows(_newton_steps, jac[near] + 0.5 * slopes,
                                              cres[near_rows])
                solved = np.array([exc is None for exc in singular], dtype=bool)
                halley[near_go[solved]] = steps[solved]
                rung[near_go[solved]] = -1
        running = np.sort(np.concatenate([retry, go]))
        lam = np.ldexp(1.0, -np.maximum(rung[running], 0))
        cand[running] = t[running] + np.where(rung[running, None] < 0, halley[running],
                                              lam[:, None] * step[running])
    done = np.array([exc is None for exc in failed], dtype=bool)
    tags = [None] * count
    for k, exc, tag in zip(np.flatnonzero(done), *_separation_errors(t[done], z, ctx)):
        failed[k], tags[k] = exc, tag
    return [failed[k] if failed[k] is not None else
            BetheSolution(problems[k], tuple(t[k]), mus[k], float(norm[k]), tags[k],
                          int(iterations[k]), int(backtracks[k]))
            for k in range(count)]


def solve_bae(problem: BetheProblem, seed, *, max_iter: int = 50) -> BetheSolution:
    """Safeguarded Halley iteration for the Bethe equations:
    `solve_bae_batch` on one system.

    Returns the last iterate, which is the best one, tagged with the sites
    nearest its roots.  Newton stops at `_newton_tol` of mu; the solution
    is `converged` if its residual meets RESIDUAL_GATE.

    Raises
    ------
    CoalescedRootsError
        If roots collide with each other or a site (separation < 1e-8).
    """
    result, = solve_bae_batch([problem], [seed], max_iter=max_iter)
    if isinstance(result, Exception):
        raise result
    return result


def solve_subsets(problems, subsets) -> list:
    """Solve problems[k] from the asymptotic seed of subsets[k], for every
    k in one `solve_bae_batch`: per system its BetheSolution or the
    exception of its solve.  A seed that `seed_asymptotic` rejects is that
    system's exception, with `stage = "seed"`, and is never solved."""
    out, seeded, seeds = [None] * len(subsets), [], []
    for k, (problem, subset) in enumerate(zip(problems, subsets)):
        try:
            seeds.append(seed_asymptotic(problem, subset))
            seeded.append(k)
        except ValueError as exc:
            exc.stage = "seed"
            out[k] = exc
    for k, result in zip(seeded, solve_bae_batch([problems[k] for k in seeded], seeds)):
        out[k] = result
    return out


def _separation_errors(t: np.ndarray, z, ctx: Torus) -> tuple:
    """Per system of roots t, an (S, m) array, from one array of distances:
    (CoalescedRootsError for the first (in row order) root pair j > i or
    root-site pair closer than 1e-8 mod the lattice, or None; the sorted
    indices of the sites nearest its roots)."""
    count, m = t.shape
    others = np.concatenate([t, np.broadcast_to(np.array(z, dtype=complex), (count, len(z)))],
                            axis=1)
    (dist,), errors = _by_rows(lambda r, o: (lattice_distances(r[:, :, None] - o[:, None, :],
                                                               ctx),), t, others)
    close = dist < 1e-8
    close[:, :, :m] = np.triu(close[:, :, :m], 1)
    for k in np.flatnonzero(close.any(axis=(1, 2))):
        if errors[k] is None:
            i, col = divmod(int(np.argmax(close[k])), close.shape[2])
            errors[k] = CoalescedRootsError(
                "Bethe roots %d and %d coalesced" % (i, col) if col < m
                else "Bethe root %d hit site %d" % (i, col - m))
    nearest = np.argmin(dist[:, :, m:], axis=2)
    return errors, [tuple(sorted(int(a) for a in row)) for row in nearest]


# ---------------------------------------------------------------------------
# normal forms and the involution
# ---------------------------------------------------------------------------


def translate_root(sol: BetheSolution, j: int, k: int, l: int) -> BetheSolution:
    """Equivalence move t_j -> t_j + k + l tau, mu -> mu - 2l."""
    t = list(sol.t)
    t[j] = t[j] + k + l * sol.problem.ctx.tau
    new_mu = sol.mu - 2 * l
    res = float(np.max(np.abs(bae_residual(t, sol.problem, new_mu))))
    return replace(sol, t=tuple(t), mu=new_mu, residual=res)


def normalize_solution(sol: BetheSolution) -> BetheSolution:
    """Reduce all roots into the problem cell; mu shifts by +2 sum l_j."""
    t, _, ls = (v.tolist() for v in sol.problem.cell.reduce(np.array(sol.t, dtype=complex)))
    mu = sol.mu
    # root by root: (mu + 2 l_0) + 2 l_1 can round unlike mu + 2 (l_0 + l_1)
    for l in ls:
        mu += 2 * l
    res = float(np.max(np.abs(bae_residual(t, sol.problem, mu))))
    return replace(sol, t=tuple(t), mu=mu, residual=res)


def site_wronskian(problem: BetheProblem) -> ThetaPoly:
    """The fixed Wronskian target W(x) = prod_s theta(x - z_s), label 0."""
    return ThetaPoly(1.0, 0.0, problem.z, problem.ctx)


def wronskian_residues(sol: BetheSolution) -> list[float]:
    """|residue| of W/f^2 at each Bethe root, relative to the local scale.

    All vanish at a true solution.  The normalization (max of |W/f^2| on the
    quadrature circle times its radius) matters: the raw integrand varies by
    many orders of magnitude across the cell through the e^{pi i mu x}^2
    envelope of f^2, so only the scale-relative residue is meaningful.
    """
    return [abs(res) / scale for (res, scale) in
            _residues_over_f_squared(sol.poly(), site_wronskian(sol.problem))]


def nearest_site_tag(roots, problem: BetheProblem) -> tuple:
    """Indices of the sites nearest (mod lattice) to each root, sorted."""
    dist = lattice_distances(np.array(roots, dtype=complex)[:, None] - np.array(problem.z),
                             problem.ctx)
    return tuple(sorted(int(a) for a in np.argmin(dist, axis=1)))


def analytic_involution(sol: BetheSolution) -> BetheSolution:
    """Wronskian partner of a Bethe solution.

    Solves Wr(f, g) = prod theta(x - z_s) for g, reads off the partner roots s,
    and determines the partner parameter nu from the partner's own Bethe
    equations; nu must equal -mu + 2d for an integer d (to 1e-8), and the full
    partner residual must meet 1e-8.  Both bounds check the inversion; the
    partner's `converged` applies RESIDUAL_GATE to its residual, which a
    correct partner can miss at large |mu| (|rho'| ~ |2 pi mu|^2 near a site:
    up to 2.4e-9 on the default sites at 80i), so a caller accepting it reads
    `converged`.

    Raises
    ------
    ValueError
        If mu is within 1e-8 of an integer (the pairing degenerates).
    InvolutionMismatchError
        If no integer d fits or the partner residual exceeds 1e-8.
    """
    problem = sol.problem
    mu = sol.mu
    if abs(mu - round(mu.real)) < 1e-8:
        raise ValueError("involution undefined for integer mu (got %r)" % (mu,))
    result = solve_wronskian(sol.poly(), site_wronskian(problem), problem.cell)
    s = result.g.roots
    # each Bethe equation determines nu, F_j(s) at nu = 0 being -2 pi i nu;
    # average for robustness
    nu_exact = complex(np.mean(bae_residual(s, problem, 0.0))) / -TWOPI_I
    d = (nu_exact + mu) / 2.0
    d_int = round(d.real)
    if abs(d - d_int) > 1e-8:
        raise InvolutionMismatchError(
            "partner parameter %r is not -mu + 2d for integer d" % (nu_exact,))
    nu = -mu + 2 * d_int
    res = float(np.max(np.abs(bae_residual(s, problem, nu))))
    if res > 1e-8:
        raise InvolutionMismatchError("partner residual %.3e exceeds 1e-8" % res)
    return BetheSolution(problem, s, nu, res, nearest_site_tag(s, problem))
