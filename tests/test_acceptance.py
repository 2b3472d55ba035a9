"""Acceptance gate: the ten package-level criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Everything is desk scale (m <= 3) and the whole file runs in
well under a minute.
"""

import cmath
import functools
import itertools
import math

import numpy as np
import pytest

from ellbethe.bethe import (
    BetheProblem,
    analytic_involution,
    seed_asymptotic,
    solve_bae,
    wronskian_residues,
)
from ellbethe.elliptic import (
    Torus,
    eta,
    lattice_distance,
    phi,
    rho,
    rho_prime,
    sigma,
    theta,
    theta_derivs,
    theta_dtau,
)
from ellbethe.repspace import fundamental_b2, verify_eigen
from ellbethe.thetapoly import (
    FundamentalParallelogram,
    ResidueViolationError,
    ThetaPoly,
    solve_wronskian,
    wronskian,
)
from ellbethe.wronski import enumerate_fiber

CTX = Torus(1j)
Z4 = (0.13, 0.41 + 0.12j, 0.55 + 0.31j, 0.77 + 0.05j)
Z2 = Z4[:2]
TWOPI_I = 2j * math.pi


def relerr(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def problem(m, mu):
    return BetheProblem(m, Z4 if m == 2 else Z2, mu, CTX)


def solve_subset(prob, subset):
    sol = solve_bae(prob, seed_asymptotic(prob, subset))
    assert sol.converged
    return sol


@functools.lru_cache(maxsize=None)
def fiber(m, mu):
    report = enumerate_fiber(problem(m, mu))
    assert not report.failed, report.failed
    return report


def cell_samples(ctx, count, seed, margin=0.05, avoid=()):
    """Seeded uniform points in the fundamental cell, a margin away from
    the lattice and from every point of `avoid` (mod the lattice)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        x = complex(rng.uniform(0, 1), 0) + rng.uniform(0, 1) * ctx.tau
        if lattice_distance(x, ctx) <= margin:
            continue
        if any(lattice_distance(x - a, ctx) <= margin for a in avoid):
            continue
        out.append(x)
    return out


def random_poly(rng, m, ctx, cell, mu=None):
    roots = tuple(cell.base + rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9) * ctx.tau
                  for _ in range(m))
    if mu is None:
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return ThetaPoly(complex(rng.normal(), rng.normal()), mu, roots, ctx)


class TestAcceptance:
    def test_01_special_function_suite(self):
        """theta'(0) = 1, heat equation, and all quasi-periodicity laws."""
        for tau in (1j, 2j, 0.3 + 0.8j):
            ctx = Torus(tau)
            origin = theta_derivs(0.0, ctx, 3)
            assert abs(origin[1] - 1.0) < 1e-12
            for x in (0.23 + 0.11j, 0.25 + 0.9 * tau, 0.11 - 1.2 * tau):
                # the heat equation of the normalized theta
                lhs = 4j * math.pi * theta_dtau(x, ctx)
                d = theta_derivs(x, ctx, 2)
                rhs = d[2] - origin[3] * d[0]
                assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs))

        for tau in (1j, 0.3 + 0.8j):
            ctx = Torus(tau)
            xs = cell_samples(ctx, 50, seed=1)
            ws = cell_samples(ctx, 50, seed=2)
            z1, z2 = 0.05 - 0.11j, 0.44 + 0.31j
            for x, w in zip(xs, ws):
                for k, l in ((1, 0), (0, 1), (-1, 1), (2, -1)):
                    shift = k + l * tau
                    mult = ((-1) ** (k + l)
                            * cmath.exp(-1j * math.pi * l * l * tau
                                        - TWOPI_I * l * x))
                    assert relerr(theta(x + shift, ctx), mult * theta(x, ctx)) < 1e-10
                    assert relerr(rho(x + shift, ctx),
                                  rho(x, ctx) - TWOPI_I * l) < 1e-10
                    assert relerr(rho_prime(x + shift, ctx), rho_prime(x, ctx)) < 1e-10
                    assert relerr(eta(x + shift, ctx),
                                  eta(x, ctx) - 2 * TWOPI_I * l * rho(x, ctx)
                                  + (TWOPI_I * l) ** 2) < 1e-10
                    assert relerr(sigma(x + shift, w, ctx),
                                  cmath.exp(-TWOPI_I * l * w) * sigma(x, w, ctx)) < 1e-10
                    assert relerr(sigma(x, w + shift, ctx),
                                  cmath.exp(-TWOPI_I * l * x) * sigma(x, w, ctx)) < 1e-10
                    assert relerr(phi(x + shift, w, ctx),
                                  cmath.exp(TWOPI_I * l * w) * phi(x, w, ctx)) < 1e-10
                    assert relerr(phi(x, w + shift, ctx),
                                  cmath.exp(TWOPI_I * l * x)
                                  * (phi(x, w, ctx)
                                     + TWOPI_I * l * sigma(w, -x, ctx))) < 1e-10
                if min(lattice_distance(u, ctx) for u in
                       (x - z1, x - z2, w, w - (z1 - z2))) > 0.05:
                    lhs = (sigma(x - z1, w, ctx) * sigma(x - z2, -w, ctx)
                           / sigma(z1 - z2, -w, ctx)
                           + rho(x - z2, ctx) - rho(x - z1, ctx))
                    assert relerr(lhs, rho(w, ctx) - rho(w - (z1 - z2), ctx)) < 1e-10
                if min(lattice_distance(u, ctx) for u in (x + w, x - w)) > 1e-3:
                    assert relerr(sigma(x, w, ctx) * sigma(x, -w, ctx),
                                  rho_prime(w, ctx) - rho_prime(x, ctx)) < 1e-10

    def test_02_wronskian_solver_round_trip(self):
        """solve_wronskian(f, Wr(f, g0)) recovers g0; bad targets rejected."""
        rng = np.random.default_rng(2)
        cell = FundamentalParallelogram(-(1.0 + CTX.tau) / 2.0, CTX)
        for trial in range(20):
            m = (1, 2, 3)[trial % 3]
            f = random_poly(rng, m, CTX, cell)
            g0 = random_poly(rng, m, CTX, cell)
            res = solve_wronskian(f, wronskian(f, g0), cell)
            assert res.residual < 1e-9
            for x in (0.13 + 0.21j, -0.32 + 0.4j, 0.05):
                assert relerr(res.g.eval(x), g0.eval(x)) < 1e-9
        for m in (1, 2, 3):
            f = random_poly(rng, m, CTX, cell)
            bad = random_poly(rng, 2 * m, CTX, cell)
            with pytest.raises(ResidueViolationError):
                solve_wronskian(f, bad, cell)

    def test_03_bethe_residuals(self):
        """Accepted solutions: BAE residual < 1e-10, zero-residue quadrature
        < 1e-9."""
        for m in (1, 2):
            for mu in (6j, 10j):
                prob = problem(m, mu)
                for subset in itertools.combinations(range(2 * m), m):
                    sol = solve_subset(prob, subset)
                    assert sol.residual < 1e-10
                    assert max(wronskian_residues(sol)) < 1e-9

    def test_04_fiber_count(self):
        """m=1 fiber has 2 points, m=2 fiber has 6 = C(4,2), all distinct,
        with complementary involution tags."""
        for m, expected in ((1, 2), (2, 6)):
            for mu in (6j, 10j):
                report = fiber(m, mu)
                assert report.count == expected == report.expected
                points = report.points
                for pa, pb in itertools.combinations(points, 2):
                    dist = max(
                        min(lattice_distance(a - b, CTX) for b in pb.f.roots)
                        for a in pa.f.roots)
                    assert dist > 1e-4
                universe = set(range(2 * m))
                for point in points:
                    assert set(point.partner_tag) == universe - set(point.subset_tag)

    def test_05_asymptotic_law(self):
        """max_j |(t_j - z_{i_j}) 2 pi i mu - 1| falls like 1/|mu| within a
        factor of two across mu = 10i, 20i, 40i."""
        devs = []
        for mu in (10j, 20j, 40j):
            prob = problem(2, mu)
            worst = 0.0
            for subset in itertools.combinations(range(4), 2):
                sol = solve_subset(prob, subset)
                worst = max(worst,
                            max(abs((sol.t[j] - Z4[subset[j]]) * TWOPI_I * mu - 1.0)
                                for j in range(2)))
            devs.append(worst)
        for a, b in zip(devs, devs[1:]):
            assert 1.0 <= a / b <= 4.0  # 1/|mu| decay, within a factor of 2

    def test_06_eigenfunction_verification(self):
        """H_a Psi = E_a Psi for a = 0..2m and sum_s H_s Psi = 0."""
        for m in (1, 2):
            prob = problem(m, 6j)
            sols = [solve_subset(prob, subset)
                    for subset in itertools.combinations(range(2 * m), m)]
            result = verify_eigen([(sol, analytic_involution(sol)) for sol in sols],
                                  cell_samples(CTX, 10, seed=6),
                                  cell_samples(CTX, 10, seed=16, avoid=prob.z))
            assert result.worst["eigenvalue_sum"] < 1e-8
            assert result.worst["eigen_relation"] < 1e-8
            assert result.worst["eigen_sum_rule"] < 1e-9

    def test_07_s2_triple_agreement(self):
        """s2_via_kzb, the column determinant, and B2 Psi agree pairwise;
        B2 is doubly periodic."""
        sol = solve_subset(problem(2, 10j), (0, 1))
        result = verify_eigen([(sol, analytic_involution(sol))], cell_samples(CTX, 10, seed=7),
                              cell_samples(CTX, 10, seed=8, avoid=Z4))
        assert result.worst["eigenvalue_sum"] < 1e-8
        worst = result.worst
        # the routes agree relative to max(1, |S2 Psi|), S2 Psi and B2 Psi
        # relative to |Psi|; at these points |Psi| <= max(1, |S2 Psi|), so
        # the sum also bounds the column determinant against B2 Psi
        assert worst["s2_routes"] + worst["s2_eigen_b2"] < 1e-8
        assert worst["b2_periodicity"] < 1e-9

    def test_08_kernel_check(self):
        """(d^2/dx^2 + B2) u = 0 for u = f/sqrt(Wr) and g/sqrt(Wr), in
        log-derivative form v' + v^2 + B2 = 0."""
        sol = solve_subset(problem(2, 10j), (0, 1))
        result = verify_eigen([(sol, analytic_involution(sol))], cell_samples(CTX, 10, seed=7),
                              cell_samples(CTX, 10, seed=9, avoid=Z4))
        assert result.worst["eigenvalue_sum"] < 1e-8
        assert result.worst["kernel_membership"] < 1e-8

    def test_09_weyl_equals_analytic_involution(self):
        """s(Psi(., mu, t)) / Psi(., -mu, s) is componentwise constant on
        every m=2 fiber point."""
        points = fiber(2, 6j).points
        result = verify_eigen([(p.solution, analytic_involution(p.solution)) for p in points],
                              cell_samples(CTX, 10, seed=10),
                              cell_samples(CTX, 10, seed=9, avoid=Z4))
        assert result.worst["eigenvalue_sum"] < 1e-8
        assert result.worst["weyl_ratio"] < 1e-8

    def test_10_b2_separates_involution_pairs(self):
        """Across the twelve solutions carried by the m=2 fiber (each point's
        (mu, t) and its involution partner (-mu, s)), B2 agreement happens
        exactly for involution partners; all other pairs differ by > 1e-3."""
        points = fiber(2, 6j).points
        xs = cell_samples(CTX, 5, seed=11, avoid=Z4)
        sols = ([("sol", p.subset_tag, p.solution) for p in points]
                + [("par", p.subset_tag, p.partner) for p in points])
        agreeing, differing = set(), set()
        for (ka, taga, sa), (kb, tagb, sb) in itertools.combinations(sols, 2):
            diff = max(abs(fundamental_b2(x, sa) - fundamental_b2(x, sb))
                       for x in xs)
            pair = frozenset(((ka, taga), (kb, tagb)))
            if diff < 1e-8 * max(1.0, abs(fundamental_b2(xs[0], sa))):
                agreeing.add(pair)
            else:
                assert diff > 1e-3
                differing.add(pair)
        expected = {frozenset((("sol", p.subset_tag), ("par", p.subset_tag)))
                    for p in points}
        assert agreeing == expected
        assert len(differing) == math.comb(12, 2) - len(expected)
