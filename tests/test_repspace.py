"""Tests of the zero-weight space, the eigenfunction Psi, and the KZB family."""

import cmath
import dataclasses
import functools
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from ellbethe.elliptic import (PoleError, RangeError, Torus, eta, phi, rho, rho_prime, sigma,
                               sigma_jet, theta)
from ellbethe.bethe import (
    BetheProblem,
    analytic_involution,
    bae_residual,
    seed_asymptotic,
    solve_bae,
    solve_subsets,
)
from ellbethe import elliptic, repspace
from ellbethe.cli import _cell_samples
from ellbethe.thetapoly import wronskian
from test_wronski import cell_problem
from ellbethe.repspace import (
    EIGEN_CHECKS,
    _psi_args,
    _psi_rows,
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

CTX = Torus(1j)
Z4 = (0.13, 0.41 + 0.12j, 0.55 + 0.31j, 0.77 + 0.05j)
Z10 = Z4 + (0.05 + 0.55j, 0.29 + 0.71j, 0.62 + 0.83j, 0.88 + 0.47j,
            0.35 + 0.42j, 0.71 + 0.63j)
LAM = 0.31 + 0.17j


def solve_subset(prob, subset):
    return solve_bae(prob, seed_asymptotic(prob, subset))


def fixture_solution(m=2, mu=10j, subset=None):
    z = {1: Z4[:2], 2: Z4}.get(m, Z10[:2 * m])
    subset = tuple(range(m)) if subset is None else subset
    return solve_subset(BetheProblem(m, z, mu, CTX), subset)


def random_test_function(space, seed=5):
    """A smooth V[0]-valued function: lam -> its analytic jet at lam."""
    rng = np.random.default_rng(seed)
    c0 = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    c1 = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)

    def F(lam):
        e = cmath.exp(0.3 * lam)
        return (
            c0 * e + c1 * cmath.cos(lam),
            0.3 * c0 * e - c1 * cmath.sin(lam),
            0.09 * c0 * e - c1 * cmath.cos(lam),
        )

    return F


def fd_triple(G, h):
    """Wrap a vector-valued callable into a 5-point-stencil jet callable."""

    def trip(lam):
        gm2, gm1, g0, gp1, gp2 = (G(lam + k * h) for k in (-2, -1, 0, 1, 2))
        d1 = (-gp2 + 8 * gp1 - 8 * gm1 + gm2) / (12 * h)
        d2 = (-gp2 + 16 * gp1 - 30 * g0 + 16 * gm1 - gm2) / (12 * h * h)
        return g0, d1, d2

    return trip


def kzb_rows(jet, lam, z):
    """H_0 F, ..., H_n F at lam, with the operators assembled there."""
    return apply_kzb(kzb_operators(lam, z, CTX), jet)


def s2_kzb(x, jet, lam, z):
    """S2(x) F at lam by the KZB route."""
    return s2_via_kzb(x, kzb_rows(jet, lam, z), jet[0], z, CTX)


def kronecker_site_ops(n):
    """Dense reference: name -> [the generator acting at site s on (C^2)^(tensor n)]."""
    e11 = np.diag([0.5, -0.5])
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    gens = {"e11": e11, "e22": -e11, "e12": e12, "e21": e12.T, "hw": 2 * e11}
    full = {}
    for name, mat in gens.items():
        full[name] = []
        for s in range(n):
            op = np.eye(1)
            for k in range(n):
                op = np.kron(op, mat if k == s else np.eye(2))
            full[name].append(op)
    return full


def embed_indices(space):
    """Position of each v_I in the 2^n tensor basis: site 0 is the leftmost
    factor, and v2 sits at the sites in I."""
    n = space.n_sites
    return np.array([sum(1 << (n - 1 - i) for i in I) for I in space.subsets])


class TestZeroWeightSpace:
    def test_dimensions(self):
        for m in (1, 2, 3):
            sp = zero_weight_space(2 * m)
            assert sp.dim == math.comb(2 * m, m)
            assert len(sp.subsets) == sp.dim

    def test_odd_site_count_rejected(self):
        with pytest.raises(ValueError):
            zero_weight_space(3)

    def test_basis_is_zero_weight(self):
        """The v_I span exactly the kernel of e11_total - e22_total."""
        for n in (2, 4, 6):
            full = kronecker_site_ops(n)
            embed = embed_indices(zero_weight_space(n))
            weight = np.diag(sum(full["e11"]) - sum(full["e22"]))
            assert np.array_equal(np.flatnonzero(weight == 0.0), np.sort(embed))

    def test_embed_project_round_trip(self):
        sp = zero_weight_space(4)
        embed = embed_indices(sp)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        full = np.zeros(2 ** sp.n_sites, dtype=complex)
        full[embed] = v
        assert np.array_equal(full[embed], v)
        assert np.count_nonzero(full) == sp.dim

    def test_blocks_match_kronecker_reference(self):
        """hw_site and the move table equal the dense Kronecker products on
        (C^2)^(tensor n) restricted to the v_I, and so do the products the
        operators reduce to it: e21^(s) e12^(p) = e12^(p) e21^(s), the s = p
        projectors (1 +- hw^(s))/2 and Omega0^(s,p) = hw^(s) hw^(p)/2."""
        for n in (2, 4, 6):
            sp = zero_weight_space(n)
            full = kronecker_site_ops(n)
            embed = embed_indices(sp)
            # moves() sums the table in groups of m^2 entries per target
            assert np.array_equal(sp.tgt, np.repeat(np.arange(sp.dim), sp.m ** 2))

            def restrict(op):
                return op[np.ix_(embed, embed)]

            def pair(a, s, b, p):
                return restrict(full[a][s] @ full[b][p])

            for s in range(n):
                hw = sp.hw_site[s]
                assert np.array_equal(np.diag(hw), restrict(full["hw"][s]))
                assert np.array_equal(np.diag((1 + hw) / 2), pair("e12", s, "e21", s))
                assert np.array_equal(np.diag((1 - hw) / 2), pair("e21", s, "e12", s))
                for p in range(n):
                    assert np.array_equal(np.diag(hw * sp.hw_site[p] / 2),
                                          pair("e11", s, "e11", p) + pair("e22", s, "e22", p))
                    if p == s:
                        continue
                    coef = np.zeros((n, n))
                    coef[s, p] = 1.0
                    dense = np.column_stack([sp.moves(coef, e) for e in np.eye(sp.dim)])
                    assert np.array_equal(dense, pair("e12", s, "e21", p))
                    assert np.array_equal(dense, pair("e21", p, "e12", s))

    def test_index_and_complement(self):
        sp = zero_weight_space(4)
        assert sp.subsets[sp.dim - 1 - sp.index((0, 1))] == (2, 3)
        assert sp.index((1, 0)) == sp.index((0, 1))

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_tables_match_the_dict_construction(self, n):
        """The subsets, hw_site, the move table and the minors, built from
        bitmask ranks, equal entry for entry (and in dtype) those of the
        construction that ranks each subset through a dict: per target, s
        ascending outside it, then p ascending inside it."""
        m = n // 2
        levels = [tuple(itertools.combinations(range(n), k)) for k in range(m + 1)]
        ranks = [{S: j for j, S in enumerate(level)} for level in levels]
        subsets = levels[-1]
        inside = np.array([[s in I for I in subsets] for s in range(n)])
        rows = [(ranks[-1][tuple(sorted(set(target) - {p} | {s}))], k, s, p)
                for k, target in enumerate(subsets)
                for s in range(n) if s not in target
                for p in target]
        table = np.array(rows, dtype=np.intp).T
        minors = [(np.array([[ranks[k - 1][S[:i] + S[i + 1:]] for i in range(k)]
                             for S in levels[k]]), np.array(levels[k]))
                  for k in range(2, m + 1)]
        sp = repspace.ZeroWeightSpace(n)
        assert sp.subsets == subsets and sp._index == ranks[-1] and sp.dim == len(subsets)
        want = [np.where(inside, -1.0, 1.0), *table]
        got = [sp.hw_site, sp.src, sp.tgt, sp.leave, sp.join]
        assert len(sp.minors) == len(minors)
        for (drop, sites), (want_drop, want_sites) in zip(sp.minors, minors):
            got += [drop, sites]
            want += [want_drop, want_sites]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def psi_reference(lam, sol):
    """(Psi, Psi', Psi'') from W_I summed over the m! orderings of the roots,
    each term a scalar Leibniz fold of the sigma jets."""
    prob = sol.problem
    sp = zero_weight_space(prob.n)
    stacks = [[sigma_jet(tj - zs, -lam, CTX) for zs in prob.z] for tj in sol.t]
    w = np.zeros((3, sp.dim), dtype=complex)
    for idx, subset in enumerate(sp.subsets):
        for perm in itertools.permutations(range(prob.m)):
            p0, p1, p2 = 1.0 + 0j, 0j, 0j
            for j in range(prob.m):
                g0, g1, g2 = stacks[perm[j]][subset[j]]
                p0, p1, p2 = p0 * g0, p1 * g0 + p0 * g1, p2 * g0 + 2.0 * p1 * g1 + p0 * g2
            w[:, idx] += (p0, p1, p2)
    c = 1j * math.pi * sol.mu
    envelope = cmath.exp(c * lam)
    return (envelope * w[0], envelope * (c * w[0] - w[1]),
            envelope * (c * c * w[0] - 2.0 * c * w[1] + w[2]))


class TestPsi:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_fold_matches_permutation_sum(self, m):
        """Every row of the jet equals the per-ordering Leibniz sum, so a
        uniform rescaling of Psi, which no eigen relation sees, is caught."""
        z = Z10[:2 * m]
        sol = solve_subset(BetheProblem(m, z, 14j, CTX), tuple(range(0, 2 * m, 2)))
        for lam in (LAM, 0.62 - 0.21j):
            for got, ref in zip(psi_derivs(lam, sol), psi_reference(lam, sol)):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_value_is_order_independent(self, m):
        """The rows from sigma's values alone (as the Weyl ratio reads them)
        are psi_derivs' value bit for bit."""
        z = Z10[:2 * m]
        sol = solve_subset(BetheProblem(m, z, 14j, CTX), tuple(range(0, 2 * m, 2)))
        for lam in (LAM, -0.62 + 0.21j):
            at = [[lam]], [sol]
            assert np.array_equal(_psi_rows(sigma(*_psi_args(*at), CTX)[None], *at)[0, 0, 0],
                                  psi_derivs(lam, sol)[0])

    @staticmethod
    def cell_rows(m, mu):
        """Every solution of cell_problem(m, mu), one per subset, and the
        arguments of `_psi_rows` at 10 lambdas for all of them."""
        prob = cell_problem(m, mu)
        subsets = zero_weight_space(2 * m).subsets
        sols = solve_subsets([prob] * len(subsets), subsets)
        assert all(sol.converged for sol in sols)
        lams = _cell_samples(prob.cell, 10, 1)
        return prob.ctx, lams, ([lams] * len(sols), sols)

    def test_batched_rows_are_the_lone_rows_at_m4(self):
        """All 70 solutions of cell_problem(4, 14j) at 10 lambdas through one
        `_psi_rows`: each sampled solution keeps the bits of its lone
        psi_derivs rows, from sigma_jet's rows and from sigma's values alone,
        as each level's terms are added one at a time in order (a sum over
        a stacked term axis rounds with the batch shape)."""
        ctx, lams, at = self.cell_rows(4, 14j)
        jet_rows = _psi_rows(np.array(sigma_jet(*_psi_args(*at), ctx)), *at)
        value_rows = _psi_rows(sigma(*_psi_args(*at), ctx)[None], *at)[0]
        for k in (0, 23, 46, 69):
            for l, lam in enumerate(lams):
                lone = psi_derivs(lam, at[1][k])
                assert all(np.array_equal(jet_rows[r, k, l], lone[r]) for r in range(3))
                assert np.array_equal(value_rows[k, l], lone[0])

    def test_peak_memory_of_every_m5_solution(self):
        """All 252 solutions of cell_problem(5, 18j) at 10 lambdas: the
        permanents are built one solution at a time, so the traced peak of
        `_psi_rows` stays at most 150 MB (levels gathered for every
        solution at once take over 500 MB)."""
        ctx, lams, at = self.cell_rows(5, 18j)
        jets = np.array(sigma_jet(*_psi_args(*at), ctx))
        tracemalloc.start()
        try:
            rows = _psi_rows(jets, *at)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150e6
        assert rows.shape == (3, 252, 10, 252) and np.isfinite(rows).all()

    def test_m1_single_term(self):
        """For m=1 and I={0}, W_I is the single factor sigma(t - z_0, -lam)."""
        from ellbethe.elliptic import sigma

        sol = fixture_solution(m=1)
        sp = zero_weight_space(2)
        val = psi_derivs(LAM, sol)[0]
        expect = cmath.exp(1j * math.pi * sol.mu * LAM) * sigma(
            sol.t[0] - sol.problem.z[0], -LAM, CTX)
        assert abs(val[sp.index((0,))] - expect) < 1e-12 * abs(expect)

    def test_derivatives_vs_fd(self):
        """Each derivative is checked relative to its own norm (the envelope
        makes |Psi''| ~ (pi mu)^2 |Psi|, so relative-to-value would just
        measure finite-difference truncation)."""
        sol = fixture_solution()
        val, d1, d2 = psi_derivs(LAM, sol)
        h = 1e-6
        fd1 = (psi_derivs(LAM + h, sol)[0] - psi_derivs(LAM - h, sol)[0]) / (2 * h)
        assert np.max(np.abs(d1 - fd1)) / np.linalg.norm(d1) < 1e-7
        h = 1e-5
        fd2 = (psi_derivs(LAM + h, sol)[0] - 2 * val + psi_derivs(LAM - h, sol)[0]) / h ** 2
        assert np.max(np.abs(d2 - fd2)) / np.linalg.norm(d2) < 1e-7

    def test_periodicity(self):
        """Psi(lam + 1) = e^{pi i mu} Psi(lam)."""
        sol = fixture_solution()
        lhs = psi_derivs(LAM + 1.0, sol)[0]
        rhs = cmath.exp(1j * math.pi * sol.mu) * psi_derivs(LAM, sol)[0]
        assert np.max(np.abs(lhs - rhs)) / np.linalg.norm(rhs) < 1e-12

    def test_lattice_pole(self):
        sol = fixture_solution()
        with pytest.raises(PoleError):
            psi_derivs(0.0, sol)
        with pytest.raises(PoleError):
            psi_derivs(1.0 + CTX.tau, sol)

    def test_asymptotic_limit(self):
        """Normalized by prod theta(t_j - z_{i_j}) and the exponential envelope,
        the eigenfunction tends to the basis vector of its own subset tag, with
        all other components decaying like 1/mu."""
        sp = zero_weight_space(4)
        tag = (0, 2)
        idx = sp.index(tag)
        prev = None
        for mu in (10j, 40j, 160j):
            sol = solve_subset(BetheProblem(2, Z4, mu, CTX), tag)
            scale = 1.0
            for j, s in enumerate(tag):
                scale *= theta(sol.t[j] - Z4[s], CTX)
            w0 = psi_derivs(LAM, sol)[0] * scale * cmath.exp(-1j * math.pi * sol.mu * LAM)
            off = max(abs(w0[k]) for k in range(sp.dim) if k != idx)
            assert abs(w0[idx] - 1.0) < 12.0 / abs(mu)
            assert off < 12.0 / abs(mu)
            if prev is not None:
                assert off < prev / 2.0  # decays at least linearly in mu
            prev = off


class TestKzbOperators:
    def test_parity_tables_match_ordered_evaluation(self):
        """rho and eta are evaluated once per unordered site pair; rho is odd
        and eta even bit for bit, so the diagonals equal those built from
        every ordered pair."""
        n = 6
        z = Z10[:n]
        sp = zero_weight_space(n)
        hw = sp.hw_site
        rho_d = np.array([[rho(z[s] - z[p], CTX) if s != p else 0 for p in range(n)]
                          for s in range(n)])
        eta_d = np.array([[eta(z[s] - z[p], CTX) if s != p else 0 for p in range(n)]
                          for s in range(n)])
        ops = kzb_operators(LAM, z, CTX)
        assert np.array_equal(ops.diag[1:], 0.5 * hw * (rho_d @ hw))
        want0 = (0.25 * np.sum(hw * (eta_d @ hw), axis=0)
                 + n * (0.25 * eta(0.0, CTX) + rho_prime(LAM, CTX))) / (4j * math.pi)
        assert np.array_equal(ops.diag[0], want0)

    def test_eigen_relations(self):
        """H_a Psi = (dPhi/dz_a) Psi and H_0 Psi = (dPhi/dtau) Psi."""
        rng = np.random.default_rng(2)
        for m in (1, 2):
            z = Z4 if m == 2 else Z4[:2]
            for mu in (6j, 10j):
                sol = solve_subset(BetheProblem(m, z, mu, CTX), tuple(range(m)))
                ev, = kzb_eigenvalues([sol])
                for _ in range(3):
                    lam = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
                    jet = psi_derivs(lam, sol)
                    v = jet[0]
                    nv = np.linalg.norm(v)
                    rows = kzb_rows(jet, lam, z)
                    assert len(rows) == 2 * m + 1
                    for a in range(2 * m + 1):
                        assert np.linalg.norm(rows[a] - ev[a] * v) / nv < 1e-8

    def test_eigen_relations_and_s2_routes_m4(self):
        """At 8 sites: H_a Psi = E_a Psi for all a, and the two S2 routes agree."""
        sol = solve_subset(BetheProblem(4, Z10[:8], 14j, CTX), (0, 2, 4, 6))
        expected, = kzb_eigenvalues([sol])
        jet = psi_derivs(LAM, sol)
        v = jet[0]
        nv = np.linalg.norm(v)
        rows = kzb_rows(jet, LAM, Z10[:8])
        for a in range(9):
            assert np.linalg.norm(rows[a] - expected[a] * v) / nv < 1e-8
        for x in (0.52 + 0.33j, 0.18 - 0.27j):
            via_kzb = s2_via_kzb(x, rows, v, Z10[:8], CTX)
            via_det = apply_rst_n2(x, jet, LAM, Z10[:8], CTX)
            assert (np.linalg.norm(via_kzb - via_det)
                    / max(1.0, np.linalg.norm(via_kzb)) < 1e-8)

    def test_eigen_relations_m5(self):
        """At 10 sites (V[0] of dimension 252): H_a Psi = E_a Psi at one lambda."""
        sol = solve_subset(BetheProblem(5, Z10, 14j, CTX), (0, 2, 4, 6, 8))
        expected, = kzb_eigenvalues([sol])
        jet = psi_derivs(LAM, sol)
        v = jet[0]
        nv = np.linalg.norm(v)
        rows = kzb_rows(jet, LAM, Z10)
        for a in range(11):
            assert np.linalg.norm(rows[a] - expected[a] * v) / nv < 1e-8

    def test_sum_rule(self):
        """sum_s H_s = 0 on arbitrary zero-weight functions."""
        sp = zero_weight_space(4)
        F = random_test_function(sp)
        for lam in (LAM, 0.62 - 0.21j):
            total = np.sum(kzb_rows(F(lam), lam, Z4)[1:], axis=0)
            assert np.linalg.norm(total) < 1e-9 * np.linalg.norm(F(lam)[0])

    def test_eigenvalue_sum_constraint(self):
        ev, = kzb_eigenvalues([fixture_solution()])
        assert abs(sum(ev[1:])) < 1e-8

    def test_eigenvalues_of_a_batch_are_those_of_each_solution(self):
        """Each row has the bits it has alone, and reads its own mu: mu -> mu - 2
        moves E_a by 2 pi i and E_0 by (pi i / 2)((mu - 2)^2 - mu^2)."""
        sols = [fixture_solution(subset=subset) for subset in ((0, 1), (0, 2), (1, 3))]
        sols.append(dataclasses.replace(sols[0], mu=sols[0].mu - 2))
        together = kzb_eigenvalues(sols)
        assert together.shape == (4, 5)
        assert np.array_equal(together, np.array([kzb_eigenvalues([sol])[0] for sol in sols]))
        mu = sols[0].mu
        shift = 0.5j * math.pi * ((mu - 2) ** 2 - mu ** 2)
        assert abs(together[3, 0] - together[0, 0] - shift) < 1e-9
        assert np.allclose(together[3, 1:] - together[0, 1:], 2j * math.pi, rtol=0, atol=1e-12)

    def test_commutators(self):
        """|[H_a, H_b] F| / |F| < 1e-7 (finite-difference outer derivatives)."""
        sp = zero_weight_space(4)
        F = random_test_function(sp)
        scale = np.linalg.norm(F(LAM)[0])
        for a in range(5):
            for b in range(a + 1, 5):
                ga = lambda l, a=a: kzb_rows(F(l), l, Z4)[a]
                gb = lambda l, b=b: kzb_rows(F(l), l, Z4)[b]
                comm = (kzb_rows(fd_triple(gb, 1e-3)(LAM), LAM, Z4)[a]
                        - kzb_rows(fd_triple(ga, 1e-3)(LAM), LAM, Z4)[b])
                assert np.linalg.norm(comm) / scale < 1e-7

    def test_kzb_rows_build_one_pair_at_a_time(self):
        """70 pairs of jets at m = 4 and 10 lambdas through one apply_kzb:
        the move terms are built one pair at a time (all at once they take
        over 100 MB), and each pair keeps the bits it has alone."""
        rng = np.random.default_rng(6)
        lams = 0.05 + 0.9 * rng.random(10) + 1j * (0.05 + 0.9 * rng.random(10))
        jets = rng.standard_normal((3, 70, 10, 70)) + 1j * rng.standard_normal((3, 70, 10, 70))
        ops = kzb_operators(lams, Z10[:8], CTX)
        tracemalloc.start()
        try:
            got = apply_kzb(ops, jets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert got.shape == (70, 10, 9, 70) and np.isfinite(got).all()
        for k in range(70):
            assert np.array_equal(got[k], apply_kzb(ops, jets[:, k]))


class TestS2:
    def test_kzb_equals_column_determinant(self):
        """The KZB combination and the N=2 column determinant agree."""
        sp = zero_weight_space(4)
        F = random_test_function(sp)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.4, 0.4))
            lam = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
            a = s2_kzb(x, F(lam), lam, Z4)
            b = apply_rst_n2(x, F(lam), lam, Z4, CTX)
            assert np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a)) < 1e-8

    def test_column_determinant_builds_one_pair_at_a_time(self):
        """70 pairs of jets at m = 4 and 10 points: the L21 L12 terms are
        built one pair at a time (all at once they take about 24 MB), and
        each pair keeps the bits it has alone."""
        rng = np.random.default_rng(4)
        xs = 0.05 + 0.9 * rng.random(10) + 1j * (0.05 + 0.9 * rng.random(10))
        lams = 0.05 + 0.9 * rng.random(10) + 1j * (0.05 + 0.9 * rng.random(10))
        jets = rng.standard_normal((3, 70, 10, 70)) + 1j * rng.standard_normal((3, 70, 10, 70))
        tracemalloc.start()
        try:
            got = apply_rst_n2(xs, jets, lams, Z10[:8], CTX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert np.isfinite(got).all()
        for k in (0, 37, 69):
            assert np.array_equal(got[k], apply_rst_n2(xs, jets[:, k], lams, Z10[:8], CTX))

    def test_double_periodicity(self):
        sp = zero_weight_space(4)
        F = random_test_function(sp)
        x = 0.33 + 0.21j
        jet = F(LAM)
        rows = kzb_rows(jet, LAM, Z4)
        base = s2_via_kzb(x, rows, jet[0], Z4, CTX)
        scale = np.linalg.norm(base)
        for shift in (1, CTX.tau):
            moved = s2_via_kzb(x + shift, rows, jet[0], Z4, CTX)
            assert np.linalg.norm(moved - base) / scale < 1e-9

    def test_eigen_relation_b2(self):
        """S2(x) Psi = B2(x) Psi at random (x, lam)."""
        sol = fixture_solution()
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.4, 0.4))
            lam = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
            jet = psi_derivs(lam, sol)
            v = jet[0]
            out = s2_kzb(x, jet, lam, Z4)
            err = np.linalg.norm(out - fundamental_b2(x, sol) * v)
            assert err / np.linalg.norm(v) < 1e-8

    def test_commuting_family(self):
        """[S2(u), S2(v)] = 0, measured relative to the operator output norm
        (the finite-difference floor sits near 2e-7 relative to |F| but the
        outputs carry B2-sized coefficients ~74 |F| at this fixture)."""
        sp = zero_weight_space(4)
        F = random_test_function(sp)
        u, v = 0.37 + 0.21j, 0.71 - 0.13j
        gu = lambda l: s2_kzb(u, F(l), l, Z4)
        gv = lambda l: s2_kzb(v, F(l), l, Z4)
        comm = (s2_kzb(u, fd_triple(gv, 5e-4)(LAM), LAM, Z4)
                - s2_kzb(v, fd_triple(gu, 5e-4)(LAM), LAM, Z4))
        scale = max(np.linalg.norm(gu(LAM)), np.linalg.norm(gv(LAM)))
        assert np.linalg.norm(comm) / scale < 1e-7


class TestDenseReference:
    """H_0..H_n and both S2 routes at n = 4, assembled as dense 2^n matrices
    from the Kronecker site operators (every s = p term included as written),
    against the subset-basis operators on random jets."""

    N = 4

    def l_diagonals(self, lam, x):
        """Dense L11 and L22, with their rho(lambda) terms."""
        n, z, g = self.N, Z4, kronecker_site_ops(self.N)
        l11 = sum(rho(lam, CTX) * g["e22"][k] + rho(x - z[k], CTX) * g["e11"][k]
                  for k in range(n))
        l22 = sum(-rho(lam, CTX) * g["e11"][k] + rho(x - z[k], CTX) * g["e22"][k]
                  for k in range(n))
        return l11, l22

    def operators(self, lam, x):
        """(the H_a as lists of matrices multiplying (F, F', F''), the KZB
        S2(x), the column-determinant S2(x))."""
        n, z, g = self.N, Z4, kronecker_site_ops(self.N)
        eye = np.eye(2 ** n)
        zero = np.zeros_like(eye)

        def two_site(c_omega, c_lr, c_rl, s, p):
            return (c_omega * (g["e11"][s] @ g["e11"][p] + g["e22"][s] @ g["e22"][p])
                    + c_lr * g["e12"][s] @ g["e21"][p] + c_rl * g["e21"][s] @ g["e12"][p])

        def gap(s, p):  # the s = p terms take the removable values at 0
            return z[s] - z[p] if s != p else 0.0

        h0 = sum(two_site(0.5 * eta(gap(s, p), CTX), -phi(lam, gap(s, p), CTX),
                          -phi(-lam, gap(s, p), CTX), s, p)
                 for s in range(n) for p in range(n)) / (4j * math.pi)
        ops = [[h0, zero, eye / (2j * math.pi)]]
        for s in range(n):
            hs = sum(two_site(rho(z[s] - z[p], CTX), sigma(z[s] - z[p], -lam, CTX),
                              sigma(z[s] - z[p], lam, CTX), s, p)
                     for p in range(n) if p != s)
            ops.append([hs, -g["hw"][s], zero])
        c2 = [g["e11"][s] @ g["e22"][s] - g["e12"][s] @ g["e21"][s] + g["e11"][s]
              for s in range(n)]
        s2_kzb = [-2j * math.pi * m0 for m0 in ops[0]]
        for s in range(n):
            for k in range(3):
                s2_kzb[k] = s2_kzb[k] - rho(x - z[s], CTX) * ops[s + 1][k]
            s2_kzb[0] = s2_kzb[0] - rho_prime(x - z[s], CTX) * c2[s]
        l11, l22 = self.l_diagonals(lam, x)
        l12 = sum(sigma(x - z[p], -lam, CTX) * g["e21"][p] for p in range(n))
        l21 = sum(sigma(x - z[s], lam, CTX) * g["e12"][s] for s in range(n))
        dx22 = sum(rho_prime(x - z[k], CTX) * g["e22"][k] for k in range(n))
        s2_det = [dx22 + rho_prime(lam, CTX) * sum(g["e11"]) + l11 @ l22 - l21 @ l12,
                  l11 - l22, -eye]
        return ops, s2_kzb, s2_det

    def test_operators_match_dense_assembly(self):
        sp = zero_weight_space(self.N)
        embed = embed_indices(sp)
        rng = np.random.default_rng(17)

        def apply(mats, jet):
            return sum(m[np.ix_(embed, embed)] @ f for m, f in zip(mats, jet))

        for lam, x in ((LAM, 0.52 + 0.33j), (0.62 - 0.21j, 0.18 - 0.27j)):
            ops, s2_kzb, s2_det = self.operators(lam, x)
            for _ in range(3):
                jet = tuple(rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
                            for _ in range(3))
                rows = kzb_rows(jet, lam, Z4)
                for a, mats in enumerate(ops):
                    ref = apply(mats, jet)
                    assert np.linalg.norm(rows[a] - ref) < 1e-12 * np.linalg.norm(ref)
                ref = apply(s2_kzb, jet)
                got = s2_via_kzb(x, rows, jet[0], Z4, CTX)
                assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)
                ref = apply(s2_det, jet)
                got = apply_rst_n2(x, jet, lam, Z4, CTX)
                assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)

    def test_s1_matrix_part_vanishes_on_zero_weight(self):
        """S1(x) = L11 + L22 - (∂_{lambda_1} + ∂_{lambda_2}).  The derivative
        part cancels on functions of lambda_1 - lambda_2; the matrix part is
        sum_k [rho(x - z_k) (e11 + e22)^(k) + rho(lambda) (e22 - e11)^(k)],
        which is 0 on V[0] and -w rho(lambda) on weight w, so it vanishes on
        V[0] only."""
        weight = np.diag(sum(kronecker_site_ops(self.N)["hw"]))
        for lam, x in ((LAM, 0.52 + 0.33j), (0.62 - 0.21j, 0.18 - 0.27j)):
            l11, l22 = self.l_diagonals(lam, x)
            s1, scale = l11 + l22, np.linalg.norm(l11)
            zero = np.flatnonzero(weight == 0)
            assert np.linalg.norm(s1[:, zero]) < 1e-13 * scale
            for w in (2, -2):
                block = np.flatnonzero(weight == w)
                assert (np.linalg.norm(s1[:, block])
                        > 0.5 * abs(w * rho(lam, CTX)) * np.sqrt(len(block)))


class TestFundamentalB2:
    def test_double_periodicity(self):
        sol = fixture_solution()
        x = 0.29 + 0.14j
        base = fundamental_b2(x, sol)
        assert abs(fundamental_b2(x + 1, sol) - base) < 1e-9 * max(1, abs(base))
        assert abs(fundamental_b2(x + CTX.tau, sol) - base) < 1e-9 * max(1, abs(base))

    def test_kernel_membership(self):
        """(d^2/dx^2 + B2) u_i = 0 for u_1 = f/sqrt(Wr), u_2 = g/sqrt(Wr),
        checked in log-derivative form v' + v^2 + B2 = 0 with
        v = (ln u_i)' = p'/p - (1/2) Wr'/Wr, p in {f, g}."""
        sol = fixture_solution()
        par = analytic_involution(sol)
        f, g = sol.poly(), par.poly()
        wr = wronskian(f, g)
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.35, 0.35))
            b2 = fundamental_b2(x, sol)
            wd = wr.derivs(x, 2)
            for p in (f, g):
                pd = p.derivs(x, 2)
                v = pd[1] / pd[0] - 0.5 * wd[1] / wd[0]
                vp = (pd[2] / pd[0] - (pd[1] / pd[0]) ** 2
                      - 0.5 * (wd[2] / wd[0] - (wd[1] / wd[0]) ** 2))
                assert abs(vp + v * v + b2) / max(1.0, abs(b2)) < 1e-8

    def test_partner_shares_b2(self):
        sol = fixture_solution()
        par = analytic_involution(sol)
        for x in (0.37 + 0.21j, 0.64 - 0.11j):
            assert abs(fundamental_b2(x, sol) - fundamental_b2(x, par)) < 1e-9


class TestWeylInvolution:
    def test_involutive(self):
        sp = zero_weight_space(4)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        assert np.array_equal(weyl_involution(weyl_involution(v, sp), sp), v)

    def test_maps_to_complement(self):
        sp = zero_weight_space(4)
        v = np.zeros(sp.dim, dtype=complex)
        v[sp.index((0, 1))] = 1.0
        out = weyl_involution(v, sp)
        assert out[sp.index((2, 3))] != 0.0
        assert np.count_nonzero(out) == 1
        # s v_I = (-1)^m v_{complement(I)}, against the explicit complement map
        rng = np.random.default_rng(3)
        for n in range(2, 13, 2):
            sp = zero_weight_space(n)
            v = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
            expected = np.zeros(sp.dim, dtype=complex)
            for k, subset in enumerate(sp.subsets):
                expected[sp.index(set(range(n)) - set(subset))] = (-1) ** sp.m * v[k]
            assert np.array_equal(weyl_involution(v, sp), expected)

    def test_weyl_equals_analytic(self):
        """s(Psi(., mu, t)) is proportional to Psi(., -mu, s) with a constant
        componentwise ratio across lambda samples and basis indices."""
        sol = fixture_solution()
        par = analytic_involution(sol)
        sp = zero_weight_space(4)
        rng = np.random.default_rng(11)
        ratios = []
        for _ in range(10):
            lam = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
            lifted = weyl_involution(psi_derivs(-lam, sol)[0], sp)
            ratios.append(lifted / psi_derivs(lam, par)[0])
        arr = np.array(ratios)
        mean = arr.mean()
        assert np.max(np.abs(arr - mean)) < 1e-8 * abs(mean)


def reference_verification(pairs, lams, xs):
    """verify_eigen's worst values and ratio rows, one pair, lambda and x
    at a time through the public per-point functions."""
    worst = dict.fromkeys(EIGEN_CHECKS, 0.0)
    tables = []
    for sol, par in pairs:
        expected, = kzb_eigenvalues([sol])
        worst["eigenvalue_sum"] = max(worst["eigenvalue_sum"], abs(sum(expected[1:])))
        sp = zero_weight_space(sol.problem.n)
        z = sol.problem.z
        jets = [psi_derivs(lam, sol) for lam in lams]
        rows = [apply_kzb(kzb_operators(lam, z, CTX), jet) for lam, jet in zip(lams, jets)]
        table, ratios = [], []
        for lam, jet, outs in zip(lams, jets, rows):
            vnorm = np.linalg.norm(jet[0])
            for a, out in enumerate(outs):
                worst["eigen_relation"] = max(worst["eigen_relation"],
                                              np.linalg.norm(out - expected[a] * jet[0]) / vnorm)
            worst["eigen_sum_rule"] = max(worst["eigen_sum_rule"],
                                          np.linalg.norm(np.sum(outs[1:], axis=0)) / vnorm)
            ratio = (weyl_involution(psi_derivs(-lam, sol)[0], sp)
                     / psi_derivs(lam, par)[0])
            ratios.append(ratio)
            table.append({"lambda": lam, "ratio": complex(np.mean(ratio)),
                          "component_spread": float(np.max(np.abs(ratio - np.mean(ratio))))})
        tables.append(tuple(table))
        arr = np.concatenate(ratios)
        worst["weyl_ratio"] = max(worst["weyl_ratio"], float(
            np.max(np.abs(arr - arr.mean())) / abs(arr.mean())))
        x_arr = np.array(xs)
        b2s = fundamental_b2(np.array([x_arr, x_arr + 1, x_arr + CTX.tau]), sol)
        for x, b2, lam, jet, outs in zip(xs, b2s[0], lams, jets, rows):
            via_kzb = s2_via_kzb(x, outs, jet[0], z, CTX)
            via_det = apply_rst_n2(x, jet, lam, z, CTX)
            worst["s2_routes"] = max(worst["s2_routes"], np.linalg.norm(via_kzb - via_det)
                                     / max(1.0, np.linalg.norm(via_kzb)))
            worst["s2_eigen_b2"] = max(worst["s2_eigen_b2"], np.linalg.norm(via_kzb - b2 * jet[0])
                                       / np.linalg.norm(jet[0]))
        scale = np.maximum(1.0, np.abs(b2s[0]))
        worst["b2_periodicity"] = max(worst["b2_periodicity"],
                                      float(np.max(np.abs(b2s[1:] - b2s[0]) / scale)))
        wd = wronskian(sol.poly(), par.poly()).derivs(x_arr, 2)
        for poly in (sol.poly(), par.poly()):
            pd = poly.derivs(x_arr, 2)
            v = pd[1] / pd[0] - 0.5 * wd[1] / wd[0]
            vp = (pd[2] / pd[0] - (pd[1] / pd[0]) ** 2
                  - 0.5 * (wd[2] / wd[0] - (wd[1] / wd[0]) ** 2))
            worst["kernel_membership"] = max(worst["kernel_membership"], float(
                np.max(np.abs(vp + v * v + b2s[0]) / scale)))
    return worst, tuple(tables)


def test_stacked_norms_match_the_per_vector_loop():
    """`_norms` has np.linalg.norm's bits on every vector: random ones of
    lengths 6..252 at scales 1e-5..1e4, vectors holding a NaN, an inf, only
    zeros or 1e200 components, and a non-contiguous array."""
    rng = np.random.default_rng(7)
    for n in (6, 7, 19, 20, 33, 70, 128, 129, 252):
        a = rng.standard_normal((3, 4, n)) + 1j * rng.standard_normal((3, 4, n))
        a *= 10.0 ** rng.integers(-5, 5, (3, 4, 1))
        a[0, 0, 1], a[0, 1, 2], a[0, 2], a[0, 3] = math.nan, math.inf, 0.0, 1e200
        a[1, 0, 0] = complex(0.0, math.nan)
        for arr in (a, np.asfortranarray(a), a[:, ::-1]):
            # both overflow alike on the 1e200 row
            with np.errstate(over="ignore"):
                want = np.array([np.linalg.norm(v) for v in arr.reshape(-1, n)]).reshape(3, 4)
                assert repspace._norms(arr).tobytes() == want.tobytes()


class TestVerifyEigen:
    LAMS = [0.31 + 0.17j, 0.62 - 0.21j, 0.18 + 0.44j, 0.87 + 0.62j]
    XS = [0.52 + 0.33j, 0.27 + 0.81j, 0.93 + 0.58j, 0.66 + 0.12j]

    @staticmethod
    def pairs(*subsets, m=2):
        sols = [fixture_solution(m=m, subset=subset) for subset in subsets]
        return [(sol, analytic_involution(sol)) for sol in sols]

    @staticmethod
    def cell_points(prob, count):
        """`count` lambda and x points, drawn as the eigen command draws them."""
        return _cell_samples(prob.cell, count, 1), _cell_samples(prob.cell, count, 2, avoid=prob.z)

    @pytest.mark.parametrize("m, subsets, count", [
        pytest.param(1, [(0,), (1,)], 0, id="1-subsets0"),
        pytest.param(2, [(0, 1), (0, 2), (1, 3)], 0, id="2-subsets1"),
        # the bench's eigen shape: one m = 3 pair at 10 lambda and 10 x points
        pytest.param(3, [(0, 2, 4)], 10, id="3-bench-shape"),
        # joined calls past _CHUNK points, so they run in passes
        pytest.param(3, [(0, 1, 2), (0, 2, 4), (1, 3, 5)], 12, id="3-past-chunk")])
    def test_matches_the_per_point_reference(self, m, subsets, count):
        """Every kernel is batched over the pairs and points, and every
        value is still that of the per-point evaluation, bit for bit."""
        pairs = self.pairs(*subsets, m=m)
        lams, xs = self.cell_points(pairs[0][0].problem, count) if count else (self.LAMS, self.XS)
        # the Weyl flips put 2 S L m n points into the joined sigma call
        assert (2 * len(pairs) * len(lams) * 2 * m * m > elliptic._CHUNK) == (count > 10)
        result = verify_eigen(pairs, lams, xs)
        worst, tables = reference_verification(pairs, lams, xs)
        assert result.worst == worst
        assert result.ratio_rows == tables
        assert all(value < 1e-8 for value in worst.values())

    def test_one_jet_call_per_kernel_family(self, theta_jet_calls):
        """At the bench's eigen shape, one m = 3 pair at 10 lambda and 10 x
        points, verify_eigen makes at most 5 theta jet calls (the table's at
        orders 0, 2 and 3 and the theta polynomials') over at most 2,500
        points, as the table takes each kernel's arguments on their own axes."""
        pairs = self.pairs((0, 2, 4), m=3)
        lams, xs = self.cell_points(pairs[0][0].problem, 10)
        theta_jet_calls.clear()
        verify_eigen(pairs, lams, xs)
        assert 0 < len(theta_jet_calls) <= 5
        assert sum(points for _, points, _ in theta_jet_calls) <= 2500

    def test_wrapped_kernels_still_take_the_table(self, monkeypatch):
        """A functools.wraps wrapper, as a tracer puts in every namespace
        that binds a kernel, leaves the results and the theta table in
        place: the table unwraps it, so the wrappers see no call."""
        pairs = self.pairs((0, 1), (0, 2))
        clean = verify_eigen(pairs, self.LAMS, self.XS)
        calls = []

        def wrapped(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ellbethe":
                for kernel in (eta, phi, sigma, sigma_jet, elliptic.theta_derivs):
                    for attr, value in list(vars(module).items()):
                        if value is kernel:
                            monkeypatch.setattr(module, attr, wrapped(kernel))
        assert verify_eigen(pairs, self.LAMS, self.XS) == clean
        assert calls == []

    @pytest.mark.parametrize("lams, xs", [
        pytest.param(LAMS, XS[:1], id="4-1"), pytest.param(LAMS[:1], XS, id="1-4"),
        pytest.param(LAMS, XS[:3], id="4-3"), pytest.param([], [], id="0-0")])
    def test_point_lists_must_pair_up(self, lams, xs):
        """lambda and x are taken in pairs (x_k, lambda_k): lists that are
        empty or of two lengths raise ValueError naming both lengths, with
        or without pairs to verify, instead of broadcasting or failing in numpy."""
        for pairs in (self.pairs((0, 1)), []):
            with pytest.raises(ValueError, match="got %d and %d$" % (len(lams), len(xs))):
                verify_eigen(pairs, lams, xs)

    def test_kernel_errors_name_the_first_offending_point(self):
        """A bad lambda or x raises the kernels' own exception, naming the
        first offending kernel argument: x - z_s for an x (z_0 = 0.13), the
        lambda itself for a lambda."""
        pairs = self.pairs((0, 1))
        pole = "rho evaluated within tol_pole of the lattice (x=%s)"
        for lams, xs, error, message in (
                (self.LAMS, [0.13] + self.XS[1:], PoleError, pole % "0j"),
                ([0.0] + self.LAMS[1:], self.XS, PoleError, pole % "0j"),
                (self.LAMS[:2] + [1 + CTX.tau] + self.LAMS[3:], self.XS, PoleError,
                 pole % "(1+1j)"),
                ([math.nan] + self.LAMS[1:], self.XS, RangeError,
                 "x = (nan+0j) is not a finite number"),
                (self.LAMS, [complex(0.0, math.nan)] + self.XS[1:], RangeError,
                 "x = (-0.13+nanj) is not a finite number"),
                (self.LAMS, self.XS[:3] + [1e9], RangeError,
                 "Re(x) = 1e+09 exceeds the supported range")):
            with pytest.raises(error) as info:
                verify_eigen(pairs, lams, xs)
            assert type(info.value) is error and str(info.value) == message

    def test_solutions_of_two_problems_raise(self):
        """Every solution and partner is read against the first solution's
        sites and torus, so a pair, a partner or a solution from other sites
        or another torus raises ValueError instead of giving wrong values."""
        pair = self.pairs((0, 1))[0]
        for prob in (BetheProblem(2, (0.2 + 0.05j, 0.45 + 0.2j, 0.6 + 0.35j, 0.85 + 0.1j), 10j,
                                  CTX),
                     BetheProblem(2, Z4, 10j, Torus(1.2j))):
            sol = solve_subset(prob, (0, 1))
            other = (sol, analytic_involution(sol))
            for pairs in ([pair, other], [(pair[0], other[1])]):
                with pytest.raises(ValueError, match="must share sites and torus"):
                    verify_eigen(pairs, self.LAMS, self.XS)
            with pytest.raises(ValueError, match="must share sites and torus"):
                kzb_eigenvalues([pair[0], sol])
            assert verify_eigen([other], self.LAMS, self.XS).worst["eigen_relation"] < 1e-8

    def test_pairs_do_not_see_each_other(self):
        pairs = self.pairs((0, 1), (0, 2), (1, 3))
        together = verify_eigen(pairs, self.LAMS, self.XS)
        alone = [verify_eigen([pair], self.LAMS, self.XS) for pair in pairs]
        assert together.ratio_rows == tuple(r.ratio_rows[0] for r in alone)
        for name in EIGEN_CHECKS:
            assert together.worst[name] == max(r.worst[name] for r in alone)

    def test_a_wrong_partner_fails_the_checks_that_read_it(self):
        (sol, _), (_, other) = self.pairs((0, 1), (2, 3))
        worst = verify_eigen([(sol, other)], self.LAMS, self.XS).worst
        assert worst["weyl_ratio"] > 1e-3
        assert worst["kernel_membership"] > 1e-3
        for name in set(EIGEN_CHECKS) - {"weyl_ratio", "kernel_membership"}:
            assert worst[name] < 1e-8

    def test_a_non_solution_fails_the_eigenvalue_sum(self):
        """A pair that is not a solution is measured, not skipped: sum_a
        dPhi/dz_a = -sum_j F_j, so eigenvalue_sum reads |sum_j F_j|, far
        above its tolerance, and the pair keeps its ratio rows.  With no
        pair every check reads inf."""
        (sol, par), good = self.pairs((0, 1), (0, 2))
        t = (sol.t[0] + 1e-3, sol.t[1])
        result = verify_eigen([(dataclasses.replace(sol, t=t), par), good], self.LAMS, self.XS)
        drift = abs(np.sum(bae_residual(t, sol.problem, sol.mu)))
        assert result.worst["eigenvalue_sum"] >= 100 * 1e-8
        assert result.worst["eigenvalue_sum"] == pytest.approx(drift, rel=1e-9)
        assert len(result.ratio_rows[0]) == len(self.LAMS)
        assert result.ratio_rows[1] == verify_eigen([good], self.LAMS, self.XS).ratio_rows[0]
        assert verify_eigen([], self.LAMS, self.XS) == (dict.fromkeys(EIGEN_CHECKS, math.inf), ())

    def test_a_nan_in_psi_fails_every_check_that_reads_it(self, monkeypatch):
        """One NaN component of one Psi at one lambda makes the worst value of
        each check that reads Psi NaN, which fails any tolerance."""
        pairs = self.pairs((0, 1), (0, 2))
        clean = verify_eigen(pairs, self.LAMS, self.XS).worst
        psi_rows = repspace._psi_rows

        def poisoned(*args):
            out = psi_rows(*args)
            out[:, 1, 2, 3] = np.nan
            return out

        monkeypatch.setattr(repspace, "_psi_rows", poisoned)
        worst = verify_eigen(pairs, self.LAMS, self.XS).worst
        reads_psi = {"eigen_relation", "eigen_sum_rule", "s2_routes", "s2_eigen_b2", "weyl_ratio"}
        assert {name for name in EIGEN_CHECKS if math.isnan(worst[name])} == reads_psi
        for name in set(EIGEN_CHECKS) - reads_psi:
            assert worst[name] == clean[name]
