"""Tests of the Bethe equations, master function, solver, and involution."""

import cmath
import dataclasses
import itertools
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

import oracles as orc
import ellbethe.bethe as bethe_module
from ellbethe.elliptic import PoleError, RangeError, Torus, rho, rho_prime
from ellbethe.thetapoly import FundamentalParallelogram
from ellbethe.bethe import (
    _separation_errors,
    BetheProblem,
    CoalescedRootsError,
    InvolutionMismatchError,
    SeedTooCoarseError,
    analytic_involution,
    bae_jacobian,
    bae_residual,
    master_gradient,
    master_phi,
    nearest_site_tag,
    normalize_solution,
    seed_asymptotic,
    solve_bae,
    solve_bae_batch,
    solve_subsets,
    translate_root,
    wronskian_residues,
)

CTX = Torus(1j)
Z4 = (0.13, 0.41 + 0.12j, 0.55 + 0.31j, 0.77 + 0.05j)


def problem4(mu=10j):
    return BetheProblem(2, Z4, mu, CTX)


def problem2(mu=10j):
    return BetheProblem(1, Z4[:2], mu, CTX)


def solve_subset(prob, subset):
    return solve_bae(prob, seed_asymptotic(prob, subset))


class TestProblemValidation:
    def test_site_count(self):
        with pytest.raises(ValueError):
            BetheProblem(2, Z4[:3], 10j, CTX)

    def test_coincident_sites(self):
        with pytest.raises(ValueError):
            BetheProblem(1, (0.3, 0.3 + 1e-9), 10j, CTX)
        with pytest.raises(ValueError):
            BetheProblem(1, (0.3, 0.3 + 1.0 + 1e-9 * 1j), 10j, CTX)  # equal mod lattice

    def test_coincident_sites_name_the_first_pair(self):
        """With two coinciding pairs, (1, 3) and (0, 2) mod the lattice, the
        message names the pair a loop over i < j meets first."""
        z = (0.1 + 0.2j, 0.3 + 0.4j, 0.1 + 0.2j + 1e-9, 0.3 + 0.4j + 2e-9j)
        with pytest.raises(ValueError, match="^sites 0 and 2 coincide mod the lattice$"):
            BetheProblem(2, z, 10j, CTX)
        z = (0.1 + 0.2j, 0.3 + 0.4j, 0.6 + 0.1j, 0.3 + 0.4j - 1e-9, 0.6 + 0.1j + 1e-9j, 0.9j)
        with pytest.raises(ValueError, match="^sites 1 and 3 coincide mod the lattice$"):
            BetheProblem(3, z, 10j, CTX)

    def test_site_check_order(self):
        """A site outside the cell is reported before the pairs of later
        sites, and after the pairs of earlier ones."""
        with pytest.raises(ValueError, match="^site 1 = .* outside the fundamental cell$"):
            BetheProblem(2, (0.1, 1.4, 0.5, 0.5 + 1e-9), 10j, CTX)
        with pytest.raises(ValueError, match="^sites 0 and 3 coincide mod the lattice$"):
            BetheProblem(2, (0.1, 1.4, 0.5, 0.1 + 1e-9), 10j, CTX)

    def test_cell_on_another_torus(self):
        """A cell on another torus is refused, naming both taus, before the
        sites are checked: its `contains` and `reduce` would use its own tau
        while every distance and solve uses the problem's."""
        cell = FundamentalParallelogram(0.0, Torus(2j))
        for z in (Z4, Z4[:3]):
            with pytest.raises(ValueError,
                               match=r"^the cell is on tau = 2j, the problem on tau = 1j$"):
                BetheProblem(2, z, 6j, CTX, cell)
        BetheProblem(2, Z4, 6j, CTX, FundamentalParallelogram(0.0, Torus(1j)))

    def test_site_outside_cell(self):
        with pytest.raises(ValueError):
            BetheProblem(1, (0.3, 1.4), 10j, CTX)

    def test_edge_site_allowed(self):
        BetheProblem(1, (0.13, 0.41 + 0.12j), 10j, CTX)  # real site on the edge


class TestMasterFunction:
    def test_bae_is_gradient_of_phi(self):
        """F_j = dPhi/dt_j, checked by central differences."""
        prob = problem4()
        t = (0.144 + 0.002j, 0.43 + 0.11j)
        res = bae_residual(t, prob)
        h = 1e-6
        for j in range(2):
            tp = list(t)
            tm = list(t)
            tp[j] += h
            tm[j] -= h
            fd = (master_phi(tp, prob) - master_phi(tm, prob)) / (2 * h)
            assert abs(res[j] - fd) < 1e-6

    def test_dz_vs_fd(self):
        prob = problem4()
        t = (0.144 + 0.002j, 0.43 + 0.11j)
        grad = master_gradient([t], prob, [prob.mu])[0, 1:]
        h = 1e-6
        for a in range(4):
            zp, zm = list(Z4), list(Z4)
            zp[a] += h
            zm[a] -= h
            fd = (master_phi(t, BetheProblem(2, tuple(zp), prob.mu, CTX))
                  - master_phi(t, BetheProblem(2, tuple(zm), prob.mu, CTX))) / (2 * h)
            assert abs(grad[a] - fd) < 1e-6

    def test_dtau_vs_fd(self):
        prob = problem4()
        t = (0.144 + 0.002j, 0.43 + 0.11j)
        h = 1e-6
        fd = (master_phi(t, BetheProblem(2, Z4, prob.mu, Torus(1j + h)))
              - master_phi(t, BetheProblem(2, Z4, prob.mu, Torus(1j - h)))) / (2 * h)
        assert abs(master_gradient([t], prob, [prob.mu])[0, 0] - fd) < 1e-6

    def test_dz_sums_to_zero_at_solutions(self):
        """sum_a dPhi/dz_a = -sum_j F_j = 0 at a Bethe solution."""
        prob = problem4()
        for subset in ((0, 1), (1, 3)):
            sol = solve_subset(prob, subset)
            assert abs(np.sum(master_gradient([sol.t], prob, [sol.mu])[0, 1:])) < 1e-11

    def test_jacobian_vs_fd(self):
        prob = problem4()
        t = (0.144 + 0.002j, 0.43 + 0.11j)
        jac = bae_jacobian(t, prob)
        h = 1e-6
        for l in range(2):
            tp, tm = list(t), list(t)
            tp[l] += h
            tm[l] -= h
            fd = (bae_residual(tp, prob) - bae_residual(tm, prob)) / (2 * h)
            err = np.abs(jac[:, l] - fd) / np.maximum(1.0, np.abs(fd))
            assert np.max(err) < 1e-6

    def test_fused_jet_matches_scalar_kernels(self):
        """Residual and Jacobian from the one batched jet agree with sums of
        scalar rho and rho' over every ordered pair, for two site sets and
        two mu at the same roots (the memo keys on the roots and sites)."""
        t = (0.144 + 0.002j, 0.43 + 0.11j, 0.61 + 0.52j)
        for z in (Z4 + (0.2 + 0.7j, 0.9 + 0.8j), Z4[:2] + (0.3 + 0.4j, 0.5 + 0.9j, 0.7, 0.8j)):
            for mu in (10j, 3.0 - 2j):
                prob = BetheProblem(3, z, mu, CTX)
                res = [2j * math.pi * mu
                       + sum(2.0 * rho(tj - tk, CTX) for tk in t if tk != tj)
                       - sum(rho(tj - zs, CTX) for zs in z) for tj in t]
                jac = [[(sum(2.0 * rho_prime(tj - tk, CTX) for tk in t if tk != tj)
                         - sum(rho_prime(tj - zs, CTX) for zs in z)) if tj == tl
                        else -2.0 * rho_prime(tj - tl, CTX) for tl in t] for tj in t]
                for got, want in ((bae_residual(t, prob), res), (bae_jacobian(t, prob), jac)):
                    want = np.array(want)
                    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


class TestSolver:
    def test_m1_all_subsets(self):
        for mu in (6j, 10j):
            prob = problem2(mu)
            for subset in ((0,), (1,)):
                sol = solve_subset(prob, subset)
                assert sol.converged
                assert sol.residual < 1e-12
                assert nearest_site_tag(sol.t, prob) == subset

    def test_m2_all_subsets(self):
        for mu in (6j, 10j):
            prob = problem4(mu)
            for subset in itertools.combinations(range(4), 2):
                sol = solve_subset(prob, subset)
                assert sol.converged
                assert sol.residual < 1e-12
                assert nearest_site_tag(sol.t, prob) == subset

    def test_m1_against_mpmath_root(self):
        """Independent solve of the single m=1 equation with mp.findroot."""
        prob = problem2(10j)
        sol = solve_subset(prob, (0,))
        z1, z2 = prob.z

        def eq(t):
            return (2j * mp.pi * prob.mu - orc.rho(t - z1, CTX.tau)
                    - orc.rho(t - z2, CTX.tau))

        t0 = mp.mpc(complex(seed_asymptotic(prob, (0,))[0]))
        ref = mp.findroot(eq, (t0, t0 + mp.mpc(1e-4, 1e-4)),
                          solver="secant", tol=1e-36)
        assert abs(complex(ref) - sol.t[0]) < 1e-10

    def test_seed_too_coarse(self):
        prob = problem4(0.5j)  # displacement 1/pi exceeds half min separation
        with pytest.raises(SeedTooCoarseError):
            seed_asymptotic(prob, (0, 1))

    def test_coalesced_roots(self):
        prob = problem4()
        with pytest.raises(CoalescedRootsError):
            solve_bae(prob, (0.3 + 0.2j, 0.3 + 0.2j + 1e-10), max_iter=0)

    def test_separation_names_the_first_collision(self):
        """Root pairs and root-site pairs are checked root by root, pairs
        first, so the message names the first collision in that order."""
        prob = BetheProblem(3, Z4 + (0.2 + 0.7j, 0.9 + 0.8j), 10j, CTX)
        cases = (((0.3 + 0.2j, Z4[2] + 1j, 0.3 + 0.2j + 1e-10), "Bethe roots 0 and 2 coalesced"),
                 ((0.3 + 0.2j, Z4[2] + 1, 0.5 + 0.5j), "Bethe root 1 hit site 2"),
                 ((Z4[3], 0.5 + 0.5j, 0.5 + 0.5j), "Bethe root 0 hit site 3"))
        for t, message in cases + (((0.3 + 0.2j, 0.5 + 0.5j, 0.7 + 0.1j), None),):
            (exc,), _ = _separation_errors(np.array([t]), prob.z, prob.ctx)
            assert (exc is None if message is None
                    else isinstance(exc, CoalescedRootsError) and str(exc) == message)

    def test_seed_on_a_pole(self):
        """A seed on a site raises PoleError once Newton needs a step; with
        max_iter=0 the separation check reports it."""
        prob = problem4()
        seed = (Z4[0], 0.3 + 0.2j)
        with pytest.raises(PoleError):
            solve_bae(prob, seed, max_iter=1)
        with pytest.raises(CoalescedRootsError):
            solve_bae(prob, seed, max_iter=0)

    def test_nonconvergence_returns_best_iterate(self):
        prob = problem4()
        seed = (0.25 + 0.45j, 0.64 + 0.72j)  # far from any solution
        sol = solve_bae(prob, seed, max_iter=1)
        assert not sol.converged
        assert math.isfinite(sol.residual)
        assert len(sol.t) == 2

    def test_max_iter_keeps_the_last_accepted_step(self):
        """Running out of iterations returns the last accepted iterate with
        its own residual, not the iterate before it."""
        prob = problem4()
        seed = (0.25 + 0.45j, 0.64 + 0.72j)
        start = solve_bae(prob, seed, max_iter=0)
        one = solve_bae(prob, seed, max_iter=1)
        assert one.t != start.t
        assert one.residual < start.residual
        assert one.residual == float(np.max(np.abs(bae_residual(one.t, prob))))

    def test_max_iter_counts_newton_steps(self):
        """A solve that converges after n Newton steps converges with max_iter=n."""
        prob = problem4()
        seed = seed_asymptotic(prob, (0, 1))
        full = solve_bae(prob, seed)
        assert full.converged and full.iterations > 1
        capped = solve_bae(prob, seed, max_iter=full.iterations)
        assert capped.converged and capped.t == full.t
        assert capped.iterations == full.iterations

    def test_residues_vanish_at_solutions(self):
        """Scale-relative residues of W/f^2 at the Bethe roots are ~0."""
        for mu in (6j, 10j):
            prob = problem4(mu)
            for subset in itertools.combinations(range(4), 2):
                sol = solve_subset(prob, subset)
                assert max(wronskian_residues(sol)) < 1e-9

    def test_residues_nonzero_off_solutions(self):
        prob = problem4()
        sol = solve_subset(prob, (0, 1))
        fake = dataclasses.replace(sol, mu=prob.mu + 0.3)
        assert max(wronskian_residues(fake)) > 1e-4


class TestBatch:
    """`solve_bae_batch` advances many systems in lockstep, and each system
    gets exactly what a solve on its own gets."""

    BAD = [(Z4[0], 0.3 + 0.2j),                  # on a site
           (0.3 + 0.2j, 0.3 + 0.2j + 1e-10),     # a coalesced pair
           (0.25 + 0.45j, 0.64 + 0.72j)]         # far from any solution
    # per system: the exception class, or (converged, iterations, backtracks);
    # NEWTON under the `newton_step` fixture, HALLEY with the default step
    NEWTON = {
        0: [(False, 0, 0), (False, 0, 0), "CoalescedRootsError", "CoalescedRootsError",
            (False, 0, 0), (False, 0, 0), (False, 0, 0)],
        1: [(False, 1, 0), (False, 1, 0), "PoleError", "PoleError",
            (False, 1, 5), (False, 1, 0), (False, 1, 0)],
        50: [(True, 4, 0), (True, 4, 0), "PoleError", "PoleError",
             (True, 10, 11), (True, 4, 0), (True, 4, 0)],
    }
    HALLEY = {**NEWTON, 50: [(True, 2, 0), (True, 2, 0), "PoleError", "PoleError",
                             (True, 6, 10), (True, 2, 0), (True, 2, 0)]}

    @pytest.mark.parametrize("max_iter, step", [
        pytest.param(n, step, id=str(n) if step == "newton" else "%d-%s" % (n, step))
        for step in ("newton", "halley") for n in (0, 1, 50)])
    def test_failing_systems_do_not_touch_their_neighbours(self, max_iter, step, request):
        if step == "newton":
            request.getfixturevalue("newton_step")
        expected = self.NEWTON if step == "newton" else self.HALLEY
        prob, mirror = problem4(), problem4(-10j)
        good = ([seed_asymptotic(prob, s) for s in ((0, 1), (0, 2), (1, 3))]
                + [seed_asymptotic(mirror, (2, 3))])
        seeds = good[:2] + self.BAD + good[2:]
        # the last system solves at -mu: each system keeps its own mu
        problems = [prob] * 6 + [mirror]
        batch = solve_bae_batch(problems, seeds, max_iter=max_iter)
        kinds = [type(r).__name__ if isinstance(r, Exception)
                 else (r.converged, r.iterations, r.backtracks) for r in batch]
        assert kinds == expected[max_iter]
        for p, seed, got in zip(problems, seeds, batch):
            try:
                want = solve_bae(p, seed, max_iter=max_iter)
            except ArithmeticError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert repr(got) == repr(want)
            assert got.mu == p.mu

    def test_solutions_are_tagged_with_their_nearest_sites(self):
        """With no tag passed in, every system, the partner solved at -mu
        from the complementary seed included, comes back tagged with the
        `nearest_site_tag` of its roots, in a batch and alone."""
        prob, mirror = problem4(), problem4(-10j)
        subsets = list(itertools.combinations(range(4), 2))
        seeds = ([seed_asymptotic(prob, s) for s in subsets]
                 + [seed_asymptotic(mirror, (2, 3)), self.BAD[2]])
        problems = [prob] * len(subsets) + [mirror, prob]
        batch = solve_bae_batch(problems, seeds)
        alone = [solve_bae(p, seed) for p, seed in zip(problems, seeds)]
        for sol in batch + alone:
            assert sol.subset_tag == nearest_site_tag(sol.t, sol.problem)
        assert [sol.subset_tag for sol in batch[:-1]] == subsets + [(2, 3)]

    def test_a_step_out_of_range_fails_only_its_system(self, monkeypatch):
        """A Newton step that lands more than 10^6 cells out makes the
        kernels raise RangeError, a ValueError and no ArithmeticError, so
        the candidate is not just rejected: it ends that system, and every
        other system keeps the bits of its solve on its own."""
        prob = problem4()
        subsets = list(itertools.combinations(range(4), 2))
        seeds = [seed_asymptotic(prob, s) for s in subsets]
        alone = [solve_bae(prob, seed) for seed in seeds]
        steps, far = bethe_module._newton_steps, 3
        calls = []

        def leaping(jacobians, residuals):
            out = steps(jacobians, residuals)
            calls.append(len(jacobians))
            if calls == [len(seeds)]:   # the first round's Newton steps
                out[0][far] += 1e7
            return out

        monkeypatch.setattr(bethe_module, "_newton_steps", leaping)
        batch = solve_bae_batch([prob] * len(seeds), seeds)
        assert calls[0] == len(seeds)
        assert isinstance(batch[far], RangeError)
        assert not isinstance(batch[far], ArithmeticError)
        assert [repr(r) for r in batch[:far] + batch[far + 1:]] == [
            repr(r) for r in alone[:far] + alone[far + 1:]]

    def test_systems_must_share_sites_and_torus(self):
        other = BetheProblem(2, Z4, 10j, Torus(2j))
        with pytest.raises(ValueError, match="share sites and torus"):
            solve_bae_batch([problem4(), other], [(0.1, 0.2), (0.1, 0.2)])

    def test_empty_batch(self):
        assert solve_bae_batch([], []) == []


class TestNewtonTarget:
    """Newton stops each system at the target of its own mu, which grows
    with |mu| past the flat 1e-12 (`bethe._newton_tol`)."""

    SUBSETS = list(itertools.combinations(range(4), 2))

    def test_default_sites_converge_at_40i(self):
        for subset in self.SUBSETS:
            sol = solve_subset(problem4(40j), subset)
            assert sol.converged and sol.residual < 1e-10

    def test_mixed_batch_keeps_each_system_target(self):
        problems = [problem4(mu) for mu in (6j, 40j, -40j) for _ in self.SUBSETS]
        seeds = [seed_asymptotic(p, s) for p, s in zip(problems, self.SUBSETS * 3)]
        batch = solve_bae_batch(problems, seeds)
        assert [repr(got) for got in batch] == [repr(solve_bae(p, seed))
                                                for p, seed in zip(problems, seeds)]
        assert all(sol.converged for sol in batch)
        assert max(sol.residual for sol in batch[:6]) < 1e-12

    def test_seed_indices_must_name_sites(self):
        """An index outside [0, n) is a rejected seed that names the subset;
        (-1, 0) used to solve the subset (3, 0) through negative indexing."""
        prob = problem4(6j)
        for subset in ((-1, 0), (0, 9)):
            with pytest.raises(ValueError, match=re.escape(str(subset))):
                seed_asymptotic(prob, subset)
            got, = solve_subsets([prob], [subset])
            assert isinstance(got, ValueError) and got.stage == "seed"
            assert str(subset) in str(got)

    def test_solve_subsets_stages_rejected_seeds(self):
        prob, coarse = problem4(40j), problem4(1.3j)
        got = solve_subsets([prob, coarse, prob], [(0, 1), (0, 1), (2, 3)])
        assert isinstance(got[1], SeedTooCoarseError) and got[1].stage == "seed"
        assert [repr(got[0]), repr(got[2])] == [repr(solve_subset(prob, s))
                                                for s in ((0, 1), (2, 3))]


class TestHalleyStep:
    """The Halley step's gain, counted in lockstep rounds."""

    # the sites of the m = 3 scan of fiber bench seed 7 (tau = i)
    SCAN_Z = (0.5348222391162029 + 0.3350943363530908j,
              0.29748691332983457 + 0.10260185333721672j,
              0.46849630296380473 + 0.18120747606434928j,
              0.7887673982252494 + 0.5618466244582009j,
              0.5228314659592112 + 0.659214019596063j,
              0.4042186689286956 + 0.9315503940783075j)

    def test_stagnating_partner_converges(self, kernel_rounds):
        """At -2.2i the partner seeded from (0, 1, 2) stalled under damped
        Newton steps: 50 iterations, 150 backtracks and 201 rounds, holding
        its whole batch that long, and unconverged at the end."""
        prob = BetheProblem(3, self.SCAN_Z, -2.2j, CTX)
        sol = solve_subset(prob, (0, 1, 2))
        assert sol.converged and sol.residual < 1e-12
        assert len(kernel_rounds) <= 5

    def test_halley_is_taken_only_within_reach(self, monkeypatch):
        """Far from a solution the Newton step leaves the safeguard's reach
        and the iteration is Newton's: the far seed of TestBatch needs the
        same first step either way."""
        prob = problem4()
        seed = TestBatch.BAD[2]
        one = solve_bae(prob, seed, max_iter=1)
        monkeypatch.setattr(bethe_module, "HALLEY_REACH", 0.0)
        assert repr(solve_bae(prob, seed, max_iter=1)) == repr(one)

    def test_a_rejected_halley_candidate_is_retried_as_the_full_newton_step(
            self, monkeypatch, request):
        """With T poisoned to -1.98 J, so that J + T/2 = J/100, every Halley
        candidate is 100 Newton steps long and overshoots: it is rejected,
        and the next candidate is the Newton step at full length, not
        halved.  The solve takes Newton's iterates, with one backtrack per
        accepted step."""
        prob = problem4()
        seed = seed_asymptotic(prob, (0, 1))
        jacobians = bethe_module._jacobians
        monkeypatch.setattr(bethe_module, "_jacobian_slopes",
                            lambda kernels, s: -1.98 * jacobians(kernels))
        halley = [solve_bae(prob, seed, max_iter=n) for n in (1, 50)]
        request.getfixturevalue("newton_step")
        newton = [solve_bae(prob, seed, max_iter=n) for n in (1, 50)]
        assert newton[1].converged and newton[1].iterations > 1
        for got, want in zip(halley, newton):
            assert got.t == want.t and got.residual == want.residual
            assert got.iterations == want.iterations == got.backtracks
            assert want.backtracks == 0


class TestFarIterates:
    """Newton candidates far from the cell overflow the theta jets: the
    step is rejected, with no RuntimeWarning and no NaN iterate."""

    def test_overflowing_candidates_are_rejected_quietly(self):
        prob = problem4(6j)
        seeds = [(0.00986735970751551 + 0.38400178640768756j,
                  0.7838147042162945 + 0.10665319951510266j),
                 (0.3940940779054982 + 0.9374146004543803j,
                  0.549254071332635 + 0.3073449968702121j)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            converges, stalls = (solve_bae(prob, seed) for seed in seeds)
        assert converges.converged and converges.residual < 1e-12
        assert not stalls.converged and math.isfinite(stalls.residual)
        assert all(cmath.isfinite(t) for t in stalls.t)

    def test_overflowing_jet_raises_in_the_kernels(self):
        """At t_0 = 0.3 + 15i theta is finite but its derivative rows pass
        the largest double: the Bethe kernels raise OverflowError instead of
        warning and returning inf, while t_0 = 0.3 + 12i stays finite."""
        prob = problem4(6j)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError, match="not finite"):
                bae_residual([0.3 + 15j, 0.2 + 0.3j], prob)
            assert np.isfinite(bae_residual([0.3 + 12j, 0.2 + 0.3j], prob)).all()


class TestMoves:
    def test_translate_preserves_residual(self):
        """(t_j + k + l tau, mu - 2l) is again a solution."""
        prob = problem4()
        sol = solve_subset(prob, (0, 1))
        for (k, l) in ((1, 0), (0, 1), (-2, 3)):
            moved = translate_root(sol, 0, k, l)
            assert moved.residual < 1e-10
            assert abs(moved.mu - (sol.mu - 2 * l)) < 1e-12

    def test_translate_without_mu_shift_breaks(self):
        prob = problem4()
        sol = solve_subset(prob, (0, 1))
        t = list(sol.t)
        t[0] += CTX.tau
        assert np.max(np.abs(bae_residual(t, prob, sol.mu))) > 1.0

    def test_normalize(self):
        prob = problem4()
        sol = solve_subset(prob, (0, 1))
        moved = translate_root(translate_root(sol, 0, 1, 2), 1, -1, -1)
        norm = normalize_solution(moved)
        assert norm.residual < 1e-10
        assert abs(norm.mu - sol.mu) < 1e-12
        for a, b in zip(norm.t, sol.t):
            assert abs(a - b) < 1e-10
        assert all(prob.cell.contains(v) for v in norm.t)

    def test_normalize_shifts_mu_root_by_root(self):
        """mu moves by 2 l_j one root at a time, in root order: with
        l = (1, -1) and Re mu = 0.1, (mu + 2) - 2 rounds to 0.1 + 9e-17, not
        to mu + 2 (1 - 1) = mu, and `solve` prints that mu_effective."""
        prob = problem4()
        sol = dataclasses.replace(solve_subset(prob, (0, 1)), mu=0.1 + 10j,
                                  t=(0.3 + 0.2j + CTX.tau, 0.6 + 0.5j - CTX.tau))
        norm = normalize_solution(sol)
        assert all(type(v) is complex for v in norm.t)
        assert np.allclose(norm.t, (0.3 + 0.2j, 0.6 + 0.5j), rtol=0, atol=1e-15)
        assert norm.mu == (sol.mu + 2) - 2 == complex(0.10000000000000009, 10.0)
        assert norm.mu != sol.mu + 2 * (1 - 1)


class TestInvolution:
    def test_partner_complementary_tags(self):
        prob = problem4()
        for subset in itertools.combinations(range(4), 2):
            sol = solve_subset(prob, subset)
            par = analytic_involution(sol)
            assert par.subset_tag == tuple(sorted(set(range(4)) - set(subset)))
            # partner parameter is -mu up to an even integer (lattice moves)
            d = (par.mu + sol.mu) / 2
            assert abs(d - round(d.real)) < 1e-8
            assert par.residual < 1e-8

    def test_partner_parameter_in_regime(self):
        """With all roots interior to the cell the even shift vanishes."""
        prob = problem4()
        sol = solve_subset(prob, (0, 1))
        assert abs(analytic_involution(sol).mu + sol.mu) < 1e-8

    def test_involution_is_involutive(self):
        """Applying the involution twice returns the original solution,
        up to the paired move (t + k + l*tau, mu - 2l); normalizing both
        sides makes the comparison exact."""
        prob = problem4()
        sol = normalize_solution(solve_subset(prob, (0, 2)))
        back = normalize_solution(analytic_involution(analytic_involution(sol)))
        key = lambda c: (c.real, c.imag)
        for a, b in zip(sorted(back.t, key=key), sorted(sol.t, key=key)):
            assert abs(a - b) < 1e-9
        assert abs(back.mu - sol.mu) < 1e-9

    def test_m1_partner(self):
        prob = problem2()
        sol = solve_subset(prob, (0,))
        par = analytic_involution(sol)
        assert par.subset_tag == (1,)
        assert abs(par.mu + sol.mu) < 1e-9

    def test_integer_mu_rejected(self):
        prob = problem4()
        sol = solve_subset(prob, (0, 1))
        fake = dataclasses.replace(sol, mu=3.0)
        with pytest.raises(ValueError):
            analytic_involution(fake)

    def test_partner_parameter_off_the_lattice_of_minus_mu(self, monkeypatch):
        """A partner whose Bethe equations give a nu that is not -mu + 2d
        for an integer d is a mismatch, not a solution."""
        sol = solve_subset(problem4(), (0, 1))
        residual = bethe_module.bae_residual
        monkeypatch.setattr(bethe_module, "bae_residual", lambda t, problem, mu=None: (
            residual(t, problem, mu) + (0.25 if mu == 0.0 else 0.0)))
        with pytest.raises(InvolutionMismatchError, match="is not -mu \\+ 2d for integer d"):
            analytic_involution(sol)

    def test_partner_residual_above_tolerance(self, monkeypatch):
        """A partner that fits nu = -mu + 2d but misses its Bethe equations
        by more than 1e-8 is a mismatch."""
        sol = solve_subset(problem4(), (0, 1))
        residual = bethe_module.bae_residual
        monkeypatch.setattr(bethe_module, "bae_residual", lambda t, problem, mu=None: (
            residual(t, problem, mu) + (0.0 if mu == 0.0 else 1e-6)))
        with pytest.raises(InvolutionMismatchError,
                           match="partner residual 1.000e-06 exceeds 1e-8"):
            analytic_involution(sol)

    def test_partner_solves_bae(self):
        """The mathematical content: partner roots satisfy the Bethe equations
        for parameter -mu + 2d, without being solved for directly."""
        prob = problem4(6j)
        sol = solve_subset(prob, (1, 2))
        par = analytic_involution(sol)
        res = np.max(np.abs(bae_residual(par.t, prob, par.mu)))
        assert res < 1e-8
