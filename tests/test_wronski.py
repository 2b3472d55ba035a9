"""Tests for elliptic Wronski-map fiber enumeration.

The m=1 fiber is cross-checked against an independent route: Newton on the
two-root correspondence G(x) = f g - v Wr(f, g) evaluated at the sites,
which never touches the Bethe-equation solver.  For m = 1..3 every fiber
partner (the Bethe solve at -mu) is cross-checked against the Wronskian
inversion of `analytic_involution`.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from ellbethe.bethe import (
    BetheProblem,
    CoalescedRootsError,
    SeedTooCoarseError,
    analytic_involution,
    bae_jacobian,
    nearest_site_tag,
    normalize_solution,
    translate_root,
)
from ellbethe.elliptic import Torus, lattice_distance, theta_derivs
import ellbethe.bethe as bethe_module
import ellbethe.wronski as wronski_module
from ellbethe.thetapoly import (ResidueViolationError, SolveError, ThetaPoly, golden_points,
                                wronskian)
from ellbethe.wronski import (
    DEDUP_TOL,
    WR_RESIDUAL_GATE,
    asymptotic_deviation,
    enumerate_fiber,
    estimate_mu_min,
    fiber_points,
    partner_asymptotic_deviation,
    wr_certificates,
)

CTX = Torus(1j)
Z4 = (0.13, 0.41 + 0.12j, 0.55 + 0.31j, 0.77 + 0.05j)
Z2 = Z4[:2]
# cell coordinates (a, b) of sites z = a + b tau; at tau = i these extend Z4
CELL_AB = ((0.13, 0.0), (0.41, 0.12), (0.55, 0.31), (0.77, 0.05),
           (0.05, 0.55), (0.29, 0.71), (0.62, 0.83), (0.88, 0.47),
           (0.35, 0.42), (0.71, 0.63))


# seed-1 benchmark scan sites: below 2.6i some subsets converge onto other
# subsets' points
MERGED_Z = (0.12890928334489193 + 0.8705894159142823j,
            0.5731648745745974 + 0.7985952968328152j,
            0.6952530335957309 + 0.05419763380688547j,
            0.46772907960594134 + 0.5771382780492729j,
            0.5505276633859453 + 0.9508925304238594j,
            0.0038096713445530117 + 0.019650900869300436j)


def cell_problem(m, mu, tau=1j):
    return BetheProblem(m, [a + b * tau for a, b in CELL_AB[:2 * m]], mu,
                        Torus(tau))


def problem(m, mu, z=None):
    if z is None:
        z = Z4 if m == 2 else Z2
    return BetheProblem(m, z, mu, CTX)


def fiber_outcome(prob):
    """(points, failures) of enumerate_fiber, complete or not."""
    report = enumerate_fiber(prob)
    return report.points, report.failed


@functools.lru_cache(maxsize=None)
def fiber_report(m, mu):
    report = enumerate_fiber(problem(m, mu))
    assert not report.failed, report.failed
    return report


def normal_form_distance(pa, pb):
    """Independent copy of the dedup metric: max lattice-reduced coordinate
    distance between sorted root tuples."""
    key = lambda c: (round(c.real, 9), round(c.imag, 9))
    ra = sorted(pa.f.roots, key=key)
    rb = sorted(pb.f.roots, key=key)
    return max(lattice_distance(a - b, CTX) for a, b in zip(ra, rb))


class TestEnumerateFiber:
    def test_m2_full_count(self):
        rep = fiber_report(2, 6j)
        assert rep.count == rep.expected == 6
        assert rep.warnings == ()

    def test_full_count_holds_at_80i(self):
        # Newton's own target, 1.0e-11 here, sits below the rounding floor
        # (residuals up to 1.45e-11); the gate, 1e-10, is what accepts
        rep = fiber_report(2, 80j)
        assert rep.count == rep.expected == 6
        assert rep.warnings == ()
        assert all(p.solution.residual <= 1e-10 and p.partner.residual <= 1e-10
                   for p in rep.points)

    def test_gate_alone_decides(self):
        sol = fiber_report(2, 6j).points[0].solution
        near = dataclasses.replace(sol, residual=1e-11, converged=False)
        assert wronski_module._gated(near) is near
        for residual in (2e-10, math.nan):
            gated = wronski_module._gated(dataclasses.replace(sol, residual=residual))
            assert isinstance(gated, SolveError)

    def test_m1_count(self):
        rep = fiber_report(1, 6j)
        assert rep.count == rep.expected == 2
        assert rep.pairing == (((0,), (1,)),)

    def test_pairing_complementary(self):
        rep = fiber_report(2, 6j)
        assert rep.pairing == (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
        for point in rep.points:
            complement = tuple(sorted(set(range(4)) - set(point.subset_tag)))
            assert point.partner_tag == complement

    def test_wr_certificates(self):
        for rep in (fiber_report(2, 6j), fiber_report(2, 10j), fiber_report(1, 6j)):
            for point in rep.points:
                assert point.wr_residual < 1e-9

    def test_presentation_labels(self):
        rep = fiber_report(2, 6j)
        for point in rep.points:
            assert point.f.mu == 0.0
            assert abs(point.g.mu + 6j) < 1e-8
            assert point.f.roots == point.solution.t

    def test_fiber_distinctness(self):
        rep = fiber_report(2, 6j)
        for pa, pb in itertools.combinations(rep.points, 2):
            assert normal_form_distance(pa, pb) > 1e-4

    def test_certificate_rejects_corrupted_pair(self):
        point = fiber_report(2, 6j).points[0]
        bad_roots = (point.g.roots[0] + 0.05,) + point.g.roots[1:]
        bad = ThetaPoly(1.0, point.g.mu, bad_roots, CTX)
        assert wr_certificates([(point.f, bad)], problem(2, 6j))[0] > 1e-4

    def test_duplicate_seeds_dedup(self):
        rep = enumerate_fiber(problem(2, 6j), subsets=[(0, 1), (0, 1)])
        assert rep.count == 1 and not rep.failed
        assert rep.points[0].subset_tag == (0, 1)

    def test_merged_subsets_are_a_dedup_failure(self, newton_step):
        # seed-1 benchmark scan at mu = 2.5i: under Newton steps subset
        # (0, 3, 4) converges onto the point of (0, 1, 3), which used to
        # vanish from the fiber silently
        prob = BetheProblem(3, MERGED_Z, 2.5j, CTX)
        report = enumerate_fiber(prob, subsets=[(0, 1, 3), (0, 3, 4)])
        assert not report.complete
        assert report.count == 1
        [(subset, why)] = report.failed
        assert subset == (0, 3, 4)
        assert "(0, 1, 3)" in why and why.endswith(" [stage dedup]")

    def test_dedup_matches_pairwise_reference(self, newton_step):
        """At mu = 2.2i, under Newton steps, three subsets merge: the array
        dedup keeps and fails the subsets a pairwise loop over cell-reduced
        sorted roots does."""
        prob = BetheProblem(3, MERGED_Z, 2.2j, CTX)
        report = enumerate_fiber(prob)
        assert not report.complete

        def key(point):
            return sorted((prob.cell.reduce(t)[0] for t in point.solution.t),
                          key=lambda c: (round(c.real, 9), round(c.imag, 9)))

        kept, merged = [], []
        for subset in itertools.combinations(range(6), 3):
            point, = fiber_points(prob, [subset])
            if isinstance(point, (SolveError, ArithmeticError, ValueError)):
                continue
            twin = next((q.subset_tag for q in kept
                         if max(lattice_distance(a - b, CTX)
                                for a, b in zip(key(point), key(q))) < DEDUP_TOL), None)
            if twin is None:
                kept.append(point)
            elif twin != subset:
                merged.append((subset, "same point as subset %s [stage dedup]" % (twin,)))
        assert len(merged) == 3
        assert [p.subset_tag for p in report.points] == [p.subset_tag for p in kept]
        assert [f for f in report.failed if f[1].endswith("[stage dedup]")] == merged

    def test_partners_off_the_complement_warn_in_subset_order(self, newton_step):
        """At mu = 2.2i, under Newton steps, two partners settle nearest
        sites other than their seeds' complements (one of them nearest site
        2 twice): the partial report warns for each, in subset order, with
        the tag the solver read off the partner's roots."""
        prob = BetheProblem(3, MERGED_Z, 2.2j, CTX)
        report = enumerate_fiber(prob)
        assert not report.complete
        text = "subset %s pairs with %s, not its complement (below-threshold mu?)"
        assert report.warnings == (text % ((0, 1, 3), (2, 2, 5)),
                                   text % ((1, 3, 5), (0, 1, 2)))
        for point in report.points:
            assert point.partner_tag == nearest_site_tag(point.partner.t, prob)

    def test_translated_root_is_the_same_point(self, monkeypatch):
        """The dedup key reduces roots into the cell before sorting: with
        t_0 moved by 1 the raw sorted roots were 0.52 apart, and the moved
        copy of a point entered the fiber as a second point."""
        prob = cell_problem(3, 10j)
        point, = fiber_points(prob, [(0, 2, 4)])
        moved = translate_root(point.solution, 0, 1, 0)
        assert moved.residual < 1e-10
        points = [point, dataclasses.replace(point, solution=moved)]
        monkeypatch.setattr(wronski_module, "fiber_points", lambda problem, subsets: points)
        rep = enumerate_fiber(prob, subsets=[(0, 2, 4), (0, 2, 4)])
        assert rep.count == 1 and not rep.failed

    def test_jacobian_condition(self):
        prob = problem(2, 6j)
        for point in fiber_report(2, 6j).points:
            assert np.linalg.cond(bae_jacobian(point.solution.t, prob)) < 1e6

    def test_incomplete_fiber_reports_failures(self):
        report = enumerate_fiber(problem(2, 1.3j))
        assert not report.complete
        assert report.count == 0
        assert len(report.failed) == 6
        assert all(why.startswith("SeedTooCoarseError: seed displacement")
                   for _, why in report.failed)

    def test_below_threshold_pairing_is_warning_not_error(self):
        # at 8i this fixture solves every subset and certifies every
        # Wronskian, but one involution partner's tag degenerates
        prob = problem(2, 8j, z=(0.13, 0.18, 0.55 + 0.31j, 0.77 + 0.05j))
        rep = enumerate_fiber(prob)
        assert rep.count == 6
        assert len(rep.warnings) == 1
        assert "complement" in rep.warnings[0]


class TestFiberPoint:
    def test_m4_fiber_certifies_every_subset(self):
        # the Wronskian-inversion partner failed two of these 70 subsets
        # with an O(1) collocation residual
        prob = cell_problem(4, 14j)
        rep = enumerate_fiber(prob)
        assert rep.count == rep.expected == 70
        assert rep.warnings == ()
        for point in rep.points:
            complement = tuple(sorted(set(range(8)) - set(point.subset_tag)))
            assert point.partner_tag == complement
            assert point.wr_residual <= 1e-9

    def test_m5_fiber_certifies_every_subset(self):
        prob = cell_problem(5, 18j)
        rep = enumerate_fiber(prob)
        assert rep.count == rep.expected == 252
        assert rep.warnings == ()
        for point in rep.points:
            complement = tuple(sorted(set(range(10)) - set(point.subset_tag)))
            assert point.partner_tag == complement
            assert point.wr_residual <= WR_RESIDUAL_GATE

    @pytest.mark.parametrize("m", [2, 4])
    def test_certificate_matches_pointwise_loop(self, m):
        """The array certificate keeps the pointwise rule: the first sample
        point fixes the ratio and the rest are compared one by one."""
        prob = cell_problem(m, 14j)
        point, = fiber_points(prob, [tuple(range(0, 2 * m, 2))])
        for g in (point.g, ThetaPoly(1.0, point.g.mu, (point.g.roots[0] + 1e-3,)
                                     + point.g.roots[1:], prob.ctx)):
            target = ThetaPoly(1.0, -prob.mu, prob.z, prob.ctx)
            wr = wronskian(point.f, g)
            xs = golden_points(prob.cell, max(8, 2 * m + 2), (0.5, 0.37),
                               avoid=point.f.roots + g.roots + prob.z, margin=1e-3)
            ratio = wr.eval(xs[0]) / target.eval(xs[0])
            want = max(abs(wr.eval(x) - ratio * target.eval(x))
                       / max(abs(wr.eval(x)), abs(ratio * target.eval(x))) for x in xs[1:])
            got = wr_certificates([(point.f, g)], prob)[0]
            assert abs(got - want) <= 1e-12 * want + 1e-15

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
    @pytest.mark.parametrize("m, mu", [(1, 6j), (2, 6j), (3, 10j), (4, 14j)])
    def test_partner_matches_wronskian_route(self, m, mu, tau):
        prob = cell_problem(m, mu, tau)
        for subset in itertools.combinations(range(2 * m), m):
            point, = fiber_points(prob, [subset])
            ours = normalize_solution(point.partner)
            theirs = normalize_solution(analytic_involution(point.solution))
            assert ours.mu == theirs.mu
            for a, b in ((ours.t, theirs.t), (theirs.t, ours.t)):
                assert max(min(abs(x - y) for y in b) for x in a) < 1e-9

    @pytest.mark.parametrize("subset", [(0, 1, 2, 3), (0, 1, 3, 7)])
    def test_wronskian_route_keeps_the_terms_that_dominate_inside_the_cell(self, subset):
        """The partners of these m = 4 subsets need Fourier terms that are
        negligible at the cell edge but dominate at smaller heights; a
        window taken at the edge alone dropped them (collocation residual
        0.18)."""
        point, = fiber_points(cell_problem(4, 14j), [subset])
        ours = normalize_solution(point.partner)
        theirs = normalize_solution(analytic_involution(point.solution))
        assert ours.mu == theirs.mu
        assert max(min(abs(x - y) for y in theirs.t) for x in ours.t) < 1e-9

    @pytest.mark.parametrize("m", [4, 5])
    def test_certificate_rejects_moved_partner_root(self, m):
        prob = cell_problem(m, 14j)
        point, = fiber_points(prob, [tuple(range(0, 2 * m, 2))])
        assert point.wr_residual <= WR_RESIDUAL_GATE
        moved = (point.g.roots[0] + 1e-3,) + point.g.roots[1:]
        bad = ThetaPoly(1.0, point.g.mu, moved, prob.ctx)
        assert wr_certificates([(point.f, bad)], prob)[0] > WR_RESIDUAL_GATE

    def test_out_of_range_index_is_a_seed_failure(self):
        """An index outside [0, n) fails its subset at stage seed, and the
        enumeration records it with the others' points."""
        prob = problem(2, 6j)
        point, = fiber_points(prob, [(0, 9)])
        assert isinstance(point, ValueError) and point.stage == "seed"
        report = enumerate_fiber(prob, subsets=[(0, 1), (0, 9)])
        assert not report.complete
        assert [p.subset_tag for p in report.points] == [(0, 1)]
        [(subset, why)] = report.failed
        assert subset == (0, 9)
        assert why == "ValueError: subset (0, 9) holds a site index outside [0, 4) [stage seed]"

    def test_failures_name_their_stage(self):
        point, = fiber_points(problem(2, 1.3j), [(0, 1)])
        assert isinstance(point, SeedTooCoarseError)
        assert point.stage == "seed"
        report = enumerate_fiber(problem(2, 1.3j))
        assert not report.complete
        assert all(why.endswith(" [stage seed]") for _, why in report.failed)


class TestLockstep:
    """`fiber_points` solves and certifies all subsets in one batch; the
    fiber must be the one a loop over single subsets finds, bit for bit."""

    @pytest.mark.parametrize("prob, stages, newton", [
        (cell_problem(3, 10j), [], False),
        (BetheProblem(3, MERGED_Z, 2.2j, CTX), ["certificate"] + ["dedup"] * 3, True),
        (problem(2, 1.3j), ["seed"] * 6, False),
    ], ids=["cell-m3", "merged-2.2i", "coarse-seeds"])
    def test_batch_matches_one_subset_at_a_time(self, prob, stages, newton, monkeypatch, request):
        if newton:
            request.getfixturevalue("newton_step")
        points, failures = fiber_outcome(prob)
        one = wronski_module.fiber_points
        monkeypatch.setattr(wronski_module, "fiber_points",
                            lambda problem, subsets: [one(problem, [s])[0] for s in subsets])
        alone_points, alone_failures = fiber_outcome(prob)
        assert [why.rsplit(" [stage ", 1)[1] for _, why in failures] == [s + "]" for s in stages]
        assert failures == alone_failures
        # repr shows every float exactly, and the Newton counters too
        assert repr(points) == repr(alone_points)

    def test_m4_fiber_takes_three_rounds(self, kernel_rounds):
        """The 140 systems of the m = 4 fiber converge in 3 lockstep rounds
        with Halley steps; damped Newton steps took 6."""
        report = enumerate_fiber(cell_problem(4, 14j))
        assert report.complete and report.count == 70
        assert kernel_rounds == [140, 140, 140]

    def test_stage_precedence_in_a_batch(self, monkeypatch):
        """A subset whose solve at mu fails reports stage newton, whatever
        its partner did in the same batch; one whose partner alone fails
        reports stage partner."""
        prob = problem(2, 6j)
        solve = bethe_module.solve_bae_batch

        def failing(sides):
            def batch(problems, seeds, **kwargs):
                out = solve(problems, seeds, **kwargs)
                return [CoalescedRootsError("system %d" % i) if p.mu in sides else r
                        for i, (p, r) in enumerate(zip(problems, out))]
            return batch

        subsets = list(itertools.combinations(range(4), 2))
        for sides, stage in (((6j, -6j), "newton"), ((-6j,), "partner")):
            monkeypatch.setattr(bethe_module, "solve_bae_batch", failing(sides))
            report = enumerate_fiber(prob)
            assert not report.complete
            # the batch holds the subsets' systems, then their partners'
            first = 0 if stage == "newton" else len(subsets)
            assert report.failed == tuple(
                (s, "CoalescedRootsError: system %d [stage %s]" % (first + k, stage))
                for k, s in enumerate(subsets))

    def test_certificates_batch_matches_one_pair_at_a_time(self):
        prob = cell_problem(3, 10j)
        report = enumerate_fiber(prob)
        assert not report.failed
        pairs = [(p.f, p.g) for p in report.points[:4]]
        moved = ThetaPoly(1.0, pairs[1][1].mu, (pairs[1][1].roots[0] + 1e-3,)
                          + pairs[1][1].roots[1:], prob.ctx)
        pairs.insert(2, (pairs[1][0], moved))
        got = wr_certificates(pairs, prob)
        assert got == [wr_certificates([(f, g)], prob)[0] for f, g in pairs]
        assert got[2] > WR_RESIDUAL_GATE >= max(got[:2] + got[3:])

    def test_one_failing_certificate_keeps_the_others(self):
        """A pair whose certificate raises inside the batch (here g's
        envelope overflows) gets the exception of its own certificate, and
        the other pairs keep their residuals."""
        prob = cell_problem(2, 14j)
        report = enumerate_fiber(prob)
        assert not report.failed
        pairs = [(p.f, p.g) for p in report.points[:3]]
        huge = ThetaPoly(1.0, -1000j, pairs[1][1].roots, prob.ctx)
        pairs.insert(1, (pairs[1][0], huge))
        got = wr_certificates(pairs, prob)
        assert isinstance(got[1], OverflowError)
        alone, = wr_certificates([pairs[1]], prob)
        assert isinstance(alone, OverflowError) and str(alone) == str(got[1])
        assert [got[0]] + got[2:] == [wr_certificates([pair], prob)[0]
                                      for pair in pairs[:1] + pairs[2:]]

    def test_a_nan_sample_fails_the_certificate(self, monkeypatch):
        """A NaN in Wr(f, g) at one of a pair's eight samples makes its
        residual NaN, and its point fails at stage certificate."""
        prob = problem(2, 6j)
        points = fiber_points(prob, [(0, 1), (0, 2)])
        clean = wr_certificates([(p.f, p.g) for p in points], prob)
        wronskian_rows = wronski_module._wronskian_rows

        def poisoned(df, dg):
            rows = wronskian_rows(df, dg)
            rows[0][0, 3] = np.nan
            return rows

        monkeypatch.setattr(wronski_module, "_wronskian_rows", poisoned)
        got = wr_certificates([(p.f, p.g) for p in points], prob)
        assert math.isnan(got[0]) and got[1] == clean[1]
        failed, kept = fiber_points(prob, [(0, 1), (0, 2)])
        assert isinstance(failed, ResidueViolationError) and failed.stage == "certificate"
        assert kept.wr_residual == clean[1]

    def test_unplaceable_samples_fail_one_subset(self, monkeypatch):
        # a site on the first golden candidate: every pair places its
        # sample points with a `golden_points` call of its own
        cell = cell_problem(2, 14j).cell
        first = golden_points(cell, 1, (0.5, 0.37))[0]
        prob = BetheProblem(2, cell_problem(2, 14j).z[:3] + (first,), 14j, cell.ctx)
        report = enumerate_fiber(prob)
        assert not report.failed
        skip = report.points[1]
        place = wronski_module.golden_points

        def refuse(cell, count, offset, avoid=(), margin=0.0):
            if avoid[0] == skip.f.roots[0]:
                raise ArithmeticError("could not place the sample points")
            return place(cell, count, offset, avoid=avoid, margin=margin)

        monkeypatch.setattr(wronski_module, "golden_points", refuse)
        partial = enumerate_fiber(prob)
        assert not partial.complete
        assert partial.failed == ((skip.subset_tag, "ArithmeticError: could not place "
                                   "the sample points [stage certificate]"),)
        assert partial.points == report.points[:1] + report.points[2:]

    def test_only_blocked_pairs_place_their_own_samples(self, monkeypatch):
        """Every pair gets the points `golden_points` places for it alone.
        A pair with a root on the first candidate is the only one that
        calls `golden_points`, and its failure to place stays its own."""
        prob = cell_problem(2, 14j)
        pairs = [(p.f, p.g) for p in enumerate_fiber(prob).points[:3]]
        first = golden_points(prob.cell, 1, (0.5, 0.37))[0]
        f, g = pairs[1]
        pairs.insert(1, (f, ThetaPoly(1.0, g.mu, (first,) + g.roots[1:], prob.ctx)))
        got = wronski_module._sample_points(pairs, prob)
        assert got[1].tolist() != got[0].tolist() == got[2].tolist()
        for (f, g), x in zip(pairs, got):
            assert x.tolist() == golden_points(prob.cell, 8, (0.5, 0.37),
                                               avoid=f.roots + g.roots + prob.z, margin=1e-3)
        calls = []

        def refuse(cell, count, offset, avoid=(), margin=0.0):
            calls.append(tuple(avoid))
            raise ArithmeticError("could not place the sample points")

        monkeypatch.setattr(wronski_module, "golden_points", refuse)
        placed = wronski_module._sample_points(pairs, prob)
        assert calls == [pairs[1][0].roots + pairs[1][1].roots + prob.z]
        assert isinstance(placed[1], ArithmeticError)
        assert [x.tolist() for x in placed[:1] + placed[2:]] == [
            x.tolist() for x in got[:1] + got[2:]]


class TestAsymptoticLaws:
    def test_first_order_law_fitted_then_validated(self):
        # fit the constant in max_j |(t_j - z_{i_j}) 2 pi i mu - 1| <= C/|mu|
        # at two mu values, then validate at a third
        fit = [max(asymptotic_deviation(p) for p in fiber_report(2, mu).points)
               * abs(mu) for mu in (10j, 20j)]
        c_fit = 1.05 * max(fit)
        dev40 = max(asymptotic_deviation(p) for p in fiber_report(2, 40j).points)
        assert dev40 <= c_fit / 40.0

    def test_law_decreases_like_inverse_mu(self):
        devs = [max(asymptotic_deviation(p) for p in fiber_report(2, mu).points)
                for mu in (10j, 20j, 40j)]
        assert 1.0 <= devs[0] / devs[1] <= 4.0
        assert 1.0 <= devs[1] / devs[2] <= 4.0

    def test_mirrored_partner_law(self):
        fit = [max(partner_asymptotic_deviation(p) for p in fiber_report(2, mu).points)
               * abs(mu) for mu in (10j, 20j)]
        c_fit = 1.05 * max(fit)
        dev40 = max(partner_asymptotic_deviation(p)
                    for p in fiber_report(2, 40j).points)
        assert dev40 <= c_fit / 40.0

    def test_partner_displacement_mirrors_sign(self):
        # s_j = z_a - 1/(2 pi i mu) + O(mu^-2): the partner displacement is
        # the negative of the solution displacement, to first order
        shift = 1.0 / (2j * np.pi * 10j)
        for point in fiber_report(2, 10j).points:
            for s in point.partner.t:
                site = min((point.solution.problem.z[a] for a in point.partner_tag),
                           key=lambda z: abs(s - z))
                assert abs((s - site) + shift) < 0.2 * abs(shift)

    def test_partner_parameter_negated(self):
        for point in fiber_report(2, 10j).points:
            assert abs(point.partner.mu + 10j) < 1e-8


class TestCountRatios:
    def test_ratio_derivative_shape(self):
        # F = g/f has F' = Wr(f,g)/f^2 proportional to
        # e^{-2 pi i mu x} prod theta(x - z_a) / prod theta(x - t_j)^2
        prob = problem(2, 6j)
        target = ThetaPoly(1.0, -prob.mu, prob.z, CTX)
        xs = (0.21 + 0.33j, 0.64 + 0.18j, 0.43 + 0.72j)
        for point in fiber_report(2, 6j).points:
            wr = wronskian(point.f, point.g)
            ratios = []
            for x in xs:
                f_prime = wr.eval(x) / point.f.eval(x) ** 2
                shape = target.eval(x) / point.f.eval(x) ** 2
                ratios.append(f_prime / shape)
            spread = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
            assert spread < 1e-9


class TestShiftSymmetry:
    def test_exponential_shift_commutes_with_wronskian(self):
        # Wr(e^{2 pi i nu x} f, e^{2 pi i nu x} g) = e^{4 pi i nu x} Wr(f, g)
        # exactly: the cross terms cancel for a shared exponential factor
        point = fiber_report(2, 6j).points[0]
        nu = 1.0
        lifted_f = ThetaPoly(point.f.scale, point.f.mu + nu, point.f.roots, CTX)
        lifted_g = ThetaPoly(point.g.scale, point.g.mu + nu, point.g.roots, CTX)
        lifted_wr = wronskian(lifted_f, lifted_g)
        wr = wronskian(point.f, point.g)
        for x in (0.17 + 0.21j, 0.52 + 0.44j, 0.83 + 0.09j):
            expect = np.exp(2j * np.pi * 2.0 * nu * x) * wr.eval(x)
            assert abs(lifted_wr.eval(x) - expect) < 1e-12 * abs(expect)

    def test_lifted_pair_lands_in_shifted_label_fiber(self):
        # with nu = 1 the pair moves to the k = 2 fiber: Wr is proportional
        # to e^{2 pi i (-mu + 2) x} prod theta(x - z_a)
        prob = problem(2, 6j)
        point = fiber_report(2, 6j).points[0]
        lifted_f = ThetaPoly(1.0, point.f.mu + 1.0, point.f.roots, CTX)
        lifted_g = ThetaPoly(1.0, point.g.mu + 1.0, point.g.roots, CTX)
        lifted_wr = wronskian(lifted_f, lifted_g)
        target = ThetaPoly(1.0, -prob.mu + 2.0, prob.z, CTX)
        xs = (0.17 + 0.21j, 0.52 + 0.44j, 0.83 + 0.09j)
        ratios = [lifted_wr.eval(x) / target.eval(x) for x in xs]
        spread = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
        assert spread < 1e-10


class TestEstimateMuMin:
    def test_m2_threshold_on_grid(self):
        assert estimate_mu_min(problem(2, 6j), [8j, 6j, 4j, 2j]) == 2.0

    def test_m1_threshold_on_grid(self):
        assert estimate_mu_min(problem(1, 6j), [8j, 6j, 4j, 2j]) == 2.0

    def test_grid_must_descend(self):
        with pytest.raises(ValueError):
            estimate_mu_min(problem(2, 6j), [2j, 4j])

    def test_degenerate_sites_raise_threshold_monotonically(self):
        grid = [32j, 16j, 8j, 4j, 2j]
        fixtures = [
            Z4,                                          # min separation 0.236
            (0.13, 0.18, 0.55 + 0.31j, 0.77 + 0.05j),    # 0.05
            (0.13, 0.15, 0.55 + 0.31j, 0.77 + 0.05j),    # 0.02
            (0.13, 0.13 + 1e-3, 0.55 + 0.31j, 0.77 + 0.05j),
        ]
        thresholds = [estimate_mu_min(problem(2, 6j, z=z), grid) for z in fixtures]
        assert thresholds[:3] == [2.0, 16.0, 32.0]
        assert thresholds[3] is None  # not found on this grid


class TestDirectCorrespondenceOracle:
    """m=1 cross-check: solve G(z_a; t, s) = 0 for both sites directly.

    G(x; t, s) = theta(x-t) theta(x-s) - v Wr(theta(x-t), theta(x-s)) with
    v = 1/(2 pi i mu) is a degree-2 theta polynomial in x, so vanishing at
    both (lattice-distinct) sites pins its roots to {z_1, z_2}; that is the
    whole Wronskian equation, with no Bethe-equation content.
    """

    MU = 6j

    def _g_and_grad(self, x, t, s, v):
        dt = theta_derivs(x - t, CTX, 2)
        ds = theta_derivs(x - s, CTX, 2)
        val = dt[0] * ds[0] - v * (dt[0] * ds[1] - dt[1] * ds[0])
        d_t = -dt[1] * ds[0] - v * (-dt[1] * ds[1] + dt[2] * ds[0])
        d_s = -dt[0] * ds[1] - v * (-dt[0] * ds[2] + dt[1] * ds[1])
        return val, d_t, d_s

    def _solve(self, t, s):
        v = 1.0 / (2j * np.pi * self.MU)
        for _ in range(60):
            g1, g1t, g1s = self._g_and_grad(Z2[0], t, s, v)
            g2, g2t, g2s = self._g_and_grad(Z2[1], t, s, v)
            if max(abs(g1), abs(g2)) < 1e-14:
                return t, s
            step = np.linalg.solve(np.array([[g1t, g1s], [g2t, g2s]]),
                                   -np.array([g1, g2]))
            t, s = t + step[0], s + step[1]
        raise AssertionError("direct-correspondence Newton did not converge")

    def test_matches_bethe_route(self):
        rep = fiber_report(1, self.MU)
        points = {p.subset_tag: p for p in rep.points}
        shift = 1.0 / (2j * np.pi * self.MU)
        for tag, seed in (((0,), (Z2[0] + shift, Z2[1] - shift)),
                          ((1,), (Z2[1] + shift, Z2[0] - shift))):
            t, s = self._solve(*seed)
            point = points[tag]
            assert lattice_distance(t - point.f.roots[0], CTX) < 1e-9
            assert lattice_distance(s - point.g.roots[0], CTX) < 1e-9
