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

import oracles as orc
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
from ellbethe.elliptic import RangeError, Torus, lattice_distance, theta_derivs
import ellbethe.bethe as bethe_module
import ellbethe.wronski as wronski_module
from ellbethe.thetapoly import (ResidueViolationError, SolveError, ThetaPoly, golden_points,
                                wronskian)
from ellbethe.wronski import (
    DEDUP_TOL,
    FiberPoint,
    WR_RESIDUAL_GATE,
    asymptotic_deviation,
    enumerate_fiber,
    fiber_points,
    partner_asymptotic_deviation,
    scan_mu_grid,
    scan_mu_min,
    wr_certificates,
)

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


def cell_problem(m, mu, tau=1j):
    return BetheProblem(m, [a + b * tau for a, b in CELL_AB[:2 * m]], mu,
                        Torus(tau))


def problem(m, mu, z=None):
    if z is None:
        z = Z4 if m == 2 else Z2
    return BetheProblem(m, z, mu, CTX)


def pointwise_residual(f, g, prob, xs):
    """The certificate's rule one point at a time: Wr(f, g) at xs[0] over
    the target there fixes the ratio, and the worst relative deviation of
    Wr(f, g) from ratio * target at the other points is the residual."""
    target = ThetaPoly(1.0, -prob.mu, prob.z, prob.ctx)
    wr = wronskian(f, g)
    ratio = wr.eval(xs[0]) / target.eval(xs[0])
    return max(abs(wr.eval(x) - ratio * target.eval(x))
               / max(abs(wr.eval(x)), abs(ratio * target.eval(x))) for x in xs[1:])


def root_key(prob, sol):
    """The dedup key of a solution: its roots reduced into the cell and
    sorted by the rounded (re, im)."""
    roots = prob.cell.reduce(np.array(sol.t))[0].tolist()
    return np.array(sorted(roots, key=lambda c: (round(c.real, 9), round(c.imag, 9))))


def dedup_all_pairs(prob, subsets, results):
    """(points, failed, warnings) of the report of `results`, the
    `fiber_points` list of `subsets`, by the all-pairs rule: each point's
    key (`root_key`) against the key of every earlier accepted point, in
    list order, by the 3x3 neighbour search (oracles.lattice_distances_3x3)."""
    points, failed, warnings, kept = [], [], [], []
    for subset, point in zip(subsets, results):
        if isinstance(point, Exception):
            failed.append((subset, "%s: %s [stage %s]"
                           % (type(point).__name__, point, point.stage)))
            continue
        key = root_key(prob, point.solution)
        twin = next((q.subset_tag for q, q_key in kept
                     if orc.lattice_distances_3x3(q_key - key, prob.ctx).max() < DEDUP_TOL), None)
        if twin is not None:
            if twin != point.subset_tag:
                failed.append((subset, "same point as subset %s [stage dedup]" % (twin,)))
            continue
        complement = tuple(sorted(set(range(prob.n)) - set(subset)))
        if point.partner_tag != complement:
            warnings.append("subset %s pairs with %s, not its complement (below-threshold mu?)"
                            % (subset, point.partner_tag))
        points.append(point)
        kept.append((point, key))
    return tuple(points), tuple(failed), tuple(warnings)


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

    @pytest.mark.parametrize("m, mu", [(2, 120j), (2, 200j), (4, 120j)])
    def test_full_count_holds_where_the_envelopes_overflow(self, m, mu):
        """Past about 115i the envelope e^{-2 pi i mu x} of g and h passes
        the largest double inside the cell; the certificate never forms it,
        since for a fiber pair the envelopes of f, g and h cancel exactly."""
        report = enumerate_fiber(problem(m, mu) if m == 2 else cell_problem(m, mu))
        assert report.complete and report.count == math.comb(2 * m, m)
        assert max(p.wr_residual for p in report.points) <= 1e-13

    def test_gate_alone_decides(self):
        """`converged` is the residual against RESIDUAL_GATE alone."""
        sol = fiber_report(2, 6j).points[0].solution
        assert dataclasses.replace(sol, residual=1e-11).converged
        for residual in (2e-10, math.nan):
            assert not dataclasses.replace(sol, residual=residual).converged

    def test_unconverged_solves_fail_at_their_stage(self, monkeypatch):
        """A solution or partner that is not `converged` is a SolveError at
        stage newton or partner; the other subsets keep their points."""
        solve = wronski_module.solve_subsets

        def off_gate(problems, subsets):
            out = solve(problems, subsets)
            out[0] = dataclasses.replace(out[0], residual=2e-10)
            out[len(out) // 2 + 1] = dataclasses.replace(out[len(out) // 2 + 1], residual=math.nan)
            return out

        monkeypatch.setattr(wronski_module, "solve_subsets", off_gate)
        got = fiber_points(problem(2, 6j), [(0, 1), (0, 2), (0, 3)])
        assert [(type(r), str(r), r.stage) for r in got[:2]] == [
            (SolveError, "no convergence (residual 2.00e-10)", "newton"),
            (SolveError, "no convergence (residual nan)", "partner")]
        assert isinstance(got[2], FiberPoint)

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

    def test_no_pairs_no_certificates(self):
        assert wr_certificates([], problem(2, 6j)) == []

    def test_certificate_rejects_corrupted_pair(self):
        point = fiber_report(2, 6j).points[0]
        bad_roots = (point.g.roots[0] + 0.05,) + point.g.roots[1:]
        bad = ThetaPoly(1.0, point.g.mu, bad_roots, CTX)
        assert wr_certificates([(point.f, bad)], problem(2, 6j))[0] > 1e-4

    def test_duplicate_seeds_dedup(self):
        rep = enumerate_fiber(problem(2, 6j), subsets=[(0, 1), (0, 1)])
        assert rep.count == 1 and not rep.failed
        assert rep.points[0].subset_tag == (0, 1)

    def test_dedup_keeps_no_index_table(self):
        """The dedup's key pairs are not cached: a second enumeration with a
        new point count leaves the `_pairs` cache as the first left it."""
        prob = problem(2, 6j)
        bethe_module._pairs.cache_clear()
        enumerate_fiber(prob)
        size = bethe_module._pairs.cache_info().currsize
        assert enumerate_fiber(prob, subsets=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]).count == 5
        assert bethe_module._pairs.cache_info().currsize == size

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

    @pytest.mark.parametrize("case", ["cell5-planted", "merged-2.5i", "merged-2.2i"])
    def test_dedup_matches_all_pairs_oracle(self, case, newton_step, monkeypatch):
        """The bucketed dedup keeps, fails and warns for the subsets the
        all-pairs oracle does: on cell_problem(5, 18j) with repeated
        subsets, copies of earlier points under later tags and a point with
        a root moved by a period planted, and on MERGED_Z where solves
        merge under Newton steps (one merge at 2.5i, three at 2.2i)."""
        if case == "cell5-planted":
            prob = cell_problem(5, 18j)
            subsets = list(itertools.combinations(range(10), 5))
            subsets += subsets[::37]
            results = fiber_points(prob, subsets)
            for k in range(5, 252, 50):
                results[k] = dataclasses.replace(results[k - 3], subset_tag=subsets[k])
            results[100] = dataclasses.replace(
                results[100], solution=translate_root(results[100].solution, 2, 1, 0))
            merges = 5
        else:
            prob = BetheProblem(3, MERGED_Z, 2.5j if case == "merged-2.5i" else 2.2j, CTX)
            subsets = list(itertools.combinations(range(6), 3))
            results = fiber_points(prob, subsets)
            merges = 1 if case == "merged-2.5i" else 3
        monkeypatch.setattr(wronski_module, "fiber_points", lambda problem, subsets: results)
        report = enumerate_fiber(prob, subsets)
        points, failed, warnings = dedup_all_pairs(prob, subsets, results)
        assert report.points == points
        assert report.failed == failed
        assert report.warnings == warnings
        assert sum(why.endswith("[stage dedup]") for _, why in failed) == merges
        assert report.count == len(set(map(tuple, subsets))) - merges - sum(
            isinstance(r, Exception) for r in results)

    @pytest.mark.parametrize("edge", ["a", "b"])
    def test_twins_across_a_cell_edge_are_one_point(self, edge, monkeypatch):
        """Two solves 1e-9 apart whose root sums lie on either side of a
        cell edge, at coordinate a = 1 or b = 1, are still one point: the
        buckets wrap at the cell edges.  Across b = 1 a root crosses the
        edge too, and its reduced copies lie a period apart."""
        prob = cell_problem(3, 10j)
        point, = fiber_points(prob, [(0, 2, 4)])
        planted = []
        for tag, side in (((0, 2, 4), 1), ((1, 3, 5), -1)):
            if edge == "a":
                t = (0.2 + 0.1j, 0.3 + 0.4j, 0.5 + side * 5e-10 + 0.7j)
            else:
                t = (0.2 + 0.3j, 0.5 + side * 5e-10j, 0.7 + 0.7j)
            planted.append(dataclasses.replace(
                point, subset_tag=tag, solution=dataclasses.replace(point.solution, t=t)))
        sums = [prob.cell.coords(root_key(prob, p.solution).sum()) for p in planted]
        k = "ab".index(edge)
        assert sums[0][k] == pytest.approx(1 + 5e-10, abs=1e-15)
        assert sums[1][k] % 1 == pytest.approx(1 - 5e-10, abs=1e-15)
        monkeypatch.setattr(wronski_module, "fiber_points", lambda problem, subsets: planted)
        rep = enumerate_fiber(prob, subsets=[(0, 2, 4), (1, 3, 5)])
        assert rep.count == 1
        assert rep.failed == (((1, 3, 5), "same point as subset (0, 2, 4) [stage dedup]"),)

    @pytest.mark.parametrize("tau, turn", [(1j, 1), (1j, 1j), (0.3 + 0.8j, (1 - 1j) / 2 ** 0.5)])
    def test_twins_at_the_tolerance_are_one_point(self, tau, turn, monkeypatch):
        """A copy of a point with every root moved 0.9 DEDUP_TOL the same
        way, so that its root sum is 2.7 DEDUP_TOL away, is its twin: the
        buckets are wide enough for the sum of m root moves."""
        prob = cell_problem(3, 10j, tau)
        point, = fiber_points(prob, [(0, 2, 4)])
        t = tuple(np.array(point.solution.t) + 0.9 * DEDUP_TOL * turn)
        twin = dataclasses.replace(point, subset_tag=(1, 3, 5),
                                   solution=dataclasses.replace(point.solution, t=t))
        monkeypatch.setattr(wronski_module, "fiber_points", lambda problem, subsets: [point, twin])
        rep = enumerate_fiber(prob, subsets=[(0, 2, 4), (1, 3, 5)])
        assert rep.count == 1
        assert rep.failed == (((1, 3, 5), "same point as subset (0, 2, 4) [stage dedup]"),)

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

    def test_keys_are_compared_whole_not_by_first_root(self, monkeypatch):
        """Two points whose keys share their first root but differ by 1e-3
        in another stay two points; a point with exactly the same key is
        the other's dedup twin."""
        prob = cell_problem(3, 10j)
        point, = fiber_points(prob, [(0, 2, 4)])
        key = root_key(prob, point.solution)
        last = int(np.argmin(abs(np.array(point.solution.t) - key[-1])))
        t = list(point.solution.t)
        t[last] += 1e-3
        near = dataclasses.replace(point, subset_tag=(1, 3, 5),
                                   solution=dataclasses.replace(point.solution, t=tuple(t)))
        near_key = root_key(prob, near.solution)
        assert near_key[0] == key[0] and abs(near_key[-1] - key[-1]) == pytest.approx(1e-3)
        twin = dataclasses.replace(point, subset_tag=(1, 3, 5))
        for other, count, failed in (
                (near, 2, ()),
                (twin, 1, (((1, 3, 5), "same point as subset (0, 2, 4) [stage dedup]"),))):
            monkeypatch.setattr(wronski_module, "fiber_points",
                                lambda problem, subsets: [point, other])
            rep = enumerate_fiber(prob, subsets=[(0, 2, 4), (1, 3, 5)])
            assert rep.count == count and rep.failed == failed

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

    def test_m6_fiber_certifies_every_subset(self):
        prob = cell_problem(6, 22j)
        rep = enumerate_fiber(prob)
        assert rep.count == rep.expected == 924
        assert rep.complete

    @pytest.mark.parametrize("m", [2, 4])
    def test_certificate_matches_pointwise_loop(self, m):
        """The array certificate keeps the pointwise rule: the first sample
        point fixes the ratio and the rest are compared one by one."""
        prob = cell_problem(m, 14j)
        point, = fiber_points(prob, [tuple(range(0, 2 * m, 2))])
        xs = golden_points(prob.cell, max(8, 2 * m + 2), (0.5, 0.37), avoid=prob.z,
                           margin=1e-3)
        for g in (point.g, ThetaPoly(1.0, point.g.mu, (point.g.roots[0] + 1e-3,)
                                     + point.g.roots[1:], prob.ctx)):
            want = pointwise_residual(point.f, g, prob, xs)
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

    def test_partner_matches_wronskian_route_at_80i(self):
        """At 80i every involution partner has the fiber partner's
        cell-normalized roots to 1e-12 (9.3e-15 measured) and meets the
        involution's own 1e-8 bound, though its residual (up to 2.4e-9) can
        exceed RESIDUAL_GATE: a root sits about 1/|2 pi mu| from its site,
        where |rho'| is about |2 pi mu|^2 = 2.5e5, so a root error of 1e-14
        gives a residual of about 2e-9."""
        for point in fiber_report(2, 80j).points:
            partner = analytic_involution(point.solution)
            assert partner.residual < 1e-8
            ours, theirs = normalize_solution(point.partner), normalize_solution(partner)
            assert ours.mu == theirs.mu
            for a, b in ((ours.t, theirs.t), (theirs.t, ours.t)):
                assert max(min(abs(x - y) for y in b) for x in a) < 1e-12

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

    def test_m4_seed_round_takes_each_distinct_difference_once(self, theta_jet_calls):
        """The seed round of the m = 4 fiber takes one jet per distinct root
        pair and per distinct root's site differences, 56 + 16 * 8 = 184
        points where its 140 systems hold 5,320 differences; in the two
        later rounds every root is distinct, and all 5,320 are evaluated."""
        assert enumerate_fiber(cell_problem(4, 14j)).complete
        assert [size for order, size, _ in theta_jet_calls if order == 3] == [184, 5320, 5320]

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

    def test_colliding_roots_fail_only_their_subset(self, monkeypatch):
        """A partner that shares a root with its solution fails its subset
        at stage certificate, before any Wr is sampled; every other subset
        keeps the point it gets without the collision."""
        prob = problem(2, 6j)
        subsets = list(itertools.combinations(range(4), 2))
        want = enumerate_fiber(prob)
        assert want.complete
        solve, hit = wronski_module.solve_subsets, 2

        def colliding(problems, seed_subsets):
            out = solve(problems, seed_subsets)
            sol, par = out[hit], out[len(subsets) + hit]
            out[len(subsets) + hit] = dataclasses.replace(par, t=(sol.t[0],) + par.t[1:])
            return out

        monkeypatch.setattr(wronski_module, "solve_subsets", colliding)
        report = enumerate_fiber(prob)
        assert report.failed == ((subsets[hit], "SolveError: fiber roots collide with "
                                  "each other or a site [stage certificate]"),)
        assert repr(report.points) == repr(want.points[:hit] + want.points[hit + 1:])

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

    def test_unplaceable_samples_fail_every_subset(self, monkeypatch):
        """The sample row is placed once per certificate call, so a refused
        placement is the certificate failure of every subset."""
        def refuse(*args, **kwargs):
            raise ArithmeticError("could not place the sample points")

        monkeypatch.setattr(wronski_module, "golden_points", refuse)
        report = enumerate_fiber(cell_problem(2, 14j))
        assert report.count == 0
        assert report.failed == tuple(
            (subset, "ArithmeticError: could not place the sample points [stage certificate]")
            for subset in itertools.combinations(range(4), 2))

    def test_certificate_fails_a_partner_sharing_a_root(self, monkeypatch):
        """A g that shares a root with its f (a repaired partner gone wrong)
        fails its pair with the collision SolveError, alone and in a batch,
        and never enters the Wr batch; the other pairs keep the residuals of
        their lone calls."""
        prob = cell_problem(2, 14j)
        pairs = [(p.f, p.g) for p in enumerate_fiber(prob).points[:3]]
        f, g = pairs[1]
        pairs.insert(1, (f, dataclasses.replace(g, roots=(f.roots[0],) + g.roots[1:])))
        sizes, stacked = [], wronski_module.stacked_derivs

        def counted(polys, xs, order):
            sizes.append(len(polys))
            return stacked(polys, xs, order)

        monkeypatch.setattr(wronski_module, "stacked_derivs", counted)
        got = wr_certificates(pairs, prob)
        assert sizes == [6]
        for exc in (got[1], wr_certificates([pairs[1]], prob)[0]):
            assert type(exc) is SolveError
            assert str(exc) == "fiber roots collide with each other or a site"
        assert [got[0]] + got[2:] == [wr_certificates([pair], prob)[0]
                                      for pair in pairs[:1] + pairs[2:]]

    def test_collisions_win_over_the_placement_error(self, monkeypatch):
        """With the sample row refused, a colliding pair still reports its
        collision and a pair whose collision test raises its exception; every
        other pair reports the placement error, in a batch and in a report."""
        prob = problem(2, 6j)
        clean = [(p.f, p.g) for p in enumerate_fiber(prob).points[:3]]
        (f, g), (f2, g2) = clean[1:]
        pairs = [clean[0], (f, dataclasses.replace(g, roots=(f.roots[1],) + g.roots[1:])),
                 (f2, dataclasses.replace(g2, roots=(complex(math.nan),) + g2.roots[1:]))]

        def refuse(*args, **kwargs):
            raise ArithmeticError("could not place the sample points")

        monkeypatch.setattr(wronski_module, "golden_points", refuse)
        got = wr_certificates(pairs, prob)
        assert [type(exc) for exc in got] == [ArithmeticError, SolveError, RangeError]
        assert str(got[1]) == "fiber roots collide with each other or a site"

        subsets = list(itertools.combinations(range(4), 2))
        hit, solve = 2, wronski_module.solve_subsets

        def colliding(problems, seed_subsets):
            out = solve(problems, seed_subsets)
            sol, par = out[hit], out[len(subsets) + hit]
            out[len(subsets) + hit] = dataclasses.replace(par, t=(sol.t[0],) + par.t[1:])
            return out

        monkeypatch.setattr(wronski_module, "solve_subsets", colliding)
        assert enumerate_fiber(prob).failed == tuple(
            (s, ("SolveError: fiber roots collide with each other or a site" if k == hit else
                 "ArithmeticError: could not place the sample points") + " [stage certificate]")
            for k, s in enumerate(subsets))

    def test_one_row_certifies_every_pair_even_at_their_roots(self, monkeypatch):
        """Every pair is certified on the one row placed clear of the sites,
        and a row passing within 1e-9 of a pair's roots of f and g still
        certifies it: the zero count of Wr(f, g) - c h never divides by f
        or g."""
        prob = cell_problem(2, 14j)
        pairs = [(p.f, p.g) for p in enumerate_fiber(prob).points]
        f, g = pairs[1]
        row = golden_points(prob.cell, 8, (0.5, 0.37), avoid=prob.z, margin=1e-3)
        near = row[:1] + [t + 1e-9 for t in f.roots + g.roots] + row[5:]
        calls = []

        def place(cell, count, offset, avoid=(), margin=0.0):
            calls.append((count, offset, tuple(avoid), margin))
            return near

        monkeypatch.setattr(wronski_module, "golden_points", place)
        got = wr_certificates(pairs, prob)
        assert calls == [(8, (0.5, 0.37), prob.z, 1e-3)]
        assert got[1] <= 1e-13
        for (f, g), residual in zip(pairs, got):
            want = pointwise_residual(f, g, prob, near)
            assert abs(residual - want) <= 1e-12 * want + 1e-15


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


class TestScanMuMin:
    def test_m2_threshold_on_grid(self):
        assert scan_mu_min(scan_mu_grid(problem(2, 6j), [8j, 6j, 4j, 2j])) == 2.0

    def test_m1_threshold_on_grid(self):
        assert scan_mu_min(scan_mu_grid(problem(1, 6j), [8j, 6j, 4j, 2j])) == 2.0

    def test_grid_must_descend(self):
        with pytest.raises(ValueError):
            scan_mu_grid(problem(2, 6j), [2j, 4j])

    @pytest.mark.parametrize("newton", [False, True], ids=["halley", "newton"])
    def test_rows_are_the_enumerations_at_each_mu(self, newton, request, monkeypatch):
        """The scan solves every row in one `solve_subsets` batch, and each
        row is the report `enumerate_fiber` gives at its mu, merges and
        failures included; at 1i the seed check rejects every subset."""
        if newton:
            request.getfixturevalue("newton_step")
        grid = [6j, 2.5j, 2.2j, 1j]
        prob = BetheProblem(3, MERGED_Z, grid[0], CTX)
        batches, solve = [], wronski_module.solve_subsets

        def counted(problems, subsets):
            batches.append(len(subsets))
            return solve(problems, subsets)

        monkeypatch.setattr(wronski_module, "solve_subsets", counted)
        rows = scan_mu_grid(prob, grid)
        assert batches == [2 * 20 * len(grid)]
        assert [mu for mu, _ in rows] == grid
        for mu, report in rows:
            assert report == enumerate_fiber(dataclasses.replace(prob, mu=mu))
        assert [report.complete for _, report in rows] == [True, not newton, False, False]
        last = rows[-1][1]
        assert last.count == 0 and len(last.failed) == 20
        assert all("[stage seed]" in why for _, why in last.failed)

    def test_degenerate_sites_raise_threshold_monotonically(self):
        grid = [32j, 16j, 8j, 4j, 2j]
        fixtures = [
            Z4,                                          # min separation 0.236
            (0.13, 0.18, 0.55 + 0.31j, 0.77 + 0.05j),    # 0.05
            (0.13, 0.15, 0.55 + 0.31j, 0.77 + 0.05j),    # 0.02
            (0.13, 0.13 + 1e-3, 0.55 + 0.31j, 0.77 + 0.05j),
        ]
        thresholds = [scan_mu_min(scan_mu_grid(problem(2, 6j, z=z), grid)) for z in fixtures]
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
