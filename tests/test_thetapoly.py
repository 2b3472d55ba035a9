"""Tests of theta polynomials, the Fourier basis, and Wronskian inversion."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import oracles as orc
from ellbethe import thetapoly
from ellbethe.elliptic import RangeError, Torus, lattice_distance, theta
from ellbethe.thetapoly import (
    GOLDEN,
    DegenerateMultipliersError,
    FundamentalParallelogram,
    MultipleRootError,
    ResidueViolationError,
    SolveError,
    ThetaPoly,
    canonical_coords,
    fourier_basis,
    golden_points,
    solve_wronskian,
    stacked_derivs,
    wronskian,
)


def relerr(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def centered_cell(ctx):
    return FundamentalParallelogram(-(1.0 + ctx.tau) / 2.0, ctx)


def random_poly(rng, m, ctx, cell, mu=None, band=(0.1, 0.9)):
    roots = tuple(cell.base + complex(rng.uniform(*band), 0) + rng.uniform(*band) * ctx.tau
                  for _ in range(m))
    if mu is None:
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return ThetaPoly(complex(rng.normal(), rng.normal()), mu, roots, ctx)


class TestThetaPoly:
    def test_frozen_value(self):
        """Spot value frozen from the 50-digit oracle."""
        f = ThetaPoly(1.0, 0.5, (0.1, 0.2), Torus(1j))
        assert relerr(f.eval(0.4),
                      0.015000805559632164376 + 0.046167732315246926292j) < 1e-13

    def test_derivs_fd(self):
        ctx = Torus(0.3 + 0.8j)
        f = ThetaPoly(1.2 - 0.3j, 0.4 + 0.2j, (0.1 + 0.2j, -0.3 + 0.1j), ctx)
        h = 1e-5
        for x in (0.21 + 0.13j, -0.4 + 0.3j):
            d = f.derivs(x, 3)
            assert relerr(d[0], f.eval(x)) < 1e-14
            for r in range(1, 4):
                fd = (f.derivs(x + h, r - 1)[r - 1] - f.derivs(x - h, r - 1)[r - 1]) / (2 * h)
                assert relerr(d[r], fd) < 1e-8

    def test_array_points_match_scalar(self):
        """An array x evaluates every point in one theta batch; values and
        derivatives agree with the scalar path to 1e-13, in any shape."""
        ctx = Torus(0.3 + 0.8j)
        f = ThetaPoly(1.2 - 0.3j, 0.4 + 0.2j, (0.1 + 0.2j, -0.3 + 0.1j, 0.45 - 0.3j), ctx)
        xs = np.array([[0.21 + 0.13j, -0.4 + 0.3j, 1.7 - 0.9j], [0.05j, -2.2 + 0.4j, 0.6]])
        got = f.derivs(xs, 3)
        assert all(row.shape == xs.shape for row in got)
        assert f.eval(xs).shape == xs.shape
        for idx in np.ndindex(xs.shape):
            want = f.derivs(complex(xs[idx]), 3)
            for r in range(4):
                assert abs(got[r][idx] - want[r]) < 1e-13 * abs(want[r])
            assert abs(f.eval(xs)[idx] - want[0]) < 1e-13 * abs(want[0])
        assert ThetaPoly(2.0, 0.0, (), ctx).eval(xs).shape == xs.shape
        # a label whose exponential overflows raises on both paths
        big = ThetaPoly(1.0, -200j, (0.1,), ctx)
        for x in (0.9, np.array([0.2, 0.9])):
            with pytest.raises(OverflowError):
                big.derivs(x, 1)

    def test_stacked_polys_match_one_at_a_time(self):
        """stacked_derivs evaluates polynomials of one degree, each at its
        own points, in one theta batch, with the bits of each alone."""
        ctx = Torus(0.3 + 0.8j)
        cell = centered_cell(ctx)
        rng = np.random.default_rng(5)
        polys = [random_poly(rng, 3, ctx, cell) for _ in range(4)]
        xs = np.array([golden_points(cell, 6, (0.1 * k, 0.2)) for k in range(4)]).reshape(4, 2, 3)
        got = stacked_derivs(polys, xs, 3)
        assert all(row.shape == xs.shape for row in got)
        for k, poly in enumerate(polys):
            for row, want in zip(got, poly.derivs(xs[k], 3)):
                assert np.array_equal(row[k], want)
        for other in (random_poly(rng, 2, ctx, cell), random_poly(rng, 3, Torus(1j), cell)):
            with pytest.raises(ValueError, match="share a torus and a degree"):
                stacked_derivs(polys[:1] + [other], xs[:2], 1)

    def test_transformation_laws(self):
        """f(x+1) = A(-1)^m f; f(x+tau) = B(-1)^m e^{-pi i m tau - 2 pi i m x} f."""
        for tau in (1j, 0.3 + 0.8j):
            ctx = Torus(tau)
            f = ThetaPoly(0.7 + 0.1j, 0.3 - 0.2j, (0.11 + 0.21j, -0.15 + 0.08j, 0.3), ctx)
            m = f.degree
            a_mult, b_mult = f.multipliers
            x = 0.17 - 0.05j
            assert relerr(f.eval(x + 1), a_mult * (-1) ** m * f.eval(x)) < 1e-12
            want = (b_mult * (-1) ** m
                    * cmath.exp(-1j * math.pi * m * tau - 2j * math.pi * m * x) * f.eval(x))
            assert relerr(f.eval(x + tau), want) < 1e-12


class TestFundamentalParallelogram:
    def test_coords_roundtrip(self):
        ctx = Torus(0.3 + 0.8j)
        cell = FundamentalParallelogram(0.2 - 0.4j, ctx)
        x = 1.7 - 2.3j
        a, b = cell.coords(x)
        assert abs(cell.base + a + b * ctx.tau - x) < 1e-12

    def test_reduce_and_contains(self):
        ctx = Torus(0.3 + 0.8j)
        cell = centered_cell(ctx)
        x = 4.3 + 2.9j
        red, k, l = cell.reduce(x)
        assert cell.contains(red)
        assert abs(red + k + l * ctx.tau - x) < 1e-12
        assert cell.contains(cell.base)
        assert not cell.contains(cell.base + 1.0)
        assert not cell.contains(cell.base + ctx.tau)

    def test_array_calls_match_pointwise_bit_for_bit(self):
        """On an array, coords, contains and reduce give the bits of the
        per-point calls and of the scalar rule in Python floats, for points
        several cells out and on the edges: a = 0 or b = 0 is inside,
        a = 1 or b = 1 outside."""
        ctx = Torus(0.3 + 0.8j)
        cell = FundamentalParallelogram(0.0, ctx)
        rng = np.random.default_rng(7)
        far = rng.uniform(-4.0, 5.0, 40) + rng.uniform(-4.0, 5.0, 40) * ctx.tau
        # (a, b) = (0, 0), (0, 0.5), (0.5, 0), (1, 0), (0, 1), exactly
        edges = np.array([0.0, 0.15 + 0.4j, 0.5, 1.0, 0.3 + 0.8j])
        assert [tuple(map(float, cell.coords(x))) for x in edges] == [
            (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (1.0, 0.0), (0.0, 1.0)]
        xs = np.concatenate([far, edges])
        arrays = (*cell.coords(xs), cell.contains(xs), *cell.reduce(xs))
        for n, x in enumerate(xs.tolist()):
            d = x - cell.base
            b = d.imag / ctx.tau.imag
            a = d.real - b * ctx.tau.real
            k, l = math.floor(a), math.floor(b)
            scalar = (a, b, 0.0 <= a < 1.0 and 0.0 <= b < 1.0, x - k - l * ctx.tau, k, l)
            pointwise = (*cell.coords(x), cell.contains(x), *cell.reduce(x))
            for got, one, want in zip(arrays, pointwise, scalar):
                one = np.asarray(one)
                assert np.asarray(got[n]).tobytes() == one.tobytes()
                assert np.asarray(want, dtype=one.dtype).tobytes() == one.tobytes()
        assert arrays[2][-5:].tolist() == [True, True, True, False, False]
        assert cell.contains(arrays[3]).all()
        assert arrays[4].dtype.kind == arrays[5].dtype.kind == "i"

    @pytest.mark.parametrize("bad, message", [
        (complex(math.nan, 0.0), r"x = \(nan\+0j\) is not a finite number"),
        (complex(math.inf, 0.0), r"x = \(inf\+0j\) is not a finite number"),
        (1e300, r"Re\(x\) = 1e\+300 exceeds"),
        (1e300j, r"Im\(x\)/Im\(tau\) = 1\.25e\+300 exceeds")],
        ids=["nan", "inf", "1e300", "1e300j"])
    def test_reduce_rejects_points_out_of_range(self, bad, message):
        """A point that is not finite or lies more than _MAX_LATTICE_SHIFT
        cells out raises RangeError naming it, alone and as the first bad
        point of an array, instead of reducing to garbage k and l."""
        cell = centered_cell(Torus(0.3 + 0.8j))
        with pytest.raises(RangeError, match=message):
            cell.reduce(bad)
        with pytest.raises(RangeError, match=message):
            cell.reduce(np.array([0.2 + 0.1j, bad, 7e299]))


class TestCanonicalCoords:
    def test_value_preservation(self):
        rng = np.random.default_rng(3)
        for tau in (1j, 0.3 + 0.8j):
            ctx = Torus(tau)
            cell = centered_cell(ctx)
            f = random_poly(rng, 3, ctx, cell)
            g = ThetaPoly(f.scale, f.mu,
                          (f.roots[0] + 2 - 3 * tau, f.roots[1] - 1 + tau, f.roots[2]), ctx)
            can = canonical_coords(g, cell)
            assert all(cell.contains(t) for t in can.roots)
            for x in (0.3 + 0.2j, -0.1 + 0.05j, 0.47):
                assert relerr(can.eval(x), g.eval(x)) < 1e-11

    def test_label_shift(self):
        """Moving a root by +tau raises the label by 1 (and by -1 for -tau)."""
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        t = 0.1 + 0.2j
        f_up = ThetaPoly(1.0, 0.25, (t + ctx.tau,), ctx)
        can = canonical_coords(f_up, cell)
        assert abs(can.mu - 1.25) < 1e-12
        assert abs(can.roots[0] - t) < 1e-12

    def test_idempotent(self):
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        f = ThetaPoly(0.3 - 1.1j, 0.7, (0.1 + 0.2j, -0.2 - 0.3j), ctx)
        once = canonical_coords(f, cell)
        twice = canonical_coords(once, cell)
        assert once.roots == twice.roots
        assert abs(once.mu - twice.mu) < 1e-14
        assert abs(once.scale - twice.scale) < 1e-12 * max(1, abs(once.scale))


    def test_rejects_a_root_that_is_not_finite(self):
        ctx = Torus(0.3 + 0.8j)
        f = ThetaPoly(1.0, 0.5, (0.1 + 0.2j, complex(math.nan, 0.0)), ctx)
        with pytest.raises(RangeError, match="not a finite number"):
            canonical_coords(f, centered_cell(ctx))


class TestGoldenPoints:
    def test_matches_one_candidate_at_a_time(self):
        """Testing candidates in blocks returns the points, in order, that a
        one-candidate loop over the same sequence accepts; with nothing
        avoided, a slice [skip:] of one draw is that loop started after
        candidate `skip` (how solve_wronskian splits its draw)."""
        for tau in (1j, 0.3 + 0.8j):
            ctx = Torus(tau)
            cell = FundamentalParallelogram(-(1.0 + tau) / 2.0, ctx)
            sites = (0.0, 0.12 + 0.3j, -0.2 - 0.1j)
            for count, skip, margin, avoid in ((8, 0, 1e-3, sites), (12, 5, 0.2, ()),
                                               (12, 0, 0.2, sites), (3, 0, 0.0, sites)):
                want, k = [], skip
                while len(want) < count:
                    k += 1
                    x = (cell.base + (0.5 + k * GOLDEN[0]) % 1.0
                         + ((0.37 + k * GOLDEN[1]) % 1.0) * tau)
                    if all(lattice_distance(x - p, ctx) > margin for p in avoid):
                        want.append(x)
                got = golden_points(cell, skip + count, (0.5, 0.37), avoid=avoid,
                                    margin=margin)[skip:]
                assert got == want
                assert all(type(x) is complex for x in got)

    def test_gives_up_when_no_point_is_clear(self):
        ctx = Torus(1j)
        cell = FundamentalParallelogram(0.0, ctx)
        with pytest.raises(ArithmeticError):
            golden_points(cell, 4, (0.5, 0.5), avoid=(0.0,), margin=1.0)


class TestWronskian:
    def test_value_and_derivs(self):
        ctx = Torus(1j)
        rng = np.random.default_rng(4)
        cell = centered_cell(ctx)
        f = random_poly(rng, 2, ctx, cell)
        g = random_poly(rng, 2, ctx, cell)
        w = wronskian(f, g)
        h = 1e-5
        for x in (0.21 + 0.13j, -0.34 + 0.4j):
            df, dg = f.derivs(x, 1), g.derivs(x, 1)
            assert relerr(w.eval(x), df[0] * dg[1] - df[1] * dg[0]) < 1e-13
            assert relerr(w.eval(np.array([x]))[0], w.eval(x)) < 1e-13
            d = w.derivs(x, 2)
            fd1 = (w.eval(x + h) - w.eval(x - h)) / (2 * h)
            fd2 = (w.derivs(x + h, 1)[1] - w.derivs(x - h, 1)[1]) / (2 * h)
            assert relerr(d[1], fd1) < 1e-8
            assert relerr(d[2], fd2) < 1e-8

    def test_derivs_stop_at_order_2(self):
        ctx = Torus(1j)
        rng = np.random.default_rng(4)
        cell = centered_cell(ctx)
        w = wronskian(random_poly(rng, 2, ctx, cell), random_poly(rng, 2, ctx, cell))
        with pytest.raises(ValueError, match="up to order 2"):
            w.derivs(0.21 + 0.13j, 3)

    def test_factors_must_share_a_torus(self):
        rng = np.random.default_rng(4)
        f, g = (random_poly(rng, 2, ctx, centered_cell(ctx)) for ctx in (Torus(1j), Torus(1.2j)))
        with pytest.raises(ValueError, match="must share a torus"):
            wronskian(f, g)

    def test_multipliers_and_degree(self):
        """Wr of two degree-m polynomials transforms with degree 2m and
        multipliers (A_f A_g, B_f B_g)."""
        ctx = Torus(0.3 + 0.8j)
        rng = np.random.default_rng(5)
        cell = centered_cell(ctx)
        f = random_poly(rng, 2, ctx, cell)
        g = random_poly(rng, 2, ctx, cell)
        w = wronskian(f, g)
        assert w.degree == 4
        a_mult, b_mult = w.multipliers
        x = 0.11 - 0.21j
        tau = ctx.tau
        assert relerr(w.eval(x + 1), a_mult * w.eval(x)) < 1e-11  # (-1)^{2m} = 1
        want = (b_mult * cmath.exp(-1j * math.pi * 4 * tau - 2j * math.pi * 4 * x) * w.eval(x))
        assert relerr(w.eval(x + tau), want) < 1e-11


class TestFourierBasis:
    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError, match="m must be positive"):
            fourier_basis(0, 1.0, 1.0, Torus(1j))

    def test_overflowing_coefficients_raise(self):
        """B = 1e-300 drives the recursion's ratio past exp's range: the
        infinite coefficients raise OverflowError, also under -W
        error::RuntimeWarning, as numpy's overflow warning is silenced there."""
        with pytest.raises(OverflowError, match="overflow"):
            fourier_basis(2, 1.0, 1e-300, Torus(1j))

    def test_transformation_laws_and_dimension(self):
        for tau in (1j, 0.3 + 0.8j):
            ctx = Torus(tau)
            for m in (1, 2, 3):
                a_mult = cmath.exp(2j * math.pi * (0.37 - 0.12j))
                b_mult = cmath.exp(2j * math.pi * (0.21 + 0.4j))
                basis = fourier_basis(m, a_mult, b_mult, ctx)
                assert len(basis) == m
                x = 0.21 + 0.11j
                for b in basis:
                    assert relerr(b.eval(x + 1), a_mult * (-1) ** m * b.eval(x)) < 1e-11
                    want = (b_mult * (-1) ** m
                            * cmath.exp(-1j * math.pi * m * tau - 2j * math.pi * m * x)
                            * b.eval(x))
                    assert relerr(b.eval(x + tau), want) < 1e-10

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
    @pytest.mark.parametrize("label", [0.3, 10j, -10j])
    def test_offsets_tile_one_integer_range(self, tau, label):
        """The basis functions sit on disjoint residue classes mod m whose
        offsets together form one contiguous range: what lets
        `solve_wronskian` concatenate c_k basis_k into one Fourier series."""
        ctx = Torus(tau)
        for m in range(1, 7):
            # multipliers of a label-`label` theta polynomial with roots in the cell
            roots = [(0.1 + 0.7 * k / m) + (0.2 + 0.5 * k / m) * tau for k in range(m)]
            f = ThetaPoly(1.0, label, tuple(roots), ctx)
            basis = fourier_basis(m, *f.multipliers, ctx)
            offsets = [b.offsets.astype(int) for b in basis]
            for r, (b, n) in enumerate(zip(basis, offsets), start=1):
                assert np.array_equal(b.offsets, n)     # integers
                assert np.all((n - r) % m == 0)
            every = np.sort(np.concatenate(offsets))
            assert len(set(every.tolist())) == len(every)
            assert np.array_equal(every, np.arange(every[0], every[-1] + 1))

    def test_contains_theta_polys(self):
        """Any theta polynomial expands in the basis with tiny residual."""
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        rng = np.random.default_rng(6)
        f = random_poly(rng, 2, ctx, cell)
        a_mult, b_mult = f.multipliers
        basis = fourier_basis(2, a_mult, b_mult, ctx)
        xs = np.array([cell.base + (0.1 + 0.8 * k / 7.0) + (0.13 + 0.71 * ((3 * k) % 7) / 7.0) * ctx.tau
                       for k in range(8)])
        mat = np.column_stack([b.eval_many(xs) for b in basis])
        rhs = np.array([f.eval(x) for x in xs])
        coef, _, _, _ = np.linalg.lstsq(mat, rhs, rcond=None)
        resid = np.max(np.abs(mat @ coef - rhs)) / max(1.0, np.max(np.abs(rhs)))
        assert resid < 1e-10

    def test_derivative_is_termwise(self):
        ctx = Torus(1j)
        b = fourier_basis(1, cmath.exp(0.4j), cmath.exp(0.1 + 0.2j), ctx)[0]
        h = 1e-6
        x = 0.2 + 0.3j
        fd = (b.eval(x + h) - b.eval(x - h)) / (2 * h)
        assert relerr(b.eval(x, 1), fd) < 1e-8


class TestSolveWronskian:
    def test_round_trip(self):
        """solve_wronskian(f, Wr(f,g)) recovers g, for random f, g."""
        rng = np.random.default_rng(7)
        for tau in (1j, 0.3 + 0.8j):
            ctx = Torus(tau)
            cell = centered_cell(ctx)
            for m in (1, 2, 3):
                f = random_poly(rng, m, ctx, cell)
                g = random_poly(rng, m, ctx, cell)
                res = solve_wronskian(f, wronskian(f, g), cell)
                for x in (0.13 + 0.21j, -0.32 + 0.4j, 0.05):
                    assert relerr(res.g.eval(x), g.eval(x)) < 1e-9
                assert res.residual < 1e-9
                assert math.isfinite(res.condition) and res.condition >= 1.0

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_round_trip_at_high_degree(self, m, tau):
        """Six random round trips per degree: with the collocation columns
        scaled to unit norm the basis sizes no longer set the condition, so
        m = 5 and 6 recover g too (unscaled, 2 of 6 trials failed at m = 5
        and 4 of 6 at m = 6 for tau = i)."""
        rng = np.random.default_rng(100 + m)
        ctx = Torus(tau)
        cell = centered_cell(ctx)
        for _ in range(6):
            f = random_poly(rng, m, ctx, cell)
            g = random_poly(rng, m, ctx, cell)
            res = solve_wronskian(f, wronskian(f, g), cell)
            for x in (0.13 + 0.21j, -0.32 + 0.4j, 0.05):
                assert relerr(res.g.eval(x), g.eval(x)) < 1e-12
            assert res.residual < 1e-12

    def test_large_imaginary_label(self):
        """The regime used by the fiber computations: labels +-mu, mu = 10i."""
        rng = np.random.default_rng(8)
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        f = random_poly(rng, 2, ctx, cell, mu=10j)
        g = random_poly(rng, 2, ctx, cell, mu=-10j)
        res = solve_wronskian(f, wronskian(f, g), cell)
        for x in (0.13 + 0.21j, -0.32 + 0.4j):
            assert relerr(res.g.eval(x), g.eval(x)) < 1e-9

    def test_residue_violation(self):
        """A generic degree-2m target has residues at f's roots: rejected."""
        rng = np.random.default_rng(9)
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        f = random_poly(rng, 2, ctx, cell)
        h = random_poly(rng, 4, ctx, cell)
        with pytest.raises(ResidueViolationError):
            solve_wronskian(f, h, cell)

    def test_degenerate_multipliers(self):
        rng = np.random.default_rng(10)
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        f = random_poly(rng, 2, ctx, cell)
        h = wronskian(f, ThetaPoly(1.3, f.mu, f.roots, ctx))
        with pytest.raises(DegenerateMultipliersError):
            solve_wronskian(f, h, cell)

    def test_multiple_root(self):
        rng = np.random.default_rng(11)
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        t = 0.1 + 0.2j
        f = ThetaPoly(1.0, 0.3, (t, t + 1e-10), ctx)
        g = random_poly(rng, 2, ctx, cell)
        with pytest.raises(MultipleRootError):
            solve_wronskian(f, wronskian(f, g), cell)

    def test_degree_mismatch(self):
        rng = np.random.default_rng(12)
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        f = random_poly(rng, 2, ctx, cell)
        h = random_poly(rng, 3, ctx, cell)
        with pytest.raises(ValueError):
            solve_wronskian(f, h, cell)

    @pytest.mark.parametrize("fault, message", [
        ("coefficients", "collocation residual .+ exceeds 1e-9"),
        ("scale", "root/label reconstruction does not match solution"),
        ("root_count", "expected 3 roots in the cell, found 2"),
        ("multipliers", "multipliers inconsistent with recovered roots")])
    def test_each_verification_failure_raises(self, monkeypatch, fault, message):
        """Each verification of a computed g raises its SolveError when the
        step just before it is patched: the least-squares coefficients off
        by 1e-6, the reconstructed scale off by 1e-6, one root more
        expected, and the x + tau multiplier negated."""
        rng = np.random.default_rng(7)
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        f, g = random_poly(rng, 2, ctx, cell), random_poly(rng, 2, ctx, cell)
        lstsq, to_theta_poly = np.linalg.lstsq, thetapoly._to_theta_poly

        def off_coefficients(*args, **kwargs):
            coef, *rest = lstsq(*args, **kwargs)
            return (coef * (1.0 + 1e-6), *rest)

        def off_scale(*args):
            poly = to_theta_poly(*args)
            return ThetaPoly(poly.scale * (1.0 + 1e-6), poly.mu, poly.roots, poly.ctx)

        if fault == "coefficients":
            monkeypatch.setattr(np.linalg, "lstsq", off_coefficients)
        elif fault == "scale":
            monkeypatch.setattr(thetapoly, "_to_theta_poly", off_scale)
        elif fault == "root_count":
            monkeypatch.setattr(thetapoly, "_to_theta_poly",
                                lambda series, m, *rest: to_theta_poly(series, m + 1, *rest))
        else:
            monkeypatch.setattr(thetapoly, "_to_theta_poly", lambda series, m, a2, b2, *rest:
                                to_theta_poly(series, m, a2, -b2, *rest))
        with pytest.raises(SolveError, match=message) as info:
            solve_wronskian(f, wronskian(f, g), cell)
        assert type(info.value) is SolveError

    def test_against_quadrature_construction(self):
        """Independent construction of g: g = f (M + C) with M(x) the path
        integral of h/f^2 and C pinned by the x+1 multiplier law at one point.

        Any C solves the Wronskian ODE; imposing g(x*+1) = A2 (-1)^m g(x*)
        gives C (A_f - A2) = A2 M(x*) - A_f M(x*+1), well-posed because the
        degenerate-multiplier case is excluded.  Uses mpmath.quad along
        root-free horizontal segments.
        """
        rng = np.random.default_rng(13)
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        # roots confined to the middle band so paths near the cell bottom are safe
        f = random_poly(rng, 2, ctx, cell, band=(0.3, 0.7))
        g = random_poly(rng, 2, ctx, cell, band=(0.3, 0.7))
        h = wronskian(f, g)
        res = solve_wronskian(f, h, cell)

        def integrand(x):
            x = complex(x)
            return complex(h.eval(x) / f.eval(x) ** 2)

        x0 = cell.base + 0.1 + 0.05 * ctx.tau

        def big_m(x):
            return complex(mp.quad(integrand, [complex(x0), complex(x)]))

        xstar = cell.base + 0.2 + 0.05 * ctx.tau
        a_f, _ = f.multipliers
        a2 = h.multipliers[0] / a_f
        c_pin = (a2 * big_m(xstar) - a_f * big_m(xstar + 1)) / (a_f - a2)
        for x in (cell.base + 0.55 + 0.05 * ctx.tau, cell.base + 0.85 + 0.05 * ctx.tau):
            g_quad = f.eval(x) * (big_m(x) + c_pin)
            assert relerr(g_quad, res.g.eval(x)) < 1e-6

    def test_oracle_cross_check(self):
        """Solver output satisfies f g' - f' g = h under the 50-digit oracle."""
        rng = np.random.default_rng(14)
        ctx = Torus(1j)
        cell = centered_cell(ctx)
        f = random_poly(rng, 2, ctx, cell)
        g = random_poly(rng, 2, ctx, cell)
        h = wronskian(f, g)
        gs = solve_wronskian(f, h, cell).g

        def poly_derivs_mp(p, x):
            val = mp.mpmathify(p.scale) * mp.exp(2j * mp.pi * p.mu * x)
            dlog = 2j * mp.pi * p.mu
            for t in p.roots:
                th = orc.theta(mp.mpc(x) - t, ctx.tau)
                dth = orc.theta(mp.mpc(x) - t, ctx.tau, 1)
                val *= th
                dlog += dth / th
            return val, val * dlog

        for x in (0.13 + 0.21j, -0.32 + 0.4j):
            fv, fd = poly_derivs_mp(f, x)
            gv, gd = poly_derivs_mp(gs, x)
            wr = fv * gd - fd * gv
            hv = complex(h.eval(x))
            assert abs(complex(wr) - hv) < 1e-9 * max(1.0, abs(hv))
