"""Tests of the double-precision theta function and derived kernels.

Reference values are frozen from the 50-digit oracle (see oracles.py); the
identity and quasi-periodicity checks are self-contained.
"""

import math
import re

import numpy as np
import pytest

import oracles as orc
from ellbethe import elliptic, wronski
from ellbethe.elliptic import (
    _CHUNK,
    _MAX_LATTICE_SHIFT,
    PoleError,
    TWOPI_I,
    RangeError,
    Torus,
    _rho_rows,
    _splits,
    _theta_jets,
    eta,
    lattice_distance,
    lattice_distances,
    phi,
    rho,
    rho_prime,
    rho_second,
    sigma,
    sigma_jet,
    theta,
    theta_derivs,
    theta_dtau,
)

TAUS = [1j, 2j, 0.3 + 0.8j]
# Im tau from 5 down to 0.02, including a skewed torus near a cusp
LADDER = [5j, 2j, 1j, 0.3 + 0.8j, 0.2j, 0.4 + 0.05j, 0.05j, 0.03j, 0.02j]
# square, skewed, near-cusp skewed and thin tori
GUARD_TAUS = [1j, 0.3 + 0.8j, 0.4 + 0.05j, 0.02j]


def relerr(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def sample_points(ctx, n, seed, margin=5e-2):
    """Points in the fundamental cell at least `margin` from the lattice."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * ctx.tau.imag)
        if lattice_distance(x, ctx) > margin:
            pts.append(x)
    return pts


def brute_lattice_distance(x, tau):
    """Distance from x to Z + tau Z by search over the rows in reach: the
    nearest lattice point is closer than the longer cell diagonal R, so it
    has |l - Im x / Im tau| < R / Im tau."""
    row = round(x.imag / tau.imag)
    span = int(max(abs(1 + tau), abs(1 - tau)) / tau.imag) + 2
    return min(abs(x - k - l * tau)
               for l in range(row - span, row + span + 1)
               for k in (round((x - l * tau).real) + dk for dk in (-1, 0, 1)))


class TestTheta:
    def test_frozen_values(self):
        """Spot values frozen from the 50-digit oracle."""
        assert relerr(theta(0.3 + 0.1j, Torus(1j)),
                      0.27158096227239172865 + 0.060705537318571065211j) < 1e-13
        assert relerr(theta_derivs(0.2, Torus(2j), 3)[3],
                      -7.9850483989506798899) < 1e-13

    def test_derivs_stop_at_order_4(self):
        with pytest.raises(ValueError, match="order must be 0..4"):
            theta_derivs(0.2, Torus(1j), 5)

    def test_normalization(self):
        """theta'(0, tau) = 1 to 1e-12 for all sample taus."""
        for tau in TAUS:
            assert abs(theta_derivs(0.0, Torus(tau), 1)[1] - 1.0) < 1e-12

    def test_odd_and_zero_at_origin(self):
        ctx = Torus(1j)
        assert theta(0.0, ctx) == 0
        for x in (0.3 + 0.1j, -0.45 + 0.2j):
            assert relerr(theta(-x, ctx), -theta(x, ctx)) < 1e-14

    @pytest.mark.parametrize("tau", LADDER)
    def test_oracle_ladder(self, tau):
        """theta_derivs orders 0..4 and theta_dtau match the 50-digit oracle
        from Im tau = 5 down to 0.02, in the cell and at translates."""
        ctx = Torus(tau)
        rng = np.random.default_rng(1)
        for a, b in rng.uniform(-0.5, 0.5, size=(3, 2)):
            for k, l in ((0, 0), (1, -1), (-2, 2)):
                x = a + k + (b + l) * tau
                d = theta_derivs(x, ctx, 4)
                for r in range(5):
                    assert relerr(d[r], complex(orc.theta(x, tau, r))) < 1e-12
                assert relerr(theta_dtau(x, ctx), complex(orc.theta_dtau(x, tau))) < 1e-12

    def test_relative_accuracy_at_the_zeros(self):
        """Every order up to 4 keeps its relative accuracy next to a lattice
        point, where the even orders vanish along with theta."""
        for tau in (1j, 0.3 + 0.8j, 0.05j):
            ctx = Torus(tau)
            for x in (1e-9, 1e-9j, 1 + 3e-6 + 1e-6j, 2e-7 - tau):
                d = theta_derivs(x, ctx, 4)
                for r in range(5):
                    want = complex(orc.theta(x, tau, r))
                    assert abs(d[r] - want) < 1e-13 * abs(want)

    def test_theta_derivs_match_oracle(self):
        for tau in TAUS:
            ctx = Torus(tau)
            for x in sample_points(ctx, 4, seed=12, margin=1e-3):
                d = theta_derivs(x, ctx, 4)
                for r in range(5):
                    assert relerr(d[r], complex(orc.theta(x, tau, r))) < 1e-13

    def test_derivatives_fd_consistent(self):
        """Orders 1..4 agree with central differences of the order below."""
        ctx = Torus(0.3 + 0.8j)
        h = 1e-5
        for x in sample_points(ctx, 5, seed=2):
            d = theta_derivs(x, ctx, 4)
            for r in range(1, 5):
                lo = theta_derivs(x - h, ctx, r - 1)[r - 1]
                hi = theta_derivs(x + h, ctx, r - 1)[r - 1]
                assert relerr(d[r], (hi - lo) / (2 * h)) < 1e-8

    def test_quasi_periodicity(self):
        """theta(x+k+l tau) = (-1)^{k+l} e^{-pi i l^2 tau - 2 pi i l x} theta(x)."""
        for tau in TAUS:
            ctx = Torus(tau)
            x = 0.21 + 0.13j
            base = theta(x, ctx)
            for k, l in ((1, 0), (0, 1), (-1, 2), (2, -1), (3, 3)):
                mult = (-1) ** (k + l) * np.exp(-1j * math.pi * l * l * tau
                                                - 2j * math.pi * l * x)
                assert relerr(theta(x + k + l * tau, ctx), mult * base) < 1e-12

    def test_oracle_cross_check(self):
        """theta and derivatives match the 50-digit oracle at random points."""
        for tau in TAUS:
            ctx = Torus(tau)
            for x in sample_points(ctx, 6, seed=3, margin=1e-3):
                d = theta_derivs(x, ctx, 3)
                for r in range(4):
                    assert relerr(d[r], complex(orc.theta(x, tau, r))) < 1e-13

    def test_range_guard(self):
        ctx = Torus(1j)
        with pytest.raises(RangeError):
            theta(2.0e7j, ctx)

    def test_torus_reduces_tau_into_fundamental_domain(self):
        ctx = Torus(1j)
        assert ctx.cd == (0, 1) and ctx.tau_reduced == 1j
        for tau in LADDER + [-3.7 + 0.01j, 12.25 + 0.9j]:
            ctx = Torus(tau)
            c, d = ctx.cd
            red = ctx.tau_reduced
            assert abs(red.real) <= 0.5 + 1e-12 and abs(red) >= 1 - 1e-12
            assert abs(red.imag - tau.imag / abs(c * tau + d) ** 2) < 1e-12 * red.imag

    def test_lattice_distance_is_exact_on_skewed_torus(self):
        """The nearest-point search runs on the reduced basis; on the raw
        basis it returned 0.2016 here, though 1 - 2 tau is 0.075 away."""
        ctx = Torus(0.4 + 0.05j)
        assert abs(lattice_distance(0.2 - 0.025j, ctx) - 0.075) < 1e-12
        rng = np.random.default_rng(13)
        for tau in (0.4 + 0.05j, 0.3 + 0.8j, -0.45 + 0.02j):
            ctx = Torus(tau)
            for x in rng.uniform(-2, 2, size=(10, 2)) @ np.array([1, 1j]):
                assert abs(lattice_distance(x, ctx) - brute_lattice_distance(x, tau)) < 1e-12

    def test_reduction_roundtrip(self):
        ctx = Torus(0.3 + 0.8j)
        x = 5.2 - 3.1j
        (x0,), (k,), (l,) = _splits(np.array([x]), ctx.tau)
        assert abs(x0 + k + l * ctx.tau - x) < 1e-12
        assert k == int(k) and l == int(l)
        assert abs(x0.imag) <= ctx.tau.imag / 2 and abs(x0.real) <= 0.5


def heat_error(x, ctx):
    """Relative error of 4 pi i d/dtau theta = theta'' - theta'''(0) theta."""
    lhs = 4j * math.pi * theta_dtau(x, ctx)
    d = theta_derivs(x, ctx, 2)
    rhs = d[2] - theta_derivs(0.0, ctx, 3)[3] * d[0]
    return abs(lhs - rhs) / max(1.0, abs(rhs))


class TestHeatEquation:
    def test_theta_heat(self):
        """The normalized theta obeys 4 pi i theta_tau = theta'' - theta'''(0) theta."""
        for tau in TAUS:
            ctx = Torus(tau)
            for x in (0.23 + 0.11j, -0.4 + 0.35j, 0.5):
                assert heat_error(x, ctx) < 1e-7

    def test_theta_heat_outside_reduced_strip(self):
        """The tau-derivative at fixed x must transport the reduction:
        x0 = x - k - l tau moves with tau, so points that reduce with
        l != 0 pick up i pi l^2 theta(x0) - l theta'(x0) terms."""
        for tau in TAUS:
            ctx = Torus(tau)
            for x in (0.25 + 0.9 * tau, 0.11 - 1.2 * tau, -0.4 + 2.3 * tau):
                assert heat_error(x, ctx) < 1e-7

    def test_theta_dtau_vs_fd_grid(self):
        """d/dtau theta at fixed x against a central difference in tau, on
        a square, a skewed and a thin torus and at far translates."""
        h = 1e-6
        for tau in (1j, 0.3 + 0.8j, 0.05j):
            for x in (0.23 + 0.11j, 0.11 - 1.2 * tau, -0.4 + 2.3 * tau):
                fd = (theta(x, Torus(tau + h)) - theta(x, Torus(tau - h))) / (2 * h)
                assert abs(theta_dtau(x, Torus(tau)) - fd) < 1e-7 * max(1.0, abs(fd))

    def test_theta_dtau_vs_fd(self):
        """d/dtau of the normalized theta against a central difference."""
        x, tau, h = 0.3 + 0.1j, 1j, 1e-6
        fd = (theta(x, Torus(tau + h)) - theta(x, Torus(tau - h))) / (2 * h)
        assert abs(theta_dtau(x, Torus(tau)) - fd) < 1e-9

    def test_theta_dtau_vs_fd_outside_reduced_strip(self):
        x, tau, h = 0.3 + 0.84j, 1j, 1e-6
        fd = (theta(x, Torus(tau + h)) - theta(x, Torus(tau - h))) / (2 * h)
        assert abs(theta_dtau(x, Torus(tau)) - fd) < 1e-8 * max(1.0, abs(fd))


class TestKernels:
    def test_frozen_values(self):
        ctx = Torus(1j)
        assert relerr(rho(0.25, ctx), 3.1651034544474318237) < 1e-13
        assert relerr(sigma(0.2, 0.3, ctx), 6.6064486418186169266) < 1e-13
        assert relerr(eta(0.37 + 0.21j, ctx),
                      -10.127684975005068406 - 0.37100655630192289483j) < 1e-13
        assert relerr(theta_derivs(0.0, ctx, 3)[3], -9.4247779607693797154) < 1e-13

    def test_oracle_cross_check(self):
        for tau in TAUS:
            ctx = Torus(tau)
            pts = sample_points(ctx, 8, seed=4)
            for x, w in zip(pts[:4], pts[4:]):
                assert relerr(rho(x, ctx), complex(orc.rho(x, tau))) < 1e-12
                assert relerr(rho_prime(x, ctx), complex(orc.rho_prime(x, tau))) < 1e-12
                assert relerr(rho_second(x, ctx), complex(orc.rho_second(x, tau))) < 1e-11
                assert relerr(sigma(x, w, ctx), complex(orc.sigma(x, w, tau))) < 1e-12
                assert relerr(phi(x, w, ctx), complex(orc.phi(x, w, tau))) < 1e-12
                assert relerr(eta(x, ctx), complex(orc.eta(x, tau))) < 1e-12

    def test_rho_derivatives_fd(self):
        ctx = Torus(1j)
        h = 1e-5
        for x in sample_points(ctx, 5, seed=5):
            fd1 = (rho(x + h, ctx) - rho(x - h, ctx)) / (2 * h)
            fd2 = (rho_prime(x + h, ctx) - rho_prime(x - h, ctx)) / (2 * h)
            assert relerr(rho_prime(x, ctx), fd1) < 1e-8
            assert relerr(rho_second(x, ctx), fd2) < 1e-8

    def test_sigma_dw_is_w_derivative(self):
        """sigma_jet(...)[1] = d sigma/dw, and equals sigma (rho(x+w) - rho(w))."""
        ctx = Torus(0.3 + 0.8j)
        h = 1e-5
        pts = sample_points(ctx, 6, seed=6)
        for x, w in zip(pts[:3], pts[3:]):
            fd = (sigma(x, w + h, ctx) - sigma(x, w - h, ctx)) / (2 * h)
            assert relerr(sigma_jet(x, w, ctx)[1], fd) < 1e-8
            closed = sigma(x, w, ctx) * (rho(x + w, ctx) - rho(w, ctx))
            assert relerr(sigma_jet(x, w, ctx)[1], closed) < 1e-12

    def test_sigma_dw_regular_when_sum_on_lattice(self):
        """The quotient form stays finite when x+w is a lattice point."""
        ctx = Torus(1j)
        x = 0.3 + 0.2j
        val = sigma_jet(x, 1.0 - x, ctx)[1]
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        fd = (sigma(x, 1.0 - x + 1e-6, ctx) - sigma(x, 1.0 - x - 1e-6, ctx)) / 2e-6
        assert relerr(val, fd) < 1e-7
        val2 = sigma_jet(x, 1.0 - x, ctx)[2]
        fd2 = (sigma_jet(x, 1.0 - x + 1e-6, ctx)[1]
               - sigma_jet(x, 1.0 - x - 1e-6, ctx)[1]) / 2e-6
        assert relerr(val2, fd2) < 1e-7

    def test_sigma_jet_second_w_derivative(self):
        """sigma_jet(...)[0] is sigma, and sigma_jet(...)[2] is d/dw of
        sigma_jet(...)[1] (five-point central difference) and equals
        sigma ((rho(x+w) - rho(w))^2 + rho'(x+w) - rho'(w))."""
        h = 1e-4
        for tau in TAUS:
            ctx = Torus(tau)
            pts = sample_points(ctx, 6, seed=17)
            for x, w in zip(pts[:3], pts[3:]):
                d0, _, d2 = sigma_jet(x, w, ctx)
                assert d0 == sigma(x, w, ctx)
                d1 = [sigma_jet(x, w + r * h, ctx)[1] for r in (-2, -1, 1, 2)]
                fd = (d1[0] - 8.0 * d1[1] + 8.0 * d1[2] - d1[3]) / (12 * h)
                assert relerr(d2, fd) < 1e-8
                log_dw = rho(x + w, ctx) - rho(w, ctx)
                closed = d0 * (log_dw ** 2 + rho_prime(x + w, ctx) - rho_prime(w, ctx))
                assert relerr(d2, closed) < 1e-12

    def test_phi_is_x_derivative_of_sigma(self):
        """phi(x, w) = d/dx sigma(w, -x)."""
        ctx = Torus(1j)
        h = 1e-5
        pts = sample_points(ctx, 6, seed=7)
        for x, w in zip(pts[:3], pts[3:]):
            fd = (sigma(w, -(x + h), ctx) - sigma(w, -(x - h), ctx)) / (2 * h)
            assert relerr(phi(x, w, ctx), fd) < 1e-8

    def test_phi_at_w_zero(self):
        """phi(x, 0) = -rho'(x), the removable limit."""
        ctx = Torus(1j)
        for x in sample_points(ctx, 4, seed=8):
            assert relerr(phi(x, 0.0, ctx), -rho_prime(x, ctx)) < 1e-13

    def test_phi_regular_at_x_equals_w(self):
        """sigma(w, -x) vanishes where rho(x - w) has its pole, so phi(x, x)
        = 1/theta(x)^2, the limit of nearby values, not a PoleError."""
        ctx = Torus(0.3 + 0.8j)
        for x in sample_points(ctx, 3, seed=14):
            at = phi(x, x, ctx)
            assert relerr(at, 1.0 / theta(x, ctx) ** 2) < 1e-12
            assert relerr(at, phi(x, x + 1e-7, ctx)) < 1e-5

    def test_phi_small_w_branch(self):
        """The Taylor branch agrees with the oracle across the switch point."""
        ctx = Torus(1j)
        x = 0.31 + 0.12j
        for w in (1e-7, 3e-5, 5e-5, 7e-5j, 2e-4, 1e-3):
            assert relerr(phi(x, w, ctx), complex(orc.phi(x, w, 1j))) < 1e-10

    def test_eta_forms_agree(self):
        """eta = theta''/theta = rho^2 + rho' away from the lattice."""
        ctx = Torus(2j)
        for x in sample_points(ctx, 5, seed=9):
            assert relerr(eta(x, ctx), rho(x, ctx) ** 2 + rho_prime(x, ctx)) < 1e-11

    def test_eta_removable_at_origin(self):
        """eta(x) -> theta'''(0) as x -> 0 along Z-translates."""
        ctx = Torus(1j)
        lim = theta_derivs(0.0, ctx, 3)[3]
        for x in (1e-8, 1e-8j, 1.0 + 1e-9, -2.0 + 1e-8):
            assert relerr(eta(x, ctx), lim) < 1e-8


class TestQuasiPeriodicityLaws:
    """Transformation behaviour of the kernels under x -> x + k + l tau."""

    SHIFTS = [(1, 0), (0, 1), (-1, 1), (2, -1)]

    def test_rho(self):
        for tau in TAUS:
            ctx = Torus(tau)
            x = 0.17 + 0.23j
            for k, l in self.SHIFTS:
                assert relerr(rho(x + k + l * tau, ctx),
                              rho(x, ctx) - 2j * math.pi * l) < 1e-11

    def test_rho_prime_periodic(self):
        ctx = Torus(0.3 + 0.8j)
        x = 0.17 + 0.23j
        for k, l in self.SHIFTS:
            assert relerr(rho_prime(x + k + l * ctx.tau, ctx), rho_prime(x, ctx)) < 1e-11

    def test_sigma_both_slots(self):
        """sigma(x+k+l tau, w) = e^{-2 pi i l w} sigma(x, w);
        sigma(x, w+k+l tau) = e^{-2 pi i l x} sigma(x, w)."""
        ctx = Torus(1j)
        x, w = 0.17 + 0.23j, -0.31 + 0.11j
        base = sigma(x, w, ctx)
        for k, l in self.SHIFTS:
            s1 = sigma(x + k + l * ctx.tau, w, ctx)
            assert relerr(s1, np.exp(-2j * math.pi * l * w) * base) < 1e-11
            s2 = sigma(x, w + k + l * ctx.tau, ctx)
            assert relerr(s2, np.exp(-2j * math.pi * l * x) * base) < 1e-11

    def test_phi_both_slots(self):
        """phi(x+k+l tau, w) = e^{2 pi i l w} phi(x, w);
        phi(x, w+k+l tau) = e^{2 pi i l x}(phi(x, w) + 2 pi i l sigma(w, -x))."""
        ctx = Torus(1j)
        x, w = 0.17 + 0.23j, -0.31 + 0.11j
        base = phi(x, w, ctx)
        sig = sigma(w, -x, ctx)
        for k, l in self.SHIFTS:
            p1 = phi(x + k + l * ctx.tau, w, ctx)
            assert relerr(p1, np.exp(2j * math.pi * l * w) * base) < 1e-11
            p2 = phi(x, w + k + l * ctx.tau, ctx)
            want = np.exp(2j * math.pi * l * x) * (base + 2j * math.pi * l * sig)
            assert relerr(p2, want) < 1e-11

    def test_eta(self):
        """eta(x+k+l tau) = eta(x) - 4 pi i l rho(x) + (2 pi i l)^2."""
        ctx = Torus(0.3 + 0.8j)
        x = 0.17 + 0.23j
        for k, l in self.SHIFTS:
            want = eta(x, ctx) - 4j * math.pi * l * rho(x, ctx) + (2j * math.pi * l) ** 2
            assert relerr(eta(x + k + l * ctx.tau, ctx), want) < 1e-11


class TestParity:
    """rho(-x) = -rho(x), rho'(-x) = rho'(x), eta(-x) = eta(x),
    sigma(-x, -w) = -sigma(x, w) and phi(-x, -w) = phi(x, w), which the KZB
    table and the Bethe residual and Jacobian use to skip mirrored pairs."""

    @pytest.mark.parametrize("tau", GUARD_TAUS)
    def test_kernels(self, tau):
        ctx = Torus(tau)
        pts = sample_points(ctx, 20, seed=8)
        for x, w in zip(pts[:10], pts[10:]):
            for k, l in [(0, 0)] + TestQuasiPeriodicityLaws.SHIFTS:
                y = x + k + l * tau
                assert relerr(rho(-y, ctx), -rho(y, ctx)) < 1e-14
                assert relerr(rho_prime(-y, ctx), rho_prime(y, ctx)) < 1e-14
                assert relerr(eta(-y, ctx), eta(y, ctx)) < 1e-14
                for a, b in ((y, w), (w, y)):
                    assert relerr(sigma(-a, -b, ctx), -sigma(a, b, ctx)) < 1e-14
                    assert relerr(phi(-a, -b, ctx), phi(a, b, ctx)) < 1e-14


class TestIdentities:
    def test_sigma_cross_identity(self):
        """sigma(x-z1,w) sigma(x-z2,-w)/sigma(z1-z2,-w) + rho(x-z2) - rho(x-z1)
        = rho(w) - rho(w-(z1-z2)), independent of x."""
        for tau in TAUS:
            ctx = Torus(tau)
            pts = sample_points(ctx, 68, seed=10)
            z1, z2 = 0.05 - 0.11j, 0.44 + 0.31j
            count = 0
            for x, w in zip(pts[:34], pts[34:]):
                if min(lattice_distance(u, ctx) for u in
                       (x - z1, x - z2, w, w - (z1 - z2), z1 - z2)) < 5e-2:
                    continue
                lhs = (sigma(x - z1, w, ctx) * sigma(x - z2, -w, ctx)
                       / sigma(z1 - z2, -w, ctx) + rho(x - z2, ctx) - rho(x - z1, ctx))
                rhs = rho(w, ctx) - rho(w - (z1 - z2), ctx)
                assert relerr(lhs, rhs) < 1e-10
                count += 1
            assert count >= 20

    def test_sigma_product_identity(self):
        """sigma(x, w) sigma(x, -w) = rho'(w) - rho'(x)."""
        for tau in TAUS:
            ctx = Torus(tau)
            pts = sample_points(ctx, 40, seed=11)
            for x, w in zip(pts[:20], pts[20:]):
                lhs = sigma(x, w, ctx) * sigma(x, -w, ctx)
                rhs = rho_prime(w, ctx) - rho_prime(x, ctx)
                assert relerr(lhs, rhs) < 1e-10

    def test_two_point_limit_is_eta(self):
        """f(x) = rho(x-z1)rho(x-z2) + rho(z1-z2)(rho(x-z2) - rho(x-z1))
        extends over the poles with f(z1) = f(z2) = eta(z1-z2).

        The limit is taken by Neville extrapolation along a fixed direction
        with nodes delta0 / 2^k, since f is 0*inf at the points themselves.
        """
        ctx = Torus(0.3 + 0.8j)
        z1, z2 = 0.05 - 0.11j, 0.44 + 0.31j
        r12 = rho(z1 - z2, ctx)

        def f(x):
            return (rho(x - z1, ctx) * rho(x - z2, ctx)
                    + r12 * rho(x - z2, ctx) - r12 * rho(x - z1, ctx))

        target = eta(z1 - z2, ctx)
        direction = 0.6 + 0.35j
        d0 = 1e-2
        for zc in (z1, z2):
            ts = [d0 / 2 ** k for k in range(5)]
            vals = [f(zc + t * direction) for t in ts]
            ext = _neville_at_zero(ts, vals)
            assert relerr(ext, target) < 1e-9


def _neville_at_zero(xs, ys):
    ys = list(ys)
    n = len(ys)
    for j in range(1, n):
        for i in range(n - j):
            ys[i] = ys[i + 1] + (ys[i] - ys[i + 1]) * xs[i + j] / (xs[i + j] - xs[i])
    return ys[0]


class TestPoleGuards:
    def test_kernels_raise_near_lattice(self):
        ctx = Torus(1j)
        bad = 1.0 + 1e-12
        for fn in (rho, rho_prime, rho_second):
            with pytest.raises(PoleError):
                fn(bad, ctx)
        with pytest.raises(PoleError):
            sigma(bad, 0.3, ctx)
        with pytest.raises(PoleError):
            sigma(0.3, bad, ctx)
        with pytest.raises(PoleError):
            phi(bad, 0.3, ctx)

    @pytest.mark.parametrize("tau", GUARD_TAUS)
    def test_guard_matches_lattice_distance(self, tau):
        """The guard taken from the theta jet raises exactly where
        lattice_distance < tol_pole: at 0.5 tol_pole from every translate
        k + l tau (|k|, |l| <= 2), and not at 10 tol_pole."""
        ctx = Torus(tau)
        other = 0.3 + 0.1j * tau.imag
        assert lattice_distance(other, ctx) > 1e-2
        for k in range(-2, 3):
            for l in range(-2, 3):
                for turn in (1, 1j, -1 + 1j, -0.6 - 0.8j):
                    for scale, near in ((0.5, True), (10.0, False)):
                        x = k + l * tau + scale * ctx.tol_pole * turn / abs(turn)
                        assert (lattice_distance(x, ctx) < ctx.tol_pole) is near
                        for fn, args in ((rho, (x,)), (rho_prime, (x,)),
                                         (sigma, (x, other)), (sigma, (other, x)),
                                         (sigma_jet, (x, other)), (sigma_jet, (other, x))):
                            if near:
                                with pytest.raises(PoleError):
                                    fn(*args, ctx)
                            else:
                                fn(*args, ctx)

    def test_eta_pole_at_tau_translates(self):
        """eta has genuine poles at l tau + k with l != 0, but not at k."""
        ctx = Torus(1j)
        with pytest.raises(PoleError):
            eta(1j + 1e-12, ctx)
        val = eta(3.0 + 1e-12, ctx)  # Z-translate: removable
        assert np.isfinite(val.real)

    def test_torus_validation(self):
        with pytest.raises(ValueError):
            Torus(1.0 + 0j)
        with pytest.raises(ValueError):
            Torus(0.5 - 0.1j)


class TestThetaJets:
    """The one theta evaluator on arrays: against one-point (scalar) calls,
    the oracle, and the texts of its guards."""

    @pytest.mark.parametrize("tau", LADDER)
    def test_matches_scalar_and_oracle(self, tau):
        """Orders 0..4, with and without the d/dtau row, at the
        test_oracle_ladder points, lattice translates included, as one array
        each: the bits of one-point calls, and within 1e-12 of the oracle.
        At tau = i, 0.3 + 0.8i and 0.05i the array also holds points whose
        reduced argument u0 lies just inside and just outside |u0| = 0.05,
        where the recursion changes form, on both sides of Im u0 = 0."""
        ctx = Torus(tau)
        rng = np.random.default_rng(1)
        shifts = ((0, 0), (1, -1), (-2, 2))
        xs = [[a + k + (b + l) * tau for k, l in shifts]
              for a, b in rng.uniform(-0.5, 0.5, size=(3, 2))]
        if tau in (1j, 0.3 + 0.8j, 0.05j):
            # x0 = j u0 on the tau lattice, then u0 on the tau' lattice
            xs += [[ctx._j * u0 + k + l * tau for k, l in shifts]
                   for u0 in (0.0499 * (0.6 + 0.8j), 0.0499 * (-0.8 - 0.6j), 0.01j,
                              0.0501 * (0.6 - 0.8j), 0.0501 * (-0.8 + 0.6j))]
        xs = np.array(xs)
        want = [[complex(orc.theta(x, tau, r)) for r in range(5)]
                + [complex(orc.theta_dtau(x, tau))] for x in xs.ravel()]
        for order in range(5):
            for dtau in (False, True):
                jets = _theta_jets(xs, ctx, order, dtau=dtau)
                assert jets.shape == (order + 1 + dtau,) + xs.shape
                for x, jet, ref in zip(xs.ravel(), jets.reshape(len(jets), -1).T, want):
                    one = _theta_jets(complex(x), ctx, order, dtau=dtau)
                    assert jet.tobytes() == one.tobytes()
                    for r, value in enumerate(jet):
                        assert relerr(value, ref[r] if r <= order else ref[-1]) < 1e-12

    def test_jet_probe_sees_every_binding_and_counts_a_call_once(self, monkeypatch, request):
        """The theta_jet_calls fixture wraps `_theta_jets` wherever an
        ellbethe module binds it, a module bound only by this test included,
        and records a call past one series pass as one call."""
        monkeypatch.setattr(wronski, "_theta_jets", _theta_jets, raising=False)
        calls = request.getfixturevalue("theta_jet_calls")
        wronski._theta_jets(np.full(_CHUNK + 5, 0.2 + 0.1j), Torus(1j), 2)
        theta_dtau(0.3, Torus(1j))
        assert calls == [(2, _CHUNK + 5, False), (0, 1, True)]

    def test_large_batches_keep_the_bits_and_the_guard_order(self):
        """A batch longer than one series pass gives every point the bits of
        a one-point call, and its guards still see all points first: the
        first pole is named wherever it falls, even after an overflow in an
        earlier pass, and a RangeError anywhere wins over a pole."""
        ctx = Torus(0.3 + 0.8j)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-3, 3, 2 * _CHUNK + 7) + 1j * rng.uniform(-3, 3, 2 * _CHUNK + 7)
        jets = _theta_jets(xs, ctx, 2, dtau=True)
        for i in (0, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 6):
            assert np.array_equal(jets[:, i], _theta_jets(complex(xs[i]), ctx, 2, dtau=True))
        # the first pass also holds a point whose exponential overflows
        poles = xs.copy()
        poles[[5, _CHUNK + 3, 2 * _CHUNK + 1]] = 0.3 + 300j, 1.0 + ctx.tau, 2.0
        with pytest.raises(PoleError, match=re.escape("(x=%r)" % ((1 + ctx.tau),))):
            _theta_jets(poles, ctx, 1, pole="rho")
        poles[2 * _CHUNK + 5] = 3.0 * _MAX_LATTICE_SHIFT + 0.1j
        with pytest.raises(RangeError):
            _theta_jets(poles, ctx, 1, pole="rho")

    @pytest.mark.parametrize("tau", GUARD_TAUS)
    def test_pole_guard_matches_scalar(self, tau):
        """PoleError exactly where lattice_distance < tol_pole, at 0.5
        tol_pole from every translate k + l tau (|k|, |l| <= 2) and not at
        10 tol_pole, with the text of a one-point call naming the first
        offending point."""
        ctx = Torus(tau)
        other = 0.3 + 0.1j * tau.imag
        raised = 0
        for k in range(-2, 3):
            for l in range(-2, 3):
                for turn in (1, 1j, -1 + 1j, -0.6 - 0.8j):
                    for scale in (0.5, 10.0):
                        x = k + l * tau + scale * ctx.tol_pole * turn / abs(turn)
                        if lattice_distance(x, ctx) < ctx.tol_pole:
                            raised += 1
                            with pytest.raises(PoleError) as one:
                                _theta_jets(x, ctx, 1, pole="rho")
                            with pytest.raises(PoleError) as info:
                                _theta_jets([other, x, x + 1], ctx, 1, pole="rho")
                            assert str(info.value) == str(one.value) == (
                                "rho evaluated within tol_pole of the lattice (x=%r)" % (x,))
                        else:
                            _theta_jets([other, x], ctx, 1, pole="rho")
        assert raised == 100

    def test_range_guard_matches_scalar(self):
        """Past _MAX_LATTICE_SHIFT, and at NaN or inf, the evaluator and a
        kernel raise the RangeError that `_splits` gives the first
        offending point, and lattice_distances raises too."""
        ctx = Torus(0.3 + 0.8j)
        limit = _MAX_LATTICE_SHIFT
        for bad, text in (
                (2.0 * limit * 0.8j, "Im(x)/Im(tau) = 2e+06 exceeds the supported range"),
                (0.5 + (limit + 2) * 0.8j, "Im(x)/Im(tau) = 1e+06 exceeds the supported range"),
                (3.0 * limit + 0.1j, "Re(x) = 3e+06 exceeds the supported range"),
                (complex(math.nan, 0.1), "x = (nan+0.1j) is not a finite number"),
                (complex(0.2, math.inf), "x = (0.2+infj) is not a finite number")):
            xs = np.array([0.1, bad, 2 * bad])
            with pytest.raises(RangeError, match=re.escape(text) + "$"):
                _splits(np.array([bad]), ctx.tau)
            for fn in (lambda: _theta_jets(xs, ctx, 2, pole="rho"), lambda: rho(xs, ctx)):
                with pytest.raises(RangeError) as got:
                    fn()
                assert str(got.value) == text
            with pytest.raises(RangeError):
                lattice_distances(xs, ctx)

    def test_overflow_matches_scalar(self):
        """Far up the tau direction the automorphy factor overflows: the
        kernels raise OverflowError instead of returning inf or NaN, at one
        point and in a batch, and just short of that they still match the
        oracle."""
        ctx = Torus(1j)
        for x in (0.3 + 30j, -0.2 - 300j):
            for fn in (theta, rho, lambda y, c: sigma(y, 0.2, c), lambda y, c: phi(y, 0.2, c)):
                for xs in (x, np.array([0.1, x])):
                    with pytest.raises(OverflowError):
                        fn(xs, ctx)
        jet = theta_derivs(0.3 + 12j, ctx, 4)
        for r in range(5):
            assert relerr(jet[r], complex(orc.theta(0.3 + 12j, 1j, r))) < 1e-12

    def test_phi_far_translate_overflows_loudly(self):
        """phi at w within 1e-6 of l tau takes the Taylor step, carried to
        the translate by the factor e^{2 pi i l x}.  At l = -300 that factor
        passes the double range: phi raises OverflowError, alone and through
        the theta table beside another kernel, instead of returning NaN.  At
        l = -50 phi keeps the bits of the shift law taken with np.exp, and
        the oracle's value."""
        ctx = Torus(1j)
        x = 0.1 + 0.5j
        with pytest.raises(OverflowError, match="^math range error$"):
            phi(x, -300 * ctx.tau + 1e-6, ctx)
        with pytest.raises(OverflowError, match="^math range error$"):
            elliptic._theta_table(ctx, (theta, (np.array([0.2, 0.3]),)),
                                  (phi, (np.array([x]), np.array([-300 * ctx.tau + 1e-6]))))
        got = phi(x, -50 * ctx.tau + 1e-6, ctx)
        assert got == np.exp(TWOPI_I * -50 * x) * (phi(x, 1e-6, ctx)
                                                   + TWOPI_I * -50 * sigma(1e-6, -x, ctx))
        assert relerr(got, complex(orc.phi(x, -50 * ctx.tau + 1e-6, 1j))) < 1e-12

    def test_lattice_distances_match_scalar(self):
        """The brute-force scalar search of
        test_lattice_distance_is_exact_on_skewed_torus, against arrays far
        from and next to lattice points."""
        rng = np.random.default_rng(13)
        for tau in (0.4 + 0.05j, 0.3 + 0.8j, -0.45 + 0.02j):
            ctx = Torus(tau)
            far = rng.uniform(-2, 2, size=(30, 2)) @ np.array([1, 1j])
            near = [k + l * tau + 1e-9 * turn for k, l in ((0, 0), (1, -1), (-2, 1))
                    for turn in (1, 1j, -0.6 - 0.8j)]
            xs = np.concatenate([far, near]).reshape(3, -1)
            got = lattice_distances(xs, ctx)
            assert got.shape == xs.shape
            want = np.array([brute_lattice_distance(x, tau) for x in xs.ravel()])
            np.testing.assert_allclose(got.ravel(), want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 2j, 5j, 0.05j, 0.4 + 0.05j, 0.02j,
                                     -0.5 + 0.866j])
    def test_two_candidates_are_the_neighbour_search(self, tau):
        """The two-candidate kernel gives the bits of the full 3x3 neighbour
        search (oracles.lattice_distances_3x3) at 10^5 random points a few
        periods out, and on the edges and corners of the reduced box:
        Re u0 = +-1/2 and 0, Im u0 = 0 and +-Im tau'/2, each also one ulp
        inside, at lattice translates."""
        ctx = Torus(tau)
        j, red = ctx._j, ctx.tau_reduced
        rng = np.random.default_rng(29)
        scattered = (rng.uniform(-3, 3, 10 ** 5) + rng.uniform(-3, 3, 10 ** 5) * red) * j
        half = red.imag / 2
        re = [-0.5, np.nextafter(-0.5, 0), 0.0, -0.0, np.nextafter(0.5, 0), 0.5]
        im = [-half, np.nextafter(-half, 0), 0.0, -0.0, np.nextafter(half, 0), half]
        box = np.array([complex(a, b) for a in re for b in im])
        shifts = np.array([k + l * red for k in (-2, 0, 1) for l in (-1, 0, 2)])
        edges = (box[:, None] + shifts).ravel()
        for xs in (scattered, edges * j, edges):
            assert np.array_equal(lattice_distances(xs, ctx), orc.lattice_distances_3x3(xs, ctx))


class TestArrayContract:
    """Every public kernel takes scalars or arrays and returns, in their
    shape, the values of one-point calls bit for bit."""

    ONE_SLOT = [theta, theta_dtau, rho, rho_prime, rho_second,
                lambda x, ctx: theta_derivs(x, ctx, 4)]
    TWO_SLOTS = [sigma, sigma_jet, phi]

    @staticmethod
    def mixed_points(ctx):
        """(2, 6) points: cell points, lattice translates of them, and
        points 1e-8 from the lattice."""
        tau = ctx.tau
        pts = sample_points(ctx, 6, seed=21)
        return np.array(pts[:4] + [pts[0] + 1 - tau, pts[1] - 2 + 2 * tau,
                                   2.0 + 1e-8, 1e-8j - tau, pts[2] + 3.0,
                                   1.0 + tau + 1e-8 * (0.6 + 0.8j), pts[3] - tau,
                                   -1.0 + 1e-8]).reshape(2, 6)

    @staticmethod
    def assert_per_point(got, fn, *args):
        """got, a value or a tuple or stack of values, against fn at each
        point of the broadcast args."""
        points = np.broadcast_arrays(*args)
        shape = points[0].shape
        rows = got if isinstance(got, tuple) else (got,)
        for row in rows:
            assert row.shape[-len(shape):] == shape
        for idx in np.ndindex(shape):
            one = fn(*(complex(p[idx]) for p in points))
            for row, want in zip(rows, one if isinstance(got, tuple) else (one,)):
                assert np.array_equal(row[(Ellipsis,) + idx], want)

    @pytest.mark.parametrize("tau", GUARD_TAUS)
    def test_one_slot_kernels(self, tau):
        ctx = Torus(tau)
        xs = self.mixed_points(ctx)
        for fn in self.ONE_SLOT:
            self.assert_per_point(fn(xs, ctx), lambda x: fn(x, ctx), xs)

    @pytest.mark.parametrize("tau", GUARD_TAUS)
    def test_rho_rows_stack_the_one_row_kernels(self, tau):
        """`_rho_rows` stacks rho and rho_prime bit for bit: on the mixed
        points, and at 0.02i also on 1,100 points, past one _CHUNK pass."""
        ctx = Torus(tau)
        sets = [self.mixed_points(ctx)]
        if tau == 0.02j:
            rng = np.random.default_rng(4)
            n = _CHUNK + 76
            sets.append(rng.uniform(-0.5, 0.5, n) + 1j * tau.imag * rng.uniform(0.05, 0.95, n))
        for xs in sets:
            rows = _rho_rows(xs, ctx)
            assert rows.shape == (2,) + xs.shape
            for row, fn in zip(rows, (rho, rho_prime)):
                assert np.array_equal(row, fn(xs, ctx))

    @pytest.mark.parametrize("tau", GUARD_TAUS)
    def test_eta_at_z_translates(self, tau):
        """eta's removable points (exactly on or 1e-8 from k, l = 0) mixed
        with ordinary ones take the theta'''(0) limit there."""
        ctx = Torus(tau)
        xs = np.concatenate([[0.0, 3.0, -2.0 + 1e-8], self.mixed_points(ctx)[0, :5]])
        got = eta(xs, ctx)
        self.assert_per_point(got, lambda x: eta(x, ctx), xs)
        assert relerr(got[0], theta_derivs(0.0, ctx, 3)[3]) < 1e-15
        assert relerr(got[2], got[0]) < 1e-7

    @pytest.mark.parametrize("tau", GUARD_TAUS)
    def test_two_slot_kernels(self, tau):
        """x and w broadcast against each other; phi's w also takes points
        with |w0| < 3e-5, on Z-translates and on translates with l != 0."""
        ctx = Torus(tau)
        xs = self.mixed_points(ctx)[:1]
        ws = np.array([0.3 - 0.2j * tau.imag, 0.11 + 0.3 * tau])[:, None]
        for fn in self.TWO_SLOTS:
            self.assert_per_point(fn(xs, ws, ctx), lambda x, w: fn(x, w, ctx), xs, ws)
            self.assert_per_point(fn(xs, 0.3 - 0.2j, ctx), lambda x, w: fn(x, w, ctx), xs, 0.3 - 0.2j)
        small = np.array([0.0, 2e-6j, 1.0 + tau + 1e-6, -2.0 * tau + 2e-5 * (0.6 - 0.8j)])
        ws = np.concatenate([ws[:, 0], small])[:, None]
        got = phi(xs, ws, ctx)
        self.assert_per_point(got, lambda x, w: phi(x, w, ctx), xs, ws)
        for x, value in zip(xs[0, :4], got[2]):
            assert relerr(value, -complex(orc.rho_prime(x, tau))) < 1e-12
        for row, w in zip(got[3:], small[1:]):
            for x, value in zip(xs[0, :4], row):
                assert relerr(value, complex(orc.phi(x, w, tau))) < 1e-9

    def test_batches_past_the_elision_size_keep_the_bits(self):
        """Past 16,384 points (256 KiB of complex) numpy computes `a *
        temporary` in place with the operands swapped; every kernel still
        gives the bits of 1,000-point batches."""
        ctx = Torus(0.3 + 0.8j)
        rng = np.random.default_rng(8)
        n = 20000
        xs = rng.uniform(0.05, 0.95, n) + 1j * rng.uniform(0.05, 0.75, n)
        ws = rng.uniform(0.05, 0.95, n) + 1j * rng.uniform(0.05, 0.75, n)
        ws[::7] = rng.integers(-2, 3, len(ws[::7])) + 1e-6 * (1 + 1j)  # phi's small-w branch
        for fn in self.ONE_SLOT + [eta] + self.TWO_SLOTS:
            args = (xs, ws) if fn in self.TWO_SLOTS else (xs,)
            got = fn(*args, ctx)
            parts = [fn(*(a[i:i + 1000] for a in args), ctx) for i in range(0, n, 1000)]
            if not isinstance(got, tuple):
                got, parts = (got,), [(p,) for p in parts]
            for row, want in zip(got, zip(*parts)):
                assert np.array_equal(row, np.concatenate(want, axis=-1))

    def test_ctx_by_keyword(self):
        """Every kernel made public by `_formed` takes ctx (and theta_derivs
        its order) by keyword, with the bits of the positional call."""
        ctx, w = Torus(0.3 + 0.8j), 0.3 + 0.05j
        for x in (0.2, np.array([0.2 + 0.1j, 0.45 - 0.3j])):
            for kernel in [theta, rho, rho_prime, rho_second, eta] + self.TWO_SLOTS:
                args = (x, w) if kernel in self.TWO_SLOTS else (x,)
                want = np.asarray(kernel(*args, ctx)).tobytes()
                assert np.asarray(kernel(*args, ctx=ctx)).tobytes() == want
            assert theta_derivs(x, ctx=ctx, order=2).tobytes() == theta_derivs(x, ctx, 2).tobytes()

    @pytest.mark.parametrize("tau", GUARD_TAUS)
    def test_theta_table_has_the_bits_of_the_kernels(self, tau, theta_jet_calls):
        """Each set of each request of `_theta_table` gets, in its broadcast
        shape, the bits of its points evaluated one at a time, from one jet
        call per order (0, 2 and 3): on repeated arguments, imaginary parts
        of +0.0 and -0.0, phi's order-1 rows read from order 2, eta's
        removable point 0 beside theta'''(0), and sets past one _CHUNK
        pass, broadcast (sigma) or not (rho's rows, eta)."""
        ctx = Torus(tau)
        rng = np.random.default_rng(9)
        sites = np.array([0.3 - 0.2j * tau.imag, 0.11 + 0.3 * tau, 0.3 - 0.2j * tau.imag,
                          complex(0.45, 0.0), complex(0.45, -0.0), -0.3 + 0.2j * tau.imag])
        lams = np.array([0.2 + 0.1j, 0.2 + 0.1j, complex(0.7, 0.0), complex(0.7, -0.0)])[:, None]
        far = rng.uniform(0.05, 0.95, _CHUNK + 76) + 1j * tau.imag * rng.uniform(0.05, 0.95)
        requests = [(_rho_rows, (sites,), (lams,), (sites,), (far,)),
                    (eta, (sites,), (0.0,), (np.array([0.0, complex(-0.0, -0.0), 1.0, 3.0]),),
                     (far[::-1],)),
                    (theta_derivs, (0.0,)),
                    (sigma, (sites, -lams), (far, lams[:2]), (sites[:, None, None], far[:3])),
                    (sigma_jet, (sites, -lams)), (phi, (lams, sites)), (phi, (sites[:2], lams[0]))]
        got = elliptic._theta_table(ctx, *requests)
        assert sorted(order for order, _, _ in theta_jet_calls) == [0, 2, 3]
        for (kernel, *sets), values in zip(requests, got):
            assert len(values) == len(sets)
            for args, value in zip(sets, values):
                points = np.broadcast_arrays(*(np.asarray(a, dtype=complex) for a in args))
                assert value.shape[value.ndim - points[0].ndim:] == points[0].shape
                for idx in np.ndindex(points[0].shape):
                    one = np.asarray(kernel(*(complex(p[idx]) for p in points), ctx))
                    assert value[(Ellipsis,) + idx].tobytes() == one.tobytes()

    def test_theta_table_takes_phi_taylor_and_falls_back_on_faults(self, theta_jet_calls):
        """phi's Taylor branch (w within 3e-5 of Z and of a translate with
        l != 0) runs on the table with the kernels' bits, from one jet call
        per order (0, 2 and 4) and, in the Taylor step, theta'''(0) and
        sigma at the translate.  Where a guard fires, the fault route runs
        the sets in turn and so raises their first exception: here one in
        sigma's x slot, ahead of the RangeError of eta, a later request,
        which the table itself meets first."""
        ctx = Torus(0.3 + 0.8j)
        xs = np.array([0.4 + 0.1j, 0.7 + 0.3j])[:, None]
        ws = np.array([0.3 - 0.2j, 1e-6 + 1e-6j, 2.0 + 2e-6, ctx.tau + 3e-6])
        requests = [(phi, (xs, ws)), (sigma_jet, (ws[:1], 0.2))]
        got = elliptic._theta_table(ctx, *requests)
        assert sorted(order for order, _, _ in theta_jet_calls) == [0, 0, 2, 3, 4]
        for (kernel, args), (value,) in zip(requests, got):
            assert value.tobytes() == np.array(kernel(*args, ctx)).tobytes()
        for bad, error, text in ((1.0 + ctx.tau, PoleError, "sigma (x slot) evaluated"),
                                 (math.nan, RangeError, "x = (nan+0j) is not")):
            with pytest.raises(error, match=re.escape(text)):
                elliptic._theta_table(ctx, (sigma_jet, (ws, 0.2)),
                                      (sigma, (np.array([0.3, bad]), 0.2)),
                                      (eta, (np.array([0.1, 1e9]),)))

    def test_errors_name_the_first_offending_point(self):
        """In a mixed array the PoleError of each guard names the first
        point within tol_pole of the lattice, and eta's the first pole."""
        ctx = Torus(0.3 + 0.8j)
        good = np.array([0.2 + 0.1j, 0.4 - 0.2j])
        first, second = 1.0 + ctx.tau + 1e-12, -2.0 + 1e-12j
        (first_reduced,), _, _ = _splits(np.array([first]), ctx.tau)
        bad = np.array([good[0], first, good[1], second])
        text = "%s evaluated within tol_pole of the lattice (x=%r)"
        for name, fn, x in (
                ("rho", rho, first), ("rho_prime", rho_prime, first),
                ("rho_second", rho_second, first),
                ("rho", _rho_rows, first),
                ("sigma (x slot)", lambda b, c: sigma(b, 0.3, c), first),
                ("sigma (w slot)", lambda b, c: sigma(0.3, b, c), first),
                ("sigma_jet (x slot)", lambda b, c: sigma_jet(b, 0.3, c), first),
                ("sigma_jet (w slot)", lambda b, c: sigma_jet(0.3, b, c), first),
                ("phi (x slot)", lambda b, c: phi(b, 0.3, c), first),
                ("sigma (x slot)", lambda b, c: phi(0.3, b, c), complex(first_reduced))):
            with pytest.raises(PoleError) as info:
                fn(bad, ctx)
            assert str(info.value) == text % (name, x)
        # past the first _CHUNK pass too
        long = np.concatenate([np.full(_CHUNK + 5, good[0]), [good[1], second, first]])
        with pytest.raises(PoleError) as info:
            _rho_rows(long, ctx)
        assert str(info.value) == text % ("rho", second)
        with pytest.raises(PoleError) as info:
            eta(np.array([2.0, first, second]), ctx)
        assert str(info.value) == ("eta pole at x = %r (lattice translate with l != 0)"
                                   % (first,))

    def test_table_faults_raise_by_set_then_by_slot(self):
        """Of several faults the theta table raises the first by set, then
        by slot: sigma's first set, with a bad w, before its second, with a
        bad x; and phi meeting sigma's pole in its Taylor step before the
        RangeError of a later request."""
        ctx = Torus(0.3 + 0.8j)
        bad_w, bad_x = 1.0 + ctx.tau + 1e-12, -2.0 + 1e-12j
        (w0,), _, _ = _splits(np.array([bad_w]), ctx.tau)
        text = "%s evaluated within tol_pole of the lattice (x=%r)"
        for requests, name, x in (
                ([(sigma, (0.3, np.array([0.2, bad_w])), (np.array([bad_x]), 0.3))],
                 "sigma (w slot)", bad_w),
                ([(phi, (0.3, np.array([0.2, bad_w]))), (eta, (np.array([0.1, 1e9]),))],
                 "sigma (x slot)", complex(w0))):
            with pytest.raises(PoleError) as info:
                elliptic._theta_table(ctx, *requests)
            assert str(info.value) == text % (name, x)

    def test_table_shares_one_jet_per_distinct_slot(self, theta_jet_calls):
        """One array asked for at orders 0 (theta) and 3 (theta_derivs), and
        at 1 (rho) beside 2 (_rho_rows), is evaluated once at its highest
        order, and every request gets the bits of its lone call; an array
        of the same values with -0.0 in place of +0.0 stays a slot of its own."""
        ctx = Torus(0.3 + 0.8j)
        p = np.array([0.2 + 0.1j, 0.45 - 0.3j, complex(0.7, 0.0)])
        q = np.array([0.2 + 0.1j, 0.45 - 0.3j, complex(0.7, -0.0)])
        requests = [(theta, (p,), (q,)), (theta_derivs, (p,)), (rho, (p,)), (_rho_rows, (p,))]
        got = elliptic._theta_table(ctx, *requests)
        assert sorted(theta_jet_calls) == [(0, 3, False), (3, 3, False)]
        for (kernel, *sets), values in zip(requests, got):
            for (x,), value in zip(sets, values):
                assert value.tobytes() == np.asarray(kernel(x, ctx)).tobytes()

    def test_a_shared_slot_is_guarded_where_any_request_guards_it(self):
        """theta's unguarded slot and _rho_rows' slot guarded as rho, at one
        array with a point within tol_pole of the lattice: in either request
        order the table raises rho's PoleError at that point, as the fault
        route runs the sets by set and then by slot; without that point
        both get the bits of their lone calls."""
        ctx = Torus(0.3 + 0.8j)
        bad = 1.0 + ctx.tau + 1e-12
        p = np.array([0.2 + 0.1j, bad, 0.4 - 0.2j])
        text = "rho evaluated within tol_pole of the lattice (x=%r)" % (bad,)
        for requests in ([(theta, (p,)), (_rho_rows, (p,))], [(_rho_rows, (p,)), (theta, (p,))]):
            with pytest.raises(PoleError) as info:
                elliptic._theta_table(ctx, *requests)
            assert str(info.value) == text
        good = p[[0, 2]]
        (th,), (rows,) = elliptic._theta_table(ctx, (theta, (good,)), (_rho_rows, (good,)))
        assert th.tobytes() == theta(good, ctx).tobytes()
        assert rows.tobytes() == _rho_rows(good, ctx).tobytes()

    def test_kernels_cannot_write_into_their_jets(self):
        """The jets the table hands out are read-only, those read in place
        and those gathered onto a broadcast grid alike, so a kernel that
        writes into one raises ValueError instead of changing the jet of
        another slot at the same points."""

        @elliptic._formed
        def scribble(x, w, ctx):
            d, _ = yield [(x, 0, None), (w, 0, None)]
            d[0] = 0.0
            return d[0]

        ctx = Torus(1j)
        x = np.array([0.2 + 0.1j, 0.45 - 0.3j, 0.7 + 0.2j])
        for w in (x, x[:2, None]):
            with pytest.raises(ValueError, match="read-only"):
                elliptic._theta_table(ctx, (scribble, (x, w)), (theta, (x,)))
