"""Self-checks of the high-precision reference implementation in oracles.py.

The oracle is a direct 50-digit mpmath summation of the theta series; before
using it as ground truth elsewhere it is validated against mpmath's own
independent jtheta implementation and against structural facts (normalization,
heat equation, equality of the sine-product and q-product forms).
"""

import mpmath as mp
import pytest

import oracles as orc

TAUS = [mp.mpc(0, 1), mp.mpc(0, 2), mp.mpc(0.3, 0.8)]


class TestAgainstJtheta:
    def test_theta1_matches_jtheta(self):
        """theta_1(x,tau) = jtheta(1, pi x, q) for several x, tau, orders 0..2."""
        for tau in TAUS:
            q = mp.exp(1j * mp.pi * tau)  # jtheta nome convention
            for x in (mp.mpc(0.3, 0.1), mp.mpc(-0.45, 0.2), mp.mpc(0.17)):
                for r in range(3):
                    ours = orc.theta1_series(x, tau, r)
                    ref = mp.jtheta(1, mp.pi * x, q, derivative=r) * mp.pi ** r
                    assert abs(ours - ref) <= 1e-40 * max(1, abs(ref))


class TestStructure:
    def test_normalization(self):
        """theta'(0, tau) = 1 exactly by construction."""
        for tau in TAUS:
            assert abs(orc.theta(0, tau, 1) - 1) < 1e-45

    def test_heat_equation(self):
        """4 pi i d/dtau theta_1 = theta_1'' (for the unnormalized function)."""
        for tau in TAUS:
            for x in (mp.mpc(0.23, 0.11), mp.mpc(-0.4, 0.35)):
                lhs = 4j * mp.pi * orc.theta1_dtau(x, tau)
                rhs = orc.theta1_series(x, tau, 2)
                assert abs(lhs - rhs) < 1e-40 * max(1, abs(rhs))

    def test_normalized_heat_equation(self):
        """4 pi i d/dtau theta = theta'' - theta'''(0) theta for theta_dtau,
        the quotient rule over term-wise tau-derivatives."""
        for tau in TAUS:
            third = orc.theta(0, tau, 3)
            for x in (mp.mpc(0.23, 0.11), mp.mpc(-0.4, 0.35)):
                lhs = 4j * mp.pi * orc.theta_dtau(x, tau)
                rhs = orc.theta(x, tau, 2) - third * orc.theta(x, tau)
                assert abs(lhs - rhs) < 1e-40 * max(1, abs(rhs))

    def test_product_form_agrees_with_series(self):
        """sin(pi x)/pi * prod (1-q^n z)(1-q^n/z)/(1-q^n)^2 equals the series."""
        for tau in TAUS:
            q = mp.exp(2j * mp.pi * tau)
            for x in (mp.mpc(0.3, 0.1), mp.mpc(-0.28, -0.22)):
                z = mp.exp(2j * mp.pi * x)
                prod = mp.sin(mp.pi * x) / mp.pi
                for n in range(1, 80):
                    prod *= (1 - q ** n * z) * (1 - q ** n / z) / (1 - q ** n) ** 2
                ser = orc.theta(x, tau)
                assert abs(prod - ser) < 1e-40 * max(1, abs(ser))

    def test_eta_consistency(self):
        """eta = rho^2 + rho' equals theta''/theta."""
        tau = mp.mpc(0, 1)
        x = mp.mpc(0.37, 0.21)
        direct = orc.theta(x, tau, 2) / orc.theta(x, tau)
        assert abs(orc.eta(x, tau) - direct) < 1e-40 * abs(direct)


@pytest.mark.parametrize("tau", TAUS)
def test_quasi_periodicity(tau):
    """theta(x + k + l tau) = (-1)^{k+l} e^{-pi i l^2 tau - 2 pi i l x} theta(x)."""
    x = mp.mpc(0.21, 0.13)
    base = orc.theta(x, tau)
    for k, l in ((1, 0), (0, 1), (-1, 2), (2, -1)):
        mult = (-1) ** (k + l) * mp.exp(-1j * mp.pi * l ** 2 * tau - 2j * mp.pi * l * x)
        shifted = orc.theta(x + k + l * tau, tau)
        assert abs(shifted - mult * base) < 1e-38 * max(1, abs(shifted))
