"""High-precision reference values for the theta-function layer.

Everything here is computed with mpmath at 50 significant digits by direct
summation of the sine series

    theta_1(x, tau) = 2 * sum_{n>=0} (-1)^n e^{pi i tau (n+1/2)^2} sin((2n+1) pi x)

and term-wise differentiation, independently of the product-formula code in
the package.  ``mpmath.jtheta`` (a third implementation) is used as a sanity
cross-check in test_oracles.py.

The normalized function is theta(x, tau) = theta_1(x, tau) / theta_1'(0, tau),
so theta'(0, tau) = 1.

`lattice_distances_3x3` is the reference of the distance kernel in double
precision: the full search over the 3x3 neighbours of a reduced argument.
"""

import mpmath as mp
import numpy as np

from ellbethe.elliptic import _reduce

mp.mp.dps = 50

_MAX_TERMS = 300


def _term_tail_small(term, acc):
    return abs(term) < mp.mpf("1e-60") * (abs(acc) + mp.mpf("1e-30"))


def theta1_series(x, tau, order=0):
    """d^order/dx^order of theta_1(x, tau) by direct term-wise summation."""
    x = mp.mpmathify(x)
    tau = mp.mpmathify(tau)
    half = mp.mpf(1) / 2
    shift = order * mp.pi / 2
    acc = mp.mpc(0)
    for n in range(_MAX_TERMS):
        a = (2 * n + 1) * mp.pi
        term = 2 * (-1) ** n * mp.exp(mp.pi * 1j * tau * (n + half) ** 2) \
            * a ** order * mp.sin(a * x + shift)
        acc += term
        if n > 2 and _term_tail_small(term, acc):
            break
    return acc


def theta1_dtau(x, tau, order=0):
    """d/dtau d^order/dx^order theta_1(x, tau), term-wise in the series."""
    x = mp.mpmathify(x)
    tau = mp.mpmathify(tau)
    half = mp.mpf(1) / 2
    shift = order * mp.pi / 2
    acc = mp.mpc(0)
    for n in range(_MAX_TERMS):
        a = (2 * n + 1) * mp.pi
        term = 2 * (-1) ** n * (mp.pi * 1j * (n + half) ** 2) \
            * mp.exp(mp.pi * 1j * tau * (n + half) ** 2) * a ** order * mp.sin(a * x + shift)
        acc += term
        if n > 2 and _term_tail_small(term, acc):
            break
    return acc


def theta(x, tau, order=0):
    """d^order/dx^order of the normalized theta(x, tau)."""
    return theta1_series(x, tau, order) / theta1_series(0, tau, 1)


def theta_dtau(x, tau):
    """d/dtau of the normalized theta(x, tau) at fixed x, by the quotient
    rule from the term-wise tau-derivatives of theta_1(x) and theta_1'(0)."""
    norm = theta1_series(0, tau, 1)
    return (theta1_dtau(x, tau) * norm
            - theta1_series(x, tau) * theta1_dtau(0, tau, 1)) / norm ** 2


def rho(x, tau):
    return theta(x, tau, 1) / theta(x, tau)


def rho_prime(x, tau):
    t0, t1, t2 = (theta(x, tau, k) for k in range(3))
    return t2 / t0 - (t1 / t0) ** 2


def rho_second(x, tau):
    t0, t1, t2, t3 = (theta(x, tau, k) for k in range(4))
    r = t1 / t0
    rp = t2 / t0 - r ** 2
    return t3 / t0 - r * t2 / t0 - 2 * r * rp


def sigma(x, w, tau):
    x, w = mp.mpmathify(x), mp.mpmathify(w)
    return theta(x + w, tau) / (theta(x, tau) * theta(w, tau))


def phi(x, w, tau):
    # promote before subtracting: double-precision x - w would perturb the
    # argument by ~1e-17, which sigma ~ 1/w amplifies for small w
    x, w = mp.mpmathify(x), mp.mpmathify(w)
    return sigma(w, -x, tau) * (rho(x - w, tau) - rho(x, tau))


def eta(x, tau):
    return rho(x, tau) ** 2 + rho_prime(x, tau)


def theta_poly(x, scale, mu, roots, tau):
    """c * e^{2 pi i mu x} * prod theta(x - t_j)."""
    val = mp.mpmathify(scale) * mp.exp(2j * mp.pi * mu * x)
    for t in roots:
        val *= theta(x - t, tau)
    return val


_NEIGHBOURS = np.array([-1.0, 0.0, 1.0])


def lattice_distances_3x3(xs, ctx):
    """Distance from x to Z + tau Z at every point of xs by the search over
    all 3x3 neighbours k + l tau' (k, l in {-1, 0, 1}) of the argument u0
    reduced on the basis (1, tau') of Z + tau Z = (c tau + d)(Z + tau' Z)."""
    j, tau_r = ctx._j, ctx.tau_reduced
    xs = np.asarray(xs, dtype=complex)
    u0 = _reduce(xs.ravel() / j, tau_r)[0]
    rows = u0[:, None] - _NEIGHBOURS * tau_r
    return (abs(j) * np.abs(rows[..., None] - _NEIGHBOURS).min(axis=(1, 2))).reshape(xs.shape)
