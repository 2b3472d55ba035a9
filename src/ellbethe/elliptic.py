"""Normalized Jacobi theta function and the derived elliptic kernels.

The basic object is the odd entire function

    theta(x, tau) = theta_1(x, tau) / theta_1'(0, tau),
    theta_1(x, tau) = 2 sum_{n>=0} (-1)^n e^{pi i tau (n+1/2)^2} sin((2n+1) pi x),

normalized so that theta'(0, tau) = 1.  It obeys

    theta(x + k + l*tau) = (-1)^{k+l} e^{-pi i l^2 tau - 2 pi i l x} theta(x).

From it we build the kernels that appear as coefficients of the KZB and
transfer-matrix operators:

    rho(x)      = theta'(x)/theta(x)            (odd, rho(x+l*tau) = rho(x) - 2 pi i l)
    sigma(x, w) = theta(x+w)/(theta(x) theta(w))   (sigma_jet adds d/dw, d^2/dw^2)
    phi(x, w)   = d/dx sigma(w, -x) = sigma(w,-x)(rho(x-w) - rho(x))
    eta(x)      = rho(x)^2 + rho'(x) = theta''(x)/theta(x)

rho, rho_prime, rho_second, sigma and sigma_jet raise PoleError within
tol_pole of the lattice; the test is made by the theta jet that evaluates
the argument, on the reduction it computes anyway.

Values are double precision.  Each `Torus` maps tau once into the SL2(Z)
fundamental domain (DLMF 20.7(viii)), tau' = (a tau + b)/(c tau + d), where
at most five series terms suffice, and theta is evaluated through

    theta(x, tau) = (c tau + d) e^{-pi i c x^2/(c tau + d)} theta(x/(c tau + d), tau'),

with the lattice multipliers and the automorphy factor in one exponent, so
small Im tau and far lattice translates neither overflow nor lose digits.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

TWOPI_I = 2j * math.pi

# largest |l| we accept before declaring the argument out of range: the
# reassembled multiplier exp(-pi i l^2 tau) would overflow double precision
# long before this, so the guard exists to fail loudly rather than return inf.
_MAX_LATTICE_SHIFT = 10 ** 6

# On the reduced cell (|Im u| <= Im tau'/2) series row n is at most e^{-pi Im(tau')
# n^2} times row 0, times (2n+1)^4 up to order 4 and d/dtau.  A Torus keeps the
# rows n >= 1 while that bound is >= _ROW_CUTOFF: 4 rows at tau' = i, 3 at 2i,
# 1 at 50i, and at most 5, as Im tau' >= sqrt(3)/2 in the fundamental domain.
_ROW_CUTOFF = 1e-17

# lattice_distances steps to the 3x3 neighbours of a reduced argument
_NEIGHBOURS = np.array([-1.0, 0.0, 1.0])

# past this real part e^z overflows a double, and cmath.exp raises
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


class PoleError(ArithmeticError):
    """Evaluation requested within tol_pole of a pole of the expression."""


class RangeError(ValueError):
    """Argument so far from the fundamental cell that reduction is meaningless."""


@dataclass(frozen=True)
class Torus:
    """Immutable evaluation context for the modular parameter tau (Im tau > 0).

    tau is reduced once by T-shifts and S: tau -> -1/tau (taken only while
    |tau| < 1, so tau = i stays put) to `tau_reduced` = (a tau + b)/(c tau +
    d), |Re| <= 1/2 and |.| >= 1, with `cd` = (c, d).  `amplitudes` has one
    row per series term kept, the common factor e^{pi i tau'/4} left out so that
    the first never underflows: (2n+1) pi, the phase 2 (-1)^n e^{pi i
    Re(tau') n(n+1)}, the log-modulus -pi Im(tau') n(n+1), and pi i n(n+1).
    """

    tau: complex
    tau_reduced: complex = field(init=False, repr=False, compare=False)
    cd: tuple = field(init=False, repr=False, compare=False)
    amplitudes: tuple = field(init=False, repr=False, compare=False)
    # c tau + d; e^{-pi i tau'/4} theta_1'(0, tau'), theta_1'(0, tau), their log d/dtau
    _j: complex = field(init=False, repr=False, compare=False)
    _norm: complex = field(init=False, repr=False, compare=False)
    _dlog_norm: complex = field(init=False, repr=False, compare=False)
    _theta1_norm: complex = field(init=False, repr=False, compare=False)
    _dlog_theta1_norm: complex = field(init=False, repr=False, compare=False)
    # the amplitude table as (rows, 1) columns (n, a, phase, log-modulus) for _theta_jets
    _columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if not (tau.imag > 0):
            raise ValueError("tau must satisfy Im(tau) > 0, got %r" % (tau,))
        # theta_1'(0, tau) = e^{pi i eighths/4} scale theta_1'(0, t), where
        # t -> t - n carries e^{pi i n/4} and t -> -1/t carries (-i t)^{-3/2}
        # (DLMF 20.7.30); t is recomputed from the matrix, so no drift.
        a, b, c, d, eighths, scale = 1, 0, 0, 1, 0, 1.0 + 0j
        while True:
            n = round(((a * tau + b) / (c * tau + d)).real)
            a, b, eighths = a - n * c, b - n * d, eighths + n
            t = (a * tau + b) / (c * tau + d)
            if abs(t) >= 1.0:
                break
            scale /= (-1j * t) ** 1.5
            a, b, c, d = -c, -d, a, b
        rows = 1
        while (2 * rows + 1) ** 4 * math.exp(-math.pi * t.imag * rows * rows) >= _ROW_CUTOFF:
            rows += 1
        amps = tuple(((2 * n + 1) * math.pi,
                      (-2.0 if n % 2 else 2.0) * cmath.exp(1j * math.pi * t.real * n * (n + 1)),
                      -math.pi * t.imag * n * (n + 1), 1j * math.pi * n * (n + 1))
                     for n in range(rows))
        norm = sum(p * math.exp(e) * a_n for a_n, p, e, _ in amps)
        j = c * tau + d
        # dtau'/dtau = 1/j^2; theta_1'(0, tau)/theta_1'(0, tau') ~ j^{-3/2}
        dlog_norm = sum(w * p * math.exp(e) * a_n for a_n, p, e, w in amps) / (norm * j * j)
        for name, value in (
                ("tau", tau), ("tau_reduced", t), ("cd", (c, d)), ("amplitudes", amps),
                ("_j", j), ("_norm", norm), ("_dlog_norm", dlog_norm),
                ("_theta1_norm", cmath.exp(0.25j * math.pi * (eighths % 8 + t)) * scale * norm),
                ("_dlog_theta1_norm", dlog_norm + 0.25j * math.pi / (j * j) - 1.5 * c / j),
                ("_columns", (np.arange(rows).reshape(-1, 1),)
                 + tuple(np.array(col).reshape(-1, 1) for col in list(zip(*amps))[:3]))):
            object.__setattr__(self, name, value)

    @property
    def cell_diagonal(self) -> float:
        """Diagonal length of the fundamental cell spanned by 1 and tau."""
        return abs(1.0 + self.tau)

    @property
    def tol_pole(self) -> float:
        """Absolute pole-guard distance: 1e-10 of the cell diagonal."""
        return 1e-10 * self.cell_diagonal


@dataclass(frozen=True)
class LatticePoint:
    """Exact lattice vector k + l*tau."""

    k: int
    l: int

    def value(self, ctx: Torus) -> complex:
        return self.k + self.l * ctx.tau


def _split(x: complex, tau: complex) -> tuple[complex, int, int]:
    l = round(x.imag / tau.imag)
    if abs(l) > _MAX_LATTICE_SHIFT:
        raise RangeError("Im(x)/Im(tau) = %g exceeds the supported range" % (x.imag / tau.imag))
    y = x - l * tau
    k = round(y.real)
    if abs(k) > _MAX_LATTICE_SHIFT:
        raise RangeError("Re(x) = %g exceeds the supported range" % (x.real,))
    return y - k, int(k), int(l)


def _splits(xs: np.ndarray, tau: complex) -> tuple:
    """_split on every point of a complex array, k and l as float arrays.

    A point out of range is passed to `_split`, so the first one raises
    RangeError with the scalar text."""
    l = np.rint(xs.imag / tau.imag)
    y = xs - l * tau
    k = np.rint(y.real)
    # written so that NaN fails too
    if not (np.abs(l).max(initial=0.0) <= _MAX_LATTICE_SHIFT
            and np.abs(k).max(initial=0.0) <= _MAX_LATTICE_SHIFT):
        bad = ~((np.abs(l) <= _MAX_LATTICE_SHIFT) & (np.abs(k) <= _MAX_LATTICE_SHIFT))
        x = complex(xs.flat[np.argmax(bad)])
        _split(x, tau)
        raise RangeError("x = %r exceeds the supported range" % (x,))
    return y - k, k, l


def reduce_argument(x: complex, ctx: Torus) -> tuple[complex, LatticePoint]:
    """Split x = x0 + (k + l*tau) with |Im x0| <= Im(tau)/2, |Re x0| <= 1/2."""
    x0, k, l = _split(complex(x), ctx.tau)
    return x0, LatticePoint(k, l)


def lattice_distance(x: complex, ctx: Torus) -> float:
    """Distance from x to the lattice Z + tau*Z.

    Z + tau Z = (c tau + d)(Z + tau' Z), and on the reduced basis (1, tau')
    the nearest lattice point to a reduced argument is one of its 3x3
    neighbours, so the search is exact however skewed tau is.
    """
    j, tau_r = ctx._j, ctx.tau_reduced
    u0, _, _ = _split(complex(x) / j, tau_r)
    best = abs(u0)
    for dl in (-1, 0, 1):
        row = u0 - dl * tau_r
        for dk in (-1, 0, 1):
            dist = abs(row - dk)
            if dist < best:
                best = dist
    return abs(j) * best


def lattice_distances(xs, ctx: Torus) -> np.ndarray:
    """lattice_distance at every point of an array, in one pass: the same
    reduction and 3x3 neighbour search, so the values differ from the
    scalar ones only by rounding in the modulus (within 1e-15)."""
    j, tau_r = ctx._j, ctx.tau_reduced
    u0 = _splits(np.asarray(xs, dtype=complex) / j, tau_r)[0]
    rows = u0[..., None] - _NEIGHBOURS * tau_r
    return abs(j) * np.abs(rows[..., None] - _NEIGHBOURS).min(axis=(-2, -1))


def _theta_jet(x: complex, ctx: Torus, order: int, dtau: bool = False, pole: str = None):
    """([theta, theta', ..., theta^(order)], d/dtau theta or None) at (x, tau).

    The only theta evaluator.  x = x0 + k0 + l0 tau is reduced on the tau
    lattice first (so the zero in reach sits at x0 = 0, subtracted exactly),
    then with j = c tau + d and x0/j = u0 + k + l tau',

        theta(x, tau) = j (-1)^{k0+l0+k+l} e^{P(x)} S(u0) / S'(0),
        P = -pi i (l0^2 tau + 2 l0 x0 + c x0^2/j + l^2 tau' + 2 l u0),

    S the sine series at tau'.  P' = -2 pi i W/j with W = c x0 + l + l0 j,
    P'' = -2 pi i c/j, and H_{r+1}(q) = q H_r + r P'' H_{r-1}.  Every sum is
    scaled by e^{-pi |Im u0|}, which joins P, so no term overflows.  Order
    r >= 1 differentiates each e^{P +- i a u0} as a whole, so the opposite
    slopes of the Gaussian and of the dominant exponential near a cusp
    cancel inside one exponent, not in a Leibniz sum; near u0 = 0 it sums
    the parts even and odd in i a/j instead, so every order keeps its
    relative accuracy at the zero.  d/dtau at fixed x is the term-wise
    tau'-derivative of S carried by the chain rule: dtau'/dtau = 1/j^2,
    du0/dtau = -W/j^2 and dP/dtau = pi i W^2/j^2.

    It is also the kernels' pole guard: a kernel passes its name as `pole`,
    and PoleError is raised when |j u0| < tol_pole.  u0 lies in the reduced
    box and every nonzero point of Z + tau' Z is at least sqrt(3)/4 from it,
    so this is the test lattice_distance(x) < tol_pole whenever the
    shortest period |j| is at least 4 tol_pole/sqrt(3).
    """
    c, j, tau, tau_r = ctx.cd[0], ctx._j, ctx.tau, ctx.tau_reduced
    x0, k0, l0 = _split(complex(x), tau)
    u0, k, l = _split(x0 / j, tau_r)
    if pole is not None and abs(j * u0) < ctx.tol_pole:
        raise PoleError("%s evaluated within tol_pole of the lattice (x=%r)" % (pole, x))
    v = abs(u0.imag)
    # e^{i a Re u0} and expm1(-2 a v), a = (2n+1) pi, stepped in n: both
    # recurrences add same-signed parts, so no digits cancel as u0 -> 0
    z = complex(math.cos(math.pi * u0.real), math.sin(math.pi * u0.real))
    z2 = z * z
    em, em2 = math.expm1(-2.0 * math.pi * v), math.expm1(-4.0 * math.pi * v)
    wt = c * x0 + l + l0 * j
    kappa = -1j * math.pi / j
    big_a, p2 = 2.0 * kappa * wt, 2.0 * kappa * c
    value = s_x = s_tau = 0j
    derivs = [0j] * (order + 1)
    # within 0.05 of u0 = 0 the exponential form loses ~eps/|u0| of even orders
    up, balanced = u0.imag >= 0, abs(u0) < 0.05
    step, half, ratio = 2.0 * math.pi * v, (-0.5 if up else 0.5), 1.0 + em2
    for n, (a, phase, loga, w) in enumerate(ctx.amplitudes):
        amp = phase * math.exp(loga + n * step)
        ch, sh = 1.0 + 0.5 * em, half * em
        s = complex(z.imag * ch, z.real * sh)          # e^{-a v} sin(a u0)
        value += amp * s
        if dtau:
            s_tau += w * amp * s
            s_x += a * amp * complex(z.real * ch, -z.imag * sh)
        if order:
            # d^r/dx^r e^{P +- i a u0} = H_r(A +- B) e^{...}, A = P', B = i a/j
            big_b = -kappa * (2 * n + 1)
            if balanced:
                # H(A +- B) = E +- O: sum 2i sin E_r + 2 cos O_r, both exact in A
                f1, f2 = 2j * amp * s, 2.0 * amp * complex(z.real * ch, -z.imag * sh)
                x, y, xp, yp = 1.0, 0.0, 0.0, 0.0
                for r in range(order):
                    x, y, xp, yp = (big_a * x + big_b * y + r * p2 * xp,
                                    big_b * x + big_a * y + r * p2 * yp, x, y)
                    derivs[r + 1] += f1 * x + f2 * y
            else:
                f1 = amp * z * (1.0 + em if up else 1.0)
                f2 = -amp * z.conjugate() * (1.0 if up else 1.0 + em)
                qp, qm = big_a + big_b, big_a - big_b
                x, y, xp, yp = 1.0, 1.0, 0.0, 0.0
                for r in range(order):
                    x, y, xp, yp = qp * x + r * p2 * xp, qm * y + r * p2 * yp, x, y
                    derivs[r + 1] += f1 * x + f2 * y
        z *= z2
        em = em * ratio + em2
    sign = -1.0 if (k0 + l0 + k + l) % 2 else 1.0
    g = sign * j / ctx._norm * cmath.exp(
        -1j * math.pi * (l0 * l0 * tau + c * x0 * x0 / j + l * l * tau_r)
        - TWOPI_I * (l0 * x0 + l * u0) + math.pi * v)
    out = [g * value] + [-0.5j * g * derivs[r] for r in range(1, order + 1)]
    if not dtau:
        return out, None
    return out, (out[0] * (c / j + 1j * math.pi * wt * wt / (j * j) - ctx._dlog_norm)
                 + g * (s_tau - wt * s_x) / (j * j))


def _theta_jets(xs, ctx: Torus, order: int, pole: str = None) -> np.ndarray:
    """[theta, theta', ..., theta^(order)] at every point of an array xs,
    as one (order + 1, *xs.shape) array: `_theta_jet` for orders 0..4
    without d/dtau, one pass over all points.

    The same reduction, series and pole guard as the scalar jet, with the
    points on one array axis and the series rows on another; the balanced
    and up/down branches are masks that pick each point's coefficients for
    one shared recursion.  Where `_theta_jet` steps e^{i a Re u0} and
    expm1(-2 a v) from row to row, this takes them directly, so the two
    agree to rounding (within 1e-13 relative), not bit for bit.  RangeError
    and PoleError carry the scalar texts and name the first offending x;
    RangeError is tested on all points before PoleError.  Where the scalar
    jet's exponential overflows, this raises the same OverflowError.

    Callers with many points per call use this one (the Bethe equations,
    theta polynomials on sample points); one-point callers keep the scalar
    `_theta_jet`, since a numpy call costs several scalar evaluations.
    """
    shape = np.shape(xs)
    xs = np.asarray(xs, dtype=complex).ravel()
    c, j, tau, tau_r = ctx.cd[0], ctx._j, ctx.tau, ctx.tau_reduced
    x0, k0, l0 = _splits(xs, tau)
    u0, k, l = _splits(x0 / j, tau_r)
    if pole is not None:
        near = np.abs(j * u0) < ctx.tol_pole
        if near.any():
            raise PoleError("%s evaluated within tol_pole of the lattice (x=%r)"
                            % (pole, complex(xs[np.argmax(near)])))
    n, a, phase, loga = ctx._columns
    v = np.abs(u0.imag)
    up = u0.imag >= 0
    # per row n and point: e^{i a Re u0}, expm1(-2 a v), e^{-a v} sin(a u0);
    # masks enter as 0/1 factors, which select exactly
    z = np.exp(1j * (a * u0.real))
    em = np.expm1(-2.0 * a * v)
    amp = phase * np.exp(loga + (2.0 * math.pi) * n * v)
    ch, sh = 1.0 + 0.5 * em, (0.5 - up) * em
    amp_s = amp * (z.imag * ch + 1j * (z.real * sh))
    out = np.empty((order + 1, len(xs)), dtype=complex)
    out[0] = amp_s.sum(axis=0)
    if order:
        # the scalar loop's two recursions as one: x' = alpha x + beta y
        # + r P'' x_prev, y' = beta x + alpha2 y + r P'' y_prev, with
        # (alpha, alpha2, beta) = (A, A, B) balanced, (A + B, A - B, 0)
        # not; P'' = 2 kappa c vanishes on tori with c = 0
        kappa = -1j * math.pi / j
        big_a = 2.0 * kappa * (c * x0 + l + l0 * j)
        big_b = -kappa * (2 * n + 1)
        p2 = 2.0 * kappa * c
        balanced = np.abs(u0) < 0.05
        steep = ~balanced * big_b
        alpha, alpha2, beta = big_a + steep, big_a - steep, balanced * big_b
        zc = z.real * ch - 1j * (z.imag * sh)
        f1 = np.where(balanced, 2j * amp_s, amp * z * (1.0 + up * em))
        f2 = np.where(balanced, 2.0 * amp * zc, -amp * z.conj() * (1.0 + ~up * em))
        x, y, xp, yp = 1.0, ~balanced, 0.0, 0.0
        for r in range(order):
            nx, ny = alpha * x + beta * y, beta * x + alpha2 * y
            if r and c:
                nx, ny = nx + r * p2 * xp, ny + r * p2 * yp
            x, y, xp, yp = nx, ny, x, y
            out[r + 1] = (f1 * x + f2 * y).sum(axis=0)
    sign = 1.0 - 2.0 * ((k0 + l0 + k + l) % 2)
    # P = -pi i expo, the scalar jet's exponent regrouped
    expo = l0 * (l0 * tau + 2.0 * x0) + l * (l * tau_r + 2.0 * u0)
    if c:
        expo += c * x0 * x0 / j
    g = sign * j / ctx._norm * _exp(math.pi * v - 1j * math.pi * expo)
    out[0] *= g
    out[1:] *= -0.5j * g
    return out.reshape((order + 1,) + shape)


def _exp(z: np.ndarray) -> np.ndarray:
    """np.exp that raises OverflowError, as cmath.exp does in the scalar
    code, where a real part passes the log of the largest double (up to
    the last 0.35, where cmath's verdict also depends on the phase),
    instead of returning inf and NaN."""
    if z.real.max(initial=-math.inf) > _LOG_DOUBLE_MAX:
        raise OverflowError("math range error")
    return np.exp(z)


def theta(x: complex, ctx: Torus) -> complex:
    """Normalized theta at any (sane) x."""
    return _theta_jet(x, ctx, 0)[0][0]


def theta_derivs(x: complex, ctx: Torus, order: int = 3) -> list[complex]:
    """[theta, theta', ...] up to `order` <= 4."""
    if order not in (0, 1, 2, 3, 4):
        raise ValueError("order must be 0..4")
    return _theta_jet(x, ctx, order)[0]


def theta1(x: complex, ctx: Torus) -> complex:
    """Unnormalized theta_1(x, tau) (the function obeying the heat equation)."""
    return ctx._theta1_norm * theta(x, ctx)


def theta1_derivs(x: complex, ctx: Torus, order: int = 2) -> list[complex]:
    """[theta_1, theta_1', ...] up to `order`."""
    return [ctx._theta1_norm * t for t in _theta_jet(x, ctx, order)[0]]


def theta1_dtau(x: complex, ctx: Torus) -> complex:
    """d/dtau theta_1(x, tau) at fixed x, from the term-wise tau-derivative
    of the series, so the heat equation stays an independent check."""
    (t,), dt = _theta_jet(x, ctx, 0, dtau=True)
    return ctx._theta1_norm * (dt + t * ctx._dlog_theta1_norm)


def theta_dtau(x: complex, ctx: Torus) -> complex:
    """d/dtau of the normalized theta = theta_1 / theta_1'(0)."""
    return _theta_jet(x, ctx, 0, dtau=True)[1]


def rho(x: complex, ctx: Torus) -> complex:
    """Logarithmic derivative theta'/theta."""
    d = _theta_jet(x, ctx, 1, pole="rho")[0]
    return d[1] / d[0]


def rho_prime(x: complex, ctx: Torus) -> complex:
    """rho'(x) = theta''/theta - rho^2 (doubly periodic)."""
    d = _theta_jet(x, ctx, 2, pole="rho_prime")[0]
    r = d[1] / d[0]
    return d[2] / d[0] - r * r


def rho_second(x: complex, ctx: Torus) -> complex:
    """rho''(x), from the order-3 derivative stack."""
    d = _theta_jet(x, ctx, 3, pole="rho_second")[0]
    u1, u2, u3 = d[1] / d[0], d[2] / d[0], d[3] / d[0]
    return u3 - 3.0 * u1 * u2 + 2.0 * u1 ** 3


def _rho_third(x: complex, ctx: Torus) -> complex:
    # needed only by the small-w Taylor branch of phi
    d = theta_derivs(x, ctx, 4)
    u1, u2, u3, u4 = (d[r] / d[0] for r in range(1, 5))
    return u4 - 4.0 * u1 * u3 - 3.0 * u2 ** 2 + 12.0 * u1 ** 2 * u2 - 6.0 * u1 ** 4


def sigma(x: complex, w: complex, ctx: Torus) -> complex:
    """sigma(x, w) = theta(x+w) / (theta(x) theta(w))."""
    tx = _theta_jet(x, ctx, 0, pole="sigma (x slot)")[0][0]
    tw = _theta_jet(w, ctx, 0, pole="sigma (w slot)")[0][0]
    return theta(x + w, ctx) / (tx * tw)


def sigma_jet(x: complex, w: complex, ctx: Torus) -> tuple:
    """(sigma, d/dw sigma, d^2/dw^2 sigma) at (x, w).

    d/dw sigma = sigma (rho(x+w) - rho(w)).  Both derivatives are taken in
    quotient-rule form over theta(x) theta(w)^k, from the order-2 jets at
    x + w and at w, so they stay finite when x+w hits the lattice.
    """
    return _sigma_w_jet(x, w, _theta_jet(w, ctx, 2, pole="sigma_jet (w slot)")[0], ctx)


def _sigma_w_jet(x: complex, w: complex, tw: list, ctx: Torus) -> tuple:
    """sigma_jet(x, w) from the theta jet `tw` at w, for callers that share
    one w across many x; a one-entry `tw` gives (sigma,) only, with the
    same bits as the first entry of the full jet."""
    tx = _theta_jet(x, ctx, 0, pole="sigma_jet (x slot)")[0][0]
    ts = _theta_jet(x + w, ctx, len(tw) - 1)[0]
    if len(tw) == 1:
        return (ts[0] / (tx * tw[0]),)
    num2 = (ts[2] * tw[0] * tw[0] - ts[0] * tw[2] * tw[0]
            - 2.0 * ts[1] * tw[1] * tw[0] + 2.0 * ts[0] * tw[1] * tw[1])
    return (ts[0] / (tx * tw[0]),
            (ts[1] * tw[0] - ts[0] * tw[1]) / (tx * tw[0] * tw[0]),
            num2 / (tx * tw[0] ** 3))


def phi(x: complex, w: complex, ctx: Torus) -> complex:
    """phi(x, w) = d/dx sigma(w, -x) = sigma(w,-x) (rho(x-w) - rho(x)).

    phi is regular at w on the lattice (phi(x, 0) = -rho'(x)); for small
    lattice-reduced w the product form loses digits to cancellation, so a
    second-order Taylor expansion in w is used there.  The rho, rho_prime
    and sigma calls guard the x slot.
    """
    w0, shift = reduce_argument(w, ctx)
    if abs(w0) < 3e-5 * ctx.cell_diagonal:
        # phi(x, w0 + k + l*tau) = e^{2 pi i l x} (phi(x, w0) + 2 pi i l sigma(w0, -x))
        # (second-argument shift law).  sigma(w0, -x) has a pole at w0 = 0, so
        # near a translate with l != 0 phi is genuinely singular and sigma
        # raises PoleError within tol_pole of it.
        base = _phi_taylor(x, w0, ctx)
        l = shift.l
        if l == 0:
            return base
        sig = sigma(w0, -x, ctx)
        return cmath.exp(TWOPI_I * l * x) * (base + TWOPI_I * l * sig)
    return sigma(w, -x, ctx) * (rho(x - w, ctx) - rho(x, ctx))


def _phi_taylor(x: complex, w: complex, ctx: Torus) -> complex:
    r1 = rho_prime(x, ctx)
    if w == 0:
        return -r1
    r0 = rho(x, ctx)
    r2 = rho_second(x, ctx)
    r3 = _rho_third(x, ctx)
    et = eta(x, ctx)
    et0 = theta_derivs(0.0, ctx, 3)[3]
    c0 = -r1
    c1 = 0.5 * r2 + r0 * r1
    c2 = -r3 / 6.0 - 0.5 * r0 * r2 - r1 * (0.5 * et - et0 / 6.0)
    return c0 + w * (c1 + w * c2)


def eta(x: complex, ctx: Torus) -> complex:
    """eta(x) = rho^2 + rho' = theta''/theta.

    The singularity at the origin (and its Z-translates) is removable:
    eta -> theta'''(0).  Translates by l*tau with l != 0 are genuine poles.
    """
    x0, shift = reduce_argument(x, ctx)
    if abs(x0) < 1e-6 * ctx.cell_diagonal:
        if shift.l == 0:
            d = theta_derivs(x0, ctx, 3)
            return d[3] / d[1]
        raise PoleError("eta pole at x = %r (lattice translate with l != 0)" % (x,))
    d = theta_derivs(x, ctx, 2)
    return d[2] / d[0]
