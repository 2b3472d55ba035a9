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
import functools
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

# points per series pass of _theta_jets: bounds its (rows, points) temporaries
# to about 1.5 MB; a point's bits do not depend on the pass it is in
_CHUNK = 1024

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
    d), |Re| <= 1/2 and |.| >= 1, with `cd` = (c, d).  `_columns` holds the
    series as (rows, 1) columns, one row per term n kept, the common factor
    e^{pi i tau'/4} left out so that the first never underflows: n, a =
    (2n+1) pi, the phase 2 (-1)^n e^{pi i Re(tau') n(n+1)} and the
    log-modulus -pi Im(tau') n(n+1).
    """

    tau: complex
    tau_reduced: complex = field(init=False, repr=False, compare=False)
    cd: tuple = field(init=False, repr=False, compare=False)
    # c tau + d; e^{-pi i tau'/4} theta_1'(0, tau'), theta_1'(0, tau), their log d/dtau
    _j: complex = field(init=False, repr=False, compare=False)
    _norm: complex = field(init=False, repr=False, compare=False)
    _dlog_norm: complex = field(init=False, repr=False, compare=False)
    _theta1_norm: complex = field(init=False, repr=False, compare=False)
    _dlog_theta1_norm: complex = field(init=False, repr=False, compare=False)
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
        n = np.arange(rows).reshape(-1, 1)
        a = (2 * n + 1) * math.pi
        phase = np.where(n % 2, -2.0, 2.0) * np.exp(1j * math.pi * t.real * n * (n + 1))
        loga = -math.pi * t.imag * n * (n + 1)
        terms = phase * np.exp(loga) * a
        norm = complex(terms.sum())
        j = c * tau + d
        # dtau'/dtau = 1/j^2; theta_1'(0, tau)/theta_1'(0, tau') ~ j^{-3/2}
        dlog_norm = complex((1j * math.pi * n * (n + 1) * terms).sum()) / (norm * j * j)
        for name, value in (
                ("tau", tau), ("tau_reduced", t), ("cd", (c, d)),
                ("_j", j), ("_norm", norm), ("_dlog_norm", dlog_norm),
                ("_theta1_norm", cmath.exp(0.25j * math.pi * (eighths % 8 + t)) * scale * norm),
                ("_dlog_theta1_norm", dlog_norm + 0.25j * math.pi / (j * j) - 1.5 * c / j),
                ("_columns", (n, a, phase, loga))):
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


def _reduce(xs: np.ndarray, tau: complex) -> tuple:
    """x = x0 + k + l tau, |Im x0| <= Im(tau)/2 and |Re x0| <= 1/2, at every
    point of a complex array, k and l as float arrays; no range check."""
    l = np.rint(xs.imag / tau.imag)
    y = xs - l * tau
    k = np.rint(y.real)
    return y - k, k, l


def _splits(xs: np.ndarray, tau: complex) -> tuple:
    """`_reduce` with the range check: RangeError names the first point
    that is not finite or lies more than _MAX_LATTICE_SHIFT periods out."""
    # such a point fails below, not with a warning from its arithmetic
    with np.errstate(invalid="ignore", over="ignore"):
        x0, k, l = _reduce(xs, tau)
    # written so that NaN fails too
    bad = ~((np.abs(l) <= _MAX_LATTICE_SHIFT) & (np.abs(k) <= _MAX_LATTICE_SHIFT))
    if bad.any():
        first = np.argmax(bad)
        x = complex(xs.flat[first])
        if not cmath.isfinite(x):
            raise RangeError("x = %r is not a finite number" % (x,))
        if abs(l.flat[first]) > _MAX_LATTICE_SHIFT:
            raise RangeError("Im(x)/Im(tau) = %g exceeds the supported range"
                             % (x.imag / tau.imag))
        raise RangeError("Re(x) = %g exceeds the supported range" % (x.real,))
    return x0, k, l


def reduce_argument(x: complex, ctx: Torus) -> tuple[complex, LatticePoint]:
    """Split x = x0 + (k + l*tau) with |Im x0| <= Im(tau)/2, |Re x0| <= 1/2."""
    x0, k, l = _splits(np.array([complex(x)]), ctx.tau)
    return complex(x0[0]), LatticePoint(int(k[0]), int(l[0]))


def lattice_distance(x: complex, ctx: Torus) -> float:
    """Distance from x to the lattice Z + tau*Z (see lattice_distances)."""
    return float(lattice_distances(x, ctx))


def lattice_distances(xs, ctx: Torus) -> np.ndarray:
    """Distance from x to the lattice Z + tau*Z at every point of xs.

    Z + tau Z = (c tau + d)(Z + tau' Z), and on the reduced basis (1, tau')
    the nearest lattice point to a reduced argument is one of its 3x3
    neighbours, so the search is exact however skewed tau is.  At most
    _CHUNK points go through one pass, as in the theta jets, so a large
    array (the dedup's pairs of first roots, the certificate samples
    against every pair's roots) keeps its 3x3 temporaries small; a
    point's distance does not depend on the pass it is in.
    """
    j, tau_r = ctx._j, ctx.tau_reduced
    xs = np.asarray(xs, dtype=complex)
    flat = xs.ravel()
    out = np.empty(flat.shape)
    for start in range(0, len(flat), _CHUNK):
        u0 = _splits(flat[start:start + _CHUNK] / j, tau_r)[0]
        rows = u0[:, None] - _NEIGHBOURS * tau_r
        out[start:start + _CHUNK] = abs(j) * np.abs(rows[..., None] - _NEIGHBOURS).min(axis=(1, 2))
    return out.reshape(xs.shape)[()]


def _theta_jets(xs, ctx: Torus, order: int, pole: str = None, dtau: bool = False) -> np.ndarray:
    """[theta, theta', ..., theta^(order)] at every point of xs, a scalar or
    an array of any shape, as one (order + 1, *shape) array; `dtau` appends
    the row d/dtau theta.

    The only theta evaluator.  x = x0 + k0 + l0 tau is reduced on the tau
    lattice first (so the zero in reach sits at x0 = 0, subtracted exactly),
    then with j = c tau + d and x0/j = u0 + k + l tau',

        theta(x, tau) = j (-1)^{k0+l0+k+l} e^{P(x)} S(u0) / S'(0),
        P = -pi i (l0^2 tau + 2 l0 x0 + c x0^2/j + l^2 tau' + 2 l u0),

    S the sine series at tau', its rows on one array axis and the points on
    the others.  P' = -2 pi i W/j with W = c x0 + l + l0 j, P'' = -2 pi i
    c/j, and H_{r+1}(q) = q H_r + r P'' H_{r-1}.  Every sum is scaled by
    e^{-pi |Im u0|}, which joins P, so no term overflows.  Order r >= 1
    differentiates each e^{P +- i a u0} as a whole, so the opposite slopes
    of the Gaussian and of the dominant exponential near a cusp cancel
    inside one exponent, not in a Leibniz sum; within 0.05 of u0 = 0 it
    sums the parts even and odd in i a/j instead, so every order keeps its
    relative accuracy at the zero.  The two forms, and the sign of Im u0,
    are masks that pick each point's coefficients for one shared
    recursion.  d/dtau at fixed x is the term-wise tau'-derivative of S
    carried by the chain rule: dtau'/dtau = 1/j^2, du0/dtau = -W/j^2 and
    dP/dtau = pi i W^2/j^2.

    It is also the kernels' pole guard: a kernel passes its name as `pole`,
    and PoleError is raised when |j u0| < tol_pole.  u0 lies in the reduced
    box and every nonzero point of Z + tau' Z is at least sqrt(3)/4 from it,
    so this is the test lattice_distance(x) < tol_pole whenever the
    shortest period |j| is at least 4 tol_pole/sqrt(3).  RangeError, tested
    on all points first, and PoleError name the first offending x; where
    the exponential overflows, OverflowError is raised instead of returning
    inf and NaN.
    """
    shape = np.shape(xs)
    xs = np.asarray(xs, dtype=complex).ravel()
    c, j, tau, tau_r = ctx.cd[0], ctx._j, ctx.tau, ctx.tau_reduced
    x0, k0, l0 = _splits(xs, tau)
    # x0/j lies within a few cells of the origin
    u0, k, l = _reduce(x0 / j, tau_r)
    if pole is not None:
        near = np.abs(j * u0) < ctx.tol_pole
        if near.any():
            raise PoleError("%s evaluated within tol_pole of the lattice (x=%r)"
                            % (pole, complex(xs[np.argmax(near)])))
    if len(xs) > _CHUNK:
        # the guards have seen every point: sum the series one pass at a time
        out = np.concatenate([_theta_jets(xs[start:start + _CHUNK], ctx, order, dtau=dtau)
                              for start in range(0, len(xs), _CHUNK)], axis=1)
        return out.reshape((len(out),) + shape)
    n, a, phase, loga = ctx._columns
    v = np.abs(u0.imag)
    up = u0.imag >= 0
    # per row n and point: e^{i a Re u0}, expm1(-2 a v), e^{-a v} sin(a u0)
    # and e^{-a v} cos(a u0); masks enter as 0/1 factors, which select exactly
    z = np.exp(1j * (a * u0.real))
    em = np.expm1(-2.0 * a * v)
    amp = phase * np.exp(loga + (2.0 * math.pi) * n * v)
    ch, sh = 1.0 + 0.5 * em, (0.5 - up) * em
    amp_s = amp * (z.imag * ch + 1j * (z.real * sh))
    if order or dtau:
        zc = z.real * ch - 1j * (z.imag * sh)
        wt = c * x0 + l + l0 * j
    sign = 1.0 - 2.0 * ((k0 + l0 + k + l) % 2)
    # P = -pi i expo, regrouped
    expo = l0 * (l0 * tau + 2.0 * x0) + l * (l * tau_r + 2.0 * u0)
    if c:
        expo += c * x0 * x0 / j
    g = sign * j / ctx._norm * _exp(math.pi * v - 1j * math.pi * expo)
    out = np.empty((order + 1 + dtau, len(xs)), dtype=complex)
    # products out of place: an in-place one rounds a lone point differently
    out[0] = _row_sum(amp_s) * g
    if order:
        # d^r/dx^r e^{P +- i a u0} = H_r(A +- B) e^{...}, A = P', B = i a/j,
        # as one recursion: x' = alpha x + beta y + r P'' x_prev, y' = beta x
        # + alpha2 y + r P'' y_prev, with (alpha, alpha2, beta) = (A, A, B)
        # near u0 = 0 (H(A +- B) = E +- O: sum 2i sin E_r + 2 cos O_r) and
        # (A + B, A - B, 0) elsewhere; P'' = 2 kappa c vanishes when c = 0
        kappa = -1j * math.pi / j
        big_a = 2.0 * kappa * wt
        big_b = -kappa * (2 * n + 1)
        p2 = 2.0 * kappa * c
        balanced = np.abs(u0) < 0.05
        steep = ~balanced * big_b
        alpha, alpha2, beta = big_a + steep, big_a - steep, balanced * big_b
        f1 = np.where(balanced, 2j * amp_s, amp * z * (1.0 + up * em))
        f2 = np.where(balanced, 2.0 * amp * zc, -amp * z.conj() * (1.0 + ~up * em))
        x, y, xp, yp = 1.0, ~balanced, 0.0, 0.0
        half_g = -0.5j * g
        for r in range(order):
            nx, ny = alpha * x + beta * y, beta * x + alpha2 * y
            if r and c:
                nx, ny = nx + r * p2 * xp, ny + r * p2 * yp
            x, y, xp, yp = nx, ny, x, y
            out[r + 1] = _row_sum(f1 * x + f2 * y) * half_g
    if dtau:
        s_tau = _row_sum(1j * math.pi * n * (n + 1) * amp_s)
        s_x = _row_sum(a * amp * zc)
        out[-1] = (out[0] * (c / j + 1j * math.pi * wt * wt / (j * j) - ctx._dlog_norm)
                   + g * (s_tau - wt * s_x) / (j * j))
    return out.reshape((len(out),) + shape)


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the series rows (axis 0) in row order.  numpy regroups the
    rows of a lone point (a contiguous sum) but not of many, so this keeps
    each point's bits independent of the other points in the call."""
    total = terms[0]
    for row in terms[1:]:
        total = total + row
    return total


def _exp(z: np.ndarray) -> np.ndarray:
    """np.exp that raises OverflowError, as cmath.exp does, where a real
    part passes the log of the largest double (up to the last 0.35, where
    cmath's verdict also depends on the phase), instead of returning inf
    and NaN."""
    if np.max(z.real, initial=-math.inf) > _LOG_DOUBLE_MAX:
        raise OverflowError("math range error")
    return np.exp(z)


def _pointwise(kernel):
    """A kernel on flat arrays made to take scalars or arrays: the point
    arguments (those before ctx) are broadcast against each other and
    flattened, and each array returned gets their shape back behind any
    leading jet axis, a scalar for scalars.  All arithmetic thus runs on
    arrays, so a point has the same bits alone as in a batch: at most _CHUNK
    points a pass, as past 256 KiB numpy computes `a * temporary` in place
    as `temporary * a`, and with fused multiply-adds a complex product is
    not commutative bit for bit.  The first pass with a bad point raises."""
    count = kernel.__code__.co_varnames.index("ctx")

    @functools.wraps(kernel)
    def wrapper(*args, **kwargs):
        points = np.broadcast_arrays(*(np.asarray(p, dtype=complex) for p in args[:count]))
        shape = points[0].shape
        flat = [p.ravel() for p in points]
        passes = [kernel(*(p[i:i + _CHUNK] for p in flat), *args[count:], **kwargs)
                  for i in range(0, max(len(flat[0]), 1), _CHUNK)]
        one = not isinstance(passes[0], tuple)
        out = tuple(np.concatenate(rows, axis=-1).reshape(rows[0].shape[:-1] + shape)[()]
                    for rows in zip(*([p] if one else p for p in passes)))
        return out[0] if one else out

    return wrapper


def _joined(kernel, ctx, *arg_sets):
    """kernel(*args, ctx) for every tuple `args` in `arg_sets`, from one call
    over all their broadcast, flattened points: each set gets its values in
    its broadcast shape, with the bits a call of its own gives (see above)."""
    sets = [np.broadcast_arrays(*args) for args in arg_sets]
    flat = kernel(*map(np.concatenate, zip(*([a.ravel() for a in s] for s in sets))), ctx)
    ends = np.cumsum([s[0].size for s in sets])[:-1]
    return [v.reshape(s[0].shape) for v, s in zip(np.split(flat, ends), sets)]


def _log_derivs(d) -> list:
    """[rho, rho', ...] up to rho^(len(d) - 2), at most rho''', from the
    theta jet d."""
    u1 = d[1] / d[0]
    out = [u1]
    if len(d) > 2:
        u2 = d[2] / d[0]
        out.append(u2 - u1 * u1)
    if len(d) > 3:
        u3 = d[3] / d[0]
        out.append(u3 - 3.0 * u1 * u2 + 2.0 * u1 ** 3)
    if len(d) > 4:
        u4 = d[4] / d[0]
        out.append(u4 - 4.0 * u1 * u3 - 3.0 * u2 ** 2 + 12.0 * u1 ** 2 * u2 - 6.0 * u1 ** 4)
    return out


# The kernels take scalars or arrays (broadcast against each other) and
# return values of that shape, from the theta jets at their arguments.


@_pointwise
def theta(x, ctx: Torus):
    """Normalized theta at any (sane) x."""
    return _theta_jets(x, ctx, 0)[0]


@_pointwise
def theta_derivs(x, ctx: Torus, order: int = 3) -> np.ndarray:
    """[theta, theta', ...] up to `order` <= 4, one row per derivative."""
    if order not in (0, 1, 2, 3, 4):
        raise ValueError("order must be 0..4")
    return _theta_jets(x, ctx, order)


@_pointwise
def theta1(x, ctx: Torus):
    """Unnormalized theta_1(x, tau) (the function obeying the heat equation)."""
    return ctx._theta1_norm * _theta_jets(x, ctx, 0)[0]


@_pointwise
def theta1_derivs(x, ctx: Torus, order: int = 2) -> np.ndarray:
    """[theta_1, theta_1', ...] up to `order`."""
    return ctx._theta1_norm * _theta_jets(x, ctx, order)


@_pointwise
def theta1_dtau(x, ctx: Torus):
    """d/dtau theta_1(x, tau) at fixed x, from the term-wise tau-derivative
    of the series, so the heat equation stays an independent check."""
    t, dt = _theta_jets(x, ctx, 0, dtau=True)
    return ctx._theta1_norm * (dt + t * ctx._dlog_theta1_norm)


@_pointwise
def theta_dtau(x, ctx: Torus):
    """d/dtau of the normalized theta = theta_1 / theta_1'(0)."""
    return _theta_jets(x, ctx, 0, dtau=True)[1]


@_pointwise
def rho(x, ctx: Torus):
    """Logarithmic derivative theta'/theta."""
    return _log_derivs(_theta_jets(x, ctx, 1, pole="rho"))[0]


@_pointwise
def rho_prime(x, ctx: Torus):
    """rho'(x) = theta''/theta - rho^2 (doubly periodic)."""
    return _log_derivs(_theta_jets(x, ctx, 2, pole="rho_prime"))[1]


@_pointwise
def rho_second(x, ctx: Torus):
    """rho''(x), from the order-3 derivative stack."""
    return _log_derivs(_theta_jets(x, ctx, 3, pole="rho_second"))[2]


@_pointwise
def sigma(x, w, ctx: Torus):
    """sigma(x, w) = theta(x+w) / (theta(x) theta(w)); the same bits as
    the first entry of sigma_jet."""
    tx = _theta_jets(x, ctx, 0, pole="sigma (x slot)")[0]
    tw = _theta_jets(w, ctx, 0, pole="sigma (w slot)")[0]
    return _theta_jets(x + w, ctx, 0)[0] / (tx * tw)


@_pointwise
def sigma_jet(x, w, ctx: Torus) -> tuple:
    """(sigma, d/dw sigma, d^2/dw^2 sigma) at (x, w).

    d/dw sigma = sigma (rho(x+w) - rho(w)).  Both derivatives are taken in
    quotient-rule form over theta(x) theta(w)^k, from the order-2 jets at
    x + w and at w, so they stay finite when x+w hits the lattice.
    """
    tw = _theta_jets(w, ctx, 2, pole="sigma_jet (w slot)")
    tx = _theta_jets(x, ctx, 0, pole="sigma_jet (x slot)")[0]
    ts = _theta_jets(x + w, ctx, 2)
    num2 = (ts[2] * tw[0] * tw[0] - ts[0] * tw[2] * tw[0]
            - 2.0 * ts[1] * tw[1] * tw[0] + 2.0 * ts[0] * tw[1] * tw[1])
    return (ts[0] / (tx * tw[0]),
            (ts[1] * tw[0] - ts[0] * tw[1]) / (tx * tw[0] * tw[0]),
            num2 / (tx * tw[0] ** 3))


@_pointwise
def phi(x, w, ctx: Torus):
    """phi(x, w) = d/dx sigma(w, -x) = sigma(w,-x) (rho(x-w) - rho(x)).

    Evaluated as (theta'(x-w) - theta(x-w) rho(x)) / (theta(w) theta(x)),
    which is regular at x = w.  phi is regular at w on the lattice too
    (phi(x, 0) = -rho'(x)); where the lattice-reduced w0 is small that form
    loses digits to cancellation, so those points take a second-order
    Taylor expansion in w0 instead.  One jet at x serves both forms and
    guards the x slot of every point.
    """
    w0, _, l = _splits(w, ctx.tau)
    small = np.abs(w0) < 3e-5 * ctx.cell_diagonal
    dx = _theta_jets(x, ctx, 4 if small.any() else 1, pole="phi (x slot)")
    out = np.empty(len(x), dtype=complex)
    wide = ~small
    if wide.any():
        d = _theta_jets(x[wide] - w[wide], ctx, 1)
        tw = _theta_jets(w[wide], ctx, 0)[0]
        out[wide] = (d[1] - d[0] * (dx[1][wide] / dx[0][wide])) / (tw * dx[0][wide])
    if small.any():
        out[small] = _phi_taylor(x[small], w0[small], l[small], dx[:, small], ctx)
    return out


def _phi_taylor(x, w0, l, dx, ctx: Torus) -> np.ndarray:
    """phi(x, w0 + k + l tau) for small w0, from the order-4 jet dx at x:
    a second-order Taylor expansion in w0, carried to the translate by the
    second-argument shift law phi(x, w0 + k + l tau) = e^{2 pi i l x}
    (phi(x, w0) + 2 pi i l sigma(w0, -x)).  sigma(w0, -x) has a pole at
    w0 = 0, so near a translate with l != 0 phi is genuinely singular and
    sigma raises PoleError within tol_pole of it."""
    r0, r1, r2, r3 = _log_derivs(dx)
    et = dx[2] / dx[0]
    et0 = _theta_jets(0.0, ctx, 3)[3]
    c1 = 0.5 * r2 + r0 * r1
    c2 = -r3 / 6.0 - 0.5 * r0 * r2 - r1 * (0.5 * et - et0 / 6.0)
    out = -r1 + w0 * (c1 + w0 * c2)
    far = l != 0
    if far.any():
        xf, lf = x[far], l[far]
        out[far] = np.exp(TWOPI_I * lf * xf) * (out[far]
                                                + TWOPI_I * lf * sigma(w0[far], -xf, ctx))
    return out


@_pointwise
def eta(x, ctx: Torus):
    """eta(x) = rho^2 + rho' = theta''/theta.

    The singularity at the origin (and its Z-translates) is removable:
    eta -> theta'''(0), taken as theta'''/theta' at the reduced argument.
    Translates by l*tau with l != 0 are genuine poles.
    """
    x0, _, l = _splits(x, ctx.tau)
    near = np.abs(x0) < 1e-6 * ctx.cell_diagonal
    pole = near & (l != 0)
    if pole.any():
        raise PoleError("eta pole at x = %r (lattice translate with l != 0)"
                        % (complex(x[np.argmax(pole)]),))
    d = _theta_jets(np.where(near, x0, x), ctx, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(near, d[3] / d[1], d[2] / d[0])
