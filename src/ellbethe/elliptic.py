"""Normalized Jacobi theta function and the derived elliptic kernels.

The basic object is the odd entire function

    theta(x, tau) = theta_1(x, tau) / theta_1'(0, tau),
    theta_1(x, tau) = 2 sum_{n>=0} (-1)^n e^{pi i tau (n+1/2)^2} sin((2n+1) pi x),

normalized so that theta'(0, tau) = 1.  It obeys

    theta(x + k + l*tau) = (-1)^{k+l} e^{-pi i l^2 tau - 2 pi i l x} theta(x),
    4 pi i d/dtau theta(x, tau) = theta''(x, tau) - theta'''(0, tau) theta(x, tau).

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
import inspect
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
    # c tau + d; e^{-pi i tau'/4} theta_1'(0, tau') and its log d/dtau
    _j: complex = field(init=False, repr=False, compare=False)
    _norm: complex = field(init=False, repr=False, compare=False)
    _dlog_norm: complex = field(init=False, repr=False, compare=False)
    _columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if not (tau.imag > 0):
            raise ValueError("tau must satisfy Im(tau) > 0, got %r" % (tau,))
        # t is recomputed from the matrix, so no drift
        a, b, c, d = 1, 0, 0, 1
        while True:
            n = round(((a * tau + b) / (c * tau + d)).real)
            a, b = a - n * c, b - n * d
            t = (a * tau + b) / (c * tau + d)
            if abs(t) >= 1.0:
                break
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
        # dtau'/dtau = 1/j^2
        dlog_norm = complex((1j * math.pi * n * (n + 1) * terms).sum()) / (norm * j * j)
        for name, value in (
                ("tau", tau), ("tau_reduced", t), ("cd", (c, d)),
                ("_j", j), ("_norm", norm), ("_dlog_norm", dlog_norm),
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


def lattice_distance(x: complex, ctx: Torus) -> float:
    """Distance from x to the lattice Z + tau*Z (see lattice_distances)."""
    return float(lattice_distances(x, ctx))


def lattice_distances(xs, ctx: Torus) -> np.ndarray:
    """Distance from x to the lattice Z + tau*Z at every point of xs.

    Z + tau Z = (c tau + d)(Z + tau' Z), and on the reduced basis (1, tau')
    a reduced argument u0 (|Re u0| <= 1/2, |Im u0| <= Im tau'/2) has its
    nearest lattice point among two candidates: 0, and the nearest point
    k + l tau' of row l = sign(Im u0), k = rint(Re(u0 - l tau')).  Row 0
    has no point nearer than 0, as |Re u0| <= 1/2.  Row -l lies at least
    |Im u0| + Im tau' away, and as Im tau' >= sqrt(3)/2 the square of that
    exceeds |u0|^2 <= 1/4 + (Im u0)^2 by at least 1/2, so the search is
    exact however skewed tau is.  Both candidates are differences the full
    3x3 neighbour search also forms, and rounding keeps their order within
    a row, so every distance has that search's bits.
    """
    j, tau_r = ctx._j, ctx.tau_reduced
    xs = np.asarray(xs, dtype=complex)
    u0 = _splits(xs / j, tau_r)[0]
    row = u0 - np.sign(u0.imag) * tau_r
    return (abs(j) * np.minimum(np.abs(u0), np.abs(row - np.rint(row.real))))[()]


def _theta_jets(xs, ctx: Torus, order: int, pole=None, dtau: bool = False) -> np.ndarray:
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
    relative accuracy at the zero.  Every point runs the first form, whose
    two exponentials never meet in the recursion, with the sign of Im u0 a
    0/1 factor; the points within 0.05 of u0 = 0 (a few percent of a
    batch), gathered, then run the second and replace their rows.  d/dtau
    at fixed x is the term-wise tau'-derivative of S carried by the chain
    rule: dtau'/dtau = 1/j^2, du0/dtau = -W/j^2 and dP/dtau = pi i W^2/j^2.

    It is also the kernels' pole guard: a kernel passes its name as `pole`
    (the theta table a mask of the points it guards), and PoleError is
    raised when |j u0| < tol_pole.  u0 lies in the reduced
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
        if not isinstance(pole, str):
            near, pole = near & pole, "a guarded slot"
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
    # and e^{-a v} cos(a u0), this only where it is read
    z = np.exp(1j * (a * u0.real))
    em = np.expm1(-2.0 * a * v)
    amp = phase * np.exp(loga + (2.0 * math.pi) * n * v)
    ch, sh = 1.0 + 0.5 * em, (0.5 - up) * em
    amp_s = amp * (z.imag * ch + 1j * (z.real * sh))
    if order or dtau:
        wt = c * x0 + l + l0 * j
    sign = 1.0 - 2.0 * ((k0 + l0 + k + l).astype(int) & 1)
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
        # + alpha2 y + r P'' y_prev.  Every point takes (alpha, alpha2, beta)
        # = (A + B, A - B, 0), so x and y never meet; then the balanced ones
        # (|u0| < 0.05), gathered, take (A, A, B), where H(A +- B) = E +- O
        # and the sum is 2i sin E_r + 2 cos O_r.  P'' = 2 kappa c vanishes
        # when c = 0
        kappa = -1j * math.pi / j
        big_a, big_b, p2 = 2.0 * kappa * wt, -kappa * (2 * n + 1), 2.0 * kappa * c
        half_g = -0.5j * g
        parts = [(slice(None), amp * z * (1.0 + up * em), -amp * z.conj() * (1.0 + ~up * em),
                  big_a + big_b, big_a - big_b, None, 1.0)]
        bal = np.flatnonzero(np.abs(u0) < 0.05)
        if bal.size:
            # alpha and beta filled out to (rows, points), as on the steep
            # side: a product with a broadcast operand takes another numpy
            # loop, whose bits differ, so a lone point would round unlike a batch
            alpha, zb = big_a[bal] + 0.0 * big_b, z.take(bal, axis=1)
            zc = zb.real * ch.take(bal, axis=1) - 1j * (zb.imag * sh.take(bal, axis=1))
            parts.append((bal, 2j * amp_s.take(bal, axis=1), 2.0 * amp.take(bal, axis=1) * zc,
                          alpha, alpha, big_b * np.ones(bal.size), 0.0))
        for cols, f1, f2, alpha, alpha2, beta, y in parts:
            x, xp, yp = 1.0, 0.0, 0.0
            for r in range(order):
                nx, ny = alpha * x, alpha2 * y
                if beta is not None:
                    nx, ny = nx + beta * y, beta * x + ny
                if r and c:
                    nx, ny = nx + r * p2 * xp, ny + r * p2 * yp
                x, y, xp, yp = nx, ny, x, y
                out[r + 1, cols] = _row_sum(f1 * x + f2 * y) * half_g[cols]
    if dtau:
        s_tau = _row_sum(1j * math.pi * n * (n + 1) * amp_s)
        s_x = _row_sum(a * amp * (z.real * ch - 1j * (z.imag * sh)))
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


def _formed(kernel):
    """A kernel written as a generator, made public: it yields the jets it
    takes, as (points, order, pole name or None) slots in the order it
    guards them, and returns its values from them.  A call is the theta
    table's one request with one set: its points (the arguments before ctx)
    broadcast against each other, scalars give scalars, and sigma_jet's
    rows come back as the tuple its annotation names."""
    at, bind = kernel.__code__.co_varnames.index("ctx"), inspect.signature(kernel).bind

    @functools.wraps(kernel)
    def call(*args, **kwargs):
        args = bind(*args, **kwargs).args  # ctx by keyword too
        (value,), = _theta_table(args[at], (lambda *p: kernel(*p, *args[at + 1:]), args[:at]))
        return tuple(value) if kernel.__annotations__.get("return") == "tuple" else value[()]

    return call


def _sent(run, jets):
    """What a kernel's generator, past its slots, returns given their jets."""
    try:
        run.send(jets)
    except StopIteration as stop:
        return stop.value


# The kernels take scalars or arrays (broadcast against each other) and
# return values of that shape, from the theta jets at their arguments.


@_formed
def theta(x, ctx: Torus):
    """Normalized theta at any (sane) x."""
    d, = yield [(x, 0, None)]
    return d[0]


@_formed
def theta_derivs(x, ctx: Torus, order: int = 3) -> np.ndarray:
    """[theta, theta', ...] up to `order` <= 4, one row per derivative."""
    if order not in (0, 1, 2, 3, 4):
        raise ValueError("order must be 0..4")
    d, = yield [(x, order, None)]
    return d


def theta_dtau(x, ctx: Torus):
    """d/dtau theta(x, tau) at fixed x, from the term-wise tau-derivative
    of the series, so the heat equation 4 pi i d/dtau theta = theta'' -
    theta'''(0) theta stays an independent check."""
    return _theta_jets(x, ctx, 0, dtau=True)[1]


@_formed
def rho(x, ctx: Torus):
    """Logarithmic derivative theta'/theta."""
    d, = yield [(x, 1, "rho")]
    return _log_derivs(d)[0]


@_formed
def rho_prime(x, ctx: Torus):
    """rho'(x) = theta''/theta - rho^2 (doubly periodic)."""
    d, = yield [(x, 2, "rho_prime")]
    return _log_derivs(d)[1]


@_formed
def rho_second(x, ctx: Torus):
    """rho''(x), from the order-3 derivative stack."""
    d, = yield [(x, 3, "rho_second")]
    return _log_derivs(d)[2]


@_formed
def _rho_rows(x, ctx: Torus) -> np.ndarray:
    """[rho, rho'] from one jet, with the bits of rho and rho_prime."""
    d, = yield [(x, 2, "rho")]
    return np.array(_log_derivs(d))


@_formed
def sigma(x, w, ctx: Torus):
    """sigma(x, w) = theta(x+w) / (theta(x) theta(w)); the same bits as
    the first entry of sigma_jet."""
    tx, tw, ts = yield [(x, 0, "sigma (x slot)"), (w, 0, "sigma (w slot)"), (x + w, 0, None)]
    return ts[0] / (tx[0] * tw[0])


@_formed
def sigma_jet(x, w, ctx: Torus) -> tuple:
    """(sigma, d/dw sigma, d^2/dw^2 sigma) at (x, w).

    d/dw sigma = sigma (rho(x+w) - rho(w)).  Both derivatives are taken in
    quotient-rule form over theta(x) theta(w)^k, from the order-2 jets at
    x + w and at w, so they stay finite when x+w hits the lattice.
    """
    tw, tx, ts = yield [(w, 2, "sigma_jet (w slot)"), (x, 0, "sigma_jet (x slot)"),
                        (x + w, 2, None)]
    num2 = (ts[2] * tw[0] * tw[0] - ts[0] * tw[2] * tw[0]
            - 2.0 * ts[1] * tw[1] * tw[0] + 2.0 * ts[0] * tw[1] * tw[1])
    return (ts[0] / (tx[0] * tw[0]),
            (ts[1] * tw[0] - ts[0] * tw[1]) / (tx[0] * tw[0] * tw[0]),
            num2 / (tx[0] * tw[0] ** 3))


@_formed
def phi(x, w, ctx: Torus):
    """phi(x, w) = d/dx sigma(w, -x) = sigma(w,-x) (rho(x-w) - rho(x)).

    Evaluated as (theta'(x-w) - theta(x-w) rho(x)) / (theta(w) theta(x)),
    which is regular at x = w.  phi is regular at w on the lattice too
    (phi(x, 0) = -rho'(x)); where the lattice-reduced w0 is small that form
    loses digits to cancellation, so those points take a second-order
    Taylor expansion in w0 instead (the quotient's jets there are taken at
    x and 1/2, where they stay finite).  One jet at x serves both forms and
    guards the x slot of every point.
    """
    w0, _, l = _splits(w, ctx.tau)
    small = np.abs(w0) < 3e-5 * ctx.cell_diagonal
    dx, d, tw = yield [(x, 4 if small.any() else 1, "phi (x slot)"),
                       (np.where(small, x, x - w), 1, None), (np.where(small, 0.5, w), 0, None)]
    out = (d[1] - d[0] * (dx[1] / dx[0])) / (tw[0] * dx[0])
    if small.any():
        out[small] = _phi_taylor(x[small], w0[small], l[small], dx[:, small], ctx)
    return out


def _phi_taylor(x, w0, l, dx, ctx: Torus) -> np.ndarray:
    """phi(x, w0 + k + l tau) for small w0, from the order-4 jet dx at x:
    a second-order Taylor expansion in w0, carried to the translate by the
    second-argument shift law phi(x, w0 + k + l tau) = e^{2 pi i l x}
    (phi(x, w0) + 2 pi i l sigma(w0, -x)).  sigma(w0, -x) has a pole at
    w0 = 0, so near a translate with l != 0 phi is genuinely singular and
    sigma raises PoleError within tol_pole of it; a factor e^{2 pi i l x}
    past the double range raises OverflowError (`_exp`)."""
    r0, r1, r2, r3 = _log_derivs(dx)
    et = dx[2] / dx[0]
    et0 = _theta_jets(0.0, ctx, 3)[3]
    c1 = 0.5 * r2 + r0 * r1
    c2 = -r3 / 6.0 - 0.5 * r0 * r2 - r1 * (0.5 * et - et0 / 6.0)
    out = -r1 + w0 * (c1 + w0 * c2)
    far = l != 0
    if far.any():
        xf, lf = x[far], l[far]
        out[far] = _exp(TWOPI_I * lf * xf) * (out[far]
                                              + TWOPI_I * lf * sigma(w0[far], -xf, ctx))
    return out


@_formed
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
                        % (complex(x.flat[np.argmax(pole)]),))
    d, = yield [(np.where(near, x0, x), 3, None)]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(near, d[3] / d[1], d[2] / d[0])


def _theta_table(ctx: Torus, *requests) -> list:
    """For each request (kernel, *arg_sets), kernel one made by _formed,
    its values on each set of point arguments, in the set's broadcast shape
    behind any row axis, from one jet per distinct slot, at its highest
    order, and one _theta_jets call per order.  Each kernel runs once on
    its arguments as given, on their own axes, for its slots (x of shape
    (30,) and w of (10, 1) make 40 points, x + w 300).  Slots whose points
    have the same bytes (+0.0 and -0.0 stay apart), whatever their shapes,
    share one read-only jet, guarded where any of them is, at their highest
    order, order 1 counted as 2, and each reads its own leading rows (rows
    of a jet do not depend on its order, nor a point's jet on its batch)
    and gathers them by its own shape; then the kernel runs once per pass
    of at most _CHUNK points of the broadcast grid, on its slots' jets
    gathered there, so a point has the same bits alone as in a batch: past
    256 KiB numpy computes `a * temporary` in place as `temporary * a`, and
    with fused multiply-adds a complex product is not commutative bit for
    bit.  A set on its grid that fits one pass keeps its first run.

    Where a guard fires or a jet overflows, the fault route runs each set
    in request order on its broadcast, flattened points: each slot is one
    _theta_jets call guarded by its name, then the value step runs (so
    phi's Taylor step meets sigma's pole in its turn).  The first fault,
    by set and then by slot, thus raises as the kernel raises it."""
    keys, groups, sets, jets, values = {}, {}, [], {}, []
    try:
        for kernel, *arg_sets in requests:
            form = inspect.unwrap(kernel)
            values.append([])
            for args in arg_sets:
                args = [np.asarray(a, dtype=complex) for a in args]
                grid = np.broadcast_shapes(*(a.shape for a in args))
                # a set on its grid that fits one pass keeps this run for its values
                keep = all(a.shape == grid for a in args) and math.prod(grid) <= _CHUNK
                run = form(*(a.ravel() if keep else a for a in args), ctx)
                slots = next(run)
                if not keep:
                    run.close()
                for s in slots:
                    points = np.asarray(s[0], dtype=complex)
                    keys.setdefault(points.tobytes(), [points]).append(s)
                sets.append((form, args, grid, slots, run if keep else None, values[-1]))
        for points, *same in keys.values():
            groups.setdefault(max(2 if s[1] == 1 else s[1] for s in same), []).append(
                (points, any(s[2] is not None for s in same), same))
        for order, group in groups.items():
            sizes = [points.size for points, _, _ in group]
            out = _theta_jets(np.concatenate([points.ravel() for points, _, _ in group]), ctx,
                              order, pole=np.repeat([guard for _, guard, _ in group], sizes))
            out.flags.writeable = False
            for (_, _, same), piece in zip(group, np.split(out, np.cumsum(sizes)[:-1], axis=1)):
                for s in same:
                    jets[id(s)] = piece[:s[1] + 1]
        for form, args, grid, slots, run, out in sets:
            size, rows = math.prod(grid), []
            for s in slots:
                r = jets[id(s)]
                if r.shape[1] != size:  # a slot on its own axes, gathered onto the grid
                    r = r[:, np.broadcast_to(np.arange(r.shape[1]).reshape(np.shape(s[0])),
                                             grid).ravel()]
                    r.flags.writeable = False
                rows.append(r)
            runs = [run]
            if run is None:  # the kernel again on each pass of the grid, for its values
                flat = [np.broadcast_to(a, grid).ravel() for a in args]
                runs = [form(*(a[c:c + _CHUNK] for a in flat), ctx)
                        for c in range(0, max(size, 1), _CHUNK)]
                for run in runs:
                    next(run)
            v = np.concatenate([np.asarray(_sent(run, [r[:, k * _CHUNK:(k + 1) * _CHUNK]
                                                       for r in rows]))
                                for k, run in enumerate(runs)], axis=-1)
            out.append(v.reshape(v.shape[:-1] + grid))
    except (RangeError, PoleError, OverflowError):
        for kernel, *arg_sets in requests:
            for args in arg_sets:
                points = np.broadcast_arrays(*(np.asarray(a, dtype=complex) for a in args))
                run = inspect.unwrap(kernel)(*(p.ravel() for p in points), ctx)
                _sent(run, [_theta_jets(p, ctx, order, pole=name) for p, order, name in next(run)])
        raise
    return values
