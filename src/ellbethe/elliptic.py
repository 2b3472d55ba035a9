"""Normalized Jacobi theta function and the derived elliptic kernels.

The basic object is the odd entire function

    theta(x, tau) = sin(pi x)/pi * prod_{n>=1} (1 - q^n z)(1 - q^n / z) / (1 - q^n)^2,

with z = e^{2 pi i x}, q = e^{2 pi i tau}, normalized so that theta'(0, tau) = 1.
It is theta_1(x, tau) / theta_1'(0, tau) in the classical notation and obeys

    theta(x + k + l*tau) = (-1)^{k+l} e^{-pi i l^2 tau - 2 pi i l x} theta(x).

From it we build the kernels that appear as coefficients of the KZB and
transfer-matrix operators:

    rho(x)      = theta'(x)/theta(x)            (odd, rho(x+l*tau) = rho(x) - 2 pi i l)
    sigma(x, w) = theta(x+w)/(theta(x) theta(w))
    phi(x, w)   = d/dx sigma(w, -x) = sigma(w,-x)(rho(x-w) - rho(x))
    eta(x)      = rho(x)^2 + rho'(x) = theta''(x)/theta(x)

Values are double precision; arguments are reduced into the fundamental strip
before summation, with the quasi-periodicity multiplier reassembled exactly,
so arbitrary (sane) lattice translates are handled without overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

TWOPI = 2.0 * math.pi
TWOPI_I = 2j * math.pi

# largest |l| we accept before declaring the argument out of range: the
# reassembled multiplier exp(-pi i l^2 tau) would overflow double precision
# long before this, so the guard exists to fail loudly rather than return inf.
_MAX_LATTICE_SHIFT = 10 ** 6


class PoleError(ArithmeticError):
    """Evaluation requested within tol_pole of a pole of the expression."""


class RangeError(ValueError):
    """Argument so far from the fundamental cell that reduction is meaningless."""


@dataclass(frozen=True)
class Torus:
    """Immutable evaluation context: the modular parameter and truncation knobs.

    Parameters
    ----------
    tau : complex
        Modular parameter, Im(tau) > 0.
    trunc_eps : float
        Products/series are truncated once the next factor differs from 1
        (resp. the next term from 0) by less than this.
    max_terms : int
        Hard cap on the number of product/series terms.
    """

    tau: complex
    trunc_eps: float = 1e-16
    max_terms: int = 256
    q: complex = field(init=False, repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if not (tau.imag > 0):
            raise ValueError("tau must satisfy Im(tau) > 0, got %r" % (tau,))
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "q", cmath.exp(TWOPI_I * tau))

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


def reduce_argument(x: complex, ctx: Torus) -> tuple[complex, LatticePoint]:
    """Split x = x0 + (k + l*tau) with x0 near the origin.

    l is chosen from Im x / Im tau and k from the remaining real part, so that
    |Im x0| <= Im(tau)/2 and |Re x0| <= 1/2 + |Re tau|/2.
    """
    x = complex(x)
    l = round(x.imag / ctx.tau.imag)
    if abs(l) > _MAX_LATTICE_SHIFT:
        raise RangeError("Im(x)/Im(tau) = %g exceeds the supported range" % (x.imag / ctx.tau.imag))
    y = x - l * ctx.tau
    k = round(y.real)
    if abs(k) > _MAX_LATTICE_SHIFT:
        raise RangeError("Re(x) = %g exceeds the supported range" % (x.real,))
    return y - k, LatticePoint(int(k), int(l))


def lattice_distance(x: complex, ctx: Torus) -> float:
    """Distance from x to the lattice Z + tau*Z."""
    x0, _ = reduce_argument(x, ctx)
    best = abs(x0)
    for dk in (-1, 0, 1):
        for dl in (-1, 0, 1):
            d = abs(x0 - dk - dl * ctx.tau)
            if d < best:
                best = d
    return best


def _multiplier_derivs(shift: LatticePoint, x0: complex, ctx: Torus, order: int) -> list[complex]:
    """Derivative stack of M(x) = (-1)^{k+l} e^{-pi i l^2 tau - 2 pi i l x} at x0+k+l*tau.

    theta(x0 + k + l*tau) = M * theta(x0); each d/dx brings down -2*pi*i*l.
    """
    k, l = shift.k, shift.l
    sign = -1.0 if (k + l) % 2 else 1.0
    m0 = sign * cmath.exp(-1j * math.pi * l * l * ctx.tau - TWOPI_I * l * x0)
    return [((-TWOPI_I * l) ** r) * m0 for r in range(order + 1)]


def _theta1_series_raw(x0: complex, ctx: Torus, order: int) -> list[complex]:
    """[theta_1, theta_1', ..., theta_1^(order)] at a reduced argument x0.

    Term-wise differentiated sine series,
    theta_1 = 2 sum (-1)^n e^{pi i tau (n+1/2)^2} sin((2n+1) pi x).
    """
    out = [0j] * (order + 1)
    small_run = 0
    ref = 0.0
    for n in range(ctx.max_terms):
        a = (2 * n + 1) * math.pi
        amp = 2.0 * (-1.0 if n % 2 else 1.0) * cmath.exp(1j * math.pi * ctx.tau * (n + 0.5) ** 2)
        s = cmath.sin(a * x0)
        c = cmath.cos(a * x0)
        # d^r/dx^r sin(ax) cycles through a^r * (sin, cos, -sin, -cos)
        cyc = (s, c, -s, -c)
        scale = abs(amp) * max(abs(s), abs(c))
        ref = max(ref, scale)
        pw = 1.0
        for r in range(order + 1):
            out[r] += amp * pw * cyc[r % 4]
            pw *= a
        if n >= 2 and scale < ctx.trunc_eps * (ref + 1e-300):
            small_run += 1
            if small_run >= 2:
                break
        else:
            small_run = 0
    return out


def _theta1_norm(ctx: Torus) -> complex:
    """theta_1'(0, tau), the normalization constant (memoized per context)."""
    norm = ctx._cache.get("norm")
    if norm is None:
        norm = _theta1_series_raw(0j, ctx, 1)[1]
        ctx._cache["norm"] = norm
    return norm


def theta(x: complex, ctx: Torus) -> complex:
    """Normalized theta via the triple product, valid for any (sane) x."""
    x0, shift = reduce_argument(x, ctx)
    z = cmath.exp(TWOPI_I * x0)
    q = ctx.q
    val = cmath.sin(math.pi * x0) / math.pi
    qn = 1.0 + 0j
    for _ in range(ctx.max_terms):
        qn *= q
        if abs(qn) * max(abs(z), 1.0 / abs(z), 1.0) < ctx.trunc_eps:
            break
        val *= (1.0 - qn * z) * (1.0 - qn / z) / (1.0 - qn) ** 2
    return _multiplier_derivs(shift, x0, ctx, 0)[0] * val


def theta_derivs(x: complex, ctx: Torus, order: int = 3) -> list[complex]:
    """[theta, theta', ...] up to `order` <= 3, term-wise differentiated series."""
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be 0..3")
    return _theta_derivs_any(x, ctx, order)


def _theta_derivs_any(x: complex, ctx: Torus, order: int) -> list[complex]:
    # internal variant without the order cap (the phi Taylor branch wants order 4)
    x0, shift = reduce_argument(x, ctx)
    raw = _theta1_series_raw(x0, ctx, order)
    norm = _theta1_norm(ctx)
    mult = _multiplier_derivs(shift, x0, ctx, order)
    out = []
    for r in range(order + 1):
        acc = 0j
        for j in range(r + 1):
            acc += math.comb(r, j) * mult[j] * raw[r - j]
        out.append(acc / norm)
    return out


def theta1(x: complex, ctx: Torus) -> complex:
    """Unnormalized theta_1(x, tau) (the function obeying the heat equation)."""
    x0, shift = reduce_argument(x, ctx)
    return _multiplier_derivs(shift, x0, ctx, 0)[0] * _theta1_series_raw(x0, ctx, 0)[0]


def theta1_derivs(x: complex, ctx: Torus, order: int = 2) -> list[complex]:
    """[theta_1, theta_1', ...] up to `order`."""
    x0, shift = reduce_argument(x, ctx)
    raw = _theta1_series_raw(x0, ctx, order)
    mult = _multiplier_derivs(shift, x0, ctx, order)
    return [sum(math.comb(r, j) * mult[j] * raw[r - j] for j in range(r + 1))
            for r in range(order + 1)]


def theta1_dtau(x: complex, ctx: Torus) -> complex:
    """d/dtau theta_1(x, tau) at fixed x, term-wise in q.

    The reduction x = x0 + k + l*tau makes both the quasi-periodicity
    multiplier and the reduced argument tau-dependent: theta_1(x) =
    M(tau) theta_1(x0(tau), tau) with M = (-1)^{k+l} e^{-pi i l^2 tau
    - 2 pi i l x0} and dx0/dtau = -l, so differentiating the product at
    fixed x gives

        d/dtau theta_1(x) = M [ (d/dtau theta_1)(x0)
                                + i pi l^2 theta_1(x0) - l theta_1'(x0) ].
    """
    x0, shift = reduce_argument(x, ctx)
    acc = 0j
    small_run = 0
    ref = 0.0
    for n in range(ctx.max_terms):
        a = (2 * n + 1) * math.pi
        w = 1j * math.pi * (n + 0.5) ** 2
        term = 2.0 * (-1.0 if n % 2 else 1.0) * w * cmath.exp(1j * math.pi * ctx.tau * (n + 0.5) ** 2) * cmath.sin(a * x0)
        acc += term
        ref = max(ref, abs(acc))
        if n >= 2 and abs(term) < ctx.trunc_eps * (ref + 1e-300):
            small_run += 1
            if small_run >= 2:
                break
        else:
            small_run = 0
    m0 = _multiplier_derivs(shift, x0, ctx, 0)[0]
    raw = _theta1_series_raw(x0, ctx, 1)
    l = shift.l
    return m0 * (acc + (1j * math.pi * l * l) * raw[0] - l * raw[1])


def theta_dtau(x: complex, ctx: Torus) -> complex:
    """d/dtau of the normalized theta = theta_1 / theta_1'(0)."""
    t1 = theta1(x, ctx)
    dt1 = theta1_dtau(x, ctx)
    norm = _theta1_norm(ctx)
    # d/dtau theta_1'(0): differentiate the heat equation route term-wise at x=0
    dnorm = _theta1_dtau_deriv0(ctx)
    return dt1 / norm - t1 * dnorm / norm ** 2


def _theta1_dtau_deriv0(ctx: Torus) -> complex:
    """d/dtau theta_1'(0, tau), term-wise."""
    acc = 0j
    for n in range(ctx.max_terms):
        a = (2 * n + 1) * math.pi
        w = 1j * math.pi * (n + 0.5) ** 2
        term = 2.0 * (-1.0 if n % 2 else 1.0) * w * cmath.exp(1j * math.pi * ctx.tau * (n + 0.5) ** 2) * a
        acc += term
        if n >= 3 and abs(term) < ctx.trunc_eps * abs(acc):
            break
    return acc


def _require_regular(x: complex, ctx: Torus, what: str) -> None:
    if lattice_distance(x, ctx) < ctx.tol_pole:
        raise PoleError("%s evaluated within tol_pole of the lattice (x=%r)" % (what, x))


def rho(x: complex, ctx: Torus) -> complex:
    """Logarithmic derivative theta'/theta."""
    _require_regular(x, ctx, "rho")
    d = theta_derivs(x, ctx, 1)
    return d[1] / d[0]


def rho_prime(x: complex, ctx: Torus) -> complex:
    """rho'(x) = theta''/theta - rho^2 (doubly periodic)."""
    _require_regular(x, ctx, "rho_prime")
    d = theta_derivs(x, ctx, 2)
    r = d[1] / d[0]
    return d[2] / d[0] - r * r


def rho_second(x: complex, ctx: Torus) -> complex:
    """rho''(x), from the order-3 derivative stack."""
    _require_regular(x, ctx, "rho_second")
    d = theta_derivs(x, ctx, 3)
    u1, u2, u3 = d[1] / d[0], d[2] / d[0], d[3] / d[0]
    return u3 - 3.0 * u1 * u2 + 2.0 * u1 ** 3


def _rho_third(x: complex, ctx: Torus) -> complex:
    # needed only by the small-w Taylor branch of phi
    d = _theta_derivs_any(x, ctx, 4)
    u1, u2, u3, u4 = (d[r] / d[0] for r in range(1, 5))
    return u4 - 4.0 * u1 * u3 - 3.0 * u2 ** 2 + 12.0 * u1 ** 2 * u2 - 6.0 * u1 ** 4


def sigma(x: complex, w: complex, ctx: Torus) -> complex:
    """sigma(x, w) = theta(x+w) / (theta(x) theta(w))."""
    _require_regular(x, ctx, "sigma (x slot)")
    _require_regular(w, ctx, "sigma (w slot)")
    return theta(x + w, ctx) / (theta(x, ctx) * theta(w, ctx))


def sigma_dw(x: complex, w: complex, ctx: Torus) -> complex:
    """d/dw sigma(x, w) = sigma(x,w) (rho(x+w) - rho(w)).

    Computed in quotient-rule form (theta'(x+w)theta(w) - theta(x+w)theta'(w))
    / (theta(x) theta(w)^2), which stays finite when x+w hits the lattice.
    """
    _require_regular(x, ctx, "sigma_dw (x slot)")
    _require_regular(w, ctx, "sigma_dw (w slot)")
    ts = theta_derivs(x + w, ctx, 1)
    tw = theta_derivs(w, ctx, 1)
    return (ts[1] * tw[0] - ts[0] * tw[1]) / (theta(x, ctx) * tw[0] * tw[0])


def sigma_dw2(x: complex, w: complex, ctx: Torus) -> complex:
    """d^2/dw^2 sigma(x, w), in quotient-rule form (finite at lattice x+w)."""
    _require_regular(x, ctx, "sigma_dw2 (x slot)")
    _require_regular(w, ctx, "sigma_dw2 (w slot)")
    ts = theta_derivs(x + w, ctx, 2)
    tw = theta_derivs(w, ctx, 2)
    num = (ts[2] * tw[0] * tw[0] - ts[0] * tw[2] * tw[0]
           - 2.0 * ts[1] * tw[1] * tw[0] + 2.0 * ts[0] * tw[1] * tw[1])
    return num / (theta(x, ctx) * tw[0] ** 3)


def phi(x: complex, w: complex, ctx: Torus) -> complex:
    """phi(x, w) = d/dx sigma(w, -x) = sigma(w,-x) (rho(x-w) - rho(x)).

    phi is regular at w on the lattice (phi(x, 0) = -rho'(x)); for small
    lattice-reduced w the product form loses digits to cancellation, so a
    second-order Taylor expansion in w is used there.
    """
    _require_regular(x, ctx, "phi (x slot)")
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
