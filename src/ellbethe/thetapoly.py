"""Theta polynomials and the linear-algebra side of the Wronski map.

A theta polynomial of degree m is an entire function

    f(x) = c * e^{2 pi i mu x} * prod_{j=1}^{m} theta(x - t_j)

determined by its scale c, label mu and root multiset {t_j}.  It transforms as

    f(x + 1)   = A (-1)^m f(x),            A = e^{2 pi i mu},
    f(x + tau) = B (-1)^m e^{-pi i m tau - 2 pi i m x} f(x),
                                           B = e^{2 pi i mu tau + 2 pi i sum t_j},

and conversely every entire function with these two transformation laws is a
theta polynomial of degree m; the space T_{m,A,B} of such functions has
dimension m, with an explicit Fourier basis constructed below.

`solve_wronskian` inverts the Wronskian pairing: given f and a target h of
degree 2m with compatible multipliers, it finds the theta polynomial g with
f g' - f' g = h by collocation in the Fourier basis, provided h/f^2 has no
residues at the roots of f (the solvability obstruction).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import TWOPI_I, Torus, _exp, _splits, _theta_jets, lattice_distances

# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class SolveError(Exception):
    """Wronskian inversion failed."""


class ResidueViolationError(SolveError):
    """h/f^2 has a nonzero residue at a root of f: no entire solution exists."""


class DegenerateMultipliersError(SolveError):
    """Target multipliers coincide with f's own: solution not unique."""


class MultipleRootError(SolveError):
    """f has a (near-)multiple root; the residue test is unreliable there."""


# ---------------------------------------------------------------------------
# theta polynomials
# ---------------------------------------------------------------------------


def _leibniz(a: list[complex], b: list[complex]) -> list[complex]:
    """Derivative stack of a product from the stacks of the factors."""
    n = min(len(a), len(b))
    return [sum(math.comb(r, j) * a[j] * b[r - j] for j in range(r + 1))
            for r in range(n)]


@dataclass(frozen=True)
class ThetaPoly:
    """c * e^{2 pi i mu x} * prod theta(x - t_j) on a fixed torus."""

    scale: complex
    mu: complex
    roots: tuple
    ctx: Torus

    def __post_init__(self):
        object.__setattr__(self, "scale", complex(self.scale))
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "roots", tuple(complex(t) for t in self.roots))

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def multipliers(self) -> tuple[complex, complex]:
        """(A, B) in the transformation laws above."""
        a = cmath.exp(TWOPI_I * self.mu)
        b = cmath.exp(TWOPI_I * self.mu * self.ctx.tau + TWOPI_I * sum(self.roots))
        return a, b

    def eval(self, x):
        """f at a point or at every point of an array (see `derivs`)."""
        return self.derivs(x, 0)[0]

    __call__ = eval

    def derivs(self, x, order: int = 3) -> list:
        """[f, f', ..., f^(order)](x) by Leibniz over the factors, each entry
        of the shape of x: `stacked_derivs` on this polynomial's one row."""
        return [d[0] for d in stacked_derivs([self.roots], [self.mu], [self.scale], self.ctx,
                                             np.asarray(x, dtype=complex)[None], order)]


def stacked_derivs(roots, labels, scales, ctx: Torus, xs, order: int = 3) -> list:
    """[f, f', ..., f^(order)] for the P >= 1 theta polynomials
    f_p = c_p e^{2 pi i mu_p x} prod_j theta(x - t_pj) on the torus ctx:
    roots t_p the rows of the (P, degree) array `roots`, labels mu_p and
    scales c_p the P values of `labels` and `scales`.  Polynomial p is
    evaluated at the points xs[p], an array of shape (P, ...), and each
    entry has the shape of xs.  One torus and one root array make every
    polynomial of one torus and one degree; a caller that takes pairs from
    outside checks them where it packs them (`wronski.wr_certificates`).

    The factors of all polynomials come from one theta batch over all
    (point, root) pairs, and the powers (2 pi i mu)^r of each label are
    taken one polynomial at a time, as Python complex numbers, so a row has
    the bits of its polynomial alone."""
    roots, xs = np.asarray(roots, dtype=complex), np.asarray(xs, dtype=complex)
    rates = [TWOPI_I * complex(mu) for mu in labels]
    col = (slice(None),) + (None,) * (xs.ndim - 1)
    e0 = np.array(scales, dtype=complex)[col] * _exp(np.array(rates, dtype=complex)[col] * xs)
    jets = _theta_jets(xs[..., None] - roots[col], ctx, order)
    stack = [np.array([rate ** r for rate in rates], dtype=complex)[col] * e0
             for r in range(order + 1)]
    for i in range(roots.shape[1]):
        stack = _leibniz(stack, jets[..., i])
    return stack


@dataclass(frozen=True)
class FundamentalParallelogram:
    """Half-open cell base + [0,1) + [0,1) tau.  Each method takes a point
    or an array, elementwise, with the bits of the scalar formulas."""

    base: complex
    ctx: Torus

    def coords(self, x):
        """Real coordinates (a, b) with x = base + a + b tau."""
        d = np.asarray(x, dtype=complex) - self.base
        b = d.imag / self.ctx.tau.imag
        a = d.real - b * self.ctx.tau.real
        return a, b

    def contains(self, x):
        a, b = self.coords(x)
        return (0.0 <= a) & (a < 1.0) & (0.0 <= b) & (b < 1.0)

    def reduce(self, x):
        """(reduced, k, l) with x = reduced + k + l tau, reduced in the cell, k and l
        int; `_splits` raises RangeError naming the first point of x that
        is not finite or lies more than _MAX_LATTICE_SHIFT cells out."""
        _splits(np.ravel(np.asarray(x, dtype=complex)), self.ctx.tau)
        a, b = self.coords(x)
        k, l = np.floor(a).astype(int), np.floor(b).astype(int)
        return np.asarray(x, dtype=complex) - k - l * self.ctx.tau, k, l


GOLDEN = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)


def golden_points(cell: FundamentalParallelogram, count: int, offset,
                  avoid=(), margin: float = 0.0) -> list[complex]:
    """Deterministic low-discrepancy points inside the cell.

    Candidates are base + a_k + b_k tau for k = 1, 2, ...,
    with (a_k, b_k) = offset + k GOLDEN mod 1; the first `count` lying
    farther than `margin` from the lattice orbit of every point in `avoid`
    are returned.  Raises ArithmeticError after 500 * count candidates.
    Candidates are tested `count` at a time, against every avoided point
    in one array of lattice distances.  With nothing to avoid, no candidate
    is rejected, so a caller that needs disjoint point sets slices one draw.
    """
    avoid = np.array(avoid, dtype=complex)
    out = []
    k, last = 0, 500 * count
    while len(out) < count:
        if k >= last:
            raise ArithmeticError("could not place %d sample points clear of %d "
                                  "avoided orbits" % (count, len(avoid)))
        ks = np.arange(k + 1, min(k + count, last) + 1)
        xs = (cell.base + (offset[0] + ks * GOLDEN[0]) % 1.0
              + ((offset[1] + ks * GOLDEN[1]) % 1.0) * cell.ctx.tau)
        clear = (lattice_distances(xs[:, None] - avoid, cell.ctx) > margin).all(axis=1)
        out.extend(complex(x) for x in xs[clear])
        k = int(ks[-1])
    return out[:count]


def canonical_coords(poly: ThetaPoly, cell: FundamentalParallelogram) -> ThetaPoly:
    """Equivalent theta polynomial with all roots reduced into the cell.

    Moving a root by -(k + l tau) multiplies each factor by
    (-1)^{k+l} e^{-pi i l^2 tau - 2 pi i l (x - t')} (t' the reduced root), so
    the label picks up sum l_j and the scale absorbs the constants; values are
    unchanged.  Roots are sorted by cell coordinates for a unique normal form.
    """
    reduced, ks, ls = (v.tolist() for v in cell.reduce(np.array(poly.roots, dtype=complex)))
    mu, scale = poly.mu, poly.scale
    for t2, k, l in zip(reduced, ks, ls):
        mu += l
        sign = -1.0 if (k + l) % 2 else 1.0
        scale *= sign * cmath.exp(-1j * math.pi * l * l * poly.ctx.tau - TWOPI_I * l * t2)
    return ThetaPoly(scale, mu, tuple(sorted(reduced, key=cell.coords)), poly.ctx)


# ---------------------------------------------------------------------------
# Wronskian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Wronskian:
    """Wr(f, g) = f g' - f' g, itself of theta-polynomial type.

    For deg f = deg g = m the Wronskian transforms with degree 2m and
    multipliers (A_f A_g, B_f B_g).
    """

    f: ThetaPoly
    g: ThetaPoly

    @property
    def degree(self) -> int:
        return self.f.degree + self.g.degree

    @property
    def multipliers(self) -> tuple[complex, complex]:
        af, bf = self.f.multipliers
        ag, bg = self.g.multipliers
        return af * ag, bf * bg

    def eval(self, x):
        return self.derivs(x, 0)[0]

    __call__ = eval

    def derivs(self, x: complex, order: int = 2) -> list[complex]:
        """[Wr, Wr', ...](x) up to `order` <= 2 (see `_wronskian_rows`)."""
        if order > 2:
            raise ValueError("Wronskian derivatives available up to order 2")
        return _wronskian_rows(self.f.derivs(x, order + 1), self.g.derivs(x, order + 1))


def _wronskian_rows(df, dg) -> list:
    """[Wr, Wr', Wr''][:len(df) - 1] of Wr(f, g) = f g' - f' g from the stacks
    [f, f', ...], [g, g', ...]: Wr' = f g'' - f'' g, Wr'' = f g''' + f' g'' - f'' g' - f''' g."""
    out = [df[0] * dg[1] - df[1] * dg[0]]
    if len(df) > 2:
        out.append(df[0] * dg[2] - df[2] * dg[0])
    if len(df) > 3:
        out.append(df[0] * dg[3] + df[1] * dg[2] - df[2] * dg[1] - df[3] * dg[0])
    return out


def wronskian(f: ThetaPoly, g: ThetaPoly) -> Wronskian:
    if f.ctx.tau != g.ctx.tau:
        raise ValueError("Wronskian factors must share a torus")
    return Wronskian(f, g)


# ---------------------------------------------------------------------------
# Fourier basis of T_{m, A, B}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierTheta:
    """Finite Fourier sum e^{2 pi i nu0 x} * sum_n a_n e^{2 pi i n x}.

    The common envelope e^{2 pi i nu0 x} is kept factored out so that large
    imaginary labels do not overflow the per-term coefficients.
    """

    nu0: complex
    offsets: np.ndarray  # integer n
    coeffs: np.ndarray   # a_n

    def eval_many(self, xs: np.ndarray, order: int = 0) -> np.ndarray:
        xs = np.asarray(xs, dtype=complex)
        phases = np.exp(TWOPI_I * np.outer(xs, self.offsets))
        weights = self.coeffs * (TWOPI_I * (self.nu0 + self.offsets)) ** order
        return np.exp(TWOPI_I * self.nu0 * xs) * (phases @ weights)


def fourier_basis(m: int, a_mult: complex, b_mult: complex, ctx: Torus) -> list[FourierTheta]:
    """Basis of the m-dimensional space T_{m, A, B}.

    Writing f = sum a_nu e^{2 pi i nu x}, the x+1 law forces nu in nu0 + Z with
    e^{2 pi i nu0} = A (-1)^m, and the x+tau law gives the m-step recursion
    a_{nu+m} = a_nu e^{2 pi i nu tau} e^{pi i m tau} (-1)^m / B.  Seeding
    a_{nu0+r} = 1 for r = 1..m yields m independent solutions with
    superexponentially decaying tails in both directions.
    """
    if m < 1:
        raise ValueError("m must be positive")
    tau = ctx.tau
    nu0 = cmath.log(a_mult * (-1) ** m) / TWOPI_I
    # log C with C = e^{2 pi i nu0 tau} (-1)^m q^{m/2} / B, all in log space
    log_c = (TWOPI_I * nu0 * tau + 1j * math.pi * m + 1j * math.pi * m * tau
             - cmath.log(b_mult))
    basis = []
    jmax = 40
    js = np.arange(-jmax, jmax + 1)
    heights = np.linspace(-1.5, 1.5, 61) * tau.imag
    for r in range(1, m + 1):
        # log a_{r+jm} = j log C + 2 pi i tau (r j + m j (j-1)/2)
        loga = js * log_c + TWOPI_I * tau * (r * js + m * js * (js - 1) / 2.0)
        # keep a term where, at some height Im x within 1.5 cells of the
        # origin, it is within e^-40 of the largest term there: |a_n e^{2 pi
        # i n x}| = e^{Re log a_n - 2 pi n Im x}
        n = r + js * m
        logmod = loga.real[:, None] - 2.0 * math.pi * np.outer(n, heights)
        keep = (logmod >= logmod.max(axis=0) - 40.0).any(axis=1)
        with np.errstate(over="ignore"):  # an overflow raises OverflowError below
            coeffs = np.exp(loga[keep])
        if not np.all(np.isfinite(coeffs)):
            raise OverflowError("Fourier coefficients overflow for these multipliers")
        basis.append(FourierTheta(nu0, n[keep].astype(float), coeffs))
    return basis


# ---------------------------------------------------------------------------
# Wronskian inversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    """Outcome of solve_wronskian: the partner g plus diagnostics."""

    g: ThetaPoly
    residual: float
    condition: float


def _residues_over_f_squared(f: ThetaPoly, h) -> list[tuple]:
    """(residue, local scale) of h/f^2 at each root of f, by a 64-node
    trapezoid circle; all nodes of all roots in one evaluation each of h
    and f."""
    roots = np.array(f.roots, dtype=complex)
    i, j = np.triu_indices(len(roots), 1)
    radius = float(np.min(np.abs(roots[i] - roots[j]) / 2.0, initial=1e-2))
    w = np.exp(2j * math.pi * np.arange(64) / 64)
    xs = np.add.outer(roots, radius * w)
    vals = h.eval(xs) / f.eval(xs) ** 2
    residues = (radius / 64) * (vals @ w)
    scales = np.maximum(1.0, np.abs(vals).max(axis=1, initial=0.0) * radius)
    return [(complex(r), float(c)) for r, c in zip(residues, scales)]


def solve_wronskian(f: ThetaPoly, h, cell: FundamentalParallelogram) -> SolveResult:
    """Find g with f g' - f' g = h, as a theta polynomial.

    Parameters
    ----------
    f : ThetaPoly
        Known factor, degree m.
    h : ThetaPoly or Wronskian
        Target, degree 2m; anything with eval/degree/multipliers works.
    cell : FundamentalParallelogram
        Cell used for collocation points and root normalization.

    Raises
    ------
    MultipleRootError, DegenerateMultipliersError, ResidueViolationError
        Structural obstructions, detected before collocation.
    SolveError
        Verification of the computed g failed (should not happen for
        well-posed inputs).
    """
    ctx = f.ctx
    m = f.degree
    if h.degree != 2 * m:
        raise ValueError("target degree must be twice deg f (got %d vs %d)" % (h.degree, f.degree))

    # structural guards
    roots = np.array(f.roots, dtype=complex)
    i, j = np.triu_indices(m, 1)
    close = lattice_distances(roots[i] - roots[j], ctx) < 1e-8
    if close.any():
        k = int(np.argmax(close))
        raise MultipleRootError("roots %d and %d of f coincide" % (i[k], j[k]))
    af, bf = f.multipliers
    ah, bh = h.multipliers
    a2, b2 = ah / af, bh / bf
    if (abs(a2 - af) <= 1e-10 * max(1.0, abs(af)) and
            abs(b2 - bf) <= 1e-10 * max(1.0, abs(bf))):
        raise DegenerateMultipliersError("target multipliers equal f's own")
    for (res, scale) in _residues_over_f_squared(f, h):
        if abs(res) > 1e-8 * scale:
            raise ResidueViolationError("residue %.3e at a root of f" % abs(res))

    # collocation in the Fourier basis of T_{m, A2, B2}
    basis = fourier_basis(m, a2, b2, ctx)
    # one draw: collocation points, fresh verification points, scale probes
    pts = np.array(golden_points(cell, max(8 * m + 2, 20), (0.5, 0.5)))
    xs, ys, probes = pts[:4 * m], pts[4 * m:8 * m + 2], pts[13:20]
    bval = np.column_stack([b.eval_many(xs, 0) for b in basis])
    bder = np.column_stack([b.eval_many(xs, 1) for b in basis])
    fval = f.derivs(xs, 1)
    mat = fval[0][:, None] * bder - fval[1][:, None] * bval
    # unit columns: the basis functions differ in size by orders of
    # magnitude across the cell, which would otherwise set the condition
    cols = np.linalg.norm(mat, axis=0)
    coef, _, _, sv = np.linalg.lstsq(mat / cols, h.eval(xs), rcond=None)
    coef = coef / cols
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf

    # the basis functions share nu0 and sit on disjoint residue classes mod
    # m whose offsets are contiguous together, so g is one Fourier series:
    # the concatenated terms c_k basis_k, sorted by offset
    offsets = np.concatenate([b.offsets for b in basis])
    order = np.argsort(offsets)
    series = FourierTheta(basis[0].nu0, offsets[order],
                          np.concatenate([c * b.coeffs for c, b in zip(coef, basis)])[order])

    # verify on fresh points
    hs = h.eval(ys)
    scale = max(1.0, float(np.max(np.abs(hs))))
    df = f.derivs(ys, 1)
    wr = df[0] * series.eval_many(ys, 1) - df[1] * series.eval_many(ys, 0)
    residual = float(np.max(np.abs(wr - hs))) / scale
    if residual > 1e-9:
        raise SolveError("collocation residual %.3e exceeds 1e-9" % residual)

    g = _to_theta_poly(series, m, a2, b2, cell, probes)
    # definitive consistency check: the reconstructed theta polynomial must
    # reproduce the collocation solution (catches missed/spurious roots)
    gv = series.eval_many(ys[:5])
    if np.any(np.abs(g.eval(ys[:5]) - gv) > 1e-8 * np.maximum(1.0, np.abs(gv))):
        raise SolveError("root/label reconstruction does not match solution")
    return SolveResult(g, residual, condition)


def _to_theta_poly(series: FourierTheta, m, a2, b2, cell, probes) -> ThetaPoly:
    """Convert the Fourier series of g into scale/label/roots form; the
    scale is read off at the best-conditioned of the `probes`."""
    ctx, tau = cell.ctx, cell.ctx.tau
    # trim tails too small to influence roots near the cell, then read the
    # remaining Fourier sum as a polynomial in z = e^{2 pi i x}
    mag = np.abs(series.coeffs)
    big = mag > 1e-14 * mag.max()
    lo, hi = int(np.argmax(big)), len(big) - 1 - int(np.argmax(big[::-1]))
    zroots = np.roots(series.coeffs[lo:hi + 1][::-1])  # highest degree first

    # z only sees x mod 1: translate each candidate into the cell's tau-row,
    # polish them all with Newton on the series in lockstep (at most 8 steps;
    # a last step above 1e-9 rejects a candidate), then reduce and dedup
    x = np.log(zroots[zroots != 0]) / TWOPI_I
    x = x - np.round((x - cell.base).imag / tau.imag - 0.5) * tau
    step, live = np.full(len(x), np.inf, dtype=complex), np.ones(len(x), dtype=bool)
    for _ in range(8):
        idx = np.flatnonzero(live)
        d = series.eval_many(x[idx], 1)
        live[idx] = d != 0
        idx, d = idx[d != 0], d[d != 0]
        step[idx] = series.eval_many(x[idx]) / d
        x[idx] -= step[idx]
        live[idx] = np.abs(step[idx]) >= 1e-13
    roots = []
    for t in cell.reduce(x[np.abs(step) <= 1e-9])[0].tolist():
        if not (lattice_distances(t - np.array(roots, dtype=complex), ctx) < 1e-6).any():
            roots.append(t)
    if len(roots) != m:
        raise SolveError("expected %d roots in the cell, found %d" % (m, len(roots)))
    roots.sort(key=cell.coords)

    # label: e^{2 pi i L} = A2 fixes L mod 1; |B2 e^{-2 pi i L0 tau - 2 pi i sum roots}|
    # = e^{2 pi k Im tau} fixes the integer part
    l0 = cmath.log(a2) / TWOPI_I
    w = b2 * cmath.exp(-TWOPI_I * l0 * tau - TWOPI_I * sum(roots))
    k = round(-math.log(abs(w)) / (2.0 * math.pi * tau.imag))
    label = l0 + k
    if abs(w * cmath.exp(-TWOPI_I * k * tau) - 1.0) > 1e-6:
        raise SolveError("multipliers inconsistent with recovered roots")

    # scale: match values at the best-conditioned probe point
    unit = ThetaPoly(1.0, label, tuple(roots), ctx)
    ref = unit.eval(probes)
    best = int(np.argmax(np.abs(ref)))
    scale = complex(series.eval_many(probes[best:best + 1])[0]) / ref[best]
    return ThetaPoly(scale, label, unit.roots, ctx)
