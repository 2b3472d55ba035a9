"""Zero-weight linear algebra and the KZB operator family for sl2.

The space is V = (C^2)^(tensor n) with n = 2m sites, each factor the
two-dimensional module on which e11 + e22 acts by zero, so per site

    e11 = diag(1/2, -1/2) = -e22,   e12 = [[0,1],[0,0]],   e21 = e12^T,

with v1 (weight +1) and v2 (weight -1) the standard basis.  The
zero-weight subspace V[0] has dimension C(n, m) and is spanned by the
vectors v_I, indexed by m-element subsets I of {0..n-1} (0-based site
labels): v_I carries v2 exactly at the positions in I.

Operators act on coefficient vectors in the subset basis, never on the
2^n-dimensional space: each one below is a diagonal (the vector of its
eigenvalues on the v_I) plus a weighted sum of the moves e12^(s) e21^(p)
read from one table.  That includes L21 L12 in the column determinant,
whose middle factor passes through the weight -2 space.

Functions of the dynamical variable lambda (= lambda_1 - lambda_2 after
the sl2 reduction d/d lambda_1 -> d/d lambda, d/d lambda_2 -> -d/d
lambda) reach the operators as their jet (value, d/d lambda, d^2/d
lambda^2) of coefficient vectors at the lambda of evaluation, so one
evaluation serves every operator applied there.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import math

import numpy as np

from .bethe import BetheSolution, master_dtau, master_dz
from .elliptic import Torus, eta, phi, rho, rho_prime, sigma, sigma_jet
from .thetapoly import _leibniz

TWOPI_I = 2j * math.pi

# c2 = e11 e22 - e12 e21 + e11 acts on each C^2 factor by this scalar
C2_SCALAR = -0.75


class ZeroWeightSpace:
    """Subset basis of V[0] in (C^2)^(tensor n), with its site operators.

    hw_site[s] holds the diagonal of hw^(s) = e11 - e22.  The move table
    lists the nonzero entries of e12^(s) e21^(p), s != p: entry k sends
    v_{src[k]} to v_{tgt[k]}, site leave[k] = s leaving the subset and
    join[k] = p joining it, grouped by target, m^2 entries each.  The other
    two-site products reduce to these: e21^(s) e12^(p) = e12^(p) e21^(s)
    for s != p, e12^(s) e21^(s) and e21^(s) e12^(s) are the projectors
    (1 +- hw^(s))/2, and Omega0^(s,p) = hw^(s) hw^(p)/2.
    """

    def __init__(self, n_sites: int):
        if n_sites <= 0 or n_sites % 2 != 0:
            raise ValueError("need a positive even number of sites, got %d" % n_sites)
        self.n_sites = n_sites
        self.m = n_sites // 2
        self.subsets = tuple(itertools.combinations(range(n_sites), self.m))
        self.dim = len(self.subsets)
        self._index = {I: k for k, I in enumerate(self.subsets)}
        inside = np.array([[s in I for I in self.subsets] for s in range(n_sites)])
        self.hw_site = np.where(inside, -1.0, 1.0)
        # e21^(p) acts first and takes p into the subset, e12^(s) takes s out
        rows = [(self.index(set(target) - {p} | {s}), k, s, p)
                for k, target in enumerate(self.subsets)
                for s in range(n_sites) if s not in target
                for p in target]
        self.src, self.tgt, self.leave, self.join = np.array(rows, dtype=np.intp).T

    def moves(self, coef, value) -> np.ndarray:
        """sum_{s != p} coef[..., s, p] e12^(s) e21^(p) value, one output row
        per leading index of coef (its diagonal is not read)."""
        terms = np.asarray(coef)[..., self.leave, self.join] * np.asarray(value)[self.src]
        return terms.reshape(terms.shape[:-1] + (self.dim, -1)).sum(axis=-1)

    def index(self, subset) -> int:
        return self._index[tuple(sorted(subset))]


@functools.lru_cache(maxsize=None)
def zero_weight_space(n_sites: int) -> ZeroWeightSpace:
    return ZeroWeightSpace(n_sites)


@dataclasses.dataclass(frozen=True)
class KzbEigenvalues:
    """Eigenvalue tuple (E0 for H_0; E[a] for H_{a+1}) of a Bethe solution."""

    e0: complex
    e: tuple

    def __post_init__(self):
        total = abs(sum(self.e))
        if total > 1e-8:
            raise ArithmeticError(
                "KZB eigenvalues must sum to zero (got |sum| = %.3e)" % total)


def kzb_eigenvalues(sol: BetheSolution) -> KzbEigenvalues:
    """Eigenvalues of H_0, ..., H_n on the eigenfunction of a solution."""
    prob = sol.problem
    if sol.mu != prob.mu:
        prob = dataclasses.replace(prob, mu=sol.mu)
    return KzbEigenvalues(master_dtau(sol.t, prob), tuple(master_dz(sol.t, prob)))


# ---------------------------------------------------------------------------
# the Bethe eigenfunction Psi
# ---------------------------------------------------------------------------


def _weight_rows(lam: complex, sol: BetheSolution, order: int) -> np.ndarray:
    """Rows d^r/dw^r W_I at w = -lambda, r = 0..order (0 or 2), over the
    subsets I: W_I = Sym_t prod_j sigma(t_j - z_{i_j}, w), the permanent of
    the sigma jets on the roots and the sites in I.

    The sigma factors of all (root, site) pairs come from one kernel call.
    All C(n, m) permanents are one array fold: in ordering pi root j takes
    site I[pi(j)], the jets multiply by the Leibniz rule along j, and the
    orderings are summed last.  Row 0 does not depend on order: sigma has
    the same bits as sigma_jet's value.
    """
    prob = sol.problem
    sp = zero_weight_space(prob.n)
    diffs = np.subtract.outer(sol.t, prob.z)
    # jets[r, j, s]: d^r/dw^r sigma(t_j - z_s, w) at w = -lambda
    jets = np.array(sigma_jet(diffs, -lam, prob.ctx) if order
                    else (sigma(diffs, -lam, prob.ctx),))
    sites = np.array(sp.subsets)[:, list(itertools.permutations(range(prob.m)))]
    fold = jets[:, 0, sites[..., 0]]
    for j in range(1, prob.m):
        fold = _leibniz(fold, jets[:, j, sites[..., j]])
    return np.sum(fold, axis=-1)


def psi_derivs(lam: complex, sol: BetheSolution) -> tuple:
    """(Psi, dPsi/dlambda, d2Psi/dlambda2) at lambda, in the subset basis.

    Psi = e^{pi i mu lambda} sum_I W_I v_I, with the W_I and their
    w-derivatives from `_weight_rows` (w = -lambda, so its rows hold W_I,
    -dW_I/dlambda and d2W_I/dlambda2).
    """
    w = _weight_rows(lam, sol, 2)
    c = 1j * math.pi * sol.mu
    envelope = cmath.exp(c * lam)
    value = envelope * w[0]
    d1 = envelope * (c * w[0] - w[1])
    d2 = envelope * (c * c * w[0] - 2.0 * c * w[1] + w[2])
    return value, d1, d2


def psi(lam: complex, sol: BetheSolution) -> np.ndarray:
    """The V[0]-valued eigenfunction Psi at lambda (coefficient vector),
    from order-0 sigma values only; the same bits as psi_derivs' value."""
    c = 1j * math.pi * sol.mu
    return cmath.exp(c * lam) * _weight_rows(lam, sol, 0)[0]


# ---------------------------------------------------------------------------
# KZB operators
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class KzbOperators:
    """H_0, ..., H_n at one lambda, without their lambda-derivative terms:
    H_a F = diag[a] F + moves(coef[a], F), plus (1/2 pi i) F'' for a = 0
    and -hw^(s) F' for a = s + 1."""

    space: ZeroWeightSpace
    diag: np.ndarray  # (n + 1, dim)
    coef: np.ndarray  # (n + 1, n, n)


def kzb_operators(lam: complex, z, ctx: Torus) -> KzbOperators:
    """The KZB operators at lam, from one evaluation of rho and eta per
    unordered site pair and of sigma(z_s - z_p, -lambda) and phi(lambda,
    z_s - z_p) per ordered pair, one kernel call each.

    The operator attached to site s (0-based; H_{s+1}) is

        H_s = -hw^(s) d/dlambda + sum_{p != s} [ rho(z_s - z_p) Omega0^(s,p)
              + sigma(z_s - z_p, -lambda) e12^(s) e21^(p)
              + sigma(z_s - z_p, +lambda) e21^(s) e12^(p) ],

    and H_0 = (1/2 pi i) d^2/dlambda^2 + (1/4 pi i) sum_{s,p} [
    (1/2) eta(z_s - z_p) Omega0^(s,p) - phi(lambda, z_s - z_p) e12^(s) e21^(p)
    - phi(-lambda, z_s - z_p) e21^(s) e12^(p) ], where the diagonal s = p
    terms take the removable values eta(0) and phi(+-lambda, 0) = -rho'(lambda).
    Those terms are diagonal: Omega0^(s,s) = 1/2 and the two projectors
    (1 +- hw^(s))/2 add up to 1, so they give n (eta(0)/4 + rho'(lambda)).

    The other coefficients follow by parity: rho is odd and eta even, so
    the rho table is antisymmetric and the eta table symmetric;
    sigma(-x, -w) = -sigma(x, w) makes the sigma(., +lambda) table the
    negated transpose of the sigma(., -lambda) one, and phi(-x, -w) =
    phi(x, w) makes the phi(-lambda, .) table the transpose of the
    phi(lambda, .) one, so the two moves of H_0 add up to
    -phi(lambda, z_s - z_p)/(2 pi i).
    """
    n = len(z)
    sp = zero_weight_space(n)
    hw = sp.hw_site
    i, j = np.triu_indices(n, 1)
    d = np.subtract.outer(z, z)
    kernels = np.zeros((4, n, n), dtype=complex)
    kernels[:2, i, j] = rho(d[i, j], ctx), eta(d[i, j], ctx)
    kernels[:2, j, i] = -kernels[0, i, j], kernels[1, i, j]
    off = ~np.eye(n, dtype=bool)
    kernels[2:, off] = sigma(d[off], -lam, ctx), phi(lam, d[off], ctx)
    rho_d, eta_d, sig, phi_d = kernels
    diag = np.empty((n + 1, sp.dim), dtype=complex)
    diag[0] = (0.25 * np.sum(hw * (eta_d @ hw), axis=0)
               + n * (0.25 * eta(0.0, ctx) + rho_prime(lam, ctx))) / (4j * math.pi)
    diag[1:] = 0.5 * hw * (rho_d @ hw)
    # e21^(s) e12^(p) is the move with p leaving and s joining: a transpose
    coef = np.zeros((n + 1, n, n), dtype=complex)
    coef[0] = -phi_d / TWOPI_I
    for s in range(n):
        coef[s + 1, s, :] = sig[s]
        coef[s + 1, :, s] = -sig[:, s]
    return KzbOperators(sp, diag, coef)


def apply_kzb(ops: KzbOperators, jet) -> np.ndarray:
    """The rows H_0 F, ..., H_n F at the lambda of `ops`, from the jet
    (value, d1, d2) of F there: the subset-basis coefficient vectors of a
    function of lambda and its first two lambda-derivatives."""
    value, d1, d2 = (np.asarray(v, dtype=complex) for v in jet)
    rows = ops.diag * value + ops.space.moves(ops.coef, value)
    rows[0] += d2 / TWOPI_I
    rows[1:] -= ops.space.hw_site * d1
    return rows


def s2_via_kzb(x: complex, rows, value, z, ctx: Torus) -> np.ndarray:
    """S2(x) F from F and its rows H_a F (see apply_kzb), via the KZB
    combination S2(x) = -2 pi i H_0 - sum_s [ H_s rho(x - z_s)
    + c2^(s) rho'(x - z_s) ], c2^(s) the scalar -3/4 on each factor.
    """
    d = x - np.asarray(z)
    return (-TWOPI_I * rows[0] - rho(d, ctx) @ rows[1:]
            - C2_SCALAR * np.sum(rho_prime(d, ctx)) * np.asarray(value, dtype=complex))


# ---------------------------------------------------------------------------
# the column-determinant route to S2 (N = 2)
# ---------------------------------------------------------------------------


def apply_rst_n2(x: complex, jet, lam: complex, z, ctx: Torus) -> np.ndarray:
    """S2(x) F at lam, from the jet of F there, by the N = 2 column
    determinant cdet(delta ∂_x - delta ∂_{lambda_j} + L) = D11 D22 - D21 D12.

    Expanded once analytically for x-independent F (so D F = S2(x) F):

        D F = -F'' + (L11 - L22) F'
              + [dL22/dx + rho'(lambda) sum_k e11^(k) + L11 L22 - L21 L12] F.

    On V[0] the rho'(lambda) term vanishes, L11 and L22 are diagonal, and with
    L12 = sum_p sigma(x - z_p, -lambda) e21^(p) and L21 = sum_s sigma(x - z_s,
    lambda) e12^(s) the product L21 L12 is the sum of single-site moves
    sigma(x - z_s, lambda) sigma(x - z_p, -lambda) e12^(s) e21^(p).
    """
    sp = zero_weight_space(len(z))
    value, d1, d2 = (np.asarray(v, dtype=complex) for v in jet)
    # L11 = sum_k [rho(lambda) e22^(k) + rho(x - z_k) e11^(k)], and L22 the same
    # with e11 and e22 swapped and rho(lambda) negated; the weight sums
    # sum_k e11^(k) = -sum_k e22^(k) vanish on V[0], leaving the rho(x - z_k) terms
    e11 = 0.5 * sp.hw_site
    d = x - np.asarray(z)
    l11 = rho(d, ctx) @ e11
    l22 = -l11  # e22 = -e11 per site
    dx22 = -rho_prime(d, ctx) @ e11
    l21, l12 = sigma(d, np.array([[lam], [-lam]]), ctx)
    # the s = p terms of L21 L12: e12^(s) e21^(s) is the projector (1 + hw^(s))/2
    l21_l12_diag = 0.5 * (l21 * l12) @ (1.0 + sp.hw_site)
    return ((l11 - l22) * d1 + (dx22 + l11 * l22 - l21_l12_diag) * value
            - sp.moves(np.outer(l21, l12), value) - d2)


# ---------------------------------------------------------------------------
# the fundamental second-order operator of an eigenfunction
# ---------------------------------------------------------------------------


def fundamental_b2(x, sol: BetheSolution):
    """B2(x) with d^2/dx^2 + B2(x) the fundamental operator of Psi, at a
    point or at every point of an array.

    B2 = -w' - w^2 for w = (ln u)' = pi i mu + sum_j rho(x - t_j)
    - (1/2) sum_s rho(x - z_s).
    """
    prob = sol.problem
    poles = np.concatenate([sol.t, prob.z])
    weights = np.repeat([1.0, -0.5], [prob.m, prob.n])
    d = np.subtract.outer(x, poles)
    w = 1j * math.pi * sol.mu + rho(d, prob.ctx) @ weights
    return -(rho_prime(d, prob.ctx) @ weights) - w * w


# ---------------------------------------------------------------------------
# Weyl involution
# ---------------------------------------------------------------------------


def weyl_involution(coeffs: np.ndarray, space: ZeroWeightSpace) -> np.ndarray:
    """The nontrivial sl2 Weyl element on V[0].

    Per factor s v1 = v2, s v2 = -v1, so s v_I = (-1)^m v_{complement(I)}
    on the zero-weight basis.  Complementing reverses the lexicographic
    order of the m-subsets of 2m sites (the first site where two subsets
    differ belongs to the earlier one, and to the other's complement), so
    the complement of the k-th subset is the (dim - 1 - k)-th and s
    reverses the coefficient vector.
    """
    sign = -1.0 if space.m % 2 else 1.0
    return sign * np.asarray(coeffs, dtype=complex)[::-1]


def weyl_on_function(jet, space: ZeroWeightSpace) -> tuple:
    """The jet of (sF)(lambda) = s . F(-lambda) at lambda, from the jet of F
    taken at -lambda (the first derivative changes sign)."""
    value, d1, d2 = jet
    return (
        weyl_involution(value, space),
        -weyl_involution(d1, space),
        weyl_involution(d2, space),
    )
