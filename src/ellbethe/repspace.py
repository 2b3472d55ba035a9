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
whose middle factor passes through the weight -2 space.  The coefficients
of the eigenfunction Psi, permanents of m x m blocks of sigma jets, come
from a second table built beside it: the row expansion over column
subsets (`ZeroWeightSpace.minors`) takes sum_k C(n, k) k jet products.

Functions of the dynamical variable lambda (= lambda_1 - lambda_2 after
the sl2 reduction d/d lambda_1 -> d/d lambda, d/d lambda_2 -> -d/d
lambda) reach the operators as their jet (value, d/d lambda, d^2/d
lambda^2) of coefficient vectors at the lambda of evaluation, so one
evaluation serves every operator applied there.  `verify_eigen` checks
the eigenfunctions Psi (`psi_derivs`) of many solutions against these
operators, with one theta table (one jet call per order) over all of them.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import typing

import numpy as np

from .bethe import (BetheSolution, _differences, _master_eigenvalues, _shared_problem,
                    master_gradient)
from .elliptic import (TWOPI_I, Torus, _rho_rows, _theta_table, eta, phi, sigma, sigma_jet,
                       theta_derivs)
from .thetapoly import _leibniz, _wronskian_rows, stacked_derivs

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
        self.n_sites, self.m = n_sites, n_sites // 2
        # levels[k - 1]: the k-subsets, lexicographic; rank[bitmask]: a subset's index in its level
        levels = [np.array(list(itertools.combinations(range(n_sites), k)))
                  for k in range(1, self.m + 1)]
        bits = [np.sum(1 << level, axis=1) for level in levels]
        rank = np.empty(2 ** n_sites, dtype=np.intp)
        rank[np.concatenate(bits)] = np.concatenate([np.arange(len(b)) for b in bits])
        top = levels[-1]
        self.subsets, self.dim = tuple(map(tuple, top.tolist())), len(top)
        self._index = {S: j for j, S in enumerate(self.subsets)}
        self.hw_site = np.where((np.arange(n_sites)[:, None, None] == top).any(-1), -1.0, 1.0)
        # e21^(p) acts first and takes p into the subset, e12^(s) takes s out; per target,
        # s ascending outside it (subset k's complement is subset dim - 1 - k), then p inside
        tgt, leave, join = np.arange(self.dim)[:, None, None], top[::-1, :, None], top[:, None, :]
        src = rank[bits[-1][:, None, None] + (1 << leave) - (1 << join)]
        self.src, self.tgt, self.leave, self.join = (np.broadcast_to(a, src.shape).ravel()
                                                     for a in (src, tgt, leave, join))
        # the permanents of `_psi_rows`, level k = 2..m: for each k-subset S, the
        # index of each S minus S[i] among the (k - 1)-subsets, and the site S[i]
        self.minors = [(rank[b[:, None] - (1 << lv)], lv) for b, lv in zip(bits[1:], levels[1:])]

    def moves(self, coef, value) -> np.ndarray:
        """sum_{s != p} coef[..., s, p] e12^(s) e21^(p) value[..., :], the
        leading axes of coef and value broadcast (coef's diagonal is not
        read).  Each target adds its m^2 terms one at a time in table order,
        so its bits depend neither on the batch nor on the memory layout.  The
        coefficients are gathered once per call, and a value with more leading
        axes than coef is taken one index of those extra axes at a time, so
        the terms held are one index's; the KZB rows and both S2 routes sum
        the table here alone."""
        coef, value = np.asarray(coef)[..., self.leave, self.join], np.asarray(value)
        lead = value.shape[:max(value.ndim - coef.ndim, 0)]
        rows = []
        for v in value.reshape((-1,) + value.shape[len(lead):]):
            terms = coef * v[..., self.src]
            terms = terms.reshape(terms.shape[:-1] + (self.dim, -1))
            rows.append(functools.reduce(np.add, np.moveaxis(terms, -1, 0)))
        return np.reshape(rows, lead + rows[0].shape)

    def index(self, subset) -> int:
        return self._index[tuple(sorted(subset))]


@functools.lru_cache(maxsize=None)
def zero_weight_space(n_sites: int) -> ZeroWeightSpace:
    return ZeroWeightSpace(n_sites)


def kzb_eigenvalues(sols) -> np.ndarray:
    """Eigenvalues (E_0 of H_0, E_1..E_n of H_1..H_n) on the eigenfunction
    of each solution, all on one problem's sites and torus (ValueError otherwise):
    an (S, n + 1) array from one evaluation of each kernel over every solution."""
    t, mu = np.array([sol.t for sol in sols], dtype=complex), [sol.mu for sol in sols]
    prob = _shared_problem([sol.problem for sol in sols])
    return master_gradient(t, prob, mu)


# ---------------------------------------------------------------------------
# the Bethe eigenfunction Psi
# ---------------------------------------------------------------------------


def _psi_args(lams, sols) -> tuple:
    """sigma's arguments in `_psi_rows`: t_j - z_s, (S, 1, m, n), and -lambda, (S, L, 1, 1)."""
    diffs = np.subtract.outer(np.array([sol.t for sol in sols], dtype=complex), sols[0].problem.z)
    return diffs[:, None], -np.array(lams, dtype=complex)[..., None, None]


def _psi_rows(jets, lams, sols) -> np.ndarray:
    """(Psi, dPsi/dlambda, d2Psi/dlambda2)[:len(jets)] of each solution
    sols[k] at the points lams[k], an (len(jets), S, L, dim) array, from
    sigma_jet's rows, or sigma's values alone, at `_psi_args`: Psi = e^{pi i
    mu lambda} sum_I W_I v_I, W_I the permanent of the block sigma(t_j - z_s,
    -lambda), s in I.  Its row expansion over the column subsets,
    P_k(S) = sum_{s in S} P_{k-1}(S - s) sigma(t_k - z_s, -lambda) with the
    products by the Leibniz rule, runs through the levels of
    `ZeroWeightSpace.minors` one solution at a time, each level's k terms
    added one at a time in order, so a row's bits do not depend on the
    batch; the envelope and its lambda-derivatives are one array expression."""
    sp = zero_weight_space(sols[0].problem.n)
    w = np.empty(jets.shape[:3] + (sp.dim,), dtype=complex)
    for k, jk in enumerate(np.moveaxis(jets, 1, 0)):
        perm = jk[..., 0, :]
        for j, (drop, sites) in enumerate(sp.minors, 1):
            perm = functools.reduce(np.add, [_leibniz(perm[..., d], jk[..., j, s])
                                             for d, s in zip(drop.T, sites.T)])
        w[:, k] = perm
    c = 1j * math.pi * np.array([sol.mu for sol in sols])[:, None, None]
    if len(w) > 1:
        w[1], w[2] = c * w[0] - w[1], c * c * w[0] - 2.0 * c * w[1] + w[2]
    return np.exp(c * np.array(lams, dtype=complex)[..., None]) * w


def psi_derivs(lam: complex, sol: BetheSolution) -> tuple:
    """(Psi, dPsi/dlambda, d2Psi/dlambda2) at lambda, in the subset basis:
    the eigenfunction of a solution and its jet (see `_psi_rows`)."""
    at = [[lam]], [sol]
    return tuple(_psi_rows(np.array(sigma_jet(*_psi_args(*at), sol.problem.ctx)), *at)[:, 0, 0])


# ---------------------------------------------------------------------------
# KZB operators
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class KzbOperators:
    """H_0, ..., H_n at a lambda, without their lambda-derivative terms:
    H_a F = diag[a] F + moves(coef[a], F), plus (1/2 pi i) F'' for a = 0
    and -hw^(s) F' for a = s + 1.  Operators at an array of lambdas carry
    its axes first."""

    space: ZeroWeightSpace
    diag: np.ndarray  # (..., n + 1, dim)
    coef: np.ndarray  # (..., n + 1, n, n)


def kzb_operators(lam, z, ctx: Torus) -> KzbOperators:
    """The KZB operators at lam, a point or an array of points, from one
    theta table over the site pairs and the lambdas on their own axes,
    assembled by `_kzb_operators`, which `verify_eigen` shares.

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
    d, lam = np.subtract.outer(z, z), np.asarray(lam, dtype=complex)
    pairs, ordered = d[np.triu_indices(len(z), 1)], d[~np.eye(len(z), dtype=bool)]
    (r_pairs, r_lam), (eta_pairs, eta0), (sig,), (phi_d,) = _theta_table(
        ctx, (_rho_rows, (pairs,), (lam,)), (eta, (pairs,), (0.0,)),
        (sigma, (ordered, -lam[..., None])), (phi, (lam[..., None], ordered)))
    return _kzb_operators(len(z), r_pairs[0], eta_pairs, eta0, r_lam[1], sig, phi_d)


def _kzb_operators(n, rho_d, eta_d, eta0, rho_p, sig, phi_d) -> KzbOperators:
    """kzb_operators from its kernels' values, at z_s - z_p for s < p, then p != s."""
    sp = zero_weight_space(n)
    hw = sp.hw_site
    shape = np.shape(sig)[:-1]
    i, j = np.triu_indices(n, 1)
    rho_t, eta_t = np.zeros((2, n, n), dtype=complex)
    rho_t[i, j], eta_t[i, j] = rho_d, eta_d
    rho_t[j, i], eta_t[j, i] = -rho_d, eta_d
    off = ~np.eye(n, dtype=bool)
    sig_t, phi_t = np.zeros((2,) + shape + (n, n), dtype=complex)
    sig_t[..., off], phi_t[..., off] = sig, phi_d
    diag = np.empty(shape + (n + 1, sp.dim), dtype=complex)
    diag[..., 0, :] = (0.25 * np.sum(hw * (eta_t @ hw), axis=0) + n * (
        0.25 * eta0 + rho_p)[..., None]) / (4j * math.pi)
    diag[..., 1:, :] = 0.5 * hw * (rho_t @ hw)
    # e21^(s) e12^(p) is the move with p leaving and s joining: a transpose
    coef = np.zeros(shape + (n + 1, n, n), dtype=complex)
    coef[..., 0, :, :] = -phi_t / TWOPI_I
    for s in range(n):
        coef[..., s + 1, s, :] = sig_t[..., s, :]
        coef[..., s + 1, :, s] = -sig_t[..., :, s]
    return KzbOperators(sp, diag, coef)


def apply_kzb(ops: KzbOperators, jet) -> np.ndarray:
    """The rows H_0 F, ..., H_n F at the lambda of `ops`, from the jet
    (value, d1, d2) of F there: the subset-basis coefficient vectors of a
    function of lambda and its first two lambda-derivatives.  Leading axes
    of the jet and of `ops` broadcast into those of the (..., n + 1, dim)
    rows, the moves summed by `moves` (one index of a batched jet at a time)."""
    value, d1, d2 = (np.asarray(v, dtype=complex)[..., None, :] for v in jet)
    rows = ops.diag * value + ops.space.moves(ops.coef, value)
    rows[..., :1, :] += d2 / TWOPI_I
    rows[..., 1:, :] -= ops.space.hw_site * d1
    return rows


def s2_via_kzb(x, rows, value, z, ctx: Torus) -> np.ndarray:
    """S2(x) F from F and its rows H_a F (see apply_kzb), via the KZB
    combination S2(x) = -2 pi i H_0 - sum_s [ H_s rho(x - z_s)
    + c2^(s) rho'(x - z_s) ], c2^(s) the scalar -3/4 on each factor.
    x may be an array, whose axes then lead those of rows and value.
    """
    return _s2_via_kzb(_rho_rows(np.subtract.outer(np.asarray(x, complex), z), ctx), rows, value)


def _s2_via_kzb(r, rows, value) -> np.ndarray:
    """s2_via_kzb from the rows (rho, rho') at x - z_s."""
    return (-TWOPI_I * rows[..., 0, :] - (r[0][..., None, :] @ rows[..., 1:, :])[..., 0, :]
            - C2_SCALAR * np.sum(r[1], axis=-1)[..., None] * np.asarray(value, dtype=complex))


# ---------------------------------------------------------------------------
# the column-determinant route to S2 (N = 2)
# ---------------------------------------------------------------------------


def apply_rst_n2(x, jet, lam, z, ctx: Torus) -> np.ndarray:
    """S2(x) F at lam, from the jet of F there, by the N = 2 column
    determinant cdet(delta ∂_x - delta ∂_{lambda_j} + L) = D11 D22 - D21 D12.
    x and lam may be arrays of one shape, whose axes then lead those of
    the jet.

    Expanded once analytically for x-independent F (so D F = S2(x) F):

        D F = -F'' + (L11 - L22) F'
              + [dL22/dx + rho'(lambda) sum_k e11^(k) + L11 L22 - L21 L12] F.

    On V[0] the rho'(lambda) term vanishes, L11 and L22 are diagonal, and with
    L12 = sum_p sigma(x - z_p, -lambda) e21^(p) and L21 = sum_s sigma(x - z_s,
    lambda) e12^(s) the product L21 L12 is the sum of single-site moves
    sigma(x - z_s, lambda) sigma(x - z_p, -lambda) e12^(s) e21^(p).
    """
    d, lam = np.subtract.outer(np.asarray(x, dtype=complex), z), np.asarray(lam, dtype=complex)
    return _rst_n2(_rho_rows(d, ctx), sigma(d, np.array([lam, -lam])[..., None], ctx), jet)


def _rst_n2(r, sig, jet) -> np.ndarray:
    """apply_rst_n2 from the rows (rho, rho') and sigma(., +-lambda) at x - z_s,
    L21 L12 summed by `moves` as the KZB rows are (one index of a batched jet at a time)."""
    sp = zero_weight_space(r.shape[-1])
    value, d1, d2 = (np.asarray(v, dtype=complex) for v in jet)
    # L11 = sum_k [rho(lambda) e22^(k) + rho(x - z_k) e11^(k)], and L22 the same
    # with e11 and e22 swapped and rho(lambda) negated; the weight sums
    # sum_k e11^(k) = -sum_k e22^(k) vanish on V[0], leaving the rho(x - z_k) terms
    e11 = 0.5 * sp.hw_site
    l11 = (r[0][..., None, :] @ e11)[..., 0, :]
    l22 = -l11  # e22 = -e11 per site
    dx22 = (-r[1][..., None, :] @ e11)[..., 0, :]
    l21, l12 = sig
    # the s = p terms of L21 L12: e12^(s) e21^(s) is the projector (1 + hw^(s))/2
    l21_l12_diag = ((0.5 * (l21 * l12))[..., None, :] @ (1.0 + sp.hw_site))[..., 0, :]
    l21_l12 = sp.moves(l21[..., :, None] * l12[..., None, :], value)
    return ((l11 - l22) * d1 + (dx22 + l11 * l22 - l21_l12_diag) * value - l21_l12 - d2)


# ---------------------------------------------------------------------------
# the fundamental second-order operator of an eigenfunction
# ---------------------------------------------------------------------------


def fundamental_b2(x, sol: BetheSolution):
    """B2(x) with d^2/dx^2 + B2(x) the fundamental operator of Psi, at a
    point or at every point of an array (see `_b2`)."""
    d = np.asarray(x, dtype=complex)[..., None] - np.array((*sol.t, *sol.problem.z), dtype=complex)
    return _b2(_rho_rows(d[None], sol.problem.ctx), [sol])[0]


def _b2(r, sols) -> np.ndarray:
    """B2 of each solution sols[k] at the points x, an (S, *x.shape) array,
    from the rows (rho, rho') at x - t_j, then x - z_s: B2 = -w' - w^2 for
    w = (ln u)' = pi i mu + sum_j rho(x - t_j) - (1/2) sum_s rho(x - z_s)."""
    weights = np.repeat([1.0, -0.5], [sols[0].problem.m, sols[0].problem.n])
    rates = np.array([1j * math.pi * sol.mu for sol in sols]).reshape((-1,) + (1,) * (r.ndim - 3))
    w = rates + r[0] @ weights
    return -(r[1] @ weights) - w * w


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
    reverses the coefficient vector (the last axis of coeffs).
    """
    sign = -1.0 if space.m % 2 else 1.0
    return sign * np.asarray(coeffs, dtype=complex)[..., ::-1]


# ---------------------------------------------------------------------------
# the eigen verifier
# ---------------------------------------------------------------------------


EIGEN_CHECKS = ("eigen_relation", "eigen_sum_rule", "eigenvalue_sum", "s2_routes",
                "s2_eigen_b2", "b2_periodicity", "kernel_membership", "weyl_ratio")


class EigenVerification(typing.NamedTuple):
    worst: dict        # check name -> largest value (NaN if any is), all inf if no pair
    ratio_rows: tuple  # per pair: per lambda {lambda, mean Weyl ratio, component_spread}


def _norms(a) -> np.ndarray:
    """np.linalg.norm per vector on the last axis, bit for bit: its dot of the real parts plus
    that of the imaginary parts, as one stacked matmul each (a norm along an axis sums in
    another order)."""
    v = np.ascontiguousarray(a).reshape(-1, a.shape[-1])
    r, i = v.real, v.imag
    return np.sqrt(r[:, None] @ r[..., None] + i[:, None] @ i[..., None]).reshape(a.shape[:-1])


def verify_eigen(pairs, lam_pts, x_pts) -> EigenVerification:
    """Verify the eigenfunction Psi of each (solution, partner) pair at the
    points lambda and x, two nonempty lists of one length, every solution
    and partner on one problem's sites and torus (ValueError otherwise):
    over |Psi|, H_a Psi = E_a Psi (eigen_relation) and sum_s H_s Psi = 0
    (eigen_sum_rule); |E_1 + ... + E_n| (eigenvalue_sum); at (x_k,
    lambda_k), `s2_via_kzb` = `apply_rst_n2` over max(1, |S2 Psi|)
    (s2_routes) and S2 Psi = B2 Psi over |Psi| (s2_eigen_b2); over max(1,
    |B2|), B2(x + 1) = B2(x + tau) = B2(x) (b2_periodicity) and v' + v^2 +
    B2 = 0 for v = (ln u)', u = f/sqrt(Wr) and g/sqrt(Wr) of the pair's
    theta polynomials (kernel_membership); the spread of s . Psi(-lambda) /
    Psi_partner(lambda) relative to its mean (weyl_ratio).  Every kernel
    comes from one theta table over every pair and point, read by the
    helpers' assembly steps, and each reduction runs per vector or along a
    last axis, so no value depends on the other pairs.  A NaN anywhere makes
    its check's worst value NaN, which fails every tolerance."""
    if not len(lam_pts) == len(x_pts) > 0:
        raise ValueError("lam_pts and x_pts must be nonempty and of one length, got %d and %d"
                         % (len(lam_pts), len(x_pts)))
    if not pairs:
        return EigenVerification(dict.fromkeys(EIGEN_CHECKS, math.inf), ())
    (sols, pars), count = map(list, zip(*pairs)), len(pairs)
    prob = _shared_problem([sol.problem for sol in sols + pars])
    ctx, z = prob.ctx, np.array(prob.z)
    lams, xs = np.array(lam_pts, dtype=complex), np.array(x_pts, dtype=complex)
    t, mu = np.array([sol.t for sol in sols], dtype=complex), [sol.mu for sol in sols]
    diffs, sites = _differences(t, prob), np.subtract.outer(z, z)[~np.eye(len(z), dtype=bool)]
    xz, zt, lam_col = xs[:, None] - z, z[:, None] - t[:, None, :], lams[:, None]
    flip_lams = [[-lam for lam in lam_pts]] * count + [lam_pts] * count
    poles = np.array([xs, xs + 1, xs + ctx.tau])[..., None] - np.array(
        [tuple(sol.t) + prob.z for sol in sols], dtype=complex)[:, None, None]
    at = [lam_pts] * count, sols
    ((r_xz, r_b2, r_lam, r_pairs, r_mixed, r_sites), (*etas, eta0), (sig_kzb, sig_rst, sig_flips),
     (d0,), (psi,), (phi_d,)) = _theta_table(
        ctx, (_rho_rows, (xz,), (poles,), (lams,), (diffs[2],), (zt,), (sites,)),
        (eta, *((d,) for d in diffs), (0.0,)),
        (sigma, (sites, -lam_col), (xz, [lam_col, -lam_col]), _psi_args(flip_lams, sols + pars)),
        (theta_derivs, (0.0,)), (sigma_jet, _psi_args(*at)), (phi, (lam_col, sites)))
    evs = _master_eigenvalues(etas, d0[3], r_mixed[0], r_sites[0], mu)
    jets = _psi_rows(psi, *at)
    ops = _kzb_operators(len(z), r_pairs[0], etas[2], eta0, r_lam[1], sig_kzb, phi_d)
    rows = apply_kzb(ops, jets)
    # s . Psi(-lambda) of each solution, over the partners' Psi(lambda)
    flips = _psi_rows(sig_flips[None], flip_lams, sols + pars)[0]
    ratio = weyl_involution(flips[:count], zero_weight_space(len(z))) / flips[count:]
    mean, overall = ratio.mean(axis=-1), ratio.reshape(count, -1).mean(axis=-1)
    s2 = _s2_via_kzb(r_xz, rows, jets[0])
    b2s = _b2(r_b2, sols)
    b2, scale = b2s[:, 0], np.maximum(1.0, np.abs(b2s[:, 0]))
    pd = stacked_derivs([sol.poly() for sol in sols] + [par.poly() for par in pars],
                        np.broadcast_to(xs, (2 * count, len(xs))), 3)
    wd = _wronskian_rows([row[:count] for row in pd], [row[count:] for row in pd])
    pd = [row.reshape(2, count, -1) for row in pd]
    v = pd[1] / pd[0] - 0.5 * wd[1] / wd[0]
    vp = pd[2] / pd[0] - (pd[1] / pd[0]) ** 2 - 0.5 * (wd[2] / wd[0] - (wd[1] / wd[0]) ** 2)
    value, vnorm = jets[0], _norms(jets[0])
    measured = {
        "eigen_relation": _norms(rows - evs[:, None, :, None] * value[:, :, None])
        / vnorm[..., None],
        "eigen_sum_rule": _norms(np.sum(rows[:, :, 1:], axis=2)) / vnorm,
        # each pair's E_1..E_n summed left to right by Python's sum, the order the values rest on
        "eigenvalue_sum": [abs(sum(e)) for e in evs[:, 1:]],
        "s2_routes": _norms(s2 - _rst_n2(r_xz, sig_rst, jets)) / np.fmax(1.0, _norms(s2)),
        "s2_eigen_b2": _norms(s2 - b2[..., None] * value) / vnorm,
        "b2_periodicity": np.max(np.abs(b2s[:, 1:] - b2[:, None]) / scale[:, None], axis=(1, 2)),
        "kernel_membership": np.max(np.abs(vp + v * v + b2) / scale, axis=-1),
        "weyl_ratio": np.max(np.abs(ratio.reshape(count, -1) - overall[:, None]), axis=-1)
        / np.abs(overall),
    }
    worst = {name: float(np.max(np.ravel(measured[name]), initial=0.0)) for name in EIGEN_CHECKS}
    spread = np.max(np.abs(ratio - mean[..., None]), axis=-1)
    return EigenVerification(worst, tuple(
        tuple({"lambda": lam, "ratio": complex(mean[k, l]),
               "component_spread": float(spread[k, l])} for l, lam in enumerate(lam_pts))
        for k in range(count)))
