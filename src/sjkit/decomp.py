"""Harish-Chandra decompositions.

For the Jacobi group, the three components of g . (point embedded in the
upper unipotent part): the upper unipotent, block diagonal and lower
unipotent factors, including the central coordinate kappa_star that later
feeds the automorphic factors.  At the origin with an identity Heisenberg
part they are the classical factorization of a bounded-model block element.

The three components are read off one guarded denominator in one private
core.  component_residuals returns the residuals of the identities they
satisfy; kc_component and decompose_full return the components and raise
when a residual exceeds the algebraic tolerance; reconstruction_residual
multiplies through the one product law, groups._big_product.  All act on
every slice of batched holders in one pass.  decompose_full and
component_residuals rebuild from the factors the core has just made, in
one private reconstruction core, without the coercion that
reconstruction_residual makes of a caller's factors; the finiteness,
Heisenberg-symmetry and nonsingular checks of each product stay.  The
factor blocks and the embedded point, the identity with one or two of its
g x g blocks replaced, are written into a copy of the cached identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    GStarJacobiElement,
    _big_product,
    _block_part,
    _check_batches,
    _check_gh,
    _embedded,
)
from .numkit import (
    ALGEBRAIC_REL,
    ConsistencyError,
    DimensionError,
    DomainError,
    _check_cond,
    _ensure,
    _eye,
    _floor1,
    _rel,
    _solve,
    _takes,
    as_cmatrix,
    frob,
    symmetry_defect,
)
from .spaces import DiskJacobiPoint, DiskPoint, _positive

__all__ = [
    "HCFactors",
    "JacobiHCFactors",
    "kc_component",
    "decompose_full",
    "component_residuals",
    "reconstruction_residual",
]


@dataclass(frozen=True)
class HCFactors:
    """Factors [[I, pplus_w], [0, I]] [[k_p, 0], [0, k_lower]] [[I, 0], [pminus_w, I]]."""

    pplus_w: np.ndarray
    k_p: np.ndarray
    k_lower: np.ndarray
    pminus_w: np.ndarray

    def _blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = self.k_p.shape[-1]
        return (_in_identity(g, (0, 1, self.pplus_w)),
                _in_identity(g, (0, 0, self.k_p), (1, 1, self.k_lower)),
                _in_identity(g, (1, 0, self.pminus_w)))


def _in_identity(g: int, *blocks) -> np.ndarray:
    """The 2g x 2g identity with its g x g block (i, j) replaced by x for each
    (i, j, x) of blocks, the batches of the xs broadcast: x written into a
    copy of the cached identity, with the complex dtype and the bytes that
    numkit._block gives each slice of the grid."""
    batch = ()
    for _, _, x in blocks:
        if x.shape[-2:] != (g, g):
            raise DimensionError(f"block shape {x.shape[-2:]} != {(g, g)}")
        if x.shape[:-2] != batch:
            batch = np.broadcast_shapes(batch, x.shape[:-2])
    out = np.empty(batch + (2 * g, 2 * g), complex)
    out[...] = _eye(2 * g)
    for i, j, x in blocks:
        out[..., i * g:(i + 1) * g, j * g:(j + 1) * g] = x
    return out


@dataclass(frozen=True)
class JacobiHCFactors:
    """The three components of a Jacobi group element applied to an embedded point."""

    hc: HCFactors
    pplus_eta: np.ndarray
    pminus_xi: np.ndarray
    kappa_star: np.ndarray

    def _parts(self, h: int) -> list[tuple]:
        """The (block, xi, eta, zeta) arrays of the three factors for a fiber
        of h rows.  Factor by factor, its one caller array and then its block
        are checked as groups._big_product checks an operand's parts, with the
        same messages: finite and complex, of conforming shapes; the zero
        parts, built here, are not."""
        g = self.hc.k_p.shape[-1]
        up, mid, low = self.hc._blocks()
        eta = as_cmatrix(self.pplus_eta, "eta")
        if eta.shape[-2:] != (h, g):
            raise DimensionError("xi and eta must have equal shape")
        up = _block_part(up, g)
        zeta = as_cmatrix(self.kappa_star, "zeta")
        if zeta.shape[-2:] != (h, h):
            raise DimensionError(f"zeta must be {h} x {h}, got {zeta.shape[-2:]}")
        mid = _block_part(mid, g)
        xi = as_cmatrix(self.pminus_xi, "xi")
        if xi.shape[-2:] != (h, g):
            raise DimensionError("xi and eta must have equal shape")
        low = _block_part(low, g)
        return _factor_parts((up, mid, low), eta, zeta, xi)


def _factor_parts(blocks: tuple, eta: np.ndarray, zeta: np.ndarray, xi: np.ndarray) -> list:
    """The (block, xi, eta, zeta) arrays of the three factors (up, mid, low) of
    blocks, whose Heisenberg parts are (0, eta; 0), (0, 0; zeta) and (xi, 0; 0)."""
    up, mid, low = blocks
    zf = np.zeros(xi.shape[-2:], dtype=complex)
    zc = np.zeros(zeta.shape[-2:], dtype=complex)
    return [(up, zf, eta, zc), (mid, zf, zf, zeta), (low, xi, zf, zc)]


def _made_parts(factors: JacobiHCFactors) -> list:
    """JacobiHCFactors._parts of the factors _hc_core has just made, without
    its coercion: their arrays are complex and of conforming shapes by
    construction, and a part that overflowed makes a product that fails
    _big_product's finiteness check."""
    return _factor_parts(factors.hc._blocks(), factors.pplus_eta, factors.kappa_star,
                         factors.pminus_xi)


def _embedded_point(p: DiskJacobiPoint) -> tuple:
    """(W, eta) as (block, xi, eta, zeta) = ([[I, W], [0, I]], 0, eta, 0): finite
    complex parts of conforming shapes, as the point's are."""
    g, h = p.g, p.h
    zf = np.zeros((h, g), dtype=complex)
    return _in_identity(g, (0, 1, p.w)), zf, p.eta, np.zeros((h, h), dtype=complex)


def _hc_core(a: GStarJacobiElement, p: DiskJacobiPoint) -> tuple[JacobiHCFactors, dict]:
    """All three components of a . (embedded point) from one guarded
    denominator d = conj(Q) W + conj(P), with the residuals of the identities
    they must satisfy.

    P+ = (W', eta') = ((P W + Q) d^-1, y d^-1) with y = eta + xi W + mu;
    K = (P - W' conj(Q), d, kappa_star);
    P- = (d^-1 conj(Q), xi - y d^-1 conj(Q)).
    kappa_star = kappa + xi t(eta) + y t(xi) - y d^-1 conj(Q) t(y); its
    transposed form y t(conj Q) t(d)^-1 t(y) = y t(conj Q) t(eta') agrees
    exactly when d^-1 conj(Q) is symmetric.
    """
    _takes("the Harish-Chandra decomposition", a, GStarJacobiElement)
    _takes("the Harish-Chandra decomposition", p, DiskJacobiPoint)
    _check_gh(a, p)
    _check_batches(a.gs.p, p.w)
    lam, mu, kap = a.hc.xi, a.hc.eta, a.hc.zeta
    qbar = a.gs.q.conj()
    den = qbar @ p.w + a.gs.p.conj()
    y = p.eta + lam @ p.w + mu
    _check_cond(den, "conj(Q) W + conj(P)")
    right = _solve(den.mT, np.concatenate([a.gs.p @ p.w + a.gs.q, y], axis=-2).mT).mT
    wprime, etap = right[..., :p.g, :], right[..., p.g:, :]
    pminus_w = _solve(den, qbar)
    kappa_base = kap + lam @ p.eta.mT + y @ lam.mT
    kappa_star = kappa_base - y @ pminus_w @ y.mT
    kappa_alt = kappa_base - y @ qbar.mT @ etap.mT
    factors = JacobiHCFactors(
        hc=HCFactors(
            pplus_w=(wprime + wprime.mT) / 2,
            k_p=a.gs.p - wprime @ qbar,
            k_lower=den,
            pminus_w=pminus_w,
        ),
        pplus_eta=etap,
        pminus_xi=lam - y @ pminus_w,
        kappa_star=kappa_star,
    )
    residuals = {
        "pplus_symmetry": symmetry_defect(wprime),
        "pminus_symmetry": symmetry_defect(pminus_w),
        "kappa_agreement": frob(kappa_star - kappa_alt) / _floor1(frob(kappa_star)),
    }
    return factors, residuals


def _require(residual, error: type, what: str) -> None:
    _ensure(residual <= ALGEBRAIC_REL, error, "{} {:.3e} exceeds tolerance", what, residual)


def kc_component(a: GStarJacobiElement,
                 p: DiskJacobiPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block-diagonal component (P - W' conj(Q), d, kappa_star); raises if the
    two kappa_star expressions disagree."""
    factors, res = _hc_core(a, p)
    _require(res["kappa_agreement"], ConsistencyError, "kappa_star disagreement")
    return factors.hc.k_p, factors.hc.k_lower, factors.kappa_star


def decompose_full(a: GStarJacobiElement, p: DiskJacobiPoint) -> JacobiHCFactors:
    """All three components of a . (embedded point); raises unless the moved
    point lies in the disk, every identity holds and the product rebuilds."""
    factors, res = _hc_core(a, p)
    _require(res["pplus_symmetry"], DomainError, "P+ coordinate symmetry defect")
    _positive(DiskPoint, factors.hc.pplus_w.copy())  # membership check; the point takes its copy
    _require(res["kappa_agreement"], ConsistencyError, "kappa_star disagreement")
    _require(res["pminus_symmetry"], ConsistencyError, "d^-1 conj(Q) symmetry defect")
    _require(_reconstruction(a, p, _made_parts(factors)), ConsistencyError,
             "component reconstruction residual")
    return factors


def component_residuals(a: GStarJacobiElement, p: DiskJacobiPoint) -> dict:
    """Raw residuals of the decomposition identities, without raising: the
    symmetry defects of the upper and lower unipotent coordinates, the
    relative disagreement of the two kappa_star expressions, and the
    reconstruction (triple product vs embedded product)."""
    factors, res = _hc_core(a, p)
    return {**res, "reconstruction": _reconstruction(a, p, _made_parts(factors))}


def reconstruction_residual(a: GStarJacobiElement, p: DiskJacobiPoint,
                            factors: JacobiHCFactors) -> float:
    """Relative residual of (up mid low) against a . (embedded point), the
    largest over the block and the three Heisenberg parts.  Every factor
    array and product is checked as in _big_product: finite parts of
    conforming shapes, then, for a product, zeta + eta t(xi) symmetric and a
    nonsingular block."""
    _takes("reconstruction_residual", a, GStarJacobiElement)
    _takes("reconstruction_residual", p, DiskJacobiPoint)
    _takes("reconstruction_residual", factors, JacobiHCFactors)
    return _reconstruction(a, p, factors._parts(p.h))


def _reconstruction(a: GStarJacobiElement, p: DiskJacobiPoint, factors: list):
    """reconstruction_residual of the (block, xi, eta, zeta) arrays of the
    factors (up, mid, low)."""
    up, mid, low = factors
    rebuilt = _big_product(_big_product(up, mid), low)
    target = _big_product(_embedded(a), _embedded_point(p))
    block, xi, eta, zeta = map(_rel, rebuilt, target)
    return np.maximum(np.maximum(block, xi), np.maximum(eta, zeta))
