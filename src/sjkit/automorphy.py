"""Canonical automorphic factors of the bounded-model Jacobi group.

The factor splits as J = a . b: an additive central part kappa_star (a
summand of automorphy) fed to a character of the additive group of h x h
matrices, and a block part fed to a holomorphic representation of GL(g,C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomp import kc_component
from .groups import GStarJacobiElement
from .numkit import (
    DEFAULT_TOL,
    DimensionError,
    DomainError,
    Tolerance,
    as_cmatrix,
    frob,
    rel_error,
)
from .spaces import DiskJacobiPoint, act_jacobi_disk

__all__ = [
    "IndexMatrix",
    "Representation",
    "chi_character",
    "rho_eval",
    "j_factor",
    "verify_cocycle",
]

# beyond this the complex exponential overflows double precision
_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class IndexMatrix:
    """A real symmetric h x h index; optionally flagged half-integral / psd."""

    m: np.ndarray
    half_integral: bool = False
    psd: bool = False
    tol: Tolerance = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        object.__setattr__(self, "m", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"index matrix must be square, got {m.shape}")
        if frob(m - m.T) > self.tol.algebraic_rel * max(1.0, frob(m)):
            raise DomainError("index matrix must be symmetric")
        if self.half_integral:
            diag = np.diag(m)
            off = 2.0 * (m - np.diag(diag))
            if frob(diag - np.round(diag)) > self.tol.algebraic_rel or \
               frob(off - np.round(off)) > self.tol.algebraic_rel:
                raise DomainError("index matrix is not half-integral")
        if self.psd and np.linalg.eigvalsh(m)[0] < -self.tol.pd_min_eig:
            raise DomainError("index matrix is not positive semidefinite")

    @property
    def h(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class Representation:
    """det^k (one-dimensional) or the standard representation of GL(g,C)."""

    kind: str  # "det_power" or "standard"
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("det_power", "standard"):
            raise DomainError(f"unknown representation kind: {self.kind!r}")

    def dimension(self, g: int) -> int:
        return 1 if self.kind == "det_power" else g


def chi_character(idx: IndexMatrix, c, tol: Tolerance = DEFAULT_TOL) -> complex:
    """exp(-2 pi i trace(M c)), a character of the additive group."""
    c = as_cmatrix(c, "c")
    if c.shape != (idx.h, idx.h):
        raise DimensionError(f"expected a {idx.h} x {idx.h} argument, got {c.shape}")
    s = complex(np.trace(idx.m @ c))
    if abs(2.0 * np.pi * np.imag(s)) > _EXP_LIMIT:
        raise DomainError("character exponent out of double-precision range")
    return complex(np.exp(-2j * np.pi * s))


def rho_eval(rep: Representation, p, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Evaluate the representation on an invertible matrix; result is dim x dim."""
    p = as_cmatrix(p, "P")
    if p.shape[0] != p.shape[1]:
        raise DimensionError(f"representation argument must be square, got {p.shape}")
    det = complex(np.linalg.det(p))
    if abs(det) < 1e-300 or not np.isfinite(abs(det)):
        raise DomainError("representation argument is singular")
    if rep.kind == "det_power":
        return np.array([[det**rep.k]], dtype=complex)
    return p.copy()


def _factor(idx: IndexMatrix, rep: Representation, k_lower: np.ndarray,
            kappa_star: np.ndarray, tol: Tolerance) -> np.ndarray:
    return chi_character(idx, kappa_star, tol) * rho_eval(rep, k_lower, tol)


def j_factor(idx: IndexMatrix, rep: Representation, a: GStarJacobiElement,
             p: DiskJacobiPoint, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """chi(kappa_star) rho(conj(Q) W + conj(P)), the automorphic factor."""
    if idx.h != a.h:
        raise DimensionError(f"index matrix degree {idx.h} != element h={a.h}")
    _, k_lower, kappa_star = kc_component(a, p, tol)
    return _factor(idx, rep, k_lower, kappa_star, tol)


def verify_cocycle(idx: IndexMatrix, rep: Representation, g1: GStarJacobiElement,
                   g2: GStarJacobiElement, p: DiskJacobiPoint,
                   tol: Tolerance = DEFAULT_TOL) -> float:
    """Worst relative residual of the additive cocycle of kappa_star and the
    multiplicative cocycle of the automorphic factor on (g1, g2, p)."""
    from .groups import gstarj_mul

    prod = gstarj_mul(g1, g2, tol)
    moved = act_jacobi_disk(g2, p, tol)
    (_, d12, k12), (_, d1, k1), (_, d2, k2) = (
        kc_component(x, q, tol) for x, q in ((prod, p), (g1, moved), (g2, p))
    )
    res_add = rel_error(k12, k1 + k2)
    res_mul = rel_error(_factor(idx, rep, d12, k12, tol),
                        _factor(idx, rep, d1, k1, tol) @ _factor(idx, rep, d2, k2, tol))
    return max(res_add, res_mul)
