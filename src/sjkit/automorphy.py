"""Canonical automorphic factors of the bounded-model Jacobi group.

The factor splits as J = a . b: an additive central part kappa_star (a
summand of automorphy) fed to a character of the additive group of h x h
matrices, and a block part fed to a holomorphic representation of GL(g,C).
verify_cocycle(indexes, reps, g1, g2, p) checks the cocycle identities
on one triple, or on each of a batch of triples, for every (index,
representation) pair at once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .decomp import kc_component
from .groups import GStarJacobiElement, _as_real, gstarj_mul
from .numkit import (
    ALGEBRAIC_REL,
    PD_MIN_EIG,
    DimensionError,
    DomainError,
    _det,
    _eigvalsh,
    _ensure,
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

    def __post_init__(self):
        m = _as_real(self.m, "index matrix")
        object.__setattr__(self, "m", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"index matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("index matrix entries must be finite (no NaN/Inf)")
        if not frob(m - m.T) / max(1.0, frob(m)) <= ALGEBRAIC_REL:
            raise DomainError("index matrix must be symmetric")
        if self.half_integral:
            diag = np.diag(m)
            off = 2.0 * (m - np.diag(diag))
            if not (frob(diag - np.round(diag)) <= ALGEBRAIC_REL and
                    frob(off - np.round(off)) <= ALGEBRAIC_REL):
                raise DomainError("index matrix is not half-integral")
        if self.psd and not _eigvalsh(m)[0] >= -PD_MIN_EIG:
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
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise DomainError(f"the power k must be an int, got {self.k!r}")


def chi_character(idx: IndexMatrix, c):
    """exp(-2 pi i trace(M c)), a character of the additive group."""
    c = as_cmatrix(c, "c")
    if c.shape[-2:] != (idx.h, idx.h):
        raise DimensionError(f"expected a {idx.h} x {idx.h} argument, got {c.shape[-2:]}")
    s = np.trace(idx.m @ c, axis1=-2, axis2=-1)
    _ensure(abs(2.0 * np.pi * np.imag(s)) <= _EXP_LIMIT, DomainError,
            "character exponent out of double-precision range")
    chi = np.exp(-2j * np.pi * s)
    return complex(chi) if chi.ndim == 0 else chi


def rho_eval(rep: Representation, p) -> np.ndarray:
    """Evaluate the representation on an invertible matrix; result is dim x dim."""
    p = as_cmatrix(p, "P")
    if p.shape[-2] != p.shape[-1]:
        raise DimensionError(f"representation argument must be square, got {p.shape[-2:]}")
    det = _det(p)
    _ensure((abs(det) >= 1e-300) & np.isfinite(abs(det)), DomainError,
            "representation argument is singular")
    if rep.kind == "det_power":
        # Python's complex power on each slice: numpy's array power rounds differently
        try:
            power = np.array([complex(d) ** rep.k for d in det.flat]).reshape(det.shape)
        except OverflowError as exc:
            raise DomainError(f"det^{rep.k} out of double-precision range") from exc
        return power[..., None, None]
    return p.copy()


def j_factor(idx: IndexMatrix, rep: Representation, a: GStarJacobiElement,
             p: DiskJacobiPoint) -> np.ndarray:
    """chi(kappa_star) rho(conj(Q) W + conj(P)), the automorphic factor."""
    if idx.h != a.h:
        raise DimensionError(f"index matrix degree {idx.h} != element h={a.h}")
    _, k_lower, kappa_star = kc_component(a, p)
    return chi_character(idx, kappa_star) * rho_eval(rep, k_lower)


def verify_cocycle(indexes: list[IndexMatrix], reps: list[Representation],
                   g1: GStarJacobiElement, g2: GStarJacobiElement, p: DiskJacobiPoint) -> float:
    """Worst relative residual on (g1, g2, p) of the additive cocycle of kappa_star
    and, per (index, rep) pair, of J(g1 g2, p) = J(g1, g2 p) J(g2, p); the shared
    components are formed once, chi and rho once per (index or rep, component)."""
    prod, moved = gstarj_mul(g1, g2), act_jacobi_disk(g2, p)
    parts = [kc_component(x, q)[1:] for x, q in ((prod, p), (g1, moved), (g2, p))]
    (_, k12), (_, k1), (_, k2) = parts
    res = [rel_error(k12, k1 + k2)]
    rhos = [[rho_eval(rep, d) for d, _ in parts] for rep in reps]
    for idx in indexes:
        c12, c1, c2 = (np.asarray(chi_character(idx, k))[..., None, None] for _, k in parts)
        for r12, r1, r2 in rhos:
            res.append(rel_error(c12 * r12, (c1 * r1) @ (c2 * r2)))
    return np.max(res, axis=0)
