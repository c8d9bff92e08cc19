"""Group elements and group laws.

Covers the real symplectic group, the real and complexified Heisenberg
groups, the Jacobi group and its bounded-model conjugate, the product law of
the ambient group SL(2g,C) x H_C on plain arrays, the Cayley conjugations,
and seeded random sampling.  The conjugated blocks are always stored as the
upper half (P, Q); the lower row (conj Q, conj P) is implied by the
structure.  Elements hold (..., r, c) arrays (see numkit), so one holder may
carry a batch, and every law acts slice by slice.
"""

from __future__ import annotations

from functools import cache
from math import prod
from numbers import Real

import numpy as np

from .numkit import (
    ALGEBRAIC_REL,
    ConsistencyError,
    DimensionError,
    DomainError,
    Holder,
    _assemble,
    _block,
    _built_once,
    _count,
    _det,
    _ensure,
    _eye,
    _floor1,
    _freeze,
    _inv,
    _nonfinite,
    _rel,
    _slice_holder,
    _takes,
    as_cmatrix,
    frob,
    rel_error,
    symmetry_defect,
)

__all__ = [
    "SymplecticMatrix",
    "HeisenbergElement",
    "JacobiElement",
    "GStarElement",
    "ComplexHeisenbergElement",
    "GStarJacobiElement",
    "symplectic_j",
    "cayley_matrix",
    "heisenberg_mul",
    "jacobi_mul",
    "jacobi_inv",
    "gstarj_mul",
    "gstarj_inv",
    "conjugate_by_T",
    "theta",
    "embed_sp_gph",
    "tstar_agreement_residual",
    "sample_element",
]


def symplectic_j(g: int) -> np.ndarray:
    """The standard symplectic form [[0, I], [-I, 0]] of degree g."""
    g = _count(g, "g")
    j = np.zeros((2 * g, 2 * g), dtype=np.complex128)
    j[:g, g:], j[g:, :g] = np.eye(g), -np.eye(g)
    return j


_j = _built_once(symplectic_j)


def cayley_matrix(n: int) -> np.ndarray:
    """The unitary 2n x 2n matrix (1/sqrt 2) [[I, I], [iI, -iI]]."""
    i = np.eye(_count(n, "n"))
    return _block([[i, i], [1j * i, -1j * i]]) / np.sqrt(2.0)


def _as_real(a, name: str) -> np.ndarray:
    """A float array; a complex input must be finite and real within tolerance,
    and input numpy cannot read as numbers raises DimensionError."""
    try:
        a = np.asarray(a)
        if a.dtype.kind != "c":
            return np.asarray(a, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:  # ragged, not numbers, too large
        raise DimensionError(f"{name}: not an array of real numbers: {exc}") from None
    if not np.isfinite(a).all():
        _nonfinite(name, np.atleast_2d(a))
    _ensure(frob(np.imag(a)) / _floor1(frob(a)) <= ALGEBRAIC_REL, DomainError,
            "{} must be real", name)
    return np.asarray(a.real, dtype=float)


class SymplecticMatrix(Holder):
    """A real 2g x 2g matrix M with t(M) J M = J."""

    __slots__ = ("m", "g")

    def __init__(self, m, *, validate: bool = True):
        self.m = _freeze(as_cmatrix(m, "symplectic matrix"), m)
        n = self.m.shape[-1]
        if self.m.shape[-2] != n or n % 2:
            raise DimensionError(f"expected a 2g x 2g matrix, got {self.m.shape[-2:]}")
        self.g = n // 2
        if validate:
            self.validate()

    def validate(self) -> None:
        m, j = self.m, _j(self.g)  # m is complex and finite, see __init__
        if np.count_nonzero(m.imag):  # else its realness defect is 0, as for a real input
            _ensure(frob(m.imag) / _floor1(frob(m)) <= ALGEBRAIC_REL, DomainError,
                    "symplectic matrix must be real")
        _ensure(_rel(m.mT @ j @ m, j) <= ALGEBRAIC_REL, DomainError,
                "matrix is not symplectic within tolerance")

    @property
    def a(self) -> np.ndarray:
        return self.m[..., : self.g, : self.g]

    @property
    def b(self) -> np.ndarray:
        return self.m[..., : self.g, self.g :]

    @property
    def c(self) -> np.ndarray:
        return self.m[..., self.g :, : self.g]

    @property
    def d(self) -> np.ndarray:
        return self.m[..., self.g :, self.g :]

    def inv(self) -> "SymplecticMatrix":
        # M^-1 = [[tD, -tB], [-tC, tA]], exact for symplectic M: assembled, as
        # its entries are M's, finite
        a, b, c, d = self.a, self.b, self.c, self.d
        return _assemble(SymplecticMatrix, _block([[d.mT, -b.mT], [-c.mT, a.mT]]), self.g)

    @classmethod
    def identity(cls, g: int) -> "SymplecticMatrix":
        g = _count(g, "g")
        return _assemble(cls, np.eye(2 * g, dtype=complex), g)


class HeisenbergElement(Holder):
    """A triple (lam, mu; kappa) of real matrices with kappa + mu t(lam) symmetric."""

    __slots__ = ("lam", "mu", "kappa", "g", "h")

    def __init__(self, lam, mu, kappa, *, validate: bool = True):
        self.lam = _freeze(_as_real(lam, "lam"), lam)
        self.mu = _freeze(_as_real(mu, "mu"), mu)
        self.kappa = _freeze(_as_real(kappa, "kappa"), kappa)
        if self.lam.ndim < 2 or self.mu.shape != self.lam.shape:
            raise DimensionError("lam and mu must be h x g matrices of equal shape")
        self.h, self.g = self.lam.shape[-2:]
        if self.kappa.shape[-2:] != (self.h, self.h):
            raise DimensionError(f"kappa must be {self.h} x {self.h}, got {self.kappa.shape[-2:]}")
        if not np.isfinite(np.concatenate((self.lam.ravel(), self.mu.ravel(),
                                           self.kappa.ravel()))).all():
            _nonfinite("lam, mu, kappa", self.lam, self.mu, self.kappa)
        if validate:
            self.validate()

    def validate(self) -> None:
        s = self.kappa + self.mu @ self.lam.mT
        _ensure(symmetry_defect(s) <= ALGEBRAIC_REL, DomainError,
                "kappa + mu t(lam) is not symmetric")

    @classmethod
    def identity(cls, g: int, h: int) -> "HeisenbergElement":
        g, h = _count(g, "g"), _count(h, "h")
        z = np.zeros((h, g))
        return _assemble(cls, z, z, np.zeros((h, h)), g, h)


class JacobiElement(Holder):
    """An element (M, (lam, mu; kappa)) of the semidirect product group."""

    __slots__ = ("m", "hs")

    def __init__(self, m: SymplecticMatrix, hs: HeisenbergElement):
        _takes("JacobiElement", m, SymplecticMatrix)
        _takes("JacobiElement", hs, HeisenbergElement)
        if m.g != hs.g:
            raise DimensionError(f"degree mismatch: symplectic g={m.g}, Heisenberg g={hs.g}")
        self.m = m
        self.hs = hs

    @property
    def g(self) -> int:
        return self.m.g

    @property
    def h(self) -> int:
        return self.hs.h

    @classmethod
    def identity(cls, g: int, h: int) -> "JacobiElement":
        return _assemble(cls, SymplecticMatrix.identity(g), HeisenbergElement.identity(g, h))


class GStarElement(Holder):
    """Upper blocks (P, Q) of a matrix [[P, Q], [conj Q, conj P]] satisfying
    t(P) conj(P) - t(conj Q) Q = I and t(P) conj(Q) = t(conj Q) P."""

    __slots__ = ("p", "q", "g")

    def __init__(self, p, q, *, validate: bool = True):
        self.p = _freeze(as_cmatrix(p, "P"), p)
        self.q = _freeze(as_cmatrix(q, "Q"), q)
        if self.p.shape[-2] != self.p.shape[-1] or self.p.shape[-2:] != self.q.shape[-2:]:
            raise DimensionError("P and Q must be square matrices of equal size")
        self.g = self.p.shape[-1]
        if validate:
            self.validate()

    def validate(self) -> None:
        p, q = self.p, self.q
        _ensure(_rel(p.mT @ p.conj() - q.conj().mT @ q, _eye(self.g)) <= ALGEBRAIC_REL,
                DomainError, "t(P) conj(P) - t(conj Q) Q != I")
        lhs = p.mT @ q.conj()
        _ensure(frob(lhs - q.conj().mT @ p) / _floor1(frob(lhs)) <= ALGEBRAIC_REL,
                DomainError, "t(P) conj(Q) != t(conj Q) P")

    def block(self) -> np.ndarray:
        """The full 2g x 2g matrix [[P, Q], [conj Q, conj P]]."""
        return _block([[self.p, self.q], [self.q.conj(), self.p.conj()]])

    @classmethod
    def identity(cls, g: int) -> "GStarElement":
        g = _count(g, "g")
        return _assemble(cls, np.eye(g, dtype=complex), np.zeros((g, g), complex), g)


class ComplexHeisenbergElement(Holder):
    """A triple (xi, eta; zeta) of complex matrices with zeta + eta t(xi) symmetric."""

    __slots__ = ("xi", "eta", "zeta", "g", "h")

    def __init__(self, xi, eta, zeta, *, validate: bool = True):
        self.xi, self.eta, self.zeta = map(_freeze, _heisenberg_parts(xi, eta, zeta),
                                           (xi, eta, zeta))
        self.h, self.g = self.xi.shape[-2:]
        if validate:
            self.validate()

    def validate(self) -> None:
        _check_heisenberg_symmetry(self.xi, self.eta, self.zeta)

    @classmethod
    def identity(cls, g: int, h: int) -> "ComplexHeisenbergElement":
        g, h = _count(g, "g"), _count(h, "h")
        z = np.zeros((h, g), complex)
        return _assemble(cls, z, z, np.zeros((h, h), complex), g, h)


class GStarJacobiElement(Holder):
    """Bounded-model Jacobi group element: a GStarElement together with a
    complex Heisenberg triple of the constrained form (xi, conj xi; i kappa),
    kappa real."""

    __slots__ = ("gs", "hc")

    def __init__(self, gs: GStarElement, hc: ComplexHeisenbergElement, *,
                 validate: bool = True):
        _takes("GStarJacobiElement", gs, GStarElement)
        _takes("GStarJacobiElement", hc, ComplexHeisenbergElement)
        if gs.g != hc.g:
            raise DimensionError(f"degree mismatch: blocks g={gs.g}, Heisenberg g={hc.g}")
        self.gs = gs
        self.hc = hc
        if validate:
            self.validate()

    def validate(self) -> None:
        scale = _floor1(frob(self.hc.xi), frob(self.hc.zeta))
        _ensure(frob(self.hc.eta - self.hc.xi.conj()) / scale <= ALGEBRAIC_REL, DomainError,
                "eta != conj(xi)")
        _ensure(frob(np.real(self.hc.zeta)) / scale <= ALGEBRAIC_REL, DomainError,
                "zeta is not i * (real kappa)")

    @property
    def g(self) -> int:
        return self.gs.g

    @property
    def h(self) -> int:
        return self.hc.h

    @property
    def kappa(self) -> np.ndarray:
        """The real matrix kappa with central part zeta = i kappa."""
        return np.imag(self.hc.zeta)

    @classmethod
    def identity(cls, g: int, h: int) -> "GStarJacobiElement":
        return _assemble(cls, GStarElement.identity(g), ComplexHeisenbergElement.identity(g, h))


def _heisenberg_parts(xi, eta, zeta) -> tuple:
    """xi, eta, zeta as finite complex arrays of shapes (h, g), (h, g), (h, h)."""
    xi, eta, zeta = as_cmatrix(xi, "xi"), as_cmatrix(eta, "eta"), as_cmatrix(zeta, "zeta")
    if eta.shape[-2:] != xi.shape[-2:]:
        raise DimensionError("xi and eta must have equal shape")
    h = xi.shape[-2]
    if zeta.shape[-2:] != (h, h):
        raise DimensionError(f"zeta must be {h} x {h}, got {zeta.shape[-2:]}")
    return xi, eta, zeta


def _check_heisenberg_symmetry(xi, eta, zeta) -> None:
    _ensure(symmetry_defect(zeta + eta @ xi.mT) <= ALGEBRAIC_REL, DomainError,
            "zeta + eta t(xi) is not symmetric")


def _block_part(block, g: int) -> np.ndarray:
    """block as a finite complex 2g x 2g array, for a Heisenberg part of width g."""
    block = as_cmatrix(block, "block")
    n = block.shape[-1]
    if block.shape[-2] != n or n % 2:
        raise DimensionError(f"block must be 2g x 2g, got {block.shape[-2:]}")
    if g != n // 2:
        raise DimensionError(f"Heisenberg width {g} != block degree {n // 2}")
    return block


def _check_nonsingular(block) -> None:
    _ensure(abs(_det(block)) >= 1e-300, DomainError, "block matrix is singular")


# ---------------------------------------------------------------------------
# group laws


def _check_gh(a, b) -> None:
    if (a.g, a.h) != (b.g, b.h):
        raise DimensionError(f"(g, h) mismatch: ({a.g}, {a.h}) vs ({b.g}, {b.h})")


def _check_batches(x: np.ndarray, y: np.ndarray) -> None:
    """DimensionError, naming both batch shapes, unless the leading axes of
    the arrays x and y, one part of each operand, broadcast; equal batches
    and a 2-d operand, which broadcasts against any batch, pass on one
    comparison each."""
    if x.shape[:-2] != y.shape[:-2] and min(x.ndim, y.ndim) > 2:
        try:
            np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
        except ValueError:
            raise DimensionError(f"batch {x.shape[:-2]} does not broadcast with batch "
                                 f"{y.shape[:-2]}") from None


def heisenberg_mul(a: HeisenbergElement, b: HeisenbergElement) -> HeisenbergElement:
    """(lam, mu; kappa)(lam', mu'; kappa') with central twist lam t(mu') - mu t(lam')."""
    _takes("heisenberg_mul", a, HeisenbergElement)
    _takes("heisenberg_mul", b, HeisenbergElement)
    _check_gh(a, b)
    _check_batches(a.lam, b.lam)
    kappa = a.kappa + b.kappa + a.lam @ b.mu.mT - a.mu @ b.lam.mT
    return HeisenbergElement(a.lam + b.lam, a.mu + b.mu, kappa)


def jacobi_mul(a: JacobiElement, b: JacobiElement) -> JacobiElement:
    """Semidirect product: the Heisenberg part of a is first pushed through
    the symplectic part of b via (lam~, mu~) = (lam, mu) M'."""
    _takes("jacobi_mul", a, JacobiElement)
    _takes("jacobi_mul", b, JacobiElement)
    _check_gh(a, b)
    _check_batches(a.m.m, b.m.m)
    lm = np.concatenate([a.hs.lam, a.hs.mu], axis=-1) @ np.real(b.m.m)
    lt, mt = lm[..., : a.g], lm[..., a.g :]
    kappa = a.hs.kappa + b.hs.kappa + lt @ b.hs.mu.mT - mt @ b.hs.lam.mT
    return JacobiElement(
        SymplecticMatrix(np.real(a.m.m @ b.m.m)),
        HeisenbergElement(lt + b.hs.lam, mt + b.hs.mu, kappa),
    )


def jacobi_inv(a: JacobiElement) -> JacobiElement:
    _takes("jacobi_inv", a, JacobiElement)
    mi = a.m.inv()
    lm = np.concatenate([a.hs.lam, a.hs.mu], axis=-1) @ np.real(mi.m)
    lt, mt = lm[..., : a.g], lm[..., a.g :]
    kappa = -a.hs.kappa + lt @ mt.mT - mt @ lt.mT
    return JacobiElement(mi, HeisenbergElement(-lt, -mt, kappa))


def _big_product(a: tuple, b: tuple) -> tuple:
    """Product in SL(2g,C) x H_C of (block, xi, eta, zeta) arrays with (xi~,
    eta~) = (xi, eta) block(b); checks, in order: finite parts of conforming
    shapes, zeta + eta t(xi) symmetric, a nonsingular block."""
    ablock, axi, aeta, azeta = a
    bblock, bxi, beta, bzeta = b
    g = bblock.shape[-1] // 2
    pp, qp = bblock[..., :g, :g], bblock[..., :g, g:]
    rp, sp = bblock[..., g:, :g], bblock[..., g:, g:]
    xit = axi @ pp + aeta @ rp
    ett = axi @ qp + aeta @ sp
    zeta = azeta + bzeta + xit @ beta.mT - ett @ bxi.mT
    xi, eta, zeta = _heisenberg_parts(xit + bxi, ett + beta, zeta)
    _check_heisenberg_symmetry(xi, eta, zeta)
    block = _block_part(ablock @ bblock, g)
    _check_nonsingular(block)
    return block, xi, eta, zeta


def _embedded(a: GStarJacobiElement) -> tuple:
    """a as (block, xi, eta, zeta) arrays of SL(2g,C) x H_C, constraints forgotten."""
    return _block_part(a.gs.block(), a.g), a.hc.xi, a.hc.eta, a.hc.zeta


def gstarj_mul(a: GStarJacobiElement, b: GStarJacobiElement) -> GStarJacobiElement:
    """Multiply in the ambient group and re-read the constrained form.

    Closure holds in exact arithmetic, so a violation beyond tolerance is
    reported as a consistency error rather than repaired.
    """
    _takes("gstarj_mul", a, GStarJacobiElement)
    _takes("gstarj_mul", b, GStarJacobiElement)
    _check_gh(a, b)
    _check_batches(a.gs.p, b.gs.p)
    g = a.g
    block, xi, eta, zeta = _big_product(_embedded(a), _embedded(b))
    p, q = block[..., :g, :g], block[..., :g, g:]
    upper_conj = np.concatenate([q.conj(), p.conj()], axis=-1)
    _ensure(_rel(block[..., g:, :], upper_conj) <= ALGEBRAIC_REL, ConsistencyError,
            "product left the (P, Q; conj Q, conj P) block form")
    try:
        return GStarJacobiElement(GStarElement(p, q),
                                  ComplexHeisenbergElement(xi, eta, zeta, validate=False))
    except DomainError as exc:
        raise ConsistencyError(f"product violates closure: {exc}") from exc


def gstarj_inv(a: GStarJacobiElement) -> GStarJacobiElement:
    """Inverse in the bounded model: block inverse [[t(conj P), -t(Q)], ...]
    with the Heisenberg part pushed through it."""
    _takes("gstarj_inv", a, GStarJacobiElement)
    g = a.g
    p_i = a.gs.p.mT.conj()
    q_i = -a.gs.q.mT
    minv = _block([[p_i, q_i], [q_i.conj(), p_i.conj()]])
    xit = a.hc.xi @ minv[..., :g, :g] + a.hc.eta @ minv[..., g:, :g]
    ett = a.hc.xi @ minv[..., :g, g:] + a.hc.eta @ minv[..., g:, g:]
    zeta = -a.hc.zeta + xit @ ett.mT - ett @ xit.mT
    return GStarJacobiElement(GStarElement(p_i, q_i), ComplexHeisenbergElement(-xit, -ett, zeta))


# ---------------------------------------------------------------------------
# Cayley conjugations


def conjugate_by_T(m: SymplecticMatrix) -> GStarElement:
    """Blocks of T^-1 M T: P = ((A+D) + i(B-C))/2, Q = ((A-D) - i(B+C))/2.

    Conjugation by the Cayley matrix is an exact isomorphism, so the image of
    m, validated when it was built, is assembled and not validated again (as
    SymplecticMatrix.inv is): its blocks are sums of m's, whose validation
    bounds their entries far below overflow."""
    _takes("conjugate_by_T", m, SymplecticMatrix)
    a, b, c, d = m.a, m.b, m.c, m.d
    return _assemble(GStarElement, 0.5 * ((a + d) + 1j * (b - c)), 0.5 * ((a - d) - 1j * (b + c)),
                     m.g)


def theta(a: JacobiElement) -> GStarJacobiElement:
    """The isomorphism onto the bounded model: blocks via conjugate_by_T and
    Heisenberg part ((lam + i mu)/2, (lam - i mu)/2; -i kappa / 2).  Like
    conjugate_by_T it is exact, so its image of a, validated when it was
    built, is assembled and not validated again: the Heisenberg part halves
    a's finite one."""
    _takes("theta", a, JacobiElement)
    lam, imu = a.hs.lam, 1j * a.hs.mu
    hc = _assemble(ComplexHeisenbergElement, 0.5 * (lam + imu), 0.5 * (lam - imu),
                   -0.5j * a.hs.kappa, a.g, a.h)
    return _assemble(GStarJacobiElement, conjugate_by_T(a.m), hc)


def embed_sp_gph(a: JacobiElement) -> np.ndarray:
    """The real 2(g+h) x 2(g+h) symplectic matrix identified with a."""
    _takes("embed_sp_gph", a, JacobiElement)
    g, h = a.g, a.h
    A, B = np.real(a.m.a), np.real(a.m.b)
    C, D = np.real(a.m.c), np.real(a.m.d)
    lam, mu, kap = a.hs.lam, a.hs.mu, a.hs.kappa
    zgh = np.zeros((g, h))
    e = _block(
        [
            [A, zgh, B, A @ mu.mT - B @ lam.mT],
            [lam, np.eye(h), mu, kap],
            [C, zgh, D, C @ mu.mT - D @ lam.mT],
            [np.zeros((h, g)), np.zeros((h, h)), np.zeros((h, g)), np.eye(h)],
        ]
    )
    return e


def _tstar_closed(a: JacobiElement) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form upper blocks (P*, Q*) of the conjugated embedding."""
    h = a.h
    gs = conjugate_by_T(a.m)
    lam, mu, kap = a.hs.lam, a.hs.mu, a.hs.kappa
    lp = (lam + 1j * mu) / 2.0
    lm = (lam - 1j * mu) / 2.0
    p_closed = _block([[gs.p, gs.q @ lp.mT - gs.p @ lm.mT],
                       [lp, np.eye(h) + 0.5j * kap]])
    q_closed = _block([[gs.q, gs.p @ lm.mT - gs.q @ lp.mT],
                       [lm, -0.5j * kap]])
    return p_closed, q_closed


def tstar_agreement_residual(a: JacobiElement) -> float:
    """Relative residual between the explicit conjugation of the embedding by
    the Cayley matrix and the closed-form blocks."""
    _takes("tstar_agreement_residual", a, JacobiElement)
    return _tstar_residual(a, embed_sp_gph(a))


def _tstar_residual(a: JacobiElement, e: np.ndarray):  # given e = embed_sp_gph(a)
    n = a.g + a.h
    ts = cayley_matrix(n)
    conj = ts.conj().T @ e.astype(complex) @ ts  # T* is unitary
    p_closed, q_closed = _tstar_closed(a)
    return np.maximum(rel_error(conj[..., :n, :n], p_closed),
                      rel_error(conj[..., :n, n:], q_closed))


# ---------------------------------------------------------------------------
# sampling from counter-based streams (Salmon et al., SC'11): number i of the
# (seed, kind tag) stream is the SplitMix64 mix of key + (i + 1) gamma (Steele,
# Lea & Flood, OOPSLA'14) as a 53-bit float in [0, 1), so a sampler draws all
# its seeds' numbers in one vectorized pass and reads each part at an offset.


_MASK, _GAMMA = (1 << 64) - 1, 0x9E3779B97F4A7C15
_MIX = (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)
_MIX_U64 = tuple(map(np.uint64, _MIX))  # an array's operands, spared a conversion per op


def _mix(z):
    """SplitMix64's finalizer of an int below 2**64, its products masked to 64
    bits, or of a uint64 array, whose products wrap by themselves."""
    if isinstance(z, int):
        s1, m1, s2, m2, s3 = _MIX
        z = (z ^ z >> s1) * m1 & _MASK
        z = (z ^ z >> s2) * m2 & _MASK
    else:
        s1, m1, s2, m2, s3 = _MIX_U64
        z = (z ^ z >> s1) * m1
        z = (z ^ z >> s2) * m2
    return z ^ z >> s3


def _seed(s) -> int:
    """s as an int, if it is a non-negative integer and not a bool."""
    if isinstance(s, (bool, np.bool_)) or not isinstance(s, (int, np.integer)) or s < 0:
        raise DomainError(f"seed must be a non-negative integer, got {s!r}")
    return int(s)


def _key(seed, tag: int) -> int:
    """The seed's low 64 bits plus a mix of the tag and its higher words, mixed."""
    s = _seed(seed)
    z, high = _mix(tag * _GAMMA & _MASK), s >> 64
    while high:
        z, high = _mix(z ^ high & _MASK), high >> 64
    return _mix((s & _MASK) + z & _MASK)


class _RowKeys:
    """The keys of a draw's rows, laid out once: rows holds the (offset k,
    tag) of each row group, and a group's rows are the streams of the seeds
    s + k, s running over the draw's seeds, on its tag.  Below 2**64 the key
    of s + k is the mix of s + k plus the mix of the tag word (see _key), so
    each group keeps k plus that mix, modulo 2**64, and a draw's keys are one
    uint64 mix of the seeds plus these words; a draw with a seed s + k of
    2**64 or above takes _key, with its loop over the higher words, row by
    row."""

    __slots__ = ("rows", "words", "top")

    def __init__(self, rows):
        self.rows = tuple(rows)
        self.words = np.array([k + _mix(t * _GAMMA & _MASK) & _MASK for k, t in self.rows],
                              dtype=np.uint64)[:, None]
        self.top = max(k for k, _ in self.rows)

    def __call__(self, seeds: list) -> np.ndarray:
        """The keys of each group's rows, group by group, each seed through _seed."""
        seeds = [_seed(s) for s in seeds]
        if max(seeds) + self.top <= _MASK:
            return _mix(np.array(seeds, dtype=np.uint64) + self.words).ravel()
        return np.array([_key(s + k, t) for k, t in self.rows for s in seeds], dtype=np.uint64)


@cache
def _counters(start: int, n: int) -> np.ndarray:
    """(i + 1) gamma for i = start, ..., start + n - 1, as uint64 that wraps:
    read-only, built once per (start, n)."""
    out = np.arange(start + 1, start + n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    out.setflags(write=False)
    return out


def _stream(key, n: int, start: int = 0) -> np.ndarray:
    """Numbers start, ..., start + n - 1 of the stream of an int key, shape
    (n,), or of each key of a uint64 array of them, shape (len(key), n)."""
    if not isinstance(key, int):
        key = key[:, None]
    z = _mix(_counters(start, n) + key)
    return (z >> np.uint64(11)) * 2.0 ** -53


def _uniforms(seed, tag: int, n: int, start: int = 0) -> np.ndarray:
    """Numbers start, ..., start + n - 1 of the (seed, tag) stream: shape (n,)
    for an int seed, (len(seed), n) for a sequence of seeds, a row per seed."""
    # dtype=object keeps a ragged nesting 1-d, its sequences then rejected one by one
    seeds = None if isinstance(seed, (int, np.integer)) else np.asarray(seed, dtype=object)
    if seeds is None or seeds.ndim == 0:
        return _stream(_key(seed if seeds is None else seeds.item(), tag), n, start)
    if seeds.ndim != 1 or not len(seeds):
        raise DimensionError("seed must be an int or a non-empty sequence of ints")
    return _stream(_RowKeys([(0, tag)])(seeds.tolist()), n, start)


def _rows(x: Holder, spans: dict, kind: str) -> Holder:
    """kind's rows of the batch x of a family draw: all of x for a lone kind
    (spans[kind] is ...), else a view of the rows at kind's span, a 2-d
    holder for an int index."""
    return x if spans[kind] is ... else _slice_holder(x, spans[kind])


_SCALE_MAX = 1e50  # drawn entries reach scale, their norms scale**2: 1e100 overflows


def _check_scale(scale) -> None:
    if isinstance(scale, bool) or not isinstance(scale, Real) or \
            not 0 < scale <= _SCALE_MAX:  # NaN fails too
        raise DomainError(f"scale must be in (0, _SCALE_MAX = {_SCALE_MAX:g}], got {scale}")


def _blocks(u: np.ndarray, shapes, scale: float) -> list:
    """Consecutive row-major blocks of the first numbers of u (..., n) as
    uniforms on (-scale, scale), -scale + 2 scale u; later numbers are not
    read.  The blocks are read-only views, so a holder assembles them uncopied."""
    sizes = [prod(shape) for shape in shapes]
    x, at, out, lead = 2 * scale * u[..., :sum(sizes)] - scale, 0, [], u.shape[:-1]
    x.setflags(write=False)
    for shape, size in zip(shapes, sizes):
        out.append(x[..., at:at + size].reshape(lead + shape))
        at += size
    return out


def _fibered_shapes(g: int, h: int | None, kinds) -> list:
    """The blocks a row of a family draw of points or tangent vectors reads:
    two g x g blocks for the base, then, when a kind with a fiber (a jacobi
    kind) is drawn, two h x g blocks for the fiber."""
    return [(g, g)] * 2 + ([(h, g)] * 2 if any(k.endswith("jacobi") for k in kinds) else [])


def _fibered_width(g: int, h: int | None, kinds) -> int:
    return sum(map(prod, _fibered_shapes(g, h, kinds)))


def _sym(s: np.ndarray) -> np.ndarray:
    return (s + s.mT) / 2


_STEPS = np.arange(8)[:, None]  # a word's steps, against its length


@_built_once
def _generator_bases(g: int) -> np.ndarray:
    """The four kinds of elementary generator with their drawn blocks zero."""
    return np.stack([_eye(2 * g), _eye(2 * g), 0 * _eye(2 * g), _j(g).real])


def _sample_symplectic(u: np.ndarray, g: int, scale: float) -> SymplecticMatrix:
    """A product of 4 to 8 elementary generators (which keeps condition numbers
    moderate) for each row of numbers u: u[0] sets the word's length, u[1 + k]
    the kind of its step k and u[9 + k g^2:] that step's g x g block (a longer
    row's later numbers are not read).  Every step's generator is built at
    once; step k multiplies only the words longer than k, as padding by I
    could flip the sign of a zero."""
    rows = u.reshape(-1, u.shape[-1])
    steps = _STEPS < 4 + (5 * rows[:, 0]).astype(int)  # step k of word w runs
    kinds = (4 * rows[:, 1:9]).astype(int).T[steps]  # step-major, as the product runs
    drawn = _blocks(rows[:, 9:], [(8, g, g)], scale)[0].swapaxes(0, 1)[steps]
    bases = _generator_bases(g)
    gens = bases[kinds]
    present = {0, 1, 2} & set(kinds.tolist())
    sym = _sym(drawn) if present & {0, 1} else None  # entry by entry: each step reads its own
    for kind in present:
        at = kinds == kind
        if kind < 2:  # [[I, S], [0, I]] or [[I, 0], [S, I]]
            gens[at, kind * g:(kind + 1) * g, (1 - kind) * g:(2 - kind) * g] = sym[at]
        else:  # A = I + R with |R|_2 < 1 so the block stays well conditioned
            a = bases[0, :g, :g] + drawn[at] / max(1, g)
            gens[at, :g, :g], gens[at, g:, g:] = a, _inv(a).mT
    r = len(rows)
    m, t = bases[0] @ gens[:r], r  # every word runs its first 4 steps
    for running, n in zip(steps[1:], steps[1:].sum(axis=1).tolist()):
        step, t = gens[t:t + n], t + n
        if n == r:
            m = m @ step
        elif n:
            m[running] = m[running] @ step
    # assembled from finite generators, and validated once for the batch
    out = _assemble(SymplecticMatrix, m.reshape(u.shape[:-1] + m.shape[-2:]).astype(complex), g)
    out.validate()
    return out


def _sample_heisenberg(u: np.ndarray, g: int, h: int, scale: float) -> HeisenbergElement:
    """A Heisenberg element for each row of numbers u: lam, mu, then S,
    assembled unvalidated from finite uniforms: kappa + mu t(lam) is
    symmetric by construction."""
    lam, mu, s = _blocks(u, [(h, g), (h, g), (h, h)], scale)
    # kappa = S - mu t(lam) + (mu t(lam) + lam t(mu))/2 makes
    # kappa + mu t(lam) = S + sym part, symmetric by construction.
    ml = mu @ lam.mT
    return _assemble(HeisenbergElement, lam, mu, _sym(s) - ml + (ml + lam @ mu.mT) / 2, g, h)


def sample_element(kind: str, g: int, h: int = 1, seed=0, scale: float = 0.8):
    """Draw a random element of the requested group, deterministic in seed.

    kind is one of sp, heisenberg, jacobi, gstar, gstarj, kstarj.  The seed
    is a non-negative int; its element is built from the numbers of the
    counter-based (seed, kind tag) stream at fixed offsets: a symplectic
    word's length, generator kinds and blocks, then the Heisenberg part.  A
    sequence of seeds gives one holder of their batch, built in one pass, each
    slice with the bits of its seed's element.  What is validated is the
    word, as a SymplecticMatrix, and kstarj's parts: the Heisenberg part is
    symmetric by construction, and gstar and gstarj are the exact images of
    the word and of the jacobi element under conjugate_by_T and theta.  scale
    must lie in (0, _SCALE_MAX]; the kinds built on a symplectic word take
    scale <= 1: above it the words' generators lose their conditioning and
    the product fails its own validation.  kstarj's unitary part is the
    library's one np.linalg call outside numkit's LAPACK kernels,
    np.linalg.qr, whose wrapper builds Q from two gufuncs; no suite or
    perfbench workload draws kstarj.
    """
    if not isinstance(kind, str) or kind not in _KIND_TAG:
        raise DomainError(f"unknown element kind: {kind!r}")
    g, h = _count(g, "g"), _count(h, "h")
    _check_scale(scale)
    if kind in _WORD_KINDS and scale > 1:
        raise DomainError(f"scale must be at most 1 for kind {kind!r}, got {scale}")
    spans = {kind: ...}
    u = _uniforms(seed, _KIND_TAG[kind], _element_width(g, h, spans))
    return _sample_elements(g, h, u, spans, scale)[kind]


def _element_width(g: int, h: int, kinds) -> int:
    """The numbers a row of a family draw of elements of these kinds reads: a
    Heisenberg part, kstarj's unitary and central parts, or a symplectic word
    and, when jacobi or gstarj is drawn, a Heisenberg part after it."""
    heis = 2 * h * g + h * h
    if "heisenberg" in kinds:
        return heis
    if "kstarj" in kinds:
        return 2 * g * g + h * h
    return 9 + 8 * g * g + (heis if "jacobi" in kinds or "gstarj" in kinds else 0)


def _sample_elements(g: int, h: int, u: np.ndarray, spans: dict, scale: float = 0.8) -> dict:
    """One family draw of elements, kind -> holder, from the rows of numbers
    u, each kind's rows at its span (see _rows): heisenberg or kstarj
    alone, or any of the kinds on a symplectic word, sp, gstar, jacobi and
    gstarj.  Each row is read from its front, to _element_width(g, h, spans)
    numbers: a stream's first numbers do not depend on how many are drawn.
    One word is built for every row and, when jacobi or gstarj is drawn, one
    Heisenberg part for every row too: both builds are row by row, so a
    kind's rows have the same bits in any order of kinds.  A kind's holder
    then takes its rows of these."""
    kind = next(iter(spans))
    if kind == "heisenberg":
        return {kind: _sample_heisenberg(u, g, h, scale)}
    if kind == "kstarj":  # a unitary P from the QR of a complex Gaussian, phases fixed
        n = g * g
        # Box-Muller: numbers k and n + k give the real and imaginary part of a Gaussian
        z = np.sqrt(-2 * np.log1p(-u[..., :n])) * np.exp(2j * np.pi * u[..., n:2 * n])
        (kap,) = _blocks(u[..., 2 * n:], [(h, h)], scale)
        q, r = np.linalg.qr(z.reshape(u.shape[:-1] + (g, g)))
        d = np.diagonal(r, axis1=-2, axis2=-1)[..., None, :]
        z = np.zeros(q.shape[:-2] + (h, g), dtype=complex)
        return {kind: GStarJacobiElement(GStarElement(q * (d / np.abs(d)), np.zeros(q.shape)),
                                         ComplexHeisenbergElement(z, z, 1j * _sym(kap)))}
    m = _sample_symplectic(u, g, scale)
    if "jacobi" in spans or "gstarj" in spans:
        hs = _sample_heisenberg(u[..., 9 + 8 * g * g:], g, h, scale)
    out = {}
    for kind in spans:
        mk = _rows(m, spans, kind)
        if kind in ("sp", "gstar"):
            out[kind] = mk if kind == "sp" else conjugate_by_T(mk)
        else:
            a = _assemble(JacobiElement, mk, _rows(hs, spans, kind))
            out[kind] = a if kind == "jacobi" else theta(a)
    return out


_WORD_KINDS = {"sp", "gstar", "jacobi", "gstarj"}  # the kinds on a symplectic word
_KIND_TAG = {"sp": 0, "heisenberg": 1, "jacobi": 2, "gstar": 3, "gstarj": 4, "kstarj": 5}
