"""The four homogeneous domains and the maps between them.

Points of the upper-half-space model carry a symmetric matrix with positive
definite imaginary part; points of the bounded model carry a symmetric W with
I - W conj(W) positive definite.  Both extend by an h x g fiber coordinate.
Actions re-symmetrize their output and record the defect, which must stay
below the algebraic tolerance.
"""

from __future__ import annotations

import numpy as np

from .groups import (
    GStarElement,
    GStarJacobiElement,
    JacobiElement,
    SymplecticMatrix,
    theta,
)
from .numkit import (
    DEFAULT_TOL,
    DimensionError,
    DomainError,
    Tolerance,
    _freeze,
    as_cmatrix,
    guarded_rsolve,
    hermitian_pd_margin,
    rel_error,
    symmetry_defect,
)

__all__ = [
    "SiegelPoint",
    "DiskPoint",
    "SiegelJacobiPoint",
    "DiskJacobiPoint",
    "act_siegel",
    "act_disk",
    "act_jacobi",
    "act_jacobi_disk",
    "cayley",
    "cayley_inv",
    "partial_cayley",
    "partial_cayley_inv",
    "check_compatibility",
    "sample_point",
]


def _check_square_symmetric(m: np.ndarray, name: str, tol: Tolerance) -> None:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got {m.shape}")
    if symmetry_defect(m) > tol.algebraic_rel:
        raise DomainError(f"{name} is not symmetric within tolerance")


class SiegelPoint:
    """A symmetric complex matrix with positive definite imaginary part."""

    __slots__ = ("omega",)

    def __init__(self, omega, tol: Tolerance = DEFAULT_TOL, validate: bool = True):
        self.omega = _freeze(as_cmatrix(omega, "omega"))
        if validate:
            self.validate(tol)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        _check_square_symmetric(self.omega, "omega", tol)
        if self.pd_margin(tol) <= tol.pd_min_eig:
            raise DomainError("Im(omega) is not positive definite")

    def pd_margin(self, tol: Tolerance = DEFAULT_TOL) -> float:
        return hermitian_pd_margin(self.y.astype(complex), tol)

    @property
    def g(self) -> int:
        return self.omega.shape[0]

    @property
    def x(self) -> np.ndarray:
        return np.real(self.omega)

    @property
    def y(self) -> np.ndarray:
        return np.imag(self.omega)

    def __repr__(self):
        return f"SiegelPoint(g={self.g})"


class DiskPoint:
    """A symmetric complex matrix W with I - W conj(W) positive definite."""

    __slots__ = ("w",)

    def __init__(self, w, tol: Tolerance = DEFAULT_TOL, validate: bool = True):
        self.w = _freeze(as_cmatrix(w, "w"))
        if validate:
            self.validate(tol)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        _check_square_symmetric(self.w, "w", tol)
        if self.pd_margin(tol) <= tol.pd_min_eig:
            raise DomainError("I - W conj(W) is not positive definite")

    def pd_margin(self, tol: Tolerance = DEFAULT_TOL) -> float:
        g = self.w.shape[0]
        m = np.eye(g) - self.w @ self.w.conj()
        # symmetrize away the roundoff skew before the Hermitian eigensolve
        m = (m + m.conj().T) / 2
        return hermitian_pd_margin(m, tol)

    @property
    def g(self) -> int:
        return self.w.shape[0]

    def __repr__(self):
        return f"DiskPoint(g={self.g})"


class SiegelJacobiPoint:
    """A SiegelPoint together with an h x g complex fiber coordinate."""

    __slots__ = ("base", "z")

    def __init__(self, base: SiegelPoint, z, tol: Tolerance = DEFAULT_TOL):
        if not isinstance(base, SiegelPoint):
            base = SiegelPoint(base, tol)
        self.base = base
        self.z = _freeze(as_cmatrix(z, "z"))
        if self.z.shape[1] != base.g:
            raise DimensionError(f"z must have {base.g} columns, got {self.z.shape}")

    @property
    def omega(self) -> np.ndarray:
        return self.base.omega

    @property
    def g(self) -> int:
        return self.base.g

    @property
    def h(self) -> int:
        return self.z.shape[0]

    @property
    def u(self) -> np.ndarray:
        return np.real(self.z)

    @property
    def v(self) -> np.ndarray:
        return np.imag(self.z)

    def __repr__(self):
        return f"SiegelJacobiPoint(g={self.g}, h={self.h})"


class DiskJacobiPoint:
    """A DiskPoint together with an h x g complex fiber coordinate."""

    __slots__ = ("base", "eta")

    def __init__(self, base: DiskPoint, eta, tol: Tolerance = DEFAULT_TOL):
        if not isinstance(base, DiskPoint):
            base = DiskPoint(base, tol)
        self.base = base
        self.eta = _freeze(as_cmatrix(eta, "eta"))
        if self.eta.shape[1] != base.g:
            raise DimensionError(f"eta must have {base.g} columns, got {self.eta.shape}")

    @property
    def w(self) -> np.ndarray:
        return self.base.w

    @property
    def g(self) -> int:
        return self.base.g

    @property
    def h(self) -> int:
        return self.eta.shape[0]

    def __repr__(self):
        return f"DiskJacobiPoint(g={self.g}, h={self.h})"


# ---------------------------------------------------------------------------
# actions


def _symmetrized(m: np.ndarray, tol: Tolerance, what: str) -> np.ndarray:
    defect = symmetry_defect(m)
    if defect > tol.algebraic_rel:
        raise DomainError(f"{what}: output symmetry defect {defect:.3e} exceeds tolerance")
    return (m + m.T) / 2


def _fractional_linear(a, b, c, d, x, fiber, tol: Tolerance, context: str, what: str):
    """(a x + b)(c x + d)^-1 symmetrized, and fiber (c x + d)^-1, in one guarded solve."""
    num = a @ x + b if fiber is None else np.vstack([a @ x + b, fiber])
    out = guarded_rsolve(num, c @ x + d, context)
    return _symmetrized(out[:x.shape[0]], tol, what), out[x.shape[0]:]


def act_siegel(m: SymplecticMatrix, p: SiegelPoint, tol: Tolerance = DEFAULT_TOL) -> SiegelPoint:
    """Fractional linear action (A omega + B)(C omega + D)^-1."""
    if m.g != p.g:
        raise DimensionError(f"degree mismatch: element g={m.g}, point g={p.g}")
    om, _ = _fractional_linear(m.a, m.b, m.c, m.d, p.omega, None, tol,
                               "C omega + D", "siegel action")
    return SiegelPoint(om, tol)


def act_disk(gs: GStarElement, p: DiskPoint, tol: Tolerance = DEFAULT_TOL) -> DiskPoint:
    """Fractional linear action (P W + Q)(conj(Q) W + conj(P))^-1."""
    if gs.g != p.g:
        raise DimensionError(f"degree mismatch: element g={gs.g}, point g={p.g}")
    w, _ = _fractional_linear(gs.p, gs.q, gs.q.conj(), gs.p.conj(), p.w, None, tol,
                              "conj(Q) W + conj(P)", "disk action")
    return DiskPoint(w, tol)


def act_jacobi(a: JacobiElement, p: SiegelJacobiPoint,
               tol: Tolerance = DEFAULT_TOL) -> SiegelJacobiPoint:
    """(M omega, (Z + lam omega + mu)(C omega + D)^-1); kappa plays no role."""
    if (a.g, a.h) != (p.g, p.h):
        raise DimensionError(f"(g, h) mismatch: ({a.g}, {a.h}) vs ({p.g}, {p.h})")
    m, fiber = a.m, p.z + a.hs.lam @ p.omega + a.hs.mu
    om, z = _fractional_linear(m.a, m.b, m.c, m.d, p.omega, fiber, tol,
                               "C omega + D", "siegel action")
    return SiegelJacobiPoint(SiegelPoint(om, tol), z, tol)


def act_jacobi_disk(a: GStarJacobiElement, p: DiskJacobiPoint,
                    tol: Tolerance = DEFAULT_TOL) -> DiskJacobiPoint:
    """((P W + Q) d^-1, (eta + xi W + mu) d^-1) with d = conj(Q) W + conj(P)."""
    if (a.g, a.h) != (p.g, p.h):
        raise DimensionError(f"(g, h) mismatch: ({a.g}, {a.h}) vs ({p.g}, {p.h})")
    gs, fiber = a.gs, p.eta + a.hc.xi @ p.w + a.hc.eta
    w, eta = _fractional_linear(gs.p, gs.q, gs.q.conj(), gs.p.conj(), p.w, fiber, tol,
                                "conj(Q) W + conj(P)", "disk action")
    return DiskJacobiPoint(DiskPoint(w, tol), eta, tol)


# ---------------------------------------------------------------------------
# Cayley transforms


def _cayley(w, fiber, tol: Tolerance):
    """i (I + W)(I - W)^-1 symmetrized, and 2i fiber (I - W)^-1, in one guarded solve."""
    i = np.eye(w.shape[0])
    num = i + w if fiber is None else np.vstack([i + w, fiber])
    out = guarded_rsolve(num, i - w, "I - W")
    return _symmetrized(1j * out[:w.shape[0]], tol, "cayley"), 2j * out[w.shape[0]:]


def _cayley_inv(omega, fiber, tol: Tolerance):
    """(omega - iI)(omega + iI)^-1 symmetrized, and fiber (omega + iI)^-1, in one guarded solve."""
    i = np.eye(omega.shape[0])
    num = omega - 1j * i if fiber is None else np.vstack([omega - 1j * i, fiber])
    out = guarded_rsolve(num, omega + 1j * i, "omega + iI")
    return _symmetrized(out[:omega.shape[0]], tol, "inverse cayley"), out[omega.shape[0]:]


def cayley(p: DiskPoint, tol: Tolerance = DEFAULT_TOL) -> SiegelPoint:
    """W -> i (I + W)(I - W)^-1."""
    return SiegelPoint(_cayley(p.w, None, tol)[0], tol)


def cayley_inv(p: SiegelPoint, tol: Tolerance = DEFAULT_TOL) -> DiskPoint:
    """omega -> (omega - iI)(omega + iI)^-1."""
    return DiskPoint(_cayley_inv(p.omega, None, tol)[0], tol)


def partial_cayley(p: DiskJacobiPoint, tol: Tolerance = DEFAULT_TOL) -> SiegelJacobiPoint:
    """(W, eta) -> (i (I + W)(I - W)^-1, 2i eta (I - W)^-1)."""
    om, z = _cayley(p.w, p.eta, tol)
    return SiegelJacobiPoint(SiegelPoint(om, tol), z, tol)


def partial_cayley_inv(p: SiegelJacobiPoint, tol: Tolerance = DEFAULT_TOL) -> DiskJacobiPoint:
    """(omega, Z) -> ((omega - iI)(omega + iI)^-1, Z (omega + iI)^-1)."""
    w, eta = _cayley_inv(p.omega, p.z, tol)
    return DiskJacobiPoint(DiskPoint(w, tol), eta, tol)


def check_compatibility(a: JacobiElement, p: DiskJacobiPoint,
                        tol: Tolerance = DEFAULT_TOL) -> float:
    """Residual of the compatibility identity between the two models.

    Compares acting upstairs after transforming against transforming after
    acting downstairs (through theta); returns the worse of the base and
    fiber relative residuals.
    """
    lhs = act_jacobi(a, partial_cayley(p, tol), tol)
    rhs = partial_cayley(act_jacobi_disk(theta(a), p, tol), tol)
    return max(rel_error(lhs.omega, rhs.omega), rel_error(lhs.z, rhs.z))


# ---------------------------------------------------------------------------
# sampling


_DISK_RADIUS = 0.9


def sample_point(kind: str, g: int, h: int = 1, seed: int = 0, scale: float = 1.0):
    """Draw a random point of the requested domain, deterministic in seed.

    kind is one of siegel, disk, siegel_jacobi, disk_jacobi.  Disk bases are
    scaled to spectral norm < 0.9; Siegel bases get Im >= 0.1 I.
    """
    if kind not in _KIND_TAG:
        raise DomainError(f"unknown point kind: {kind!r}")
    if g < 1 or h < 1:
        raise DimensionError("g and h must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _KIND_TAG[kind]]))

    def sym(n):
        s = rng.uniform(-scale, scale, (n, n))
        return (s + s.T) / 2

    def fiber():
        return rng.uniform(-scale, scale, (h, g)) + 1j * rng.uniform(-scale, scale, (h, g))

    def disk_base():
        s = sym(g) + 1j * sym(g)
        return DiskPoint(_DISK_RADIUS * s / (1 + np.linalg.norm(s, 2)))

    def siegel_base():
        r = rng.uniform(-scale, scale, (g, g))
        return SiegelPoint(sym(g) + 1j * (r.T @ r + 0.1 * np.eye(g)))

    if kind == "siegel":
        return siegel_base()
    if kind == "disk":
        return disk_base()
    if kind == "siegel_jacobi":
        return SiegelJacobiPoint(siegel_base(), fiber())
    if kind == "disk_jacobi":
        return DiskJacobiPoint(disk_base(), fiber())
    raise AssertionError("unreachable")


_KIND_TAG = {"siegel": 10, "disk": 11, "siegel_jacobi": 12, "disk_jacobi": 13}
