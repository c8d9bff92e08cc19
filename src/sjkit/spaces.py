"""The four homogeneous domains and the maps between them.

Points of the upper-half-space model carry a symmetric matrix with positive
definite imaginary part; points of the bounded model carry a symmetric W with
I - W conj(W) positive definite.  Both extend by an h x g fiber coordinate.
Actions re-symmetrize their output and record the defect, which must stay
below the algebraic tolerance.

A point's validation tests the symmetry of its matrix, then the positivity
of its domain matrix: Im(omega), with a Hermitian test, as a caller's omega
need not make it exactly symmetric, or (M + M^H)/2 with M = I - W conj(W),
which is exactly Hermitian however W was made: its least eigenvalue must
pass PD_MIN_EIG, times max diag(Y) on Siegel space.  A point the library
builds at an exactly symmetric matrix (m + m^T)/2, as each map's image, the
decomposition's P+ coordinate and each sampled base is, is checked for
positivity alone (_positive), as its other tests could only pass.  Sampled
and pushed tangent vectors, whose base parts are exactly symmetric too, skip
their symmetry test.

The four actions and the four (partial) Cayley maps are one fractional-linear
map, x' = (a x + b) J^-1 with fiber z' = f J^-1 and J = c x + d, of the
blocks (a, b, c, d): (A, B, C, D) for the Siegel actions, (P, Q, conj(Q),
conj(P)) for the disk actions, (iI, iI, -I, I) for cayley and partial_cayley
(f = 2i eta) and (I, -iI, I, iI) for their inverses (f = Z).  Each has the
exact differential

    dx' = (a - x'c) dx J^-1,    dz' = (df - z'c dx) J^-1,

with df = dZ + lam dOmega for act_jacobi, deta + xi dW for act_jacobi_disk
and 2i deta for partial_cayley.  Given tangent vectors (dirs=...), a map
also returns their images under it; its one guarded solve then returns J^-1
as well, by stacking I under the numerator.
Points and tangent vectors hold (..., r, c) arrays (see numkit), so one
holder may carry a batch; a tangent vector's batch broadcasts against the
point's, an unbatched one or a batch of directions on axes of their own.
"""

from __future__ import annotations

import numpy as np

from .groups import (
    GStarElement,
    GStarJacobiElement,
    JacobiElement,
    SymplecticMatrix,
    _blocks,
    _check_batches,
    _check_gh,
    _check_scale,
    _fibered_shapes,
    _fibered_width,
    _rows,
    _sym,
    _uniforms,
    theta,
)
from .numkit import (
    ALGEBRAIC_REL,
    PD_MIN_EIG,
    DimensionError,
    DomainError,
    Holder,
    _assemble,
    _count,
    _built_once,
    _ensure,
    _eye,
    _freeze,
    _pd_margin,
    _svdvals,
    _takes,
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
    "TangentVector",
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


def _check_square_symmetric(m: np.ndarray, name: str) -> None:
    if m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"{name} must be square, got {m.shape[-2:]}")
    _ensure(symmetry_defect(m) <= ALGEBRAIC_REL, DomainError,
            "{} is not symmetric within tolerance", name)


class SiegelPoint(Holder):
    """A symmetric complex matrix with positive definite imaginary part."""

    __slots__ = ("omega",)
    _NOT_PD = "Im(omega) is not positive definite"

    def __init__(self, omega, *, validate: bool = True):
        self.omega = _freeze(as_cmatrix(omega, "omega"), omega)
        if validate:
            self.validate()

    def validate(self) -> None:
        _check_square_symmetric(self.omega, "omega")
        _ensure(self.pd_margin() > self._pd_floor(), DomainError, self._NOT_PD)

    def pd_margin(self):
        return hermitian_pd_margin(self._pd_matrix())

    def _pd_floor(self):  # PD_MIN_EIG relative to the scale of Y, its largest diagonal entry
        return PD_MIN_EIG * np.maximum.reduce(self.omega.imag.diagonal(0, -2, -1), -1)

    def _pd_matrix(self) -> np.ndarray:
        """Im(omega) as complex, exactly symmetric when omega is."""
        return self.y.astype(complex)

    @property
    def g(self) -> int:
        return self.omega.shape[-1]

    @property
    def x(self) -> np.ndarray:
        return np.real(self.omega)

    @property
    def y(self) -> np.ndarray:
        return np.imag(self.omega)


class DiskPoint(Holder):
    """A symmetric complex matrix W with I - W conj(W) positive definite."""

    __slots__ = ("w",)
    _NOT_PD = "I - W conj(W) is not positive definite"

    def __init__(self, w, *, validate: bool = True):
        self.w = _freeze(as_cmatrix(w, "w"), w)
        if validate:
            self.validate()

    def validate(self) -> None:
        _check_square_symmetric(self.w, "w")
        _ensure(self.pd_margin() > self._pd_floor(), DomainError, self._NOT_PD)

    def pd_margin(self):
        return _pd_margin(self._pd_matrix())

    def _pd_floor(self):  # absolute: I - W conj(W) has the scale 1 of the disk's bound
        return PD_MIN_EIG

    def _pd_matrix(self) -> np.ndarray:
        """I - W conj(W) with its roundoff skew symmetrized away: exactly Hermitian."""
        m = _eye(self.g) - self.w @ self.w.conj()
        return (m + m.conj().mT) / 2

    @property
    def g(self) -> int:
        return self.w.shape[-1]


class SiegelJacobiPoint(Holder):
    """A SiegelPoint together with an h x g complex fiber coordinate."""

    __slots__ = ("base", "z")

    def __init__(self, base: SiegelPoint, z):
        if isinstance(base, Holder):
            _takes("SiegelJacobiPoint", base, SiegelPoint)
        else:  # a raw matrix
            base = SiegelPoint(base)
        self.base = base
        self.z = _freeze(as_cmatrix(z, "z"), z)
        if self.z.shape[-1] != base.g or self.z.shape[:-2] != base.omega.shape[:-2]:
            raise DimensionError(f"z must be a batch {base.omega.shape[:-2]} of matrices with "
                                 f"{base.g} columns, got {self.z.shape}")

    @property
    def omega(self) -> np.ndarray:
        return self.base.omega

    @property
    def g(self) -> int:
        return self.base.g

    @property
    def h(self) -> int:
        return self.z.shape[-2]

    @property
    def u(self) -> np.ndarray:
        return np.real(self.z)

    @property
    def v(self) -> np.ndarray:
        return np.imag(self.z)


class DiskJacobiPoint(Holder):
    """A DiskPoint together with an h x g complex fiber coordinate."""

    __slots__ = ("base", "eta")

    def __init__(self, base: DiskPoint, eta):
        if isinstance(base, Holder):
            _takes("DiskJacobiPoint", base, DiskPoint)
        else:  # a raw matrix
            base = DiskPoint(base)
        self.base = base
        self.eta = _freeze(as_cmatrix(eta, "eta"), eta)
        if self.eta.shape[-1] != base.g or self.eta.shape[:-2] != base.w.shape[:-2]:
            raise DimensionError(f"eta must be a batch {base.w.shape[:-2]} of matrices with "
                                 f"{base.g} columns, got {self.eta.shape}")

    @property
    def w(self) -> np.ndarray:
        return self.base.w

    @property
    def g(self) -> int:
        return self.base.g

    @property
    def h(self) -> int:
        return self.eta.shape[-2]


class TangentVector(Holder):
    """A symmetric base displacement plus an optional fiber displacement."""

    __slots__ = ("dbase", "dfiber")

    def __init__(self, dbase, dfiber=None):
        self.dbase = _freeze(as_cmatrix(dbase, "dbase"), dbase)
        _check_square_symmetric(self.dbase, "dbase")
        self.dfiber = None if dfiber is None else _freeze(as_cmatrix(dfiber, "dfiber"), dfiber)

    @property
    def g(self) -> int:
        return self.dbase.shape[-1]


# ---------------------------------------------------------------------------
# actions


def _symmetrized(m: np.ndarray, what: str) -> np.ndarray:
    defect = symmetry_defect(m)
    _ensure(defect <= ALGEBRAIC_REL, DomainError,
            "{}: output symmetry defect {:.3e} exceeds tolerance", what, defect)
    return (m + m.mT) / 2


def _positive(cls, m: np.ndarray):
    """The cls point at m, a complex array the library has just made exactly
    symmetric, as (m + m^T)/2 is, and finite: a map's image, which passed
    _symmetrized, whose NaN defect fails a non-finite matrix first, or a
    sampled base.  It is assembled, taking m as its own, and of cls's
    validation only the positivity check is left to make, as its symmetry
    test and the Hermitian test of its _pd_matrix could only pass."""
    out = _assemble(cls, m)
    _ensure(_pd_margin(out._pd_matrix()) > out._pd_floor(), DomainError, cls._NOT_PD)
    return out


def _fit(v: TangentVector, x: np.ndarray, fiber: np.ndarray | None = None):
    """The (dx, df) displacement of the tangent vector v at the point (x, fiber):
    df is None at a point without a fiber and zero where v has none.  The batch
    of v, an unbatched one or a frame's directions, broadcasts against the point's."""
    _takes("a tangent argument", v, TangentVector)
    df = None if fiber is None else v.dfiber
    if fiber is not None and df is None:
        df = np.zeros_like(fiber)
    if v.dbase.shape != x.shape or (df is not None and df.shape != fiber.shape):
        if v.dbase.shape[-2:] != x.shape[-2:] or (
                df is not None and df.shape[-2:] != fiber.shape[-2:]):
            at = x.shape if fiber is None else (x.shape, fiber.shape)
            raise DimensionError(f"tangent vector does not fit a point of shape {at}")
        for d, y in ((v.dbase, x), (df, fiber), (df, v.dbase)):  # pairwise, so all together
            if d is not None:
                _check_batches(d, y)
    return v.dbase, df


def _fractional_linear(blocks, x, cls, context: str, what: str, dirs=None, fiber=None):
    """The cls point (a x + b) J^-1, J = c x + d, of the blocks (a, b, c, d).

    fiber, for a map of Jacobi points, is (phi, f, df): the point's fiber
    phi, the numerator fiber f, whose f J^-1 makes the image a point of cls's
    Jacobi class, and f's differential df(dx, dphi).  Given tangent vectors
    dirs at (x, phi), returns (image, dirs pushed through its differential).
    One guarded solve gives the image, its fiber and, for dirs, J^-1.
    """
    a, b, c, d = blocks
    phi, f, df = (None, None, None) if fiber is None else fiber
    if dirs is not None and not isinstance(dirs, (list, tuple)):  # a lone TangentVector, say
        raise DimensionError(f"dirs takes a list or tuple of TangentVectors, "
                             f"not a {type(dirs).__name__}")
    moves = None if dirs is None else [_fit(v, x, phi) for v in dirs]
    den = c @ x + d
    n = den.shape[-1]
    parts = [a @ x + b] + ([] if f is None else [f])
    if moves is not None:
        parts.append(np.zeros_like(den) + _eye(n))  # I in each slice
    out = guarded_rsolve(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2),
                         den, context)
    image = _symmetrized(out[..., :n, :], what)
    point = _positive(cls, image)
    k = n if f is None else n + f.shape[-2]
    z = out[..., n:k, :]
    if f is not None:
        point = _JACOBI[cls](point, z)
    if moves is None:
        return point
    lead, jinv, pushed = a - image @ c, out[..., k:, :], []
    for dx, dphi in moves:
        dx2 = lead @ dx @ jinv
        # assembled: the base part is exactly symmetric, and both are products of
        # finite arrays, as the solve's numerator and its output are
        pushed.append(_assemble(TangentVector, (dx2 + dx2.mT) / 2,
                                None if f is None else (df(dx, dphi) - z @ (c @ dx)) @ jinv))
    return point, pushed


_JACOBI = {SiegelPoint: SiegelJacobiPoint, DiskPoint: DiskJacobiPoint}


def act_siegel(m: SymplecticMatrix, p: SiegelPoint, *, dirs=None):
    """Fractional linear action (A omega + B)(C omega + D)^-1.

    Given tangent vectors dirs at p, returns (image, dirs pushed through its differential); a
    SiegelJacobiPoint is acted on in its base.
    """
    _takes("act_siegel", m, SymplecticMatrix)
    _takes("act_siegel", p, SiegelPoint, SiegelJacobiPoint)
    if m.g != p.g:
        raise DimensionError(f"degree mismatch: element g={m.g}, point g={p.g}")
    _check_batches(m.m, p.omega)
    return _fractional_linear((m.a, m.b, m.c, m.d), p.omega, SiegelPoint, "C omega + D",
                              "siegel action", dirs)


def act_disk(gs: GStarElement, p: DiskPoint, *, dirs=None):
    """Fractional linear action (P W + Q)(conj(Q) W + conj(P))^-1.

    Given tangent vectors dirs at p, returns (image, dirs pushed through its differential); a
    DiskJacobiPoint is acted on in its base.
    """
    _takes("act_disk", gs, GStarElement)
    _takes("act_disk", p, DiskPoint, DiskJacobiPoint)
    if gs.g != p.g:
        raise DimensionError(f"degree mismatch: element g={gs.g}, point g={p.g}")
    _check_batches(gs.p, p.w)
    return _fractional_linear((gs.p, gs.q, gs.q.conj(), gs.p.conj()), p.w, DiskPoint,
                              "conj(Q) W + conj(P)", "disk action", dirs)


def act_jacobi(a: JacobiElement, p: SiegelJacobiPoint, *, dirs=None):
    """(M omega, (Z + lam omega + mu)(C omega + D)^-1); kappa plays no role.

    Given tangent vectors dirs at p, returns (image, dirs pushed through its differential).
    """
    _takes("act_jacobi", a, JacobiElement)
    _takes("act_jacobi", p, SiegelJacobiPoint)
    _check_gh(a, p)
    _check_batches(a.m.m, p.omega)
    m, lam = a.m, a.hs.lam
    fiber = p.z, p.z + lam @ p.omega + a.hs.mu, lambda dx, dz: dz + lam @ dx
    return _fractional_linear((m.a, m.b, m.c, m.d), p.omega, SiegelPoint, "C omega + D",
                              "siegel action", dirs, fiber)


def act_jacobi_disk(a: GStarJacobiElement, p: DiskJacobiPoint, *, dirs=None):
    """((P W + Q) d^-1, (eta + xi W + mu) d^-1) with d = conj(Q) W + conj(P).

    Given tangent vectors dirs at p, returns (image, dirs pushed through its differential).
    """
    _takes("act_jacobi_disk", a, GStarJacobiElement)
    _takes("act_jacobi_disk", p, DiskJacobiPoint)
    _check_gh(a, p)
    _check_batches(a.gs.p, p.w)
    gs, xi = a.gs, a.hc.xi
    fiber = p.eta, p.eta + xi @ p.w + a.hc.eta, lambda dw, deta: deta + xi @ dw
    return _fractional_linear((gs.p, gs.q, gs.q.conj(), gs.p.conj()), p.w, DiskPoint,
                              "conj(Q) W + conj(P)", "disk action", dirs, fiber)


# ---------------------------------------------------------------------------
# Cayley transforms


# the blocks (a, b, c, d) of i (I + W)(I - W)^-1 and of (omega - iI)(omega + iI)^-1,
# stacked and built once per g
_CAYLEY = _built_once(lambda n: np.array([1j, 1j, -1, 1])[:, None, None] * np.eye(n))
_CAYLEY_INV = _built_once(lambda n: np.array([1, -1j, 1, 1j])[:, None, None] * np.eye(n))


def cayley(p: DiskPoint, *, dirs=None):
    """W -> i (I + W)(I - W)^-1; a DiskJacobiPoint is mapped in its base.

    Given tangent vectors dirs at p, returns (image, dirs pushed through its differential).
    """
    _takes("cayley", p, DiskPoint, DiskJacobiPoint)
    return _fractional_linear(_CAYLEY(p.g), p.w, SiegelPoint, "I - W", "cayley", dirs)


def cayley_inv(p: SiegelPoint) -> DiskPoint:
    """omega -> (omega - iI)(omega + iI)^-1; a SiegelJacobiPoint is mapped in its base."""
    _takes("cayley_inv", p, SiegelPoint, SiegelJacobiPoint)
    return _fractional_linear(_CAYLEY_INV(p.g), p.omega, DiskPoint, "omega + iI", "inverse cayley")


def partial_cayley(p: DiskJacobiPoint, *, dirs=None):
    """(W, eta) -> (i (I + W)(I - W)^-1, 2i eta (I - W)^-1).

    Given tangent vectors dirs at p, returns (image, dirs pushed through its differential).
    """
    _takes("partial_cayley", p, DiskJacobiPoint)
    fiber = p.eta, 2j * p.eta, lambda dw, deta: 2j * deta
    return _fractional_linear(_CAYLEY(p.g), p.w, SiegelPoint, "I - W", "cayley", dirs, fiber)


def partial_cayley_inv(p: SiegelJacobiPoint) -> DiskJacobiPoint:
    """(omega, Z) -> ((omega - iI)(omega + iI)^-1, Z (omega + iI)^-1)."""
    _takes("partial_cayley_inv", p, SiegelJacobiPoint)
    return _fractional_linear(_CAYLEY_INV(p.g), p.omega, DiskPoint, "omega + iI",
                              "inverse cayley", fiber=(p.z, p.z, None))


def check_compatibility(a: JacobiElement, p: DiskJacobiPoint) -> float:
    """Residual of the compatibility identity between the two models.

    Compares acting upstairs after transforming against transforming after
    acting downstairs (through theta); returns the worse of the base and
    fiber relative residuals.
    """
    lhs = act_jacobi(a, partial_cayley(p))
    rhs = partial_cayley(act_jacobi_disk(theta(a), p))
    return np.maximum(rel_error(lhs.omega, rhs.omega), rel_error(lhs.z, rhs.z))


# ---------------------------------------------------------------------------
# sampling


_DISK_RADIUS = 0.9


def sample_point(kind: str, g: int, h: int = 1, seed=0, scale: float = 1.0):
    """Draw a random point of the requested domain, deterministic in seed.

    kind is one of siegel, disk, siegel_jacobi, disk_jacobi.  Disk bases are
    scaled to spectral norm < 0.9; Siegel bases get Im >= 0.1 I.  The seed is
    a non-negative int and scale in (0, _SCALE_MAX], as for sample_element;
    the point is built from the numbers of the counter-based (seed, kind tag)
    stream.  A sequence of seeds gives one holder of their batch, built and
    validated in one pass, each slice with the bits of its seed's point.
    """
    if not isinstance(kind, str) or kind not in _KIND_TAG:
        raise DomainError(f"unknown point kind: {kind!r}")
    g, h = _count(g, "g"), _count(h, "h")
    _check_scale(scale)
    spans = {kind: ...}
    u = _uniforms(seed, _KIND_TAG[kind], _fibered_width(g, h, spans))
    return _sample_points(g, h, u, spans, scale)[kind]


def _sample_points(g: int, h: int, u: np.ndarray, spans: dict, scale: float = 1.0) -> dict:
    """One family draw of points, kind -> holder, from the rows of numbers u,
    each kind's rows at its span (see groups._rows): any of siegel and
    siegel_jacobi, or of disk and disk_jacobi.  Each row is read from its
    front, and one base is built for every row, exactly symmetric, and
    checked for positivity (_positive); a kind's points take their rows of
    it, with a fiber for a jacobi kind, assembled from finite uniforms."""
    # two g x g blocks for the base (Siegel: R, then Re omega; disk: Re W,
    # then Im W), then the real and the imaginary part of the fiber
    siegel = next(iter(spans)).startswith("siegel")
    x = _blocks(u, _fibered_shapes(g, h, spans), scale)
    if siegel:
        base = _positive(SiegelPoint, _sym(x[1]) + 1j * (_sym(x[0].mT @ x[0]) + 0.1 * _eye(g)))
    else:
        w = _sym(x[0]) + 1j * _sym(x[1])
        norm = _svdvals(w)[..., :1, None]  # spectral: the largest, first
        base = _positive(DiskPoint, _DISK_RADIUS * w / (1 + norm))
    out = {}
    for kind, rows in spans.items():
        out[kind] = _rows(base, spans, kind)
        if kind.endswith("jacobi"):
            out[kind] = _assemble(SiegelJacobiPoint if siegel else DiskJacobiPoint, out[kind],
                                  x[2][rows] + 1j * x[3][rows])
    return out


_KIND_TAG = {"siegel": 10, "disk": 11, "siegel_jacobi": 12, "disk_jacobi": 13}
