"""The four homogeneous domains and the maps between them.

Points of the upper-half-space model carry a symmetric matrix with positive
definite imaginary part; points of the bounded model carry a symmetric W with
I - W conj(W) positive definite.  Both extend by an h x g fiber coordinate.
Actions re-symmetrize their output and record the defect, which must stay
below the algebraic tolerance.

The actions and the (partial) Cayley transform are fractional-linear,
x' = (a x + b) J^-1 with fiber z' = f J^-1 and J = c x + d, so each has the
exact differential

    dx' = (a - x'c) dx J^-1,    dz' = (df - z'c dx) J^-1,

with df = dZ + lam dOmega for act_jacobi, deta + xi dW for act_jacobi_disk
and 2i deta for partial_cayley.  Given tangent vectors (dirs=...), a map
also returns their images under it; its one guarded solve then returns J^-1
as well, by stacking I under the numerator.
Points and tangent vectors hold (..., r, c) arrays (see numkit), so one
holder may carry a batch; an unbatched tangent vector broadcasts against a
batched point.
"""

from __future__ import annotations

import numpy as np

from .groups import (
    GStarElement,
    GStarJacobiElement,
    JacobiElement,
    SymplecticMatrix,
    _blocks,
    _check_scale,
    _draw_rows,
    _rows,
    _sym,
    theta,
)
from .numkit import (
    ALGEBRAIC_REL,
    PD_MIN_EIG,
    DimensionError,
    DomainError,
    Holder,
    _count,
    _ensure,
    _eye,
    _freeze,
    _svdvals,
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


def _takes(what: str, x, *kinds: type) -> None:
    """The entry check of a map or metric: DimensionError, naming the models
    or elements it takes, unless x is one of kinds."""
    if not isinstance(x, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise DimensionError(f"{what} takes a {names}, not a {type(x).__name__}")


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
        _ensure(self.pd_margin() > PD_MIN_EIG, DomainError, self._NOT_PD)

    def pd_margin(self):
        return hermitian_pd_margin(self.y.astype(complex))

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
        _ensure(self.pd_margin() > PD_MIN_EIG, DomainError, self._NOT_PD)

    def pd_margin(self):
        m = _eye(self.g) - self.w @ self.w.conj()
        # symmetrize away the roundoff skew before the Hermitian eigensolve
        m = (m + m.conj().mT) / 2
        return hermitian_pd_margin(m)

    @property
    def g(self) -> int:
        return self.w.shape[-1]


class SiegelJacobiPoint(Holder):
    """A SiegelPoint together with an h x g complex fiber coordinate."""

    __slots__ = ("base", "z")

    def __init__(self, base: SiegelPoint, z):
        if not isinstance(base, SiegelPoint):
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
        if not isinstance(base, DiskPoint):
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
        self.dbase = as_cmatrix(dbase, "dbase")
        _check_square_symmetric(self.dbase, "dbase")
        self.dfiber = None if dfiber is None else as_cmatrix(dfiber, "dfiber")

    @property
    def g(self) -> int:
        return self.dbase.shape[-1]

    def scaled(self, t: float) -> "TangentVector":
        return TangentVector(
            t * self.dbase, None if self.dfiber is None else t * self.dfiber
        )


# ---------------------------------------------------------------------------
# actions


def _symmetrized(m: np.ndarray, what: str) -> np.ndarray:
    defect = symmetry_defect(m)
    _ensure(defect <= ALGEBRAIC_REL, DomainError,
            "{}: output symmetry defect {:.3e} exceeds tolerance", what, defect)
    return (m + m.mT) / 2


def _positive(cls, m: np.ndarray):
    """The cls point at a _symmetrized m: (m + m^T)/2 is exactly symmetric, so
    of cls's validation only the positivity check is left to make."""
    out = cls(m, validate=False)
    _ensure(out.pd_margin() > PD_MIN_EIG, DomainError, cls._NOT_PD)
    return out


def _fit(v: TangentVector, x: np.ndarray, fiber: np.ndarray | None = None):
    """The (dx, df) displacement of the tangent vector v at the point (x, fiber):
    df is None at a point without a fiber and zero where v has none.  An
    unbatched v broadcasts against a batched point."""
    df = None if fiber is None else v.dfiber
    if fiber is not None and df is None:
        df = np.zeros_like(fiber)
    if v.dbase.shape not in (x.shape, x.shape[-2:]) or (
            df is not None and df.shape not in (fiber.shape, fiber.shape[-2:])):
        at = x.shape if fiber is None else (x.shape, fiber.shape)
        raise DimensionError(f"tangent vector does not fit a point of shape {at}")
    return v.dbase, df


def _displacements(dirs, x: np.ndarray, fiber: np.ndarray | None = None, lift=None):
    """The (dx, df) pairs of tangent vectors at (x, fiber) for a map whose
    numerator fiber moves by df = dfiber + lift dx; None when dirs is None."""
    if dirs is None:
        return None
    out = []
    for v in dirs:
        dx, df = _fit(v, x, fiber)
        out.append((dx, df if lift is None else df + lift @ dx))
    return out


def _stacked_rsolve(top, fiber, den, context: str, with_inverse: bool):
    """top den^-1, fiber den^-1 and, if with_inverse, den^-1 itself, from one
    guarded solve of the stacked numerator."""
    if fiber is None and not with_inverse:
        return guarded_rsolve(top, den, context), None, None
    n = den.shape[-1]
    eye = np.zeros_like(den) + _eye(n) if with_inverse else None  # I in each slice
    parts = [m for m in (top, fiber, eye) if m is not None]
    out = guarded_rsolve(np.concatenate(parts, axis=-2), den, context)
    k = n if fiber is None else n + fiber.shape[-2]
    return out[..., :n, :], None if fiber is None else out[..., n:k, :], out[..., k:, :]


def _pushed(lead, c, z, jinv, dirs) -> list[TangentVector]:
    """(lead dx J^-1 symmetrized, (df - z c dx) J^-1) for each (dx, df) in dirs,
    with lead = a - x'c: the exact differential of a fractional-linear map."""
    out = []
    for dx, df in dirs:
        dx2 = lead @ dx @ jinv
        v = TangentVector.__new__(TangentVector)  # (dx2 + dx2^T)/2 is exactly symmetric
        v.dbase, v.dfiber = (dx2 + dx2.mT) / 2, None if df is None else (df - z @ (c @ dx)) @ jinv
        out.append(v)
    return out


def _fractional_linear(a, b, c, d, x, fiber, context: str, what: str, dirs=None):
    """(a x + b)(c x + d)^-1 symmetrized, fiber (c x + d)^-1 and, given (dx, df)
    pairs, their pushforwards, in one guarded solve."""
    top, z, jinv = _stacked_rsolve(a @ x + b, fiber, c @ x + d, context, dirs is not None)
    out = _symmetrized(top, what)
    return out, z, None if dirs is None else _pushed(a - out @ c, c, z, jinv, dirs)


def act_siegel(m: SymplecticMatrix, p: SiegelPoint, *, dirs=None):
    """Fractional linear action (A omega + B)(C omega + D)^-1.

    Given tangent vectors dirs at p, returns (image, their pushforwards); a
    SiegelJacobiPoint is acted on in its base.
    """
    _takes("act_siegel", m, SymplecticMatrix)
    _takes("act_siegel", p, SiegelPoint, SiegelJacobiPoint)
    if m.g != p.g:
        raise DimensionError(f"degree mismatch: element g={m.g}, point g={p.g}")
    om, _, pushed = _fractional_linear(m.a, m.b, m.c, m.d, p.omega, None, "C omega + D",
                                       "siegel action", _displacements(dirs, p.omega))
    out = _positive(SiegelPoint, om)
    return out if dirs is None else (out, pushed)


def act_disk(gs: GStarElement, p: DiskPoint, *, dirs=None):
    """Fractional linear action (P W + Q)(conj(Q) W + conj(P))^-1.

    Given tangent vectors dirs at p, returns (image, their pushforwards); a
    DiskJacobiPoint is acted on in its base.
    """
    _takes("act_disk", gs, GStarElement)
    _takes("act_disk", p, DiskPoint, DiskJacobiPoint)
    if gs.g != p.g:
        raise DimensionError(f"degree mismatch: element g={gs.g}, point g={p.g}")
    w, _, pushed = _fractional_linear(gs.p, gs.q, gs.q.conj(), gs.p.conj(), p.w, None,
                                      "conj(Q) W + conj(P)", "disk action",
                                      _displacements(dirs, p.w))
    out = _positive(DiskPoint, w)
    return out if dirs is None else (out, pushed)


def act_jacobi(a: JacobiElement, p: SiegelJacobiPoint, *, dirs=None):
    """(M omega, (Z + lam omega + mu)(C omega + D)^-1); kappa plays no role.

    Given tangent vectors dirs at p, returns (image, their pushforwards).
    """
    _takes("act_jacobi", a, JacobiElement)
    _takes("act_jacobi", p, SiegelJacobiPoint)
    if (a.g, a.h) != (p.g, p.h):
        raise DimensionError(f"(g, h) mismatch: ({a.g}, {a.h}) vs ({p.g}, {p.h})")
    m, fiber = a.m, p.z + a.hs.lam @ p.omega + a.hs.mu
    om, z, pushed = _fractional_linear(m.a, m.b, m.c, m.d, p.omega, fiber, "C omega + D",
                                       "siegel action",
                                       _displacements(dirs, p.omega, p.z, a.hs.lam))
    out = SiegelJacobiPoint(_positive(SiegelPoint, om), z)
    return out if dirs is None else (out, pushed)


def act_jacobi_disk(a: GStarJacobiElement, p: DiskJacobiPoint, *, dirs=None):
    """((P W + Q) d^-1, (eta + xi W + mu) d^-1) with d = conj(Q) W + conj(P).

    Given tangent vectors dirs at p, returns (image, their pushforwards).
    """
    _takes("act_jacobi_disk", a, GStarJacobiElement)
    _takes("act_jacobi_disk", p, DiskJacobiPoint)
    if (a.g, a.h) != (p.g, p.h):
        raise DimensionError(f"(g, h) mismatch: ({a.g}, {a.h}) vs ({p.g}, {p.h})")
    gs, fiber = a.gs, p.eta + a.hc.xi @ p.w + a.hc.eta
    w, eta, pushed = _fractional_linear(gs.p, gs.q, gs.q.conj(), gs.p.conj(), p.w, fiber,
                                        "conj(Q) W + conj(P)", "disk action",
                                        _displacements(dirs, p.w, p.eta, a.hc.xi))
    out = DiskJacobiPoint(_positive(DiskPoint, w), eta)
    return out if dirs is None else (out, pushed)


# ---------------------------------------------------------------------------
# Cayley transforms


def _cayley(w, fiber, dirs=None):
    """i (I + W)(I - W)^-1 symmetrized, 2i fiber (I - W)^-1 and, given (dW, deta)
    pairs, their pushforwards, in one guarded solve.

    This is the fractional-linear map with a = b = iI, c = -I, d = I and the
    fiber 2i eta, so df = 2i deta.
    """
    i = np.eye(w.shape[-1])
    top, z, rinv = _stacked_rsolve(i + w, fiber, i - w, "I - W", dirs is not None)
    om, z = _symmetrized(1j * top, "cayley"), None if fiber is None else 2j * z
    if dirs is None:
        return om, z, None
    dirs = [(dw, None if de is None else 2j * de) for dw, de in dirs]
    return om, z, _pushed(1j * i + om, -i, z, rinv, dirs)


def _cayley_inv(omega, fiber):
    """(omega - iI)(omega + iI)^-1 symmetrized and fiber (omega + iI)^-1: the
    fractional-linear map with a = I, b = -iI, c = I, d = iI."""
    i = _eye(omega.shape[-1])
    return _fractional_linear(i, -1j * i, i, 1j * i, omega, fiber, "omega + iI",
                              "inverse cayley")[:2]


def cayley(p: DiskPoint, *, dirs=None):
    """W -> i (I + W)(I - W)^-1; a DiskJacobiPoint is mapped in its base.

    Given tangent vectors dirs at p, returns (image, their pushforwards).
    """
    _takes("cayley", p, DiskPoint, DiskJacobiPoint)
    om, _, pushed = _cayley(p.w, None, _displacements(dirs, p.w))
    out = _positive(SiegelPoint, om)
    return out if dirs is None else (out, pushed)


def cayley_inv(p: SiegelPoint) -> DiskPoint:
    """omega -> (omega - iI)(omega + iI)^-1; a SiegelJacobiPoint is mapped in its base."""
    _takes("cayley_inv", p, SiegelPoint, SiegelJacobiPoint)
    return _positive(DiskPoint, _cayley_inv(p.omega, None)[0])


def partial_cayley(p: DiskJacobiPoint, *, dirs=None):
    """(W, eta) -> (i (I + W)(I - W)^-1, 2i eta (I - W)^-1).

    Given tangent vectors dirs at p, returns (image, their pushforwards).
    """
    _takes("partial_cayley", p, DiskJacobiPoint)
    om, z, pushed = _cayley(p.w, p.eta, _displacements(dirs, p.w, p.eta))
    out = SiegelJacobiPoint(_positive(SiegelPoint, om), z)
    return out if dirs is None else (out, pushed)


def partial_cayley_inv(p: SiegelJacobiPoint) -> DiskJacobiPoint:
    """(omega, Z) -> ((omega - iI)(omega + iI)^-1, Z (omega + iI)^-1)."""
    _takes("partial_cayley_inv", p, SiegelJacobiPoint)
    w, eta = _cayley_inv(p.omega, p.z)
    return DiskJacobiPoint(_positive(DiskPoint, w), eta)


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
    if kind not in _KIND_TAG:
        raise DomainError(f"unknown point kind: {kind!r}")
    g, h = _count(g, "g"), _count(h, "h")
    _check_scale(scale)
    return _sample_points(g, h, {kind: seed}, scale)[kind]


def _sample_points(g: int, h: int, seeds: dict, scale: float = 1.0) -> dict:
    """One family draw of points, kind -> holder, with seeds mapping each kind
    to its seed or sequence of seeds (see groups._draw_rows): any of siegel and
    siegel_jacobi, or of disk and disk_jacobi.  Their rows are read to the
    longest kind's numbers, and one base is built and validated for every
    row; a kind's points take their rows of it, with a fiber for a jacobi
    kind."""
    # two g x g blocks for the base (Siegel: R, then Re omega; disk: Re W,
    # then Im W), then the real and the imaginary part of the fiber
    siegel = next(iter(seeds)).startswith("siegel")
    fibered = ("siegel_jacobi" if siegel else "disk_jacobi") in seeds
    shapes = [(g, g)] * 2 + ([(h, g)] * 2 if fibered else [])
    u, spans = _draw_rows(seeds, _KIND_TAG, sum(r * c for r, c in shapes))
    x = _blocks(u, shapes, scale)
    if siegel:
        base = SiegelPoint(_sym(x[1]) + 1j * (x[0].mT @ x[0] + 0.1 * _eye(g)))
    else:
        w = _sym(x[0]) + 1j * _sym(x[1])
        norm = _svdvals(w)[..., :1, None]  # spectral: the largest, first
        base = DiskPoint(_DISK_RADIUS * w / (1 + norm))
    out = {}
    for kind, rows in spans.items():
        out[kind] = _rows(base, spans, kind)
        if kind.endswith("jacobi"):
            out[kind] = (SiegelJacobiPoint if siegel else DiskJacobiPoint)(
                out[kind], x[2][rows] + 1j * x[3][rows])
    return out


_KIND_TAG = {"siegel": 10, "disk": 11, "siegel_jacobi": 12, "disk_jacobi": 13}
