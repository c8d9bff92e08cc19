"""Invariant metrics, Laplacians, and the volume density.

Each Laplacian is the operator 4 h^{a b-bar} d_a dbar_b of its metric h, and
is derived from that metric rather than transcribed: for any frame {e_k} at p
with weights w_k that make the sqrt(w_k) e_k h-orthonormal it is the stencil

    Lf(p) = sum_k w_k [f(p+te_k) + f(p-te_k) + f(p+ite_k) + f(p-ite_k) - 4f(p)] / t^2

with t = FD_SECOND_STEP in the frame's units; p + s e_k stays in the domain for |s| < 1
on Siegel space (Y + s L S L^T = L (I + sS) L^T), and on the disk for |s| cond(M) < 1,
which its check ensures.  The frames are closed forms in one Cholesky factor L, with S
over E_ii and (E_ij + E_ji)/sqrt(2) and F over the unit h x g matrices; the Siegel-Jacobi
one is lifted horizontally so that dZ - V Y^-1 dOmega vanishes on its base:

    Siegel space    Y = L L^T              L S L^T                    w = 1
    disk            I - W conj(W) = L L^H  L S L^T / 2                w = 1
    Siegel-Jacobi   Y = L L^T              (L S L^T, V Y^-1 L S L^T)  w = 1/A
                                           and (0, F L^T)             w = 1/B

The actions and the partial Cayley transform are holomorphic, so the real
Jacobian determinant of such a map is |det|^2 of its complex differential,
read off the images of the coordinate directions E_ii and E_ij + E_ji of
the base and the unit h x g matrices of the fiber.  Each of those maps
returns its exact differential along given tangent vectors (see spaces):
pullback_metric_disk and the metric- and volume-invariance suites use it
(metric-invariance reads the pullback metric through partial_cayley itself).
The volume density det(Y)^-(g+h+1) is the exp of its log, -(g+h+1) log det Y
from the Cholesky factor of Y, the log-determinant of the logdet-y field; the
log stays finite where det(Y) or the density leaves float range.
Each Laplacian makes one batched pass: its displaced points, built as one
batch through _rebuild, go through its field in one call.

The metrics, the volume density and sample_tangent take (..., r, c) batches
like the points (see numkit): each slice of a result has the bits of its 2-d
call, and a 2-d input gives a plain float.  metric_disk makes one guarded
inverse, as I - conj(W) W = conj(I - W conj(W)): the conjugate of the one
inverse has the bits of the other.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .groups import _blocks, _draw_rows, _fibered_shapes, _fibered_width
from .numkit import (
    ALGEBRAIC_REL,
    ConditioningError,
    ConsistencyError,
    DimensionError,
    DomainError,
    _built_once,
    _cholesky,
    _count,
    _det,
    _eigvalsh,
    _ensure,
    _floor1,
    _freeze,
    _inv,
    _takes,
    guarded_inv,
)
from .spaces import (
    DiskJacobiPoint,
    DiskPoint,
    SiegelJacobiPoint,
    SiegelPoint,
    TangentVector,
    _fit,
    _tangent,
    partial_cayley,
)

__all__ = [
    "ScalarField",
    "MetricParams",
    "TEST_FIELDS",
    "metric_siegel",
    "metric_disk",
    "metric_sj",
    "pullback_metric_disk",
    "laplacian_siegel",
    "laplacian_disk",
    "laplacian_sj",
    "volume_density",
    "sample_tangent",
]

# the Laplacians' central second differences: the step in frame units and its bound
FD_SECOND_STEP = 1e-4
FD_SECOND_REL = 1e-4
# the largest cond(M) at which a field read through M^-1 (cond(M) eps / t^2) keeps FD_SECOND_REL
_STENCIL_COND = FD_SECOND_REL * FD_SECOND_STEP**2 / np.finfo(float).eps


@dataclass(frozen=True)
class MetricParams:
    """The two positive weights of the two-parameter invariant metric."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        for x in (self.a, self.b):
            if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0 < x < np.inf:
                raise DomainError(f"metric parameters must be finite positive reals, got {x!r}")


@dataclass(frozen=True)
class ScalarField:
    """A named twice-differentiable test field on one of the domains: fn maps a
    holder of points to one real value per point, an array of its batch shape."""

    name: str
    domain: str  # "disk", "sj", or "siegel": of Omega alone, so also on the Siegel-Jacobi space
    fn: Callable

    def __call__(self, point):
        return self.fn(point)


def _tr(a):
    return np.trace(a, axis1=-2, axis2=-1)


def _abs2(x):
    """|x|^2 per value, with the bits of abs(x) ** 2 on a numpy scalar: np.abs
    and an array's ** 2 (x * x) round differently from hypot and pow."""
    return np.float_power(np.hypot(x.real, x.imag), 2)


def _logdet_y(p):
    """log det Y as 2 sum log diag L with Y = L L^T, finite where det(Y) overflows."""
    return 2 * np.log(np.diagonal(_cholesky(p.omega.imag), 0, -2, -1)).sum(-1)


TEST_FIELDS = [
    ScalarField("trace-re-base", "siegel", lambda p: _tr(p.omega.real)),
    ScalarField("logdet-y", "siegel", _logdet_y),
    ScalarField("trace-yvv", "sj", lambda p: _tr(p.omega.imag @ p.z.imag.mT @ p.z.imag)),
    ScalarField("re-trace-z", "sj", lambda p: _tr(p.z).real),
    ScalarField("abs2-trace-z", "sj", lambda p: _abs2(_tr(p.z))),
    ScalarField("logdet-disk", "disk",
                lambda p: np.log(_det(np.eye(p.g) - p.w @ p.w.conj())).real),
]


# ---------------------------------------------------------------------------
# metrics


def _real_value(val, bound: float, what: str):
    """The real part of each value, checked to carry no imaginary residual."""
    _ensure(abs(val.imag) / _floor1(abs(val)) <= bound, ConsistencyError,
            "{}: imaginary residual {:.3e}", what, val.imag)
    return _plain(val.real)


def _plain(x):
    """A plain float for a 0-d result, the batch array otherwise."""
    return float(x) if x.ndim == 0 else x


def metric_siegel(p: SiegelPoint, v: TangentVector):
    """trace(Y^-1 dOmega Y^-1 conj(dOmega))."""
    _takes("metric_siegel", p, SiegelPoint)
    do, _ = _fit(v, p.omega)
    yi = guarded_inv(p.y.astype(complex), "Im(omega)")
    return _real_value(_siegel_term(yi, do, do.conj()), ALGEBRAIC_REL, "siegel metric")


def _siegel_term(yi, do, dob):
    """trace(Y^-1 dOmega Y^-1 conj(dOmega)), complex: metric_siegel's value
    and metric_sj's A-term, with the same bits."""
    return _tr(yi @ do @ yi @ dob)


def metric_disk(p: DiskPoint, v: TangentVector):
    """4 trace((I - W conj W)^-1 dW (I - conj(W) W)^-1 conj(dW)), the second
    inverse the conjugate of the first: I - conj(W) W = conj(I - W conj(W))."""
    _takes("metric_disk", p, DiskPoint, DiskJacobiPoint)
    dw, _ = _fit(v, p.w)
    s = guarded_inv(np.eye(p.g) - p.w @ p.w.conj(), "I - W conj(W)")
    val = 4.0 * _tr(s @ dw @ s.conj() @ dw.conj())
    return _real_value(val, ALGEBRAIC_REL, "disk metric")


def metric_sj(params: MetricParams, p: SiegelJacobiPoint, v: TangentVector):
    """The five-term A/B metric in dOmega and dZ: A and B weigh the two
    terms of _metric_sj_terms.

    Reduces to a times the base metric when dZ = 0 and Im(Z) = 0.
    """
    _takes("metric_sj", params, MetricParams)
    return _weighted_sj(params, _metric_sj_terms(p, v))


def _weighted_sj(params: MetricParams, terms: tuple):
    """metric_sj from its (A-term, B-term)."""
    ta, tb = terms
    return _real_value(params.a * ta + params.b * tb, ALGEBRAIC_REL, "siegel-jacobi metric")


def _metric_sj_terms(p: SiegelJacobiPoint, v: TangentVector) -> tuple:
    """The complex A- and B-terms of metric_sj at (p, v), computed once for
    any number of MetricParams.  The A-term is _siegel_term at (p.base, v),
    so its real part is metric_siegel(p.base, v), bit for bit."""
    _takes("metric_sj", p, SiegelJacobiPoint)
    do, dz = _fit(v, p.omega, p.z)
    if v.dfiber is None:
        raise DimensionError("tangent vector must carry a fiber part")
    yi = guarded_inv(p.base.y.astype(complex), "Im(omega)")
    vmat = p.v.astype(complex)
    dob, dzb = do.conj(), dz.conj()
    m1 = _siegel_term(yi, do, dob)
    m2 = _tr(yi @ vmat.mT @ vmat @ yi @ do @ yi @ dob)
    m3 = _tr(yi @ dz.mT @ dzb)
    m4 = _tr(vmat @ yi @ do @ yi @ dzb.mT)
    m5 = _tr(vmat @ yi @ dob @ yi @ dz.mT)
    return m1, m2 + m3 - m4 - m5


def pullback_metric_disk(params: MetricParams, p: DiskJacobiPoint, v: TangentVector):
    """The invariant metric on the bounded model, realized as the pullback of
    the unbounded-model metric through the partial Cayley transform."""
    moved, (dv,) = partial_cayley(p, dirs=[v])
    return metric_sj(params, moved, dv)


# ---------------------------------------------------------------------------
# point plumbing of the difference stencils


def _point_parts(p) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(p, SiegelJacobiPoint):
        return p.omega, p.z
    if isinstance(p, DiskJacobiPoint):
        return p.w, p.eta
    if isinstance(p, SiegelPoint):
        return p.omega, None
    if isinstance(p, DiskPoint):
        return p.w, None
    raise DimensionError(f"unsupported point type: {type(p).__name__}")


def _rebuild(p, base: np.ndarray, fiber: np.ndarray | None):
    """A point of p's model at (base, fiber), unvalidated: the frame keeps the stencil inside."""
    if fiber is None:
        return type(p)(base, validate=False)
    return type(p)(type(p.base)(base, validate=False), fiber)


def _sym_coords(g: int) -> np.ndarray:
    """E_ii and E_ij + E_ji (i <= j row-major), stacked: the directions of symmetric g x g."""
    e = np.zeros((g * (g + 1) // 2, g, g))
    for k, (i, j) in enumerate((i, j) for i in range(g) for j in range(i, g)):
        e[k, i, j] = e[k, j, i] = 1.0
    return e


def _fiber_coords(h: int, g: int) -> np.ndarray:
    """The unit h x g matrices, row-major."""
    return np.eye(h * g).reshape(-1, h, g)


# ---------------------------------------------------------------------------
# Laplacians


def _sym_frame(m: np.ndarray, what="Im(omega): condition number", top=None) -> tuple:
    """L with M = L L^H, and L S L^T with S over E_ii and (E_ij + E_ji)/sqrt(2) (orthonormal
    for trace(S S')), once M is positive definite and top / lambda_min(M), cond(M) by default,
    keeps FD_SECOND_REL."""
    lam = _eigvalsh(m)
    # inf unless M is positive definite, whatever top is
    cond = (lam[-1] if top is None else top) / lam[0] if lam[0] > 0 else np.inf
    _ensure(cond <= _STENCIL_COND, ConditioningError,
            "{} {:.3e} exceeds the difference stencil's {:.0f}", what, cond, _STENCIL_COND)
    l, e = _cholesky(m), _sym_coords(len(m))
    return l, l @ (e / np.sqrt(e.sum(axis=(-2, -1)))[:, None, None]) @ l.T


def _siegel_frame(omega: np.ndarray, z=None) -> tuple:
    """L S L^T with Im(Omega) = L L^T: orthonormal for metric_siegel."""
    return _sym_frame(np.imag(omega))[1], None


def _disk_frame(w: np.ndarray, eta=None) -> tuple:
    """L S L^T / 2 with M = I - W conj(W) = L L^H: orthonormal for metric_disk.  Fields form M
    from unit-size terms, losing up to 2.5 eps / lambda_min(M) (W = r U, g = 1..4): top = 4."""
    return _sym_frame(np.eye(len(w)) - w @ w.conj(), "I - W conj(W): 4/lambda_min", 4)[1] / 2, None


def _sj_frame(omega: np.ndarray, z: np.ndarray) -> tuple:
    """Orthonormal at A = B = 1 for metric_sj = A |dOmega|^2 + B |dZ - V Y^-1 dOmega|^2."""
    y = np.imag(omega)
    l, base = _sym_frame(y)
    fiber = _fiber_coords(*z.shape) @ l.T
    return (np.concatenate([base, np.zeros((len(fiber),) + y.shape)]),
            np.concatenate([np.imag(z) @ _inv(y) @ base, fiber]))


def _frame_laplacian(f: Callable, p, frame: Callable, what: str, weights=(1.0, 1.0)) -> float:
    """Sum over a frame {e_k} at p of w_k times the central second differences
    of f along e_k and i e_k, from one call of f on the batch of p and its
    4 len(e) displaced points; w_k is weights[0] where e_k moves the base and
    weights[1] where it moves only the fiber.

    frame(base, fiber) returns the stacked (base, fiber) displacements of the
    e_k, with fiber None for a fixed fiber.  p is one point: a batch raises
    DimensionError.
    """
    if not callable(f):
        raise DimensionError(f"{what} takes a callable field, not a {type(f).__name__}")
    base, fiber = _point_parts(p)
    if base.ndim > 2:
        raise DimensionError(f"{what} takes one point, not a batch of shape {base.shape[:-2]}")
    db, df = frame(base, fiber)
    steps = FD_SECOND_STEP * np.array([1, -1, 1j, -1j])[:, None, None]
    n = 1 + len(steps) * len(db)

    def displaced(x, dx):  # x, then x + s e_k for each k and, within k, each step s
        if dx is None:
            return None if x is None else np.broadcast_to(x, (n,) + x.shape)
        return np.concatenate([x[None], (x + steps * dx[:, None]).reshape((-1,) + x.shape)])

    vals = np.asarray(f(_rebuild(p, displaced(base, db), displaced(fiber, df))))
    if vals.shape != (n,):
        raise DimensionError(f"a field returns one value per point: shape ({n},), not {vals.shape}")
    # summed in stencil order: np.sum's pairwise order would round differently
    second = np.cumsum((vals[1:] - vals[0]).reshape(len(db), len(steps)), axis=1)[:, -1]
    w = np.where(np.any(db != 0, axis=(-2, -1)), *weights)
    value = _real_value(np.cumsum(w * second)[-1] / FD_SECOND_STEP**2, FD_SECOND_REL, what)
    if not math.isfinite(value):  # a NaN or inf field value leaves the sum NaN or inf
        raise DomainError(f"{what}: not finite, from a NaN or inf field value or "
                          "differences that overflow")
    return value


def laplacian_siegel(f: Callable, p: SiegelPoint) -> float:
    """The Laplacian of metric_siegel, 4 trace(Y t(Y dbar) d)."""
    _takes("laplacian_siegel", p, SiegelPoint, SiegelJacobiPoint)
    return _frame_laplacian(f, p, _siegel_frame, "siegel laplacian")


def laplacian_disk(f: Callable, p: DiskPoint) -> float:
    """The Laplacian of metric_disk, trace(S t(S dbar) d) with S = I - W conj(W)."""
    _takes("laplacian_disk", p, DiskPoint, DiskJacobiPoint)
    return _frame_laplacian(f, p, _disk_frame, "disk laplacian")


def laplacian_sj(params: MetricParams, f: Callable, p: SiegelJacobiPoint) -> float:
    """The Laplacian of metric_sj, Delta_h / A + Delta_v / B."""
    _takes("laplacian_sj", params, MetricParams)
    _takes("laplacian_sj", p, SiegelJacobiPoint)
    return _frame_laplacian(f, p, _sj_frame, "siegel-jacobi laplacian",
                            (1 / params.a, 1 / params.b))


# ---------------------------------------------------------------------------
# volume density, tangent vectors and Jacobian determinants


def _log_volume_density(p: SiegelJacobiPoint):
    """-(g+h+1) log det Y, the log of volume_density, finite wherever Y is
    positive definite."""
    return -(p.g + p.h + 1) * _logdet_y(p)


def volume_density(p: SiegelJacobiPoint):
    """det(Y)^-(g+h+1), the density of the invariant volume element, as the exp
    of _log_volume_density.  A density that comes out as 0 or inf, out of float
    range, raises DomainError, with no RuntimeWarning first."""
    _takes("volume_density", p, SiegelJacobiPoint)
    with np.errstate(over="ignore", under="ignore"):
        density = np.exp(_log_volume_density(p))
    _ensure((density > 0) & (density < np.inf), DomainError,
            "volume density det(Y)^-(g+h+1) = {} is not a positive finite number", density)
    return _plain(density)


def sample_tangent(g: int, h: int | None = None, seed=0) -> TangentVector:
    """Random tangent vector, deterministic in seed; fiber part iff h given.
    The seed is a non-negative int, whose vector is built from the numbers of
    the counter-based (seed, 20) stream; a sequence of seeds gives one holder
    of their batch, as sample_point does."""
    g, h = _count(g, "g"), None if h is None else _count(h, "h")
    kind = "tangent" if h is None else "tangent_jacobi"
    seeds = {kind: seed}
    ((u, spans),) = _draw_rows([seeds], _KIND_TAG, _fibered_width(g, h, seeds))
    return _sample_tangents(g, h, u, spans)[kind]


_KIND_TAG = {"tangent": 20, "tangent_jacobi": 20}


def _sample_tangents(g: int, h: int | None, u: np.ndarray, spans: dict) -> dict:
    """One family draw of tangent vectors, kind -> TangentVector, from the rows
    of numbers u, each kind's rows at its span (see groups._draw_rows):
    "tangent" without a fiber part and "tangent_jacobi" with an h x g one,
    both on the (seed, 20) streams.  Each row is read from its front: the
    real and the imaginary part of the base, then, for tangent_jacobi, of the
    fiber.  The base part is built for every row, exactly symmetric as
    (s + s^T)/2, so without the symmetry test that could only pass
    (spaces._tangent)."""
    x = _blocks(u, _fibered_shapes(g, h, spans), 1.0)
    s = x[0] + 1j * x[1]
    s = _freeze((s + s.mT) / 2, None)  # so each kind's rows are read-only views
    return {kind: _tangent(s[rows], x[2][rows] + 1j * x[3][rows] if kind == "tangent_jacobi"
                           else None) for kind, rows in spans.items()}


def _coordinate_dirs(p) -> tuple[TangentVector, ...]:
    """E_ii and E_ij + E_ji (i < j) on the base, then the unit h x g matrices
    on the fiber when p has one: the complex coordinate directions at p."""
    base, fiber = _point_parts(p)
    return _coordinate_dirs_of(base.shape[-1], None if fiber is None else fiber.shape[-2])


@cache
def _coordinate_dirs_of(g: int, h: int | None) -> tuple[TangentVector, ...]:
    """The _coordinate_dirs of a (g, h) point, built once (TangentVector freezes their arrays)."""
    dirs = [TangentVector(e) for e in _sym_coords(g)]
    if h is not None:
        dirs += [TangentVector(np.zeros((g, g)), e) for e in _fiber_coords(h, g)]
    return tuple(dirs)


_triu = _built_once(np.triu_indices)  # its (row, column) indices, stacked


def _abs_det2(pushed: list[TangentVector]):
    """|det|^2 of the complex Jacobian whose columns are the images of the
    _coordinate_dirs, read in the upper triangle of the base and the fiber
    row-major."""
    iu = _triu(pushed[0].g)
    cols = np.array([v.dbase for v in pushed])[..., iu[0], iu[1]]  # one row per column
    if pushed[0].dfiber is not None:
        df = np.array([v.dfiber for v in pushed])
        cols = np.concatenate([cols, df.reshape(df.shape[:-2] + (-1,))], axis=-1)
    jac = cols.transpose(tuple(range(1, cols.ndim)) + (0,))
    return _plain(_abs2(_det(jac)))

