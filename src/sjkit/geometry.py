"""Invariant metrics, Laplacians, and the volume density.

Each Laplacian is the operator 4 h^{a b-bar} d_a dbar_b of its metric h, and
is derived from that metric rather than transcribed: for any frame {e_k}
that is h-orthonormal at p it is the single stencil

    Lf(p) = sum_k [f(p+te_k) + f(p-te_k) + f(p+ite_k) + f(p-ite_k) - 4f(p)] / t^2.

The three operators differ only in a closed-form frame from one Cholesky
factor L, with S over E_ii and (E_ij + E_ji)/sqrt(2) and F over the unit
h x g matrices; the (dOmega, dZ) frame of the Siegel-Jacobi space is lifted
horizontally so that dZ - V Y^-1 dOmega vanishes on its base directions:

    Siegel space    Y = L L^T              L S L^T
    disk            I - W conj(W) = L L^H  L S L^T / 2
    Siegel-Jacobi   Y = L L^T              (L S L^T, V Y^-1 L S L^T) / sqrt(A)
                                           and (0, F L^T) / sqrt(B)

The actions and the partial Cayley transform are holomorphic, so the real
Jacobian determinant of such a map is |det|^2 of its complex differential,
read off the images of the coordinate directions E_ii and E_ij + E_ji of
the base and the unit h x g matrices of the fiber.  Each of those maps
returns its exact differential along given tangent vectors (see spaces):
pullback_metric_disk and the metric- and volume-invariance suites use it.
pushforward and action_jacobian_det are the finite-difference oracles for
those differentials, kept to check them.  Each finite-difference operator
makes one batched pass: its displaced points, built as one batch through
_rebuild, go through its field or map in one call.

The metrics, the volume density and sample_tangent take (..., r, c) batches
like the points (see numkit): each slice of a result has the bits of its 2-d
call, and a 2-d input gives a plain float.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .groups import _draws, _rngs
from .numkit import (
    ALGEBRAIC_REL,
    ConsistencyError,
    DimensionError,
    DomainError,
    _built_once,
    _ensure,
    _floor1,
    _freeze,
    frob,
    guarded_inv,
)
from .spaces import (
    DiskJacobiPoint,
    DiskPoint,
    SiegelJacobiPoint,
    SiegelPoint,
    TangentVector,
    _fit,
    partial_cayley,
)

__all__ = [
    "TangentVector",
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
    "pushforward",
    "sample_tangent",
    "action_jacobian_det",
]

# first- and second-order central differences: relative steps, then result bounds
FD_FIRST_STEP = 1e-6
FD_SECOND_STEP = 1e-4
FD_FIRST_REL = 1e-6
FD_SECOND_REL = 1e-4


@dataclass(frozen=True)
class MetricParams:
    """The two positive weights of the two-parameter invariant metric."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (0 < self.a < np.inf and 0 < self.b < np.inf):
            raise DomainError("metric parameters must be finite and positive")


@dataclass(frozen=True)
class ScalarField:
    """A named twice-differentiable test field on one of the domains: fn maps a
    holder of points to one real value per point, an array of its batch shape."""

    name: str
    domain: str  # "siegel", "disk", or "sj"
    fn: Callable

    def __call__(self, point):
        return self.fn(point)


def _tr(a):
    return np.trace(a, axis1=-2, axis2=-1)


def _abs2(x):
    """|x|^2 per value, with the bits of abs(x) ** 2 on a numpy scalar: np.abs
    and an array's ** 2 (x * x) round differently from hypot and pow."""
    return np.float_power(np.hypot(x.real, x.imag), 2)


TEST_FIELDS = [
    ScalarField("trace-re-base", "sj", lambda p: _tr(p.omega.real)),
    ScalarField("logdet-y", "sj", lambda p: np.log(np.linalg.det(p.omega.imag))),
    ScalarField("trace-yvv", "sj", lambda p: _tr(p.omega.imag @ p.z.imag.mT @ p.z.imag)),
    ScalarField("re-trace-z", "sj", lambda p: _tr(p.z).real),
    ScalarField("abs2-trace-z", "sj", lambda p: _abs2(_tr(p.z))),
    ScalarField("logdet-disk", "disk",
                lambda p: np.log(np.linalg.det(np.eye(p.g) - p.w @ p.w.conj())).real),
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
    do, _ = _fit(v, p.omega)
    yi = guarded_inv(p.y.astype(complex), "Im(omega)")
    val = _tr(yi @ do @ yi @ do.conj())
    return _real_value(val, ALGEBRAIC_REL, "siegel metric")


def metric_disk(p: DiskPoint, v: TangentVector):
    """4 trace((I - W conj W)^-1 dW (I - conj(W) W)^-1 conj(dW))."""
    dw, _ = _fit(v, p.w)
    i = np.eye(p.g)
    s = guarded_inv(i - p.w @ p.w.conj(), "I - W conj(W)")
    sb = guarded_inv(i - p.w.conj() @ p.w, "I - conj(W) W")
    val = 4.0 * _tr(s @ dw @ sb @ dw.conj())
    return _real_value(val, ALGEBRAIC_REL, "disk metric")


def metric_sj(params: MetricParams, p: SiegelJacobiPoint, v: TangentVector):
    """The five-term A/B metric in dOmega and dZ.

    Reduces to a times the base metric when dZ = 0 and Im(Z) = 0.
    """
    if v.dfiber is None:
        raise DimensionError("tangent vector must carry a fiber part")
    do, dz = _fit(v, p.omega, p.z)
    yi = guarded_inv(p.base.y.astype(complex), "Im(omega)")
    vmat = p.v.astype(complex)
    dob, dzb = do.conj(), dz.conj()
    m1 = _tr(yi @ do @ yi @ dob)
    m2 = _tr(yi @ vmat.mT @ vmat @ yi @ do @ yi @ dob)
    m3 = _tr(yi @ dz.mT @ dzb)
    m4 = _tr(vmat @ yi @ do @ yi @ dzb.mT)
    m5 = _tr(vmat @ yi @ dob @ yi @ dz.mT)
    val = params.a * m1 + params.b * (m2 + m3 - m4 - m5)
    return _real_value(val, ALGEBRAIC_REL, "siegel-jacobi metric")


def pullback_metric_disk(params: MetricParams, p: DiskJacobiPoint, v: TangentVector):
    """The invariant metric on the bounded model, realized as the pullback of
    the unbounded-model metric through the partial Cayley transform."""
    moved, (dv,) = partial_cayley(p, dirs=[v])
    return metric_sj(params, moved, dv)


# ---------------------------------------------------------------------------
# point plumbing shared by the finite-difference operators


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


def _rebuild(p, base: np.ndarray, fiber: np.ndarray | None, validate: bool):
    if fiber is None:
        return type(p)(base, validate=validate)
    return type(p)(type(p.base)(base, validate=validate), fiber)


def point_norm(p) -> float:
    return _norm(*_point_parts(p))


def _norm(base: np.ndarray, fiber: np.ndarray | None) -> float:
    """The Frobenius norm of a 2-d (base, fiber) pair, a point's or a tangent vector's."""
    n2 = frob(base) ** 2
    if fiber is not None:
        n2 += frob(fiber) ** 2
    return float(np.sqrt(n2))


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


def _sym_basis(g: int) -> np.ndarray:
    """E_ii and (E_ij + E_ji)/sqrt(2), stacked: orthonormal for trace(S S')."""
    e = _sym_coords(g)
    return e / np.sqrt(e.sum(axis=(-2, -1)))[:, None, None]


def _siegel_frame(omega: np.ndarray, z=None) -> tuple:
    """L S L^T with Im(Omega) = L L^T: orthonormal for metric_siegel."""
    l = np.linalg.cholesky(np.imag(omega))
    return l @ _sym_basis(len(l)) @ l.T, None


def _disk_frame(w: np.ndarray, eta=None) -> tuple:
    """L S L^T / 2 with I - W conj(W) = L L^H: orthonormal for metric_disk."""
    l = np.linalg.cholesky(np.eye(len(w)) - w @ w.conj())
    return l @ _sym_basis(len(w)) @ l.T / 2, None


def _sj_frame(params: MetricParams, omega: np.ndarray, z: np.ndarray) -> tuple:
    """Orthonormal for metric_sj = A |dOmega|^2 + B |dZ - V Y^-1 dOmega|^2."""
    y = np.imag(omega)
    l = np.linalg.cholesky(y)
    lift = np.imag(z) @ guarded_inv(y.astype(complex), "Im(omega)")
    base = l @ _sym_basis(len(y)) @ l.T / np.sqrt(params.a)
    fiber = _fiber_coords(*z.shape) @ l.T / np.sqrt(params.b)
    return (np.concatenate([base, np.zeros((len(fiber),) + y.shape)]),
            np.concatenate([lift @ base, fiber]))


def _frame_laplacian(f: Callable, p, frame: Callable, what: str) -> float:
    """Sum over a metric-orthonormal frame {e_k} at p of the central second
    differences of f along e_k and i e_k, from one call of f on the batch of
    p and its 4 len(e) displaced points.

    frame(base, fiber) returns the stacked (base, fiber) displacements of the
    e_k, with fiber None for a fixed fiber; it is built only once the point
    has passed the boundary guard.
    """
    base, fiber = _point_parts(p)
    h2 = FD_SECOND_STEP * max(1.0, point_norm(p))
    if getattr(p, "base", p).pd_margin() <= 10 * h2:
        raise DomainError("point is too close to the boundary for the difference stencil")
    db, df = frame(base, fiber)
    t = h2 / max(1.0, np.hypot(frob(db), 0.0 if df is None else frob(df)).max())
    steps = np.array([t, -t, 1j * t, -1j * t])[:, None, None]
    n = 1 + len(steps) * len(db)

    def displaced(x, dx):  # x, then x + s e_k for each k and, within k, each step s
        if dx is None:
            return None if x is None else np.broadcast_to(x, (n,) + x.shape)
        return np.concatenate([x[None], (x + steps * dx[:, None]).reshape((-1,) + x.shape)])

    vals = np.asarray(f(_rebuild(p, displaced(base, db), displaced(fiber, df), validate=False)))
    if vals.shape != (n,):
        raise DimensionError(f"a field returns one value per point: shape ({n},), not {vals.shape}")
    # summed in stencil order: np.sum's pairwise order would round differently
    total = np.cumsum(vals[1:] - vals[0])[-1]
    return _real_value(total / t**2, FD_SECOND_REL, what)


def laplacian_siegel(f: Callable, p: SiegelPoint) -> float:
    """The Laplacian of metric_siegel, 4 trace(Y t(Y dbar) d)."""
    return _frame_laplacian(f, p, _siegel_frame, "siegel laplacian")


def laplacian_disk(f: Callable, p: DiskPoint) -> float:
    """The Laplacian of metric_disk, trace(S t(S dbar) d) with S = I - W conj(W)."""
    return _frame_laplacian(f, p, _disk_frame, "disk laplacian")


def laplacian_sj(params: MetricParams, f: Callable, p: SiegelJacobiPoint) -> float:
    """The Laplacian of metric_sj."""
    if not isinstance(p, SiegelJacobiPoint):
        raise DimensionError("point has no fiber variable")
    return _frame_laplacian(f, p, partial(_sj_frame, params), "siegel-jacobi laplacian")


# ---------------------------------------------------------------------------
# volume density and numerical differentials


def volume_density(p: SiegelJacobiPoint):
    """det(Y)^-(g+h+1), the density of the invariant volume element; float_power
    has the bits of a float's ** where an array's ** differs."""
    return _plain(np.float_power(np.linalg.det(p.base.y), -(p.g + p.h + 1)))


def _pushforwards(map_fn: Callable, p, vs: list) -> list[TangentVector]:
    """pushforward along each of vs, from one call of map_fn on the batch of
    the 2 len(vs) displaced points, + then - for each v."""
    base, fiber = _point_parts(p)
    norms = np.array([max(1.0, _norm(v.dbase, v.dfiber)) for v in vs])
    h = FD_FIRST_STEP * max(1.0, point_norm(p)) / norms
    steps = np.stack([h, -h], axis=-1).reshape(-1, 1, 1)
    moves = zip(*(_fit(v, base, fiber) for v in vs))  # every base, then every fiber displacement
    displaced = [None if x is None else x + steps * np.repeat(np.stack(dx), 2, axis=0)
                 for x, dx in zip((base, fiber), moves)]
    try:
        out = map_fn(_rebuild(p, *displaced, validate=True))
    except DomainError as exc:
        raise DomainError(f"difference stencil left the domain: {exc}") from exc
    db, df = [None if x is None else (x[0::2] - x[1::2]) / (2 * h[:, None, None])
              for x in _point_parts(out)]
    return [TangentVector((d + d.T) / 2, None if df is None else df[k])
            for k, d in enumerate(db)]


def pushforward(map_fn: Callable, p, v: TangentVector) -> TangentVector:
    """Directional derivative of a holomorphic map by complex-linear central
    differences; the base part of the result is re-symmetrized.  map_fn takes
    the batch of the two displaced points, as the actions and Cayley maps do."""
    return _pushforwards(map_fn, p, [v])[0]


def sample_tangent(g: int, h: int | None = None, seed=0) -> TangentVector:
    """Random tangent vector, deterministic in seed; fiber part iff h given.  A
    sequence of seeds gives one holder of their batch, as sample_point does."""
    # the real and the imaginary part of the fiber, then of the base
    shapes = ([(h, g)] * 2 if h is not None else []) + [(g, g)] * 2
    x = _draws(_rngs(seed, 20), lambda r: [r.uniform(-1.0, 1.0, shape) for shape in shapes])
    s = x[-2] + 1j * x[-1]
    return TangentVector((s + s.mT) / 2, None if h is None else x[0] + 1j * x[1])


def _coordinate_dirs(p) -> tuple[TangentVector, ...]:
    """E_ii and E_ij + E_ji (i < j) on the base, then the unit h x g matrices
    on the fiber when p has one: the complex coordinate directions at p."""
    base, fiber = _point_parts(p)
    return _coordinate_dirs_of(base.shape[-1], None if fiber is None else fiber.shape[-2])


@cache
def _coordinate_dirs_of(g: int, h: int | None) -> tuple[TangentVector, ...]:
    """The _coordinate_dirs of a (g, h) point, built once on read-only arrays."""
    dirs = [TangentVector(e) for e in _freeze(_sym_coords(g).astype(complex), None)]
    if h is not None:
        zero = _freeze(np.zeros((g, g), complex), None)
        fiber = _freeze(_fiber_coords(h, g).astype(complex), None)
        dirs += [TangentVector(zero, e) for e in fiber]
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
    return _plain(_abs2(np.linalg.det(jac)))


def action_jacobian_det(map_fn: Callable, p) -> float:
    """|det| of the differential of the holomorphic map_fn in the real
    coordinates of p, by finite differences: |det|^2 of its complex
    differential in the upper triangle of the base and the fiber row-major,
    from one call of map_fn on all the displaced points."""
    return _abs_det2(_pushforwards(map_fn, p, _coordinate_dirs(p)))
