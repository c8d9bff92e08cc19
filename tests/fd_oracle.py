"""The tests' finite-difference oracle for the exact differentials of the
actions and Cayley maps (their dirs=...): complex-linear central differences,
from two separate map calls; a map checks that its image is in its domain."""

import math

from sjkit.geometry import _abs_det2, _coordinate_dirs, _point_parts, _rebuild
from sjkit.numkit import frob
from sjkit.spaces import TangentVector, _fit

# the step, relative to the sizes of the point and the direction, and the bound on the error
FD_FIRST_STEP = 1e-6
FD_FIRST_REL = 1e-6


def _norm(base, fiber) -> float:
    """The Frobenius norm of a 2-d (base, fiber) pair, a point's or a tangent vector's."""
    return math.sqrt(frob(base) ** 2 + (0.0 if fiber is None else frob(fiber) ** 2))


def fd_pushforward(map_fn, p, v: TangentVector) -> TangentVector:
    """The derivative of the holomorphic map_fn at p along v, its base part
    re-symmetrized."""
    base, fiber = _point_parts(p)
    h = FD_FIRST_STEP * max(1.0, _norm(base, fiber)) / max(1.0, _norm(v.dbase, v.dfiber))
    db, df = _fit(v, base, fiber)
    plus = map_fn(_rebuild(p, base + h * db, None if fiber is None else fiber + h * df))
    minus = map_fn(_rebuild(p, base - h * db, None if fiber is None else fiber - h * df))
    (bp, fp), (bm, fm) = _point_parts(plus), _point_parts(minus)
    d = (bp - bm) / (2 * h)
    return TangentVector((d + d.T) / 2, None if fp is None else (fp - fm) / (2 * h))


def fd_jacobian_det(map_fn, p) -> float:
    """|det| of the differential of map_fn in the real coordinates of p:
    |det|^2 of its complex differential on the coordinate directions."""
    return _abs_det2([fd_pushforward(map_fn, p, d) for d in _coordinate_dirs(p)])
