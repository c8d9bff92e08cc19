"""Shared complex dense-matrix semantics: the algebraic and conditioning
thresholds, the error classes, the structural predicates (symmetry defect,
Hermitian-PD margin, relative error) and guarded linear solves.

Every other module builds on the conventions fixed here; in particular all
approximate equality is relative Frobenius with a max(1, .) floor so that
checks behave sensibly near zero.  A check states the condition that must
hold, residual <= bound, so that a NaN residual (an overflow inside the
check) fails it.

Every kernel takes matrices of shape (..., r, c): leading axes index a batch
of slices, which broadcast against unbatched (2-d) operands, and a 2-d input
is the unbatched case of the same code.  Per-matrix scalars come back with
the batch shape (plain floats for 2-d input).  Every validation and
conditioning guard checks every slice and raises its usual error class if
any slice fails, naming the first failing slice.  Serialization and the CLI
take 2-d matrices only.

A positivity check is one eigensolve, _pd_margin.  hermitian_pd_margin adds
the Hermitian test for a matrix of unknown make, as a point's validation
gets it; a matrix the library has just made exactly Hermitian, as
(m + m^H)/2 is, goes to _pd_margin alone (see spaces).

Each slice of a batched result has the bits of the 2-d call: stacked @ gives
them by itself, and so do the LAPACK kernels (_svdvals, _eigvalsh, _inv,
_solve, _det, _cholesky), which every module calls in place of np.linalg.
Each kernel calls the gufunc of numpy.linalg._umath_linalg that its np.linalg
function calls, on the same operand with the signature and errstate that
function sets up, so it keeps that function's bits and its LinAlgError
without the wrapper's coercion and checks.  frob sums each
slice in the order ravel(order="K") gives it, over the strided real and
imaginary views, with the BLAS dot np.linalg.norm uses: ndarray.dot on the
one vector of a 2-d input, np.vecdot on a batch's rows.  einsum and .sum(-1)
round differently.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
    "ALGEBRAIC_REL",
    "PD_MIN_EIG",
    "COND_LIMIT",
    "SjkError",
    "DimensionError",
    "DomainError",
    "ConditioningError",
    "ConsistencyError",
    "as_cmatrix",
    "frob",
    "symmetry_defect",
    "hermitian_pd_margin",
    "rel_error",
    "guarded_inv",
    "guarded_rsolve",
    "Holder",
]

# Relative residual allowed to an exact algebraic identity evaluated in
# double precision.
ALGEBRAIC_REL = 1e-9
# Smallest eigenvalue accepted as positive definite.
PD_MIN_EIG = 1e-12
# Condition-number ceiling for every matrix inverse in the library.  Hitting
# it raises ConditioningError instead of silently returning garbage.
COND_LIMIT = 1e12


class SjkError(Exception):
    """Base class for all library errors."""


class DimensionError(SjkError, ValueError):
    """Input shapes do not conform."""


class DomainError(SjkError, ValueError):
    """A value violates its domain invariant (symmetry, positivity, ...)."""


class ConditioningError(SjkError, ArithmeticError):
    """A matrix inverse exceeded the condition-number ceiling."""


class ConsistencyError(SjkError, RuntimeError):
    """Two redundant computations of the same quantity disagree.

    This signals an implementation bug, not bad input.
    """


# ---------------------------------------------------------------------------
# LAPACK kernels (see the module docstring): each takes an ndarray and computes
# in complex128 for complex input, float64 otherwise.  The wrapper's
# _makearray, _commonType, square check and astype cost 3-6 us a call on top
# of 2-3 us of LAPACK for g <= 4.  A non-square operand raises the gufunc's
# ValueError, not LinAlgError, so callers check shapes first.

def _lapack_errors(message: str) -> dict:
    """The errstate np.linalg sets up around a LAPACK gufunc: a failure
    (flagged as invalid) raises LinAlgError(message)."""
    def fail(err, flag):
        raise LinAlgError(message)

    return dict(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


_SINGULAR = _lapack_errors("Singular matrix")
_NOT_PD = _lapack_errors("Matrix is not positive definite")
_EIG_FAILED = _lapack_errors("Eigenvalues did not converge")
_SVD_FAILED = _lapack_errors("SVD did not converge")


def _svdvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.svd(a, compute_uv=False): singular values, largest first."""
    with np.errstate(**_SVD_FAILED):
        return _umath_linalg.svd(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(a): eigenvalues from the lower triangle, ascending."""
    with np.errstate(**_EIG_FAILED):
        return _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


def _inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv(a)."""
    with np.errstate(**_SINGULAR):
        return _umath_linalg.inv(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a matrix (..., n, k) b."""
    complex_ = a.dtype.kind == "c" or b.dtype.kind == "c"
    with np.errstate(**_SINGULAR):
        return _umath_linalg.solve(a, b, signature="DD->D" if complex_ else "dd->d")


def _det(a: np.ndarray):
    """np.linalg.det(a), which sets up no errstate of its own."""
    return _umath_linalg.det(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


def _cholesky(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(a): the lower factor."""
    with np.errstate(**_NOT_PD):
        return _umath_linalg.cholesky_lo(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


def _ensure(ok, error: type, message: str, *args) -> None:
    """Raise error(message.format(*args)) unless the batch mask ok holds in
    every slice, naming the first failing slice of a batch; array args give
    that slice's entry."""
    if ok is True or ok is np.True_:  # a passing 2-d check
        return
    i, where = (), ""
    if getattr(ok, "ndim", 0):
        if ok.all():
            return
        i = tuple(int(k) for k in np.argwhere(~ok)[0])
        where = f" (slice {i[0] if len(i) == 1 else i})"
    elif ok:
        return
    args = [x[i] if isinstance(x, np.ndarray) else x for x in args]
    raise error(message.format(*args) + where)


def _floor1(x, y=0.0):
    """max(1, x, y), entry by entry for batches; a NaN counts for nothing."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.fmax(np.fmax(1.0, x), y)
    return max(1.0, x, y)


def _count(x, what: str, error: type = DimensionError) -> int:
    """x as an int, or error unless x is an integer >= 1 and not a bool."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < 1:
        raise error(f"{what} must be an int >= 1, got {x!r}")
    return int(x)


def _takes(what: str, x, *kinds: type) -> None:
    """The entry check of a constructor, map or metric: DimensionError, naming
    the classes it takes, unless x is one of kinds."""
    if not isinstance(x, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise DimensionError(f"{what} takes a {names}, not a {type(x).__name__}")


def _nonfinite(name: str, *arrays: np.ndarray) -> None:
    """Raise the DomainError for arrays known to hold a NaN or Inf."""
    finite = [np.isfinite(a).all(axis=(-2, -1)) for a in arrays]
    _ensure(functools.reduce(np.logical_and, finite), DomainError,
            "{}: entries must be finite (no NaN/Inf)", name)


def _freeze(a: np.ndarray, src) -> np.ndarray:
    """a, coerced from the caller's src, as a read-only C-contiguous array.

    A writeable a that shares memory with src is copied first, so the
    caller's array keeps its flags and a later write to it cannot reach the
    frozen one; an a that is already read-only is returned as it is.
    """
    a = np.ascontiguousarray(a)
    if a.flags.writeable:
        # only src itself or a view (a.base set) can share its memory
        if a is src or (a.base is not None and np.may_share_memory(a, src)):
            a = a.copy()
        a.setflags(write=False)
    return a


def _assemble(cls, *parts):
    """The cls holder of parts the library has just made, in the order of
    cls.__slots__ (its constructor's arguments, then g and h where it stores
    them), with no coercion, shape or finiteness pass and no validation:
    each caller says why its parts are finite.  Each array part is made
    read-only and C-contiguous in place, unless it is a view of writeable
    memory (numpy gives a view its owner as base), which is copied first so
    that no write can reach the holder."""
    out = object.__new__(cls)
    for name, v in zip(cls.__slots__, parts, strict=True):
        if type(v) is np.ndarray:
            if not v.flags.c_contiguous or v.base is not None and v.base.flags.writeable:
                v = v.copy()
            v.setflags(write=False)
        setattr(out, name, v)
    return out


def _built_once(make):
    """make(n) as a read-only array, built once per n."""
    return functools.cache(lambda n: _freeze(make(n), None))


_eye = _built_once(np.eye)


class Holder:
    """Base of the point and element classes: thin holders of (..., r, c)
    arrays, a batch of points or elements when those have leading axes."""

    __slots__ = ()

    def __repr__(self):
        h = f", h={self.h}" if hasattr(self, "h") else ""
        return f"{type(self).__name__}(g={self.g}{h})"


def _slice_holder(x: Holder, rows: slice | int | tuple) -> Holder:
    """The rows of the batched holder x, as a holder of x's type: each array
    part, nested holders' included, is a read-only view of those rows of its
    leading axis, and an int row gives a 2-d view, one unbatched sample.
    Nothing is copied or validated again, as the batch was validated slice by
    slice; a part with no batch axis raises DimensionError."""
    out = object.__new__(type(x))
    for name in type(x).__slots__:
        v = getattr(x, name)
        if isinstance(v, Holder):
            v = _slice_holder(v, rows)
        elif isinstance(v, np.ndarray):
            if v.ndim < 3:
                raise DimensionError(f"{type(x).__name__}.{name} has no batch axis: {v.shape}")
            v = v[rows]
            v.flags.writeable = False
        setattr(out, name, v)
    return out


def _broadcast_holder(x: Holder, batch: tuple) -> Holder:
    """x at the batch shape batch, its array parts read-only np.broadcast_to views."""
    out = object.__new__(type(x))
    for name in type(x).__slots__:
        v = getattr(x, name)
        setattr(out, name, _broadcast_holder(v, batch) if isinstance(v, Holder) else
                np.broadcast_to(v, batch + v.shape[-2:]) if isinstance(v, np.ndarray) else v)
    return out


def _stack_holders(*xs: Holder) -> Holder:
    """The holders xs, of one type and shape, as one holder with a new
    leading batch axis, x k at index k: the inverse of _slice_holder.  Each
    array part, nested holders' included, is a read-only stack of the xs'
    parts, broadcast to the batch they share when their batches differ; any
    other part (None, an int) is xs[0]'s.  Nothing is validated again, as
    each x was."""
    out = object.__new__(type(xs[0]))
    for name in type(out).__slots__:
        v = getattr(xs[0], name)
        if isinstance(v, Holder):
            v = _stack_holders(*[getattr(x, name) for x in xs])
        elif isinstance(v, np.ndarray):
            parts = [getattr(x, name) for x in xs]
            try:  # np.stack's copy without its checks, at a quarter of its cost
                v = np.array(parts)
            except ValueError:  # ragged: unequal batches (ValueError if they do not broadcast)
                if len({x.shape[-2:] for x in parts}) > 1:  # or matrices of unequal shapes
                    raise
                v = np.array(np.broadcast_arrays(*parts))
            v.flags.writeable = False
        setattr(out, name, v)
    return out


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex128 array of shape (..., r, c) with finite entries."""
    try:
        arr = np.asarray(a, dtype=np.complex128)
    except (ValueError, TypeError, OverflowError) as exc:  # ragged, not numbers, too large
        raise DimensionError(f"{name}: not an array of complex numbers: {exc}") from None
    if arr.ndim < 2:
        raise DimensionError(f"{name}: expected a matrix, got ndim={arr.ndim}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # half the cost of .all()
        _nonfinite(name, arr)
    return arr


def frob(a):
    """Frobenius norm of each (r, c) slice (of the whole array below 2-d),
    summed exactly as np.linalg.norm sums it: see the module docstring."""
    x = np.asarray(a)
    if x.ndim <= 2:  # one vector, in the order ravel(order="K") gives
        x = x.ravel(order="K")
        if x.dtype.char == "D":
            re, im = x.real, x.imag
            return math.sqrt(re.dot(re) + im.dot(im))
        return math.sqrt(x.dot(x)) if x.dtype.char == "d" else float(np.linalg.norm(x))
    # one such vector per slice: a copy, as ravel makes, unless the slice is contiguous
    if abs(x.strides[-1]) > abs(x.strides[-2]) and 1 not in x.shape[-2:]:
        x = x.mT  # a slice read column by column
    x = np.ascontiguousarray(x if x.dtype.kind in "fc" else x.astype(float))
    x = x.reshape(x.shape[:-2] + (-1,))
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    return np.sqrt(np.vecdot(x, x))


def _block(rows) -> np.ndarray:
    """np.block for a grid of (..., r, c) arrays whose batch axes broadcast:
    each slice has the dtype and bytes np.block gives it, without its generic
    dispatch, and is assembled in C order."""
    widths = [b.shape[-1] for b in rows[0]]
    blocks = [b for row in rows for b in row]
    batch = ()
    for b in blocks:
        if b.ndim > 2 and b.shape[:-2] != batch:
            batch = np.broadcast_shapes(batch, b.shape[:-2])
    shape = (sum(row[0].shape[-2] for row in rows), sum(widths))
    out = np.empty(batch + shape, np.result_type(*blocks))
    i = 0
    for row in rows:
        height, j = row[0].shape[-2], 0
        for b, width in zip(row, widths, strict=True):
            if b.shape[-2:] != (height, width):
                raise DimensionError(f"block shape {b.shape[-2:]} != {(height, width)}")
            out[..., i:i + height, j:j + width] = b
            j += width
        i += height
    return out


def symmetry_defect(a: np.ndarray):
    """Relative Frobenius distance of each slice from its transpose."""
    return frob(a - a.mT) / _floor1(frob(a))


def hermitian_pd_margin(a):
    """Smallest eigenvalue of each Hermitian slice, -inf where a slice is not
    Hermitian or holds a NaN or Inf (a matrix that overflowed while it was
    formed is not positive definite).

    The margin is returned rather than a bare bool so callers can report how
    far inside the domain a point sits.  This is the test for a matrix of
    unknown make, as a point's validation gets it; a caller that has just
    made its matrix exactly Hermitian, as (m + m^H)/2 or as the imaginary part
    of an exactly symmetric matrix is, takes its margin from _pd_margin, the
    one eigensolve this function ends in, without the Hermitian test that
    could only pass.
    """
    try:
        a = np.asarray(a, dtype=np.complex128)
    except (ValueError, TypeError, OverflowError) as exc:  # ragged, not numbers, too large
        raise DimensionError(f"PD test: not an array of complex numbers: {exc}") from None
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"PD test requires a square matrix, got shape {a.shape}")
    margin = _pd_margin(a)
    # a slice with a NaN or Inf reads -inf already, and its NaN defect fails the test
    with np.errstate(invalid="ignore"):
        hermitian = frob(a - a.conj().mT) / _floor1(frob(a)) <= ALGEBRAIC_REL
    if isinstance(hermitian, bool):
        return margin if hermitian else -math.inf
    return np.where(hermitian, margin, -np.inf)


def _pd_margin(a: np.ndarray):
    """hermitian_pd_margin of a square complex128 array whose every slice is
    Hermitian: the smallest eigenvalue of each slice, -inf where a slice holds
    a NaN or Inf, from one _eigvalsh of a (a non-finite slice replaced by 0)."""
    finite = True
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1))
        a = np.where(finite[..., None, None], a, 0)
    try:
        eigs = _eigvalsh(a)
    except LinAlgError as exc:  # LAPACK does not say which slice failed
        raise ConditioningError(f"eigenvalue iteration failed: {exc}") from exc
    margin = eigs[..., 0] if finite is True else np.where(finite, eigs[..., 0], -np.inf)
    return float(margin) if margin.ndim == 0 else margin


def rel_error(a, b):
    """|a - b|_F / max(1, |a|_F, |b|_F) per slice; an unbatched operand
    broadcasts against a batched one."""
    a = as_cmatrix(a, "a")
    b = as_cmatrix(b, "b")
    if a.shape != b.shape and (a.shape[-2:] != b.shape[-2:] or min(a.ndim, b.ndim) > 2):
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _rel(a, b)


def _rel(a: np.ndarray, b: np.ndarray):
    """rel_error of complex arrays that need no coercion or shape check."""
    return frob(a - b) / _floor1(frob(a), frob(b))


def _check_cond(a: np.ndarray, context: str) -> None:
    """ConditioningError unless cond(a) <= COND_LIMIT in every slice: the
    quotient of the extreme singular values, as np.linalg.cond forms it, from
    one SVD without cond's wrapper (an all-zero slice reads NaN, not inf)."""
    s = _svdvals(a)
    with np.errstate(all="ignore"):
        cond = s[..., 0] / s[..., -1]
    _ensure(cond <= COND_LIMIT, ConditioningError,
            "{}: condition number {:.3e} exceeds {:.0e}", context, cond, COND_LIMIT)


def _check_square(a: np.ndarray, context: str) -> None:
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"{context}: expected a square matrix, got {a.shape[-2:]}")


def guarded_inv(a, context: str = "inverse") -> np.ndarray:
    a = as_cmatrix(a)
    _check_square(a, context)
    _check_cond(a, context)
    return _inv(a)


def guarded_rsolve(num, den, context: str = "solve") -> np.ndarray:
    """num @ inv(den) per slice, computed as a linear solve with a
    conditioning guard."""
    num = as_cmatrix(num, "numerator")
    den = as_cmatrix(den, "denominator")
    _check_square(den, context)
    if num.shape[-1] != den.shape[-1]:
        raise DimensionError(f"{context}: numerator has {num.shape[-1]} columns, "
                             f"denominator is {den.shape[-1]} x {den.shape[-1]}")
    # equal batches (the actions' case) and an unbatched side always broadcast
    if num.shape[:-2] != den.shape[:-2] and min(num.ndim, den.ndim) > 2:
        try:
            np.broadcast_shapes(num.shape[:-2], den.shape[:-2])
        except ValueError:
            raise DimensionError(f"{context}: numerator batch {num.shape[:-2]} does not "
                                 f"broadcast with denominator batch {den.shape[:-2]}") from None
    _check_cond(den, context)
    return _solve(den.mT, num.mT).mT
