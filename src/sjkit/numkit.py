"""Shared complex dense-matrix semantics: tolerance policy, structural
predicates, trace/bracket helpers, and guarded linear solves.

Every other module builds on the conventions fixed here; in particular all
approximate equality is relative Frobenius with a max(1, .) floor so that
checks behave sensibly near zero.  The per-trial helpers (frob, as_cmatrix
and the block-matrix assembly _block) avoid numpy's generic dispatch on the
small matrices they see, while giving exactly numpy's results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "COND_LIMIT",
    "SjkError",
    "DimensionError",
    "DomainError",
    "ConditioningError",
    "ConsistencyError",
    "as_cmatrix",
    "frob",
    "trace_sigma",
    "bracket",
    "is_symmetric",
    "symmetry_defect",
    "hermitian_pd_margin",
    "is_hermitian_pd",
    "rel_close",
    "rel_error",
    "guarded_inv",
    "guarded_rsolve",
]

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


@dataclass(frozen=True)
class Tolerance:
    """Tolerance policy shared by all modules.

    algebraic_rel bounds residuals of exact algebraic identities evaluated in
    double precision; fd_first_rel / fd_second_rel bound first/second order
    finite-difference checks; pd_min_eig is the smallest eigenvalue accepted
    as positive definite.
    """

    algebraic_rel: float = 1e-9
    fd_first_rel: float = 1e-6
    fd_second_rel: float = 1e-4
    pd_min_eig: float = 1e-12

    def __post_init__(self):
        for name in ("algebraic_rel", "fd_first_rel", "fd_second_rel", "pd_min_eig"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"tolerance field {name} must be finite and positive")


DEFAULT_TOL = Tolerance()


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


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex128 array and require finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-d matrix, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise DomainError(f"{name}: entries must be finite (no NaN/Inf)")
    return arr


def frob(a) -> float:
    """Frobenius norm, summed exactly as np.linalg.norm sums it."""
    x = np.asarray(a).ravel(order="K")
    if x.dtype.char == "D":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x)) if x.dtype.char == "d" else float(np.linalg.norm(x))


def _block(rows) -> np.ndarray:
    """np.block for a grid of 2-d arrays: the same dtype, bytes and memory
    order, without its generic dispatch.  Like np.concatenate, the result is
    Fortran-ordered when every block with no unit dimension is."""
    widths = [b.shape[1] for b in rows[0]]
    blocks = [b for row in rows for b in row]
    votes = [abs(b.strides[1]) > abs(b.strides[0]) for b in blocks if 1 not in b.shape]
    out = np.empty((sum(row[0].shape[0] for row in rows), sum(widths)), np.result_type(*blocks),
                   order="F" if votes and all(votes) else "C")
    i = 0
    for row in rows:
        height, j = row[0].shape[0], 0
        for b, width in zip(row, widths, strict=True):
            if b.shape != (height, width):
                raise DimensionError(f"block shape {b.shape} != {(height, width)}")
            out[i:i + height, j:j + width] = b
            j += width
        i += height
    return out


def trace_sigma(a) -> complex:
    """Trace of a square matrix."""
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"trace requires a square matrix, got {a.shape}")
    return complex(np.trace(a))


def bracket(a, b) -> np.ndarray:
    """A[B] = transpose(B) A B."""
    a = as_cmatrix(a, "A")
    b = as_cmatrix(b, "B")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"A must be square, got {a.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions do not match: {a.shape} vs {b.shape}")
    return b.T @ a @ b


def symmetry_defect(a: np.ndarray) -> float:
    """Relative Frobenius distance of a from its transpose."""
    return frob(a - a.T) / max(1.0, frob(a))


def is_symmetric(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"symmetry test requires a square matrix, got {a.shape}")
    return symmetry_defect(a) <= tol.algebraic_rel


def hermitian_pd_margin(a, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix, -inf if not Hermitian.

    The margin is returned rather than a bare bool so callers can report how
    far inside the domain a point sits.
    """
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"PD test requires a square matrix, got {a.shape}")
    if frob(a - a.conj().T) > tol.algebraic_rel * max(1.0, frob(a)):
        return -np.inf
    try:
        eigs = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"eigenvalue iteration failed: {exc}") from exc
    return float(eigs[0])


def is_hermitian_pd(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    return hermitian_pd_margin(a, tol) > tol.pd_min_eig


def rel_close(a, b, tol: float) -> bool:
    return rel_error(a, b) <= tol


def rel_error(a, b) -> float:
    """|a - b|_F / max(1, |a|_F, |b|_F)."""
    a = as_cmatrix(a, "a")
    b = as_cmatrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return frob(a - b) / max(1.0, frob(a), frob(b))


def _check_cond(a: np.ndarray, context: str) -> None:
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(f"{context}: condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")


def guarded_inv(a, context: str = "inverse") -> np.ndarray:
    a = as_cmatrix(a)
    _check_cond(a, context)
    return np.linalg.inv(a)


def guarded_rsolve(num, den, context: str = "solve") -> np.ndarray:
    """num @ inv(den), computed as a linear solve with a conditioning guard."""
    num = as_cmatrix(num, "numerator")
    den = as_cmatrix(den, "denominator")
    _check_cond(den, context)
    return np.linalg.solve(den.T, num.T).T
