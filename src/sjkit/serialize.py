"""JSON encoding of matrices, points, elements, and tangent vectors.

Complex numbers serialize as [re, im] pairs and matrices as nested arrays of
such pairs; points are named objects ({"omega", "z"} upstairs, {"w", "eta"}
downstairs); elements carry a "kind" discriminator.  Nothing is ever encoded
as a string; a real matrix may also be rows of plain numbers.  A matrix is
a non-empty list of equal, non-empty rows, lists at every level, of ints or
floats (no bool, string or null), else DimensionError (CLI exit code 2); a
NaN, an inf or an int past the doubles raises DomainError (exit code 3).
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .groups import (
    ComplexHeisenbergElement,
    GStarElement,
    GStarJacobiElement,
    HeisenbergElement,
    JacobiElement,
    SymplecticMatrix,
)
from .numkit import DimensionError, DomainError, frob
from .spaces import DiskJacobiPoint, DiskPoint, SiegelJacobiPoint, SiegelPoint, TangentVector

__all__ = [
    "encode_matrix",
    "decode_matrix",
    "decode_real_matrix",
    "encode_point",
    "decode_point",
    "encode_element",
    "decode_element",
    "decode_tangent",
]


def encode_matrix(a) -> list:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"only a 2-d matrix can be encoded, got ndim={a.ndim}")
    # the (re, im) doubles of each entry, as Python floats
    return np.ascontiguousarray(a).view(float).reshape(a.shape + (2,)).tolist()


def _every(items: list, types: tuple) -> bool:
    """Whether every item is an instance of types and none is a bool: one
    C-level pass over the exact types, isinstance only if another type shows."""
    return set(map(type, items)).issubset(types) or all(
        isinstance(x, types) and not isinstance(x, bool) for x in items)


def _numbers(obj, name: str, pairs: bool) -> np.ndarray:
    """obj, a matrix of [re, im] pairs or of plain numbers, as one float array
    of shape (r, c, 2) or (r, c); the error that says why for anything else."""
    try:
        a = np.array(obj, dtype=float)
        entries = list(chain.from_iterable(obj))
        if pairs:
            lists, leaves = [obj, *obj, *entries], list(chain.from_iterable(entries))
        else:
            lists, leaves = [obj, *obj], entries
        shaped = a.ndim == 2 + pairs and a.size and (a.shape[-1] == 2 or not pairs)
        if shaped and _every(lists, (list,)) and _every(leaves, (int, float)) and \
                all(map(math.isfinite, leaves)):
            return a
    except (ValueError, TypeError, OverflowError):  # ragged, not numbers, or past the doubles
        pass
    if not isinstance(obj, list) or not obj or not _every(obj, (list,)):
        raise DimensionError(f"{name}: expected a non-empty array of rows")
    what = "[re, im] number pairs" if pairs else "numbers"
    for r in obj:
        if len(r) != len(obj[0]) or not r:
            raise DimensionError(f"{name}: rows must be non-empty and rectangular")
        if pairs and not (_every(r, (list,)) and set(map(len, r)) == {2}) or \
                not _every(list(chain.from_iterable(r)) if pairs else r, (int, float)):
            raise DimensionError(f"{name}: entries must be {what}")
    raise DomainError(f"{name}: entries must be finite")  # NaN, inf, or an int past the doubles


def decode_matrix(obj, name: str = "matrix") -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs, with the bits of complex(re, im)."""
    return _numbers(obj, name, pairs=True).view(complex)[..., 0]


def decode_real_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Real matrix; entries may be plain numbers or [re, im] with im = 0."""
    if isinstance(obj, list) and obj and isinstance(obj[0], list) and obj[0] and \
            isinstance(obj[0][0], (int, float)):
        return _numbers(obj, name, pairs=False)
    a = decode_matrix(obj, name)
    if frob(np.imag(a)) > 1e-12 * max(1.0, frob(a)):
        raise DomainError(f"{name}: expected a real matrix")
    return np.real(a)


# ---------------------------------------------------------------------------
# points


def encode_point(p) -> dict:
    if isinstance(p, SiegelJacobiPoint):
        return {"omega": encode_matrix(p.omega), "z": encode_matrix(p.z)}
    if isinstance(p, DiskJacobiPoint):
        return {"w": encode_matrix(p.w), "eta": encode_matrix(p.eta)}
    if isinstance(p, SiegelPoint):
        return {"omega": encode_matrix(p.omega)}
    if isinstance(p, DiskPoint):
        return {"w": encode_matrix(p.w)}
    raise DimensionError(f"cannot encode point of type {type(p).__name__}")


def decode_point(obj):
    if not isinstance(obj, dict):
        raise DimensionError("point: expected a JSON object")
    if "omega" in obj:
        base = SiegelPoint(decode_matrix(obj["omega"], "omega"))
        if "z" in obj:
            return SiegelJacobiPoint(base, decode_matrix(obj["z"], "z"))
        return base
    if "w" in obj:
        base = DiskPoint(decode_matrix(obj["w"], "w"))
        if "eta" in obj:
            return DiskJacobiPoint(base, decode_matrix(obj["eta"], "eta"))
        return base
    raise DimensionError("point: expected keys omega[/z] or w[/eta]")


# ---------------------------------------------------------------------------
# elements


def encode_element(el) -> dict:
    if isinstance(el, SymplecticMatrix):
        return {"kind": "sp", "m": encode_matrix(el.m)}
    if isinstance(el, HeisenbergElement):
        return {
            "kind": "heisenberg",
            "lambda": encode_matrix(el.lam),
            "mu": encode_matrix(el.mu),
            "kappa": encode_matrix(el.kappa),
        }
    if isinstance(el, JacobiElement):
        return {
            "kind": "jacobi",
            "m": encode_matrix(el.m.m),
            "lambda": encode_matrix(el.hs.lam),
            "mu": encode_matrix(el.hs.mu),
            "kappa": encode_matrix(el.hs.kappa),
        }
    if isinstance(el, GStarJacobiElement):
        return {
            "kind": "gstarj",
            "p": encode_matrix(el.gs.p),
            "q": encode_matrix(el.gs.q),
            "xi": encode_matrix(el.hc.xi),
            "kappa": encode_matrix(el.kappa),
        }
    if isinstance(el, GStarElement):
        return {"kind": "gstar", "p": encode_matrix(el.p), "q": encode_matrix(el.q)}
    raise DimensionError(f"cannot encode element of type {type(el).__name__}")


def decode_element(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DimensionError("element: expected a JSON object with a 'kind' key")
    kind = obj["kind"]
    if kind == "sp":
        return SymplecticMatrix(decode_real_matrix(obj["m"], "m"))
    if kind == "heisenberg":
        return HeisenbergElement(
            decode_real_matrix(obj["lambda"], "lambda"),
            decode_real_matrix(obj["mu"], "mu"),
            decode_real_matrix(obj["kappa"], "kappa"),
        )
    if kind == "jacobi":
        return JacobiElement(
            SymplecticMatrix(decode_real_matrix(obj["m"], "m")),
            HeisenbergElement(
                decode_real_matrix(obj["lambda"], "lambda"),
                decode_real_matrix(obj["mu"], "mu"),
                decode_real_matrix(obj["kappa"], "kappa"),
            ),
        )
    if kind == "gstar":
        return GStarElement(decode_matrix(obj["p"], "p"), decode_matrix(obj["q"], "q"))
    if kind == "gstarj":
        xi = decode_matrix(obj["xi"], "xi")
        kappa = decode_real_matrix(obj["kappa"], "kappa")
        return GStarJacobiElement(
            GStarElement(decode_matrix(obj["p"], "p"), decode_matrix(obj["q"], "q")),
            ComplexHeisenbergElement(xi, xi.conj(), 1j * kappa),
        )
    raise DimensionError(f"element: unknown kind {kind!r}")


def decode_tangent(obj) -> TangentVector:
    if not isinstance(obj, dict) or "dbase" not in obj:
        raise DimensionError("tangent: expected a JSON object with a 'dbase' key")
    dfiber = decode_matrix(obj["dfiber"], "dfiber") if "dfiber" in obj else None
    return TangentVector(decode_matrix(obj["dbase"], "dbase"), dfiber)
