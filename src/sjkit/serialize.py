"""JSON encoding of matrices, points, elements, and tangent vectors.

Complex numbers serialize as [re, im] pairs and matrices as nested arrays of
such pairs; points are named objects ({"omega", "z"} upstairs, {"w", "eta"}
downstairs); elements carry a "kind" discriminator.  Nothing is ever encoded
as a string.
"""

from __future__ import annotations

import numpy as np

from .geometry import TangentVector
from .groups import (
    ComplexHeisenbergElement,
    GStarElement,
    GStarJacobiElement,
    HeisenbergElement,
    JacobiElement,
    SymplecticMatrix,
)
from .numkit import DimensionError, DomainError, frob
from .spaces import DiskJacobiPoint, DiskPoint, SiegelJacobiPoint, SiegelPoint

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
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in a]


def decode_matrix(obj, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise DimensionError(f"{name}: expected a non-empty array of rows")
    width = len(obj[0])
    rows = []
    for r in obj:
        if len(r) != width or width == 0:
            raise DimensionError(f"{name}: rows must be non-empty and rectangular")
        row = []
        for entry in r:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            ):
                raise DimensionError(f"{name}: entries must be [re, im] number pairs")
            row.append(complex(entry[0], entry[1]))
        rows.append(row)
    a = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name}: entries must be finite")
    return a


def decode_real_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Real matrix; entries may be plain numbers or [re, im] with im = 0."""
    if isinstance(obj, list) and obj and isinstance(obj[0], list) and obj[0] and \
            isinstance(obj[0][0], (int, float)):
        a = np.asarray(obj, dtype=float)
        if a.ndim != 2 or not np.all(np.isfinite(a)):
            raise DimensionError(f"{name}: expected a finite real matrix")
        return a
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
