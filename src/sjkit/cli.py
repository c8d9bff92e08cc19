"""Command-line interface.

All payloads are JSON on stdin/stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 malformed input or usage, 3 domain
violation, 4 conditioning, internal consistency or any other internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .automorphy import IndexMatrix, Representation, j_factor
from .decomp import decompose_full
from .geometry import (
    MetricParams,
    TEST_FIELDS,
    laplacian_disk,
    laplacian_sj,
    laplacian_siegel,
    metric_disk,
    metric_sj,
    metric_siegel,
)
from .groups import sample_element
from .numkit import (
    ConditioningError,
    ConsistencyError,
    DimensionError,
    DomainError,
    SjkError,
)
from .serialize import (
    decode_element,
    decode_point,
    decode_real_matrix,
    decode_tangent,
    encode_element,
    encode_matrix,
    encode_point,
)
from .spaces import (
    act_disk,
    act_jacobi,
    act_jacobi_disk,
    act_siegel,
    cayley,
    cayley_inv,
    partial_cayley,
    partial_cayley_inv,
    sample_point,
)
from .suites import SUITES, run_all, run_suite

_POINT_KINDS = ("siegel", "disk", "siegel-jacobi", "disk-jacobi")
_ELEMENT_KINDS = ("sp", "heisenberg", "jacobi", "gstar", "gstarj", "kstarj")

_PLAIN_MAPS = {
    "cayley": cayley,
    "cayley-inv": cayley_inv,
    "partial-cayley": partial_cayley,
    "partial-cayley-inv": partial_cayley_inv,
}
_ACTION_MAPS = {
    "act-siegel": act_siegel,
    "act-disk": act_disk,
    "act-jacobi": act_jacobi,
    "act-jacobi-disk": act_jacobi_disk,
}


def _json_safe(obj):
    """obj with each non-finite float (a recorded failure's NaN residual) as
    None, which JSON writes as null: JSON has no NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(_json_safe(obj), sort_keys=True, allow_nan=False) + "\n")


def _read_input(args) -> object:
    text = args.input if args.input is not None else sys.stdin.read()
    return json.loads(text)


def _parse_params(text: str) -> MetricParams:
    try:
        a, b = (float(part) for part in text.split(","))
    except ValueError:
        raise DimensionError(f"--params expects 'A,B' with two numbers, got {text!r}") from None
    return MetricParams(a, b)


def _parse_rep(text: str) -> Representation:
    if text == "std":
        return Representation("standard")
    if text.startswith("det:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise DimensionError(f"--rep expects 'det:k' with an integer k, got {text!r}") from None
        return Representation("det_power", k)
    raise DimensionError("--rep expects 'det:k' or 'std'")


def _element_and_point(payload, what: str):
    """Decode an {'element': ..., 'point': ...} payload for the command what."""
    if not isinstance(payload, dict) or "element" not in payload or "point" not in payload:
        raise DimensionError(f"{what} input must be {{'element': ..., 'point': ...}}")
    return decode_element(payload["element"]), decode_point(payload["point"])


def _cmd_transform(args) -> int:
    payload = _read_input(args)
    if args.map in _PLAIN_MAPS:
        _emit(encode_point(_PLAIN_MAPS[args.map](decode_point(payload))))
        return 0
    if args.map in _ACTION_MAPS:
        el, pt = _element_and_point(payload, "action")
        _emit(encode_point(_ACTION_MAPS[args.map](el, pt)))
        return 0
    raise DimensionError(f"unknown map {args.map!r}")


def _cmd_sample(args) -> int:
    kind = args.kind
    if kind in _POINT_KINDS:
        p = sample_point(kind.replace("-", "_"), args.g, args.h, args.seed, args.scale)
        _emit(encode_point(p))
    else:
        el = sample_element(kind, args.g, args.h, args.seed, args.scale)
        _emit(encode_element(el))
    return 0


def _cmd_metric(args) -> int:
    payload = _read_input(args)
    if not isinstance(payload, dict) or "point" not in payload or "tangent" not in payload:
        raise DimensionError("metric input must be {'point': ..., 'tangent': ...}")
    p = decode_point(payload["point"])
    v = decode_tangent(payload["tangent"])
    if args.which == "siegel":
        value = metric_siegel(p, v)
    elif args.which == "disk":
        value = metric_disk(p, v)
    else:
        value = metric_sj(_parse_params(args.params), p, v)
    _emit({"value": value})
    return 0


def _cmd_laplacian(args) -> int:
    payload = _read_input(args)
    fields = {f.name: f for f in TEST_FIELDS}
    if args.field not in fields:
        raise DimensionError(f"unknown field {args.field!r}; choose from {sorted(fields)}")
    fld = fields[args.field]
    p = decode_point(payload)
    if args.which == "siegel":
        if fld.name not in ("trace-re-base", "logdet-y"):
            raise DimensionError(f"field {fld.name!r} is not a base-only field")
        value = laplacian_siegel(fld, p)
    elif args.which == "disk":
        if fld.domain != "disk":
            raise DimensionError(f"field {fld.name!r} does not live on the disk")
        value = laplacian_disk(fld, p)
    else:
        if fld.domain != "sj":
            raise DimensionError(f"field {fld.name!r} does not live on the Siegel-Jacobi space")
        value = laplacian_sj(_parse_params(args.params), fld, p)
    _emit({"value": value})
    return 0


def _cmd_decompose(args) -> int:
    payload = _read_input(args)
    el, pt = _element_and_point(payload, "decompose")
    factors = decompose_full(el, pt)
    _emit(
        {
            "pplus": {
                "w": encode_matrix(factors.hc.pplus_w),
                "eta": encode_matrix(factors.pplus_eta),
            },
            "k": {
                "upper": encode_matrix(factors.hc.k_p),
                "lower": encode_matrix(factors.hc.k_lower),
                "kappa_star": encode_matrix(factors.kappa_star),
            },
            "pminus": {
                "w": encode_matrix(factors.hc.pminus_w),
                "xi": encode_matrix(factors.pminus_xi),
            },
        }
    )
    return 0


def _cmd_jfactor(args) -> int:
    payload = _read_input(args)
    el, pt = _element_and_point(payload, "jfactor")
    idx = IndexMatrix(decode_real_matrix(json.loads(args.index_matrix), "index matrix"))
    rep = _parse_rep(args.rep)
    _emit({"matrix": encode_matrix(j_factor(idx, rep, el, pt))})
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        reports = run_all(args.g, args.h, args.trials, args.seed, args.tol)
        _emit({"reports": [r.to_dict() for r in reports],
               "passed": all(r.passed for r in reports)})
        return 0 if all(r.passed for r in reports) else 1
    report = run_suite(args.suite, args.g, args.h, args.trials, args.seed, args.tol)
    _emit(report.to_dict())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sjkit",
        description="Jacobi group actions, partial Cayley transform, invariant "
        "geometry, and automorphic factors, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("--input", help="JSON payload (reads stdin when omitted)")

    sp = sub.add_parser("transform", help="apply an action or (partial) Cayley map")
    sp.add_argument("--map", required=True, choices=sorted(_PLAIN_MAPS) + sorted(_ACTION_MAPS))
    add_input(sp)
    sp.set_defaults(fn=_cmd_transform)

    sp = sub.add_parser("sample", help="emit a random element or point")
    sp.add_argument("--kind", required=True, choices=_ELEMENT_KINDS + _POINT_KINDS)
    sp.add_argument("--g", type=int, default=1)
    sp.add_argument("--h", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--scale", type=float, default=0.8)
    sp.set_defaults(fn=_cmd_sample)

    sp = sub.add_parser("metric", help="evaluate an invariant metric at (point, tangent)")
    sp.add_argument("--which", required=True, choices=("siegel", "disk", "sj"))
    sp.add_argument("--params", default="1,1", help="A,B weights for --which sj")
    add_input(sp)
    sp.set_defaults(fn=_cmd_metric)

    sp = sub.add_parser("laplacian", help="evaluate an invariant Laplacian on a builtin field")
    sp.add_argument("--which", required=True, choices=("siegel", "disk", "sj"))
    sp.add_argument("--field", required=True)
    sp.add_argument("--params", default="1,1")
    add_input(sp)
    sp.set_defaults(fn=_cmd_laplacian)

    sp = sub.add_parser("decompose", help="emit Harish-Chandra components and kappa_star")
    add_input(sp)
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("jfactor", help="evaluate the canonical automorphic factor")
    sp.add_argument("--index-matrix", required=True, help="real symmetric h x h as JSON")
    sp.add_argument("--rep", default="det:1", help="det:k or std")
    add_input(sp)
    sp.set_defaults(fn=_cmd_jfactor)

    sp = sub.add_parser("verify", help="run a property-verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    sp.add_argument("--g", type=int, default=1)
    sp.add_argument("--h", type=int, default=1)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (json.JSONDecodeError, DimensionError, KeyError, TypeError) as exc:
        print(f"sjkit: input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"sjkit: domain error: {exc}", file=sys.stderr)
        return 3
    except (ConditioningError, ConsistencyError) as exc:
        print(f"sjkit: numeric error: {exc}", file=sys.stderr)
        return 4
    except SjkError as exc:
        print(f"sjkit: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"sjkit: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
