"""Calls per trial of sjkit's checks and LAPACK kernels, suite by suite, or
per call of the serve path.

    python3 bench/counts.py [--suite S ...] [--shape G,H ...]
    python3 bench/counts.py --serve [--shape G,H ...]

For every suite and shape (g, h) asked for (by default every suite at (1,1),
(2,2) and (4,3)), two run_suite calls are made at seed 1, of 1 and of 64
trials, each after one uncounted trial, so that one-time cache fills are
not counted.  With --serve, at each shape, each call of a JSON request is
counted once, after one uncounted call: one serialize.decode_point or
decode_element of each encoded kind, and each of the eight single-call
operations (the five maps, decompose_full, j_factor and metric_sj) on
inputs decoded from the encoded samples of seed 1.  Counted are frob,
rel_error, the Hermitian positivity tests (hermitian_pd_margin: each call of
numkit._hermitian_extremes, which that function and a Siegel point's
validation enter), the conditioning guard _check_cond and the six LAPACK
kernels of numkit, the block assembly numkit._block, the holder stack and
slice numkit._stack_holders and
numkit._slice_holder (each call on a nested holder counted too), the
coercions numkit.as_cmatrix and numkit._freeze of what a constructor is
given, the fractional-linear core of the eight maps,
spaces._fractional_linear, the group laws jacobi_mul, heisenberg_mul and
gstarj_mul, the embedding groups.embed_sp_gph, the Harish-Chandra core
decomp._hc_core, the stream passes (_uniforms: the calls of
groups._stream, which both the samplers' groups._uniforms and a suite's
planned draw enter) with the rows they draw (rows_drawn: one for an int
seed, one per key of a sequence of seeds or of a suite's chunk), and the
Laplacians' field calls (field_calls: one per
geometry._frame_laplacian) with the points of their stencils (field_points:
the batch of each geometry._rebuild), and the validate calls of every holder
class that has one (validations: class name -> calls).  Each function is
wrapped in every sjkit module that holds it, so a call through any import is
counted.  A count depends on the code and the seed only, not on the machine,
so two commits compare without alternating runs.  The JSON printed gives
each count divided by the trial count, or of the one call with --serve.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import sjkit  # noqa: E402
import sjkit.serialize  # noqa: E402,F401


def _call(args) -> int:
    """One per call."""
    return 1


def _rows(args) -> int:
    """The rows a _stream(key, n) pass draws: one for an int key, len(key)
    for an array of keys."""
    return 1 if isinstance(args[0], (int, np.integer)) else len(args[0])


def _points(args) -> int:
    """The points a _rebuild(p, base, fiber) batch holds."""
    return int(np.prod(args[1].shape[:-2]))


# each count: its name in the JSON, the sjkit function whose calls it counts,
# and what one call adds, from its arguments
COUNTS = tuple((path.rsplit(".", 1)[1], path, _call) for path in (
    *(f"numkit.{name}" for name in (
        "frob", "rel_error", "_check_cond",
        "_svdvals", "_eigvalsh", "_inv", "_solve", "_det", "_cholesky", "_block",
        "_stack_holders", "_slice_holder", "as_cmatrix", "_freeze")),
    "spaces._fractional_linear", "groups.jacobi_mul", "groups.heisenberg_mul",
    "groups.gstarj_mul", "groups.embed_sp_gph", "decomp._hc_core")) + (
    ("hermitian_pd_margin", "numkit._hermitian_extremes", _call),
    ("_uniforms", "groups._stream", _call),
    ("rows_drawn", "groups._stream", _rows),
    ("field_calls", "geometry._frame_laplacian", _call),
    ("field_points", "geometry._rebuild", _points))
# "module.Class" of each holder class with a validate of its own
VALIDATED = tuple(f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}"
                  for cls in sjkit.numkit.Holder.__subclasses__() if "validate" in vars(cls))
NAMES = tuple(name for name, _, _ in COUNTS) + ("validations",)
SHAPES = ((1, 1), (2, 2), (4, 3))
TRIALS = (1, 64)
SEED = 1


def counted_calls(path: str, patch) -> list:
    """A list that gains the arguments of each call of the sjkit function
    path, "module.name", through every sjkit module that holds it, or of the
    method "module.Class.method".  The wrapper is put in place by
    patch(holder, name, wrapper); undoing that is patch's (see counting)."""
    module, *owner, name = path.split(".")
    holder = importlib.import_module(f"sjkit.{module}")
    for cls in owner:
        holder = getattr(holder, cls)
    calls, inner = [], getattr(holder, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    holders = [holder] if owner else [
        mod for mod_name, mod in list(sys.modules.items())
        if mod_name.split(".")[0] == "sjkit" and getattr(mod, name, None) is inner]
    for held in holders:
        patch(held, name, counted)
    return calls


@contextmanager
def counting(paths):
    """counted_calls of each path, undone when the block ends."""
    undo = []

    def patch(holder, name, value):
        undo.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    try:
        yield [counted_calls(path, patch) for path in paths]
    finally:
        for holder, name, value in reversed(undo):
            setattr(holder, name, value)


def counts_of(run, per: int) -> dict:
    """The counts of one run(), each divided by per."""
    paths = list(dict.fromkeys(path for _, path, _ in COUNTS))
    paths += [f"{cls}.validate" for cls in VALIDATED]
    with counting(paths) as calls:
        run()
    by_path = dict(zip(paths, calls, strict=True))
    out = {name: sum(map(size, by_path[path])) / per for name, path, size in COUNTS}
    out["validations"] = {cls.rsplit(".", 1)[1]: len(by_path[f"{cls}.validate"]) / per
                          for cls in VALIDATED}
    return out


def per_trial(suite: str, g: int, h: int, trials: int) -> dict:
    # one trial first, uncounted, so the counts leave out one-time cache fills
    sjkit.run_suite(suite, g, h, trials=1, seed=SEED)
    return counts_of(lambda: sjkit.run_suite(suite, g, h, trials=trials, seed=SEED), trials)


POINT_KINDS = ("siegel", "disk", "siegel_jacobi", "disk_jacobi")
ELEMENT_KINDS = ("sp", "heisenberg", "jacobi", "gstar", "gstarj")


def serve_calls(g: int, h: int) -> dict:
    """name -> a call of the serve path at (g, h): decode_point:KIND and
    decode_element:KIND of each encoded kind's sample, and each single-call
    operation on decoded samples."""
    ser = sjkit.serialize
    points = {kind: ser.encode_point(sjkit.sample_point(kind, g, h, seed=SEED))
              for kind in POINT_KINDS}
    elements = {kind: ser.encode_element(sjkit.sample_element(kind, g, h, seed=SEED + 1))
                for kind in ELEMENT_KINDS}
    calls = {f"decode_point:{kind}": partial(ser.decode_point, obj)
             for kind, obj in points.items()}
    calls.update({f"decode_element:{kind}": partial(ser.decode_element, obj)
                  for kind, obj in elements.items()})
    disk, sj, dj = (ser.decode_point(points[k]) for k in ("disk", "siegel_jacobi", "disk_jacobi"))
    jacobi, gstarj = (ser.decode_element(elements[k]) for k in ("jacobi", "gstarj"))
    v = sjkit.sample_tangent(g, h, seed=SEED + 2)
    v = ser.decode_tangent({"dbase": ser.encode_matrix(v.dbase),
                            "dfiber": ser.encode_matrix(v.dfiber)})
    index = sjkit.IndexMatrix(ser.decode_real_matrix(np.eye(h).tolist(), "index"))
    calls.update({
        "act_jacobi": partial(sjkit.act_jacobi, jacobi, sj),
        "act_jacobi_disk": partial(sjkit.act_jacobi_disk, gstarj, dj),
        "partial_cayley": partial(sjkit.partial_cayley, dj),
        "partial_cayley_inv": partial(sjkit.partial_cayley_inv, sj),
        "cayley": partial(sjkit.cayley, disk),
        "decompose_full": partial(sjkit.decompose_full, gstarj, dj),
        "j_factor": partial(sjkit.j_factor, index, sjkit.Representation("standard"), gstarj, dj),
        "metric_sj": partial(sjkit.metric_sj, sjkit.MetricParams(2.0, 0.5), sj, v),
    })
    return calls


def per_call(run) -> dict:
    run()  # uncounted, so the counts leave out one-time cache fills
    return counts_of(run, 1)


def _shape(text: str) -> tuple[int, int]:
    g, h = text.split(",")
    return int(g), int(h)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--suite", action="append", choices=sorted(sjkit.SUITES))
    ap.add_argument("--shape", action="append", type=_shape, help="g,h")
    ap.add_argument("--serve", action="store_true",
                    help="count the calls of a JSON request, not the suites")
    args = ap.parse_args(argv)
    if args.serve and args.suite:
        ap.error("--serve counts no suite")
    if args.serve:
        rows = [{"call": name, "g": g, "h": h, "per_call": per_call(run)}
                for g, h in args.shape or SHAPES
                for name, run in serve_calls(g, h).items()]
    else:
        rows = [{"suite": s, "g": g, "h": h, "trials": n, "per_trial": per_trial(s, g, h, n)}
                for s in args.suite or sjkit.SUITES
                for g, h in args.shape or SHAPES
                for n in TRIALS]
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "seed": SEED, "counted": NAMES, "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
