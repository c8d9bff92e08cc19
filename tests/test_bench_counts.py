"""Smoke run of bench/counts.py, the per-trial call counter."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _counts(suite: str, shape: str) -> dict:
    proc = subprocess.run([sys.executable, "bench/counts.py", "--suite", suite, "--shape", shape],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_counts_prints_the_calls_per_trial_of_one_suite_and_shape():
    out = _counts("metric-invariance", "2,2")
    assert out["seed"] == 1
    assert [(r["suite"], r["g"], r["h"], r["trials"]) for r in out["rows"]] == [
        ("metric-invariance", 2, 2, 1), ("metric-invariance", 2, 2, 64)]
    one, many = (r["per_trial"] for r in out["rows"])
    assert list(one) == list(many) == out["counted"]
    # no Hermitian re-test of a point the code built, and one positivity
    # eigensolve per sampled base and map image (five in a trial at (2,2))
    assert (one["hermitian_pd_margin"], one["_eigvalsh"], one["frob"]) == (0, 5, 9)
    assert many["hermitian_pd_margin"] == 0
    # three maps, and six samples from one stream pass: the word's jacobi and
    # gstarj, a Siegel and a disk base, and two tangent vectors
    assert (one["_fractional_linear"], one["_uniforms"], one["rows_drawn"]) == (3, 1, 6)
    assert many["rows_drawn"] == 6
    # the samples, theta's image and the maps' image bases and pushed vectors are
    # assembled uncoerced: what is coerced is each guarded solve's two operands and
    # each metric's guarded inverse, 8, and the three maps' image fibers, 3, each frozen
    assert (one["as_cmatrix"], one["_freeze"]) == (11, 3)
    # of the holders the trial builds only the word is validated: its gstarj is
    # theta's exact image and the Heisenberg part symmetric by construction
    assert one["validations"] == {"SymplecticMatrix": 1, "HeisenbergElement": 0,
                                  "GStarElement": 0, "ComplexHeisenbergElement": 0,
                                  "GStarJacobiElement": 0, "SiegelPoint": 0, "DiskPoint": 0}
    assert many["validations"]["SymplecticMatrix"] == 1 / 64
    # no finite differences
    assert (one["field_calls"], one["field_points"], many["field_calls"]) == (0, 0, 0)


def test_counts_gives_a_laplacian_trial_two_field_calls_on_its_stencils_points():
    out = _counts("laplacian-invariance", "1,1")
    one, many = (r["per_trial"] for r in out["rows"])
    # the Laplacian of the field after the action and the one at the image
    assert one["field_calls"] == many["field_calls"] == 2.0
    # seed 1's one trial has an sj field: 1 + 4 * 2 points per stencil at (1,1)
    assert one["field_points"] == 18.0


def test_counts_leave_out_one_time_cache_fills():
    # each count follows one uncounted trial, so a fresh process reads on its
    # first call what it reads on its second (volume-invariance's first trial
    # at (2,2) fills caches through 14 frob calls that later trials skip)
    code = ("import json, counts; print(json.dumps([counts.per_trial(s, 2, 2, 1) for s in "
            "('volume-invariance', 'volume-invariance', 'group-axioms', 'cocycle')]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench",
                          capture_output=True, text=True, timeout=300, check=True)
    first, second, axioms, cocycle = json.loads(proc.stdout)
    assert first == second and first["frob"] == 5
    # each group law once per layer of its identity tree, on the layer's stack
    assert [axioms[law] for law in ("jacobi_mul", "heisenberg_mul", "gstarj_mul")] == [2, 2, 2]
    # cocycle's three components from one Harish-Chandra core on their stack
    assert (cocycle["gstarj_mul"], cocycle["_hc_core"], cocycle["_check_cond"]) == (1, 1, 2)
    # the holder stacks and slices, rel_error and the embedding are counted too:
    # cocycle's kappa_star residual and one rel_error per representation
    assert {"_stack_holders", "_slice_holder", "rel_error", "embed_sp_gph"} <= set(first)
    assert (cocycle["rel_error"], axioms["rel_error"], axioms["embed_sp_gph"]) == (5, 12, 0)
    assert (axioms["_stack_holders"], axioms["_slice_holder"]) == (35, 39)
