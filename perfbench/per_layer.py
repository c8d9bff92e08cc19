"""Per-layer metrics from the spans of one traced pass.

An operation is one trial in the verify workloads and one request in
single-call; ``*_per_op`` values are normalised by that count.  A ``*_us``
value is the mean inclusive duration of the outermost calls of the named
functions (a nested call of the same group is part of its caller), and
reads 0 when the workload never calls them.
"""

from __future__ import annotations

import numpy as np

from tracer import LAYERS, outermost
from workloads import ALGEBRAIC_SUITES, FD_CALLS, SHAPES

ALL_SUITES = ALGEBRAIC_SUITES + tuple(dict.fromkeys(s for s, _ in FD_CALLS))

# group -> span names it covers.  A name missing at install time (removed or
# renamed by a later change) is reported as absent and the group shrinks.
GROUPS = {
    "solve": ("numkit.guarded_rsolve", "numkit.guarded_inv"),
    "pd_check": ("numkit.hermitian_pd_margin", "numkit.is_hermitian_pd"),
    "mul": ("groups.heisenberg_mul", "groups.jacobi_mul", "groups.big_mul", "groups.gstarj_mul"),
    "sample": ("groups.sample_element",),
    "act": ("spaces.act_siegel", "spaces.act_disk", "spaces.act_jacobi", "spaces.act_jacobi_disk"),
    "cayley": ("spaces.cayley", "spaces.cayley_inv", "spaces.partial_cayley", "spaces.partial_cayley_inv"),
    "validate": ("spaces.SiegelPoint.validate", "spaces.DiskPoint.validate"),
    "kc": ("decomp.kc_component",),
    "component_residuals": ("decomp.component_residuals",),
    "decompose_full": ("decomp.decompose_full",),
    "j_factor": ("automorphy.j_factor",),
    "verify_cocycle": ("automorphy.verify_cocycle",),
    "laplacian": ("geometry.laplacian_siegel", "geometry.laplacian_disk", "geometry.laplacian_sj"),
    "pushforward": ("geometry.pushforward",),
    "jacobian_det": ("geometry.action_jacobian_det",),
    "field": ("geometry.ScalarField.__call__",),
    "decode": ("serialize.decode_matrix", "serialize.decode_real_matrix", "serialize.decode_point",
               "serialize.decode_element", "serialize.decode_tangent"),
    "encode": ("serialize.encode_matrix", "serialize.encode_point", "serialize.encode_element"),
    "harness": ("suites.run_suite",),
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def metrics(tracer, workload: str, ops, plain_times) -> tuple[dict, list]:
    """(name -> (value, unit), absent span names)."""
    t = tracer.table()
    known = set(tracer.names)
    absent = sorted(n for names in GROUPS.values() for n in names if n not in known)
    verify = workload != "single-call"
    n_ops = sum(op.trials for op in ops) if verify else len(ops)
    layer_of = np.array([_layer(n) for n in tracer.names], dtype=object)[t["name"]]

    out = {}
    for layer in LAYERS:
        mask = layer_of == layer
        out[f"{layer}.calls_per_op"] = (int(mask.sum()) / n_ops, "count")
        out[f"{layer}.self_us_per_op"] = (float(t["self"][mask].sum()) / 1e3 / n_ops, "us")

    def members(group):
        return tracer.ids(lambda n: n in GROUPS[group])

    def top(group):
        return outermost(t, members(group))

    def count_per_op(group):
        return (int(top(group).sum()) / n_ops, "count")

    def mean_us(group):
        mask = top(group)
        return (float(t["dur"][mask].mean()) / 1e3 if mask.any() else 0.0, "us")

    out["numkit.solves_per_op"] = count_per_op("solve")
    out["numkit.solve_us"] = mean_us("solve")
    out["numkit.pd_checks_per_op"] = count_per_op("pd_check")
    out["numkit.pd_check_us"] = mean_us("pd_check")
    out["groups.mul_us"] = mean_us("mul")
    out["groups.sample_us"] = mean_us("sample")
    out["spaces.act_us"] = mean_us("act")
    out["spaces.cayley_us"] = mean_us("cayley")
    out["spaces.validations_per_op"] = count_per_op("validate")
    out["spaces.validate_us"] = mean_us("validate")
    out["decomp.kc_calls_per_op"] = count_per_op("kc")
    out["decomp.component_residuals_us"] = mean_us("component_residuals")
    out["decomp.decompose_full_us"] = mean_us("decompose_full")
    out["automorphy.j_factor_us"] = mean_us("j_factor")
    out["automorphy.verify_cocycle_us"] = mean_us("verify_cocycle")

    field_ops = t["op"][np.isin(t["name"], members("field"))]
    for g, h in SHAPES:
        lap = [i for i, op in enumerate(ops)
               if verify and op.suite == "laplacian-invariance" and (op.g, op.h) == (g, h)]
        trials = sum(ops[i].trials for i in lap)
        evals = int(np.isin(field_ops, lap).sum())
        out[f"geometry.field_evals_per_trial.g{g}h{h}"] = (evals / trials if trials else 0.0, "count")
    out["geometry.laplacian_us"] = mean_us("laplacian")
    out["geometry.pushforward_us"] = mean_us("pushforward")
    out["geometry.jacobian_det_us"] = mean_us("jacobian_det")
    out["serialize.decode_us"] = mean_us("decode")
    out["serialize.encode_us"] = mean_us("encode")

    for suite in ALL_SUITES:
        idx = [i for i, op in enumerate(ops) if verify and op.suite == suite]
        trials = sum(ops[i].trials for i in idx)
        ms = 1e3 * sum(plain_times[i] for i in idx) / trials if trials else 0.0
        out[f"suites.{suite}.ms_per_trial"] = (ms, "ms")
    harness = np.isin(t["name"], members("harness"))
    out["suites.harness_us_per_trial"] = (float(t["self"][harness].sum()) / 1e3 / n_ops if verify else 0.0, "us")
    return out, absent
