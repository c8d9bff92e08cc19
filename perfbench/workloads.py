"""The three benchmark workloads: inputs, one operation, and output checks.

Every input is derived from the workload seed alone.  Only public entry
points of sjkit are driven: ``run_suite`` (by keyword, never with ``jobs``),
the samplers, ``serialize``, the maps in ``spaces``, ``decompose_full``,
``j_factor`` and ``metric_sj``.  The group inverses and
``reconstruction_residual`` are used only to check outputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

SHAPES = ((1, 1), (2, 2), (4, 3))

# verify-algebraic: what CI runs, one `sjkit verify --trials N`-shaped call
# per (suite, shape) per cycle.
ALGEBRAIC_SUITES = ("group-axioms", "theta-hom", "compat-29", "compat-37", "hc-reconstruct", "cocycle")
ALGEBRAIC_TRIALS = 10

# verify-fd: one trial per call, with fixed call counts per cycle.  The test
# field of a laplacian-invariance trial is a hash of its seed, and the field
# sets the trial's cost (at (4,3) about 0.12 s or 0.7-1.0 s; at (2,2) 20 ms or
# 120 ms): drawn seeds would let the seed, not the code, set a run's figures.
# So the Laplacian calls use the seeds 0, 1, 2, ... at every shape, and only
# the metric and volume calls draw theirs.  Besides the single (4,3)
# Laplacian, the counts give each (suite, shape) about 0.15 s per cycle at
# the seed commit, which keeps the cycle near 2 s.
FD_CALLS = {
    ("laplacian-invariance", (1, 1)): 15,
    ("laplacian-invariance", (2, 2)): 2,
    ("laplacian-invariance", (4, 3)): 1,
    ("metric-invariance", (1, 1)): 20,
    ("metric-invariance", (2, 2)): 18,
    ("metric-invariance", (4, 3)): 18,
    ("volume-invariance", (1, 1)): 50,
    ("volume-invariance", (2, 2)): 16,
    ("volume-invariance", (4, 3)): 6,
}
FD_FIXED_SEED_SUITE = "laplacian-invariance"

# single-call: requests per (op, shape) in the pool that the loop cycles through.
SINGLE_OPS = (
    "act_jacobi",
    "act_jacobi_disk",
    "partial_cayley",
    "partial_cayley_inv",
    "cayley",
    "decompose_full",
    "j_factor",
    "metric_sj",
)
SINGLE_PER_COMBO = 20

WORKLOADS = ("verify-algebraic", "verify-fd", "single-call")
ROUNDTRIP_TOL = 1e-9


def _seed31(rng: random.Random) -> int:
    return rng.getrandbits(31)


# ---------------------------------------------------------------------------
# verify workloads


@dataclass(frozen=True)
class Call:
    suite: str
    g: int
    h: int
    trials: int
    seed: int


@dataclass
class Outcome:
    """What one run_suite call returned, reduced to what the benchmark reads."""

    passed_trials: int
    failed: dict  # (suite, g, h, error class) -> failed trials
    record: list  # JSON-able; equal records mean equal reports


def verify_cycle(workload: str, seed: int) -> list[Call]:
    """The calls of one cycle: a fixed multiset of calls in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-algebraic":
        plan = [(s, shape, 1, ALGEBRAIC_TRIALS) for s in ALGEBRAIC_SUITES for shape in SHAPES]
    else:
        plan = [(s, shape, n, 1) for (s, shape), n in FD_CALLS.items()]
    calls = [
        Call(suite, g, h, trials, k if suite == FD_FIXED_SEED_SUITE else _seed31(rng))
        for suite, (g, h), count, trials in plan
        for k in range(count)
    ]
    rng.shuffle(calls)
    return calls


def first_verify_call(workload: str, seed: int) -> Call:
    suite = ALGEBRAIC_SUITES[0] if workload == "verify-algebraic" else "metric-invariance"
    return Call(suite, 1, 1, 1, seed)


def run_call(sk, call: Call) -> Outcome:
    """One closed-loop operation; a raised call costs its trials, not the run."""
    try:
        rep = sk.run_suite(name=call.suite, g=call.g, h=call.h, trials=call.trials, seed=call.seed)
    except Exception as exc:  # the benchmark counts it and keeps going
        key = (call.suite, call.g, call.h, type(exc).__name__)
        return Outcome(0, {key: call.trials}, ["raised", type(exc).__name__, str(exc)])
    nfail = len(rep.failures)
    failed = {(call.suite, call.g, call.h, "residual"): nfail} if nfail else {}
    return Outcome(rep.trials - nfail, failed, ["report", bool(rep.passed), rep.trials, rep.failures])


# ---------------------------------------------------------------------------
# single-call workload


@dataclass(frozen=True)
class Request:
    op: str
    g: int
    h: int
    payload: str


def _real(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _make_request(sk, op: str, g: int, h: int, rng: random.Random) -> Request:
    ser = sk.serialize
    body: dict = {}
    s = _seed31(rng)
    if op in ("act_jacobi", "partial_cayley_inv", "metric_sj"):
        body["point"] = ser.encode_point(sk.sample_point("siegel_jacobi", g, h, seed=s))
    elif op == "cayley":
        body["point"] = ser.encode_point(sk.sample_point("disk", g, h, seed=s))
    else:
        body["point"] = ser.encode_point(sk.sample_point("disk_jacobi", g, h, seed=s))
    if op == "act_jacobi":
        body["element"] = ser.encode_element(sk.sample_element("jacobi", g, h, seed=s + 1))
    elif op in ("act_jacobi_disk", "decompose_full", "j_factor"):
        body["element"] = ser.encode_element(sk.sample_element("gstarj", g, h, seed=s + 1))
    if op == "j_factor":
        body["index"] = _real(np.eye(h) * (1 + rng.randrange(3)))
        body["rep"] = rng.choice(["det:0", "det:1", "det:2", "standard"])
    if op == "metric_sj":
        v = sk.sample_tangent(g, h, seed=s + 2)
        body["tangent"] = {"dbase": ser.encode_matrix(v.dbase), "dfiber": ser.encode_matrix(v.dfiber)}
        body["params"] = rng.choice([[1.0, 1.0], [2.0, 0.5]])
    return Request(op, g, h, json.dumps(body))


def request_pool(sk, seed: int) -> list[Request]:
    """A seeded stream of requests: every (op, shape) equally often, shuffled."""
    rng = random.Random(f"single-call:{seed}")
    pool = [
        _make_request(sk, op, g, h, rng)
        for op in SINGLE_OPS
        for g, h in SHAPES
        for _ in range(SINGLE_PER_COMBO)
    ]
    rng.shuffle(pool)
    return pool


def _representation(sk, spec: str):
    if spec == "standard":
        return sk.Representation("standard")
    return sk.Representation("det_power", int(spec.split(":")[1]))


def serve(sk, req: Request) -> str:
    """Decode the payload, apply the operation, encode the result."""
    ser = sk.serialize
    body = json.loads(req.payload)
    p = ser.decode_point(body["point"])
    op = req.op
    if op == "act_jacobi":
        out = ser.encode_point(sk.act_jacobi(ser.decode_element(body["element"]), p))
    elif op == "act_jacobi_disk":
        out = ser.encode_point(sk.act_jacobi_disk(ser.decode_element(body["element"]), p))
    elif op == "partial_cayley":
        out = ser.encode_point(sk.partial_cayley(p))
    elif op == "partial_cayley_inv":
        out = ser.encode_point(sk.partial_cayley_inv(p))
    elif op == "cayley":
        out = ser.encode_point(sk.cayley(p))
    elif op == "decompose_full":
        f = sk.decompose_full(ser.decode_element(body["element"]), p)
        out = {
            "pplus_w": ser.encode_matrix(f.hc.pplus_w),
            "k_p": ser.encode_matrix(f.hc.k_p),
            "k_lower": ser.encode_matrix(f.hc.k_lower),
            "pminus_w": ser.encode_matrix(f.hc.pminus_w),
            "pplus_eta": ser.encode_matrix(f.pplus_eta),
            "pminus_xi": ser.encode_matrix(f.pminus_xi),
            "kappa_star": ser.encode_matrix(f.kappa_star),
        }
    elif op == "j_factor":
        idx = sk.IndexMatrix(ser.decode_real_matrix(body["index"], "index"))
        j = sk.j_factor(idx, _representation(sk, body["rep"]), ser.decode_element(body["element"]), p)
        out = {"j": ser.encode_matrix(j)}
    elif op == "metric_sj":
        t = body["tangent"]
        v = sk.TangentVector(ser.decode_matrix(t["dbase"]), ser.decode_matrix(t["dfiber"]))
        out = {"value": sk.metric_sj(sk.MetricParams(*body["params"]), p, v)}
    else:
        raise ValueError(f"unknown op {op!r}")
    return json.dumps(out)


def setup(sk, workload: str, seed: int):
    """Build the workload's inputs and perform its first operation.

    Returns the request pool (single-call) or the calls of one cycle.
    """
    if workload == "single-call":
        pool = request_pool(sk, seed)
        try:
            serve(sk, pool[0])
        except Exception:  # its failure is counted in the measured loop
            pass
        return pool
    if workload in ("verify-algebraic", "verify-fd"):
        run_call(sk, first_verify_call(workload, seed))
        return verify_cycle(workload, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b)))


def _parts(p) -> tuple:
    if hasattr(p, "omega"):
        return (p.omega,) + ((p.z,) if hasattr(p, "z") else ())
    return (p.w,) + ((p.eta,) if hasattr(p, "eta") else ())


def check(sk, req: Request, output: str) -> str | None:
    """None if the output is right, else the name of the failed check.

    Transforms must decode back into their domain and round-trip through
    their inverse; decompositions must rebuild the product; metric values
    must be finite and positive; automorphic factors must be finite.
    """
    ser = sk.serialize
    body = json.loads(req.payload)
    out = json.loads(output)
    p = ser.decode_point(body["point"])
    op = req.op
    if op == "decompose_full":
        m = {k: ser.decode_matrix(v, k) for k, v in out.items()}
        factors = sk.JacobiHCFactors(
            hc=sk.HCFactors(pplus_w=m["pplus_w"], k_p=m["k_p"], k_lower=m["k_lower"], pminus_w=m["pminus_w"]),
            pplus_eta=m["pplus_eta"],
            pminus_xi=m["pminus_xi"],
            kappa_star=m["kappa_star"],
        )
        a = ser.decode_element(body["element"])
        res = sk.decomp.reconstruction_residual(a, p, factors)
        return None if res <= ROUNDTRIP_TOL else "reconstruction"
    if op == "j_factor":
        return None if np.all(np.isfinite(ser.decode_matrix(out["j"]))) else "nonfinite"
    if op == "metric_sj":
        value = out["value"]
        if not np.isfinite(value):
            return "nonfinite"
        return None if value > 0 else "nonpositive"
    try:
        moved = ser.decode_point(out)
    except sk.SjkError:
        return "domain"
    if op == "act_jacobi":
        back = sk.act_jacobi(sk.jacobi_inv(ser.decode_element(body["element"])), moved)
    elif op == "act_jacobi_disk":
        back = sk.act_jacobi_disk(sk.gstarj_inv(ser.decode_element(body["element"])), moved)
    elif op == "partial_cayley":
        back = sk.partial_cayley_inv(moved)
    elif op == "partial_cayley_inv":
        back = sk.partial_cayley(moved)
    else:
        back = sk.cayley_inv(moved)
    worst = max(_rel(x, y) for x, y in zip(_parts(back), _parts(p)))
    return None if worst <= ROUNDTRIP_TOL else "roundtrip"
