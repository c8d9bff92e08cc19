"""The sjkit benchmark.

    python3 perfbench/run.py --workload verify-algebraic --seed 1 --seconds 30 --trace 0

One process, one thread, one closed-loop client: each operation is issued
when the previous one has returned.  Workloads and metrics are described in
perfbench/README.md and listed in BENCHMARK.json.

With ``--trace 0`` the workload's cycle repeats for ``--seconds`` (ending on
a whole cycle) and the end-to-end metrics are reported, every time scaled
to a reference speed (reference.py).  With ``--trace 1`` a fixed list of
operations repeats untraced for ``--seconds`` and then runs once traced,
and the per-layer metrics are reported.  Human-readable lines come first; the last line of
standard output is the JSON result.  Results and spans are also written
under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import common

common.pin_environment()

import numpy as np  # noqa: E402  (after the BLAS thread pins)

import per_layer  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
OUT_DIR = common.ROOT / ".perfbench"


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True, default=repr).encode()).hexdigest()


def _failures_table(failed: Counter) -> list:
    return [
        {"where": list(key[:-1]), "class": key[-1], "count": n}
        for key, n in sorted(failed.items(), key=lambda kv: tuple(map(str, kv[0])))
        if n
    ]


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time from process start to first operation ready, per probe:
    (scaled to the reference speed the probe measured right after, as measured)."""
    env = dict(os.environ)
    common.pin_environment(env)
    scaled, times = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(common.HERE / "probe.py"), "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, env=env, cwd=str(common.ROOT), text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            ref_ns = proc.stdout.readline().strip()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            raise common.SetupError(f"set-up probe failed (exit {code})")
        scaled.append(times[-1] * reference.REF_NS / float(ref_ns))
    return scaled, times


# ---------------------------------------------------------------------------
# one operation


def _step(sk, workload: str):
    if workload == "single-call":
        def serve(req):
            try:
                return workloads.serve(sk, req)
            except Exception as exc:  # counted as a failed call
                return exc
        return serve
    return lambda call: workloads.run_call(sk, call)


def _outcome_key(out):
    return out if isinstance(out, str) else ("raised", type(out).__name__, str(out))


def _check_pool(sk, pool, outputs) -> dict:
    """Index -> failure class, for every request whose output is wrong."""
    bad = {}
    for i, (req, out) in enumerate(zip(pool, outputs)):
        if not isinstance(out, str):
            bad[i] = type(out).__name__
            continue
        try:
            verdict = workloads.check(sk, req, out)
        except Exception as exc:  # a check that cannot run is a failed check
            verdict = f"check-{type(exc).__name__}"
        if verdict is not None:
            bad[i] = verdict
    return bad


# ---------------------------------------------------------------------------
# timed runs


def measure(step, ops, seconds: float, slim=lambda rep, out: out) -> list:
    """Repeat `ops` until `seconds` have passed, ending on a whole repetition.

    A reference block runs at the start and end of every repetition and
    after every REF_EVERY_NS of call time.  Returns, per repetition, (wall
    seconds of its calls, call latencies in ns scaled to the reference speed,
    outcomes, median reference block in ns); `slim` reduces what is kept of
    each outcome.
    """
    ref = reference.Reference()
    reps = []
    gc.collect()
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        lat_ns, block, outs = [], [], []
        refs, since = [ref()], 0
        for op in ops:
            t0 = time.perf_counter_ns()
            out = step(op)
            dt = time.perf_counter_ns() - t0
            lat_ns.append(dt)
            block.append(len(refs) - 1)
            outs.append(slim(len(reps), out))
            since += dt
            if since >= reference.REF_EVERY_NS:
                refs.append(ref())
                since = 0
        refs.append(ref())
        reps.append((sum(lat_ns) / 1e9, reference.scale(lat_ns, block, refs), outs,
                     float(np.median(refs))))
    return reps


def timed_verify(sk, workload: str, seconds: float, cycle) -> dict:
    reps = measure(_step(sk, workload), cycle, seconds)
    records = [[o.record for o in outs] for _, _, outs, _ in reps]
    failed = Counter()
    for _, _, outs, _ in reps:
        for o in outs:
            failed.update(o.failed)
    return {
        "reps": [(wall, lat, sum(o.passed_trials for o in outs), ref)
                 for wall, lat, outs, ref in reps],
        "attempted": len(reps) * sum(c.trials for c in cycle),
        "failed": failed,
        "digest": _digest([c.__dict__ for c in cycle] + records[0]),
        # every repetition runs the same calls with the same seeds
        "deterministic": all(r == records[0] for r in records),
    }


def timed_single(sk, seconds: float, pool) -> dict:
    step = _step(sk, "single-call")
    # keep the outputs of the first pass; later passes keep only exceptions
    reps = measure(step, pool, seconds,
                   slim=lambda rep, out: out if rep == 0 or not isinstance(out, str) else None)
    first = reps[0][2]
    bad = _check_pool(sk, pool, first)
    again = [_outcome_key(step(req)) for req in pool]
    failed, out_reps = Counter(), []
    for wall, lat, outs, ref in reps:
        nbad = 0
        for i, out in enumerate(outs):
            cls = bad.get(i) or (type(out).__name__ if isinstance(out, Exception) else None)
            if cls:
                failed[(pool[i].op, pool[i].g, pool[i].h, cls)] += 1
                nbad += 1
        out_reps.append((wall, lat, len(pool) - nbad, ref))
    return {
        "reps": out_reps,
        "attempted": len(reps) * len(pool),
        "failed": failed,
        "digest": _digest([r.__dict__ for r in pool] + [_outcome_key(o) for o in first]),
        "deterministic": again == [_outcome_key(o) for o in first],
    }


def call_ns(reps) -> np.ndarray:
    """Each call's median latency over the repetitions, at the reference speed.

    Every repetition issues the same calls with the same inputs.
    """
    return np.median(np.array([lat for _, lat, *_ in reps], dtype=float), axis=0)


def end_to_end(run: dict, setup_s: list[float]) -> dict:
    """Rates and latencies at the reference speed (see reference.py).

    Latencies are each call's median over the repetitions; rates divide one
    repetition's work by the sum of those latencies.
    """
    reps = run["reps"]
    med_ns = call_ns(reps)
    busy_s = float(med_ns.sum()) / 1e9
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "passed_trials_per_s": (min(passed for _, _, passed, _ in reps) / busy_s, "1/s"),
        "calls_per_s": (len(med_ns) / busy_s, "1/s"),
        "call_us_p50": (float(np.percentile(med_ns, 50)) / 1e3, "us"),
        "call_us_p99": (float(np.percentile(med_ns, 99)) / 1e3, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# ---------------------------------------------------------------------------
# traced runs


def traced_ops(workload: str, inputs) -> list:
    """Single-call: the whole pool.  Verify: the first call of the cycle for
    each (suite, shape), up to three for the finite-difference suites."""
    if workload == "single-call":
        return inputs
    keep = 1 if workload == "verify-algebraic" else 3
    seen, out = Counter(), []
    for call in inputs:
        key = (call.suite, call.g, call.h)
        if seen[key] < keep:
            seen[key] += 1
            out.append(call)
    return out


def _traced_pass(step, ops, tracer):
    """Run the op list once under the tracer; returns (wall seconds, outcomes)."""
    outs = []
    gc.collect()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        tracer.op = i
        outs.append(step(op))
    return time.perf_counter() - start, outs


def traced(sk, workload: str, seconds: float, inputs) -> dict:
    ops = traced_ops(workload, inputs)
    step = _step(sk, workload)
    # untraced first, for `seconds`; each op is timed at its median repetition
    reps = measure(step, ops, seconds, slim=lambda rep, out: out if rep == 0 else None)
    plain_outs = reps[0][2]
    plain_times = call_ns(reps) / 1e9
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, traced_outs = _traced_pass(step, ops, tracer)
    finally:
        tracer.uninstall()

    failed = Counter()
    if workload == "single-call":
        keys = [_outcome_key(o) for o in plain_outs]
        same = keys == [_outcome_key(o) for o in traced_outs]
        for i, cls in _check_pool(sk, ops, plain_outs).items():
            failed[(ops[i].op, ops[i].g, ops[i].h, cls)] += 1
        attempted = len(ops)
    else:
        keys = [o.record for o in plain_outs]
        same = keys == [o.record for o in traced_outs]
        for o in plain_outs:
            failed.update(o.failed)
        attempted = sum(c.trials for c in ops)
    metrics, absent = per_layer.metrics(tracer, workload, ops, plain_times)
    # against the last untraced repetition, the one nearest in time
    metrics["trace_overhead_frac"] = (traced_wall / reps[-1][0] - 1.0, "frac")
    return {
        "metrics": metrics, "absent": absent, "attempted": attempted, "failed": failed,
        "deterministic": same, "digest": _digest([op.__dict__ for op in ops] + keys),
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sk = common.import_sjkit()
    except (ImportError, common.SetupError) as exc:
        print(f"perfbench: cannot load the program under test: {exc}", file=sys.stderr)
        return 2

    env = common.environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    inputs = workloads.setup(sk, args.workload, args.seed)

    if args.trace:
        res = traced(sk, args.workload, args.seconds, inputs)
        metrics = res["metrics"]
    else:
        setup_s, setup_raw = setup_seconds(args.workload, args.seed)
        if args.workload == "single-call":
            res = timed_single(sk, args.seconds, inputs)
        else:
            res = timed_verify(sk, args.workload, args.seconds, inputs)
        metrics = end_to_end(res, setup_s)
        walls = [wall for wall, *_ in res["reps"]]
        refs = [ref for *_, ref in res["reps"]]
        print(f"setup_s per probe: {' '.join(f'{t:.4f}' for t in setup_s)}"
              f"  (as measured: {' '.join(f'{t:.4f}' for t in setup_raw)})")
        print(f"repetitions {len(walls)}  calls {sum(len(lat) for _, lat, *_ in res['reps'])}"
              f"  wall_s {' '.join(f'{w:.3f}' for w in walls)}")
        print(f"reference block us (scaled times use {reference.REF_NS / 1e3:g}):"
              f" {' '.join(f'{r / 1e3:.0f}' for r in refs)}")

    failed = sum(res["failed"].values())
    fail_frac = failed / res["attempted"]
    table = _failures_table(res["failed"])
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric fail_frac {fail_frac:.6g} frac  ({failed} of {res['attempted']})")
    for row in table:
        print(f"failure {' '.join(map(str, row['where']))} {row['class']}: {row['count']}")
    print(f"report_digest {res['digest']}")
    print(f"deterministic {str(res['deterministic']).lower()}")
    if args.trace:
        print(f"spans {len(res['tracer'])}  absent {' '.join(res['absent']) or '-'}")

    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        res["tracer"].write(stem.with_suffix(".spans.tsv.gz"))
    record = {
        "workload": args.workload, "env": env, "seconds": args.seconds,
        "metrics": result_metrics, "fail_frac": fail_frac, "failures": table,
        "digest": res["digest"], "deterministic": res["deterministic"],
        "absent": res.get("absent", []),
        "reference_block_ns": [ref for *_, ref in res["reps"]] if not args.trace else [],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": bool(res["deterministic"]),
        "attempted": int(res["attempted"]),
        "failed": int(failed),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
