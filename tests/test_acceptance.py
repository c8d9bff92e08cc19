"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here and matches the library defaults.
"""

import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

import sjkit
from fd_oracle import fd_jacobian_det, fd_pushforward
from sjkit.automorphy import IndexMatrix, Representation, verify_cocycle
from sjkit.decomp import component_residuals
from sjkit.geometry import (
    MetricParams,
    TEST_FIELDS,
    laplacian_disk,
    laplacian_sj,
    laplacian_siegel,
    metric_disk,
    metric_sj,
    metric_siegel,
    sample_tangent,
    volume_density,
)
from sjkit.groups import conjugate_by_T, sample_element, theta
from sjkit.spaces import (
    SiegelJacobiPoint,
    SiegelPoint,
    act_disk,
    act_jacobi,
    act_jacobi_disk,
    act_siegel,
    cayley,
    check_compatibility,
    sample_point,
)
from sjkit.suites import trial_seed


def report(num, desc, worst, bound, extra=""):
    ok = worst < bound
    line = f"criterion {num:2d} [{desc}]: {'PASS' if ok else 'FAIL'} " \
           f"(worst {worst:.3e} vs bound {bound:.1e}{extra})"
    print(line)
    assert ok, line
    return ok


def test_c01_partial_cayley_compatibility():
    start = time.perf_counter()
    worst = 0.0
    for g, h in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1)):
        for i in range(1000):
            s = trial_seed(101, i)
            a = sample_element("jacobi", g, h, seed=s)
            p = sample_point("disk_jacobi", g, h, seed=s + 1)
            worst = max(worst, check_compatibility(a, p))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(1, "action compatibility through the partial Cayley transform", worst, 1e-9,
           extra=f", {elapsed:.1f}s")


def test_c02_classical_compatibility():
    worst = 0.0
    for i in range(1000):
        g = 1 + i % 3
        s = trial_seed(102, i)
        m = sample_element("sp", g, 1, seed=s)
        w = sample_point("disk", g, 1, seed=s + 1)
        lhs = act_siegel(m, cayley(w))
        rhs = cayley(act_disk(conjugate_by_T(m), w))
        worst = max(worst, float(np.linalg.norm(lhs.omega - rhs.omega) /
                                 max(1, np.linalg.norm(lhs.omega))))
    report(2, "base-model compatibility (h-degenerate case)", worst, 1e-9)


def test_c03_theta_homomorphism_and_conjugation_blocks():
    from sjkit.suites import SUITES

    suite = SUITES["theta-hom"][0]
    worst = 0.0
    for g in (1, 2):
        for h in (1, 2):
            seeds = [trial_seed(103, i) for i in range(500)]
            worst = max(worst, float(np.max(suite(g, h, seeds))))
    report(3, "theta homomorphism + closed-form conjugation blocks", worst, 1e-9)


def test_c04_group_axioms():
    from sjkit.suites import SUITES

    suite = SUITES["group-axioms"][0]
    worst = 0.0
    for j, (g, h) in enumerate(((1, 1), (2, 1), (1, 2), (2, 2))):
        seeds = [trial_seed(104 + j, i) for i in range(125)]
        worst = max(worst, float(np.max(suite(g, h, seeds))))
    report(4, "group axioms for the three laws (500 triples)", worst, 1e-9)


def test_c05_harish_chandra_reconstruction():
    worst_recon, worst_sym, worst_kappa = 0.0, 0.0, 0.0
    for g in (1, 2):
        for h in (1, 2):
            for i in range(500):
                s = trial_seed(105, i)
                a = sample_element("gstarj", g, h, seed=s)
                p = sample_point("disk_jacobi", g, h, seed=s + 1)
                res = component_residuals(a, p)
                worst_recon = max(worst_recon, res["reconstruction"])
                worst_sym = max(worst_sym, res["pminus_symmetry"])
                worst_kappa = max(worst_kappa, res["kappa_agreement"])
    assert worst_sym < 1e-10, f"lower-coordinate symmetry {worst_sym:.3e}"
    assert worst_kappa < 1e-10, f"kappa_star disagreement {worst_kappa:.3e}"
    report(5, "Harish-Chandra triple-product reconstruction", worst_recon, 1e-9,
           extra=f"; sym {worst_sym:.1e}, kappa {worst_kappa:.1e} vs 1e-10")


def _rel(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def test_c06_metric_invariance():
    worst = 0.0
    for i in range(200):
        g = 1 + i % 2
        s = trial_seed(106, i)
        m = sample_element("sp", g, 1, seed=s)
        p = sample_point("siegel", g, 1, seed=s + 1)
        v = sample_tangent(g, None, seed=s + 2)
        worst = max(worst, _rel(metric_siegel(p, v),
                                metric_siegel(act_siegel(m, p),
                                              fd_pushforward(lambda q: act_siegel(m, q), p, v))))
        gs = conjugate_by_T(m)
        pd = sample_point("disk", g, 1, seed=s + 3)
        vd = sample_tangent(g, None, seed=s + 4)
        worst = max(worst, _rel(metric_disk(pd, vd),
                                metric_disk(act_disk(gs, pd),
                                            fd_pushforward(lambda q: act_disk(gs, q), pd, vd))))
        h = 1 + i % 2
        a = sample_element("jacobi", g, h, seed=s + 5)
        pj = sample_point("siegel_jacobi", g, h, seed=s + 6)
        vj = sample_tangent(g, h, seed=s + 7)
        movedp = act_jacobi(a, pj)
        movedv = fd_pushforward(lambda q: act_jacobi(a, q), pj, vj)
        for params in (MetricParams(1.0, 1.0), MetricParams(2.0, 0.5)):
            worst = max(worst, _rel(metric_sj(params, pj, vj),
                                    metric_sj(params, movedp, movedv)))
    report(6, "metric invariance (both models, both parameter sets)", worst, 1e-5)


def test_c07_laplacian_closed_values_and_invariance():
    p1 = SiegelPoint([[0.3 + 0.9j]])
    logy = lambda q: np.log(np.imag(q.omega[..., 0, 0]))
    closed1 = abs(laplacian_siegel(logy, p1) - (-1.0))
    pj = SiegelJacobiPoint(SiegelPoint([[0.5 + 1.2j]]), [[0.4 - 0.3j]])
    closed2 = abs(laplacian_sj(MetricParams(2.0, 1.0), logy, pj) - (-0.5))
    closed3 = abs(laplacian_sj(MetricParams(1.0, 1.0), logy, pj) - (-1.0))
    worst_closed = max(closed1, closed2, closed3)
    assert worst_closed < 1e-4, f"closed Laplacian values off by {worst_closed:.3e}"

    worst = 0.0
    params = MetricParams(1.0, 1.0)
    for f in TEST_FIELDS:
        for i in range(50):
            s = trial_seed(107, i)
            if f.domain == "disk":
                g = 1 + i % 2
                gs = sample_element("gstar", g, 1, seed=s)
                pd = sample_point("disk", g, 1, seed=s + 1)
                lhs = laplacian_disk(lambda q: f(act_disk(gs, q)), pd)
                rhs = laplacian_disk(f, act_disk(gs, pd))
            else:
                a = sample_element("jacobi", 1, 1, seed=s)
                pp = sample_point("siegel_jacobi", 1, 1, seed=s + 1)
                lhs = laplacian_sj(params, lambda q: f(act_jacobi(a, q)), pp)
                rhs = laplacian_sj(params, f, act_jacobi(a, pp))
            worst = max(worst, _rel(lhs, rhs))
    report(7, "Laplacian closed values and invariance (6-field catalog)", worst, 1e-3,
           extra=f"; closed values off by {worst_closed:.1e} vs 1e-4")


def test_c08_cayley_isometry():
    worst = 0.0
    for i in range(200):
        g = 1 + i % 3
        s = trial_seed(108, i)
        p = sample_point("disk", g, 1, seed=s)
        v = sample_tangent(g, None, seed=s + 1)
        lhs = metric_disk(p, v)
        rhs = metric_siegel(cayley(p), fd_pushforward(cayley, p, v))
        worst = max(worst, _rel(lhs, rhs))
    report(8, "Cayley isometry (the factor 4)", worst, 1e-5)


def test_c09_cocycles():
    worst = 0.0
    plan = (((1, 1), 200), ((2, 1), 100), ((1, 2), 100), ((2, 2), 100))
    for (g, h), n in plan:
        indexes = [
            IndexMatrix(np.zeros((h, h))),
            IndexMatrix(np.eye(h)),
            IndexMatrix(2.0 * np.eye(h) + 0.5 * (np.ones((h, h)) - np.eye(h)),
                        half_integral=True, psd=True),
        ]
        reps = [Representation("det_power", k) for k in (0, 1, 2)]
        for i in range(n):
            s = trial_seed(109, i)
            g1 = sample_element("gstarj", g, h, seed=s)
            g2 = sample_element("gstarj", g, h, seed=s + 1)
            p = sample_point("disk_jacobi", g, h, seed=s + 2)
            worst = max(worst, verify_cocycle(indexes, reps, g1, g2, p))
    report(9, "additive and multiplicative cocycles (500 trials)", worst, 1e-8)


def test_c10_volume_density_invariance():
    worst = 0.0
    for g, h in ((1, 1), (2, 1)):
        for i in range(100):
            s = trial_seed(110, i)
            a = sample_element("jacobi", g, h, seed=s)
            p = sample_point("siegel_jacobi", g, h, seed=s + 1)
            det_j = fd_jacobian_det(lambda q: act_jacobi(a, q), p)
            worst = max(worst, _rel(volume_density(act_jacobi(a, p)) * det_j,
                                    volume_density(p)))
    report(10, "volume density conservation under the action", worst, 1e-4)


def test_c11_domain_preservation():
    # all actions validate outputs; additionally check margins stay positive
    min_margin = np.inf
    for i in range(200):
        s = trial_seed(111, i)
        g, h = 1 + i % 2, 1 + (i // 2) % 2
        a = sample_element("jacobi", g, h, seed=s)
        p = sample_point("siegel_jacobi", g, h, seed=s + 1)
        min_margin = min(min_margin, act_jacobi(a, p).base.pd_margin())
        b = theta(a)
        pd = sample_point("disk_jacobi", g, h, seed=s + 2)
        min_margin = min(min_margin, act_jacobi_disk(b, pd).base.pd_margin())
        m = sample_element("sp", g, h, seed=s + 3)
        ps = sample_point("siegel", g, h, seed=s + 4)
        min_margin = min(min_margin, act_siegel(m, ps).pd_margin())
        w = sample_point("disk", g, h, seed=s + 5)
        min_margin = min(min_margin, act_disk(conjugate_by_T(m), w).pd_margin())
    ok = min_margin > 0
    print(f"criterion 11 [domain preservation]: {'PASS' if ok else 'FAIL'} "
          f"(min PD margin {min_margin:.3e} > 0)")
    assert ok


def test_c12_report_determinism():
    cmd = [sys.executable, "-m", "sjkit.cli", "verify", "--suite", "compat-37",
           "--g", "1", "--h", "1", "--trials", "50", "--seed", "42"]
    # the child imports this sjkit, from wherever the tests found it
    run = partial(subprocess.run, capture_output=True, check=True,
                  env=dict(os.environ, PYTHONPATH=str(Path(sjkit.__file__).parents[1])))
    first = run(cmd).stdout
    second = run(cmd).stdout
    cmd2 = [sys.executable, "-m", "sjkit.cli", "verify", "--suite", "hc-reconstruct",
            "--g", "2", "--h", "1", "--trials", "30", "--seed", "7"]
    third = run(cmd2).stdout
    fourth = run(cmd2).stdout
    ok = first == second and third == fourth and json.loads(first)["passed"]
    print(f"criterion 12 [report determinism across reruns]: {'PASS' if ok else 'FAIL'}")
    assert ok
