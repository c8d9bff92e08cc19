import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from sjkit import geometry, groups, suites
from sjkit.automorphy import chi_character, rho_eval
from sjkit.cli import main
from sjkit.decomp import kc_component
from sjkit.groups import (
    GStarJacobiElement,
    HeisenbergElement,
    JacobiElement,
    embed_sp_gph,
    gstarj_inv,
    gstarj_mul,
    heisenberg_mul,
    jacobi_inv,
    jacobi_mul,
    sample_element,
    symplectic_j,
    theta,
    tstar_agreement_residual,
)
from sjkit.numkit import DimensionError, DomainError, _takes, rel_error
from sjkit.spaces import SiegelJacobiPoint, SiegelPoint, act_jacobi_disk, sample_point
from sjkit.suites import _GSTARJ, _HEIS, _JACOBI, SUITES, _dist, run_suite, trial_seed


def test_trial_seed_is_stable():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    assert trial_seed(42, 0) != trial_seed(42, 1)
    assert trial_seed(42, 0) != trial_seed(43, 0)


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("nope", 1, 1, 1, 0)


def test_report_shape_and_pass_invariant():
    r = run_suite("compat-29", 2, 1, trials=10, seed=7)
    assert r.passed == (len(r.failures) == 0)
    assert r.trials == 10
    assert r.tolerance == 1e-9
    assert r.max_residual <= r.tolerance


def test_failures_recorded_with_seeds():
    r = run_suite("compat-29", 2, 1, trials=4, seed=7, tol=1e-30)
    assert not r.passed
    assert len(r.failures) == 4
    assert all(set(f) == {"seed", "residual"} for f in r.failures)
    assert [f["seed"] for f in r.failures] == [trial_seed(7, i) for i in range(4)]


@pytest.mark.parametrize("kwargs", [
    {"trials": 0}, {"trials": -3},
    {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0}, {"tol": -1e-9},
], ids=["trials0", "trials-3", "tol-nan", "tol-inf", "tol0", "tol-neg"])
def test_run_suite_rejects_empty_runs_and_bad_tolerance(kwargs):
    with pytest.raises(DomainError):
        run_suite("compat-37", 1, 1, **{"trials": 2, "seed": 1, **kwargs})


@pytest.mark.parametrize("tol", [[1], "x", "1e-9", True, False, 1j, 10 ** 400, -1, 0],
                         ids=["list", "str", "numeric-str", "True", "False", "complex",
                              "huge-int", "int-neg", "int0"])
def test_run_suite_takes_only_a_positive_finite_real_tolerance(monkeypatch, tol):
    drawn = []
    monkeypatch.setattr(suites, "trial_seed", lambda *args: drawn.append(args))
    with pytest.raises(DomainError, match=r"tolerance must be a finite real number > 0"):
        run_suite("compat-29", tol=tol)
    assert drawn == []


@pytest.mark.parametrize("tol", [1, np.float64(1e-9), np.int64(2), Fraction(1, 10 ** 9)])
def test_run_suite_reads_any_positive_real_tolerance_as_a_float(tol):
    r = run_suite("compat-29", trials=2, seed=3, tol=tol)
    assert type(r.tolerance) is float and r.tolerance == float(tol)


@pytest.mark.parametrize("kwargs,error", [
    ({"g": 0}, DimensionError), ({"h": -1}, DimensionError), ({"g": 1.5}, DimensionError),
    ({"g": True}, DimensionError), ({"h": 2.0}, DimensionError), ({"h": "2"}, DimensionError),
    ({"trials": 2.5}, DomainError), ({"trials": True}, DomainError),
], ids=["g0", "h-1", "g1.5", "gTrue", "h2.0", "h-str", "trials2.5", "trialsTrue"])
def test_run_suite_checks_shapes_and_trials_before_any_seed_is_drawn(monkeypatch, kwargs, error):
    drawn = []
    monkeypatch.setattr(suites, "trial_seed", lambda *args: drawn.append(args))
    for name in ("compat-29", "metric-invariance"):
        with pytest.raises(error, match=r"must be an int >= 1"):
            run_suite(name, **{"g": 1, "h": 1, "trials": 2, **kwargs})
    assert drawn == []


@pytest.mark.parametrize("name", [["x"], {"compat-29": 1}, 5, None])
def test_run_suite_refuses_a_name_that_is_not_a_suite(name):
    with pytest.raises(DomainError, match=r"unknown suite"):
        run_suite(name)


def test_run_suite_takes_numpy_ints_and_reports_plain_ints():
    r = run_suite("compat-29", np.int64(2), np.int32(1), trials=np.int64(3), seed=7)
    assert (r.g, r.h, r.trials) == (2, 1, 3) and {type(x) for x in (r.g, r.h, r.trials)} == {int}
    assert r.to_dict() == run_suite("compat-29", 2, 1, trials=3, seed=7).to_dict()


def test_a_metric_trial_whose_image_fails_a_guard_is_recorded_naming_the_image(monkeypatch):
    # trial 1's Jacobi action takes its point to an unvalidated image whose base
    # has cond(Im(omega)) = 1e13, which only the metrics' guards refuse
    bad, inner = trial_seed(5, 1), suites.act_jacobi
    start = sample_point("siegel_jacobi", 2, 2, bad + 1).omega  # the trial's point: offset 1

    def act(a, p, *, dirs=None):
        out, pushed = inner(a, p, dirs=dirs)
        hit = np.all(p.omega == start, axis=(-2, -1))[..., None, None]
        image = np.where(hit, 1j * np.diag([1.0, 1e-13]), out.omega)
        return SiegelJacobiPoint(SiegelPoint(image, validate=False), out.z), pushed

    monkeypatch.setattr(suites, "act_jacobi", act)
    r = run_suite("metric-invariance", 2, 2, trials=3, seed=5)
    assert [f["seed"] for f in r.failures] == [bad] and np.isnan(r.failures[0]["residual"])
    error = r.failures[0]["error"]
    assert error.startswith("ConditioningError: Im(omega): condition number 1.000e+13 exceeds")
    assert error.endswith(" (slice 1)")


# one law call per product of the identity tree: the references the layered
# evaluation of group-axioms, theta-hom and cocycle must match bit for bit


def _group_axioms_per_product(a, b, c, ha, hb, hc, sa, sb, sc):
    e, ai = JacobiElement.identity(a.g, a.h), jacobi_inv(a)
    res = [_dist(_JACOBI, jacobi_mul(jacobi_mul(a, b), c), jacobi_mul(a, jacobi_mul(b, c))),
           _dist(_JACOBI, jacobi_mul(a, e), a), _dist(_JACOBI, jacobi_mul(e, a), a),
           _dist(_JACOBI, jacobi_mul(a, ai), e), _dist(_JACOBI, jacobi_mul(ai, a), e)]
    he = HeisenbergElement.identity(a.g, a.h)
    res += [_dist(_HEIS, heisenberg_mul(heisenberg_mul(ha, hb), hc),
                  heisenberg_mul(ha, heisenberg_mul(hb, hc))),
            _dist(_HEIS, heisenberg_mul(ha, he), ha)]
    se = GStarJacobiElement.identity(a.g, a.h)
    res += [_dist(_GSTARJ, gstarj_mul(gstarj_mul(sa, sb), sc), gstarj_mul(sa, gstarj_mul(sb, sc))),
            _dist(_GSTARJ, gstarj_mul(sa, se), sa), _dist(_GSTARJ, gstarj_mul(se, sa), sa),
            _dist(_GSTARJ, gstarj_mul(sa, gstarj_inv(sa)), se)]
    return np.max(res, axis=0)


def _theta_hom_per_product(a, b):
    res = [_dist(_GSTARJ, theta(jacobi_mul(a, b)), gstarj_mul(theta(a), theta(b))),
           tstar_agreement_residual(a)]
    ea, eb = embed_sp_gph(a), embed_sp_gph(b)
    res.append(rel_error(embed_sp_gph(jacobi_mul(a, b)), ea @ eb))
    j = symplectic_j(a.g + a.h)
    res.append(rel_error(ea.mT @ np.real(j) @ ea, np.real(j)))
    return np.max(res, axis=0)


def _verify_cocycle_per_product(indexes, reps, g1, g2, p):
    _takes("verify_cocycle", g1, GStarJacobiElement)
    _takes("verify_cocycle", g2, GStarJacobiElement)
    prod, moved = gstarj_mul(g1, g2), act_jacobi_disk(g2, p)
    parts = [kc_component(x, q)[1:] for x, q in ((prod, p), (g1, moved), (g2, p))]
    (_, k12), (_, k1), (_, k2) = parts
    res = [rel_error(k12, k1 + k2)]
    rhos = [[rho_eval(rep, d) for d, _ in parts] for rep in reps]
    for idx in indexes:
        c12, c1, c2 = (np.asarray(chi_character(idx, k))[..., None, None] for _, k in parts)
        for r12, r1, r2 in rhos:
            res.append(rel_error(c12 * r12, (c1 * r1) @ (c2 * r2)))
    return np.max(res, axis=0)


_PER_PRODUCT = {"group-axioms": _group_axioms_per_product, "theta-hom": _theta_hom_per_product}


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2), (4, 3)])
@pytest.mark.parametrize("name", ["group-axioms", "theta-hom", "cocycle"])
def test_layered_suites_keep_the_bits_of_one_law_call_per_product(monkeypatch, name, g, h):
    seeds = [trial_seed(9, i) for i in range(70)]  # two chunks: 64 and 6 trials
    suite = SUITES[name][0]
    got = [suite(g, h, seeds), [suite(g, h, [s])[0] for s in seeds]]
    if name == "cocycle":  # the suite's indexes and reps, through the reference
        monkeypatch.setattr(suites, "verify_cocycle", _verify_cocycle_per_product)
    else:
        suite = dataclasses.replace(suite, evaluate=_PER_PRODUCT[name])
    want = np.asarray(suite(g, h, seeds), dtype=float)
    assert np.all(want <= SUITES[name][1])
    for residuals in got:
        assert np.asarray(residuals, dtype=float).tobytes() == want.tobytes()


def test_a_failing_stacked_product_names_its_slice_and_keeps_its_class(monkeypatch):
    # trial 1's G*J product sa . e, slice 2 of the stack of group-axioms' first
    # gstarj_mul call, leaves the block form; the other trials pass
    bad, inner = trial_seed(4, 1), groups._big_product
    sa = sample_element("gstarj", 2, 1, bad + 6).gs.block()  # the trial's sa: offset 6

    def big_product(a, b):
        block, *rest = inner(a, b)
        if a[0].ndim > 2 and len(a[0]) == 5:  # the first layer: ab, bc, ae, ea, a a^-1
            hit = np.all(a[0][2] == sa, axis=(-2, -1))[..., None, None]
            block = block.copy()
            block[2, ..., 2:, :] += np.where(hit, 1.0, 0.0)
        return block, *rest

    monkeypatch.setattr(groups, "_big_product", big_product)
    r = run_suite("group-axioms", 2, 1, trials=3, seed=4)
    assert [f["seed"] for f in r.failures] == [bad] and np.isnan(r.failures[0]["residual"])
    assert r.failures[0]["error"] == ("ConsistencyError: product left the "
                                      "(P, Q; conj Q, conj P) block form (slice 2)")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_briefly(name):
    trials = 3 if name in ("laplacian-invariance", "metric-invariance") else 10
    r = run_suite(name, 1, 1, trials=trials, seed=5)
    assert r.passed, f"{name}: max residual {r.max_residual}"


def test_suites_pass_at_g2h2():
    for name in ("group-axioms", "theta-hom", "compat-37", "hc-reconstruct", "cocycle",
                 "laplacian-invariance"):
        r = run_suite(name, 2, 2, trials=5, seed=11)
        assert r.passed, f"{name}: max residual {r.max_residual}"


def test_algebraic_suites_assemble_no_np_block(monkeypatch):
    calls = []
    inner = np.block
    monkeypatch.setattr(np, "block", lambda *args, **kwargs: calls.append(1) or inner(*args, **kwargs))
    for name in ("group-axioms", "theta-hom", "compat-29", "compat-37", "hc-reconstruct", "cocycle"):
        assert run_suite(name, 2, 2, trials=1, seed=3).passed
    assert calls == []


def test_metric_and_volume_trials_take_no_finite_differences(guards):
    for seed in range(3):
        assert np.isfinite(SUITES["metric-invariance"][0](2, 2, [seed])).all()
        guards.clear()
        assert np.isfinite(SUITES["volume-invariance"][0](2, 2, [seed])).all()
        assert len(guards) == 1  # the one act_jacobi solve, which also returns J^-1


@pytest.mark.parametrize("g,h", [(2, 1), (3, 2)])
@pytest.mark.parametrize("name", ["metric-invariance", "volume-invariance"])
def test_exact_differential_suites_pass_at_g_ne_h(name, g, h):
    r = run_suite(name, g, h, trials=10, seed=17)
    assert r.tolerance == 1e-9
    assert r.passed, f"{name}: max residual {r.max_residual}"


def test_volume_invariance_is_relative_at_every_density(monkeypatch):
    # a Jacobian off by one part in a million fails every trial, densities below
    # 1 (down to about 1e-10 at (4,3)) included, where an absolute check passes some
    inner = suites._abs_det2
    monkeypatch.setattr(suites, "_abs_det2", lambda pushed: inner(pushed) * (1 + 1e-6))
    r = run_suite("volume-invariance", 4, 3, trials=300, seed=1)
    assert len(r.failures) == 300
    assert all(9.9e-7 < f["residual"] < 1.01e-6 for f in r.failures)


def test_a_trial_that_raises_is_a_recorded_failure_and_the_run_goes_on(monkeypatch, capsys):
    bad = trial_seed(29, 8)
    runners = list(suites._LAPLACIANS)
    runner = runners[bad % 6]  # the runner of trial 8's test field
    bad_point = sample_point(runner.kinds[1], 1, 1, bad + 1)

    def evaluate(a, p, *rest):  # trial 8 of this run raises
        if np.array_equal(geometry._point_parts(p)[0], geometry._point_parts(bad_point)[0]):
            raise DomainError("bad trial")
        return runner.evaluate(a, p, *rest)

    runners[bad % 6] = dataclasses.replace(runner, evaluate=evaluate)
    monkeypatch.setattr(suites, "_LAPLACIANS", tuple(runners))
    r = run_suite("laplacian-invariance", 1, 1, trials=30, seed=29)
    assert r.trials == 30 and not r.passed and np.isnan(r.max_residual)
    assert len(r.failures) == 1
    (failure,) = r.failures
    assert failure["seed"] == bad and np.isnan(failure["residual"])
    assert failure["error"] == "DomainError: bad trial"
    assert main(["verify", "--suite", "laplacian-invariance", "--g", "1", "--h", "1",
                 "--trials", "30", "--seed", "29"]) == 1
    out = json.loads(capsys.readouterr().out, parse_constant=_reject)  # strict JSON: no NaN
    assert out["failures"][0]["seed"] == trial_seed(29, 8)
    assert out["max_residual"] is None and out["failures"][0]["residual"] is None


@pytest.mark.parametrize("args", [
    ("laplacian-invariance", "1", "1", "30", "29"),
    ("laplacian-invariance", "4", "3", "30", "1"),
    ("all", "1", "1", "100", "42"),
])
def test_runs_with_laplacian_trials_near_the_boundary_pass(capsys, args):
    # each run has a trial whose image point lies within ten Euclidean steps of the boundary
    suite, g, h, trials, seed = args
    assert main(["verify", "--suite", suite, "--g", g, "--h", h, "--trials", trials,
                 "--seed", seed]) == 0


def _reject(name):
    raise ValueError(f"not JSON: {name}")
