import pytest

from sjkit.numkit import DomainError
from sjkit.suites import SUITES, run_suite, trial_seed


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
    r = run_suite("compat-29", 1, 1, trials=4, seed=7, tol=1e-30)
    assert not r.passed
    assert len(r.failures) == 4
    assert all(set(f) == {"seed", "residual"} for f in r.failures)
    assert [f["seed"] for f in r.failures] == [trial_seed(7, i) for i in range(4)]


def test_serial_and_parallel_agree():
    a = run_suite("theta-hom", 1, 1, trials=12, seed=3, jobs=1)
    b = run_suite("theta-hom", 1, 1, trials=12, seed=3, jobs=4)
    assert a.to_dict() == b.to_dict()


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
