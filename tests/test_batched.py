"""The (..., r, c) batch convention: a batched kernel gives every slice the
bits of the 2-d call, and a guard that fails on one slice raises for the
batch, naming that slice."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sjkit import suites
from sjkit.groups import SymplecticMatrix, sample_element
from sjkit.numkit import (
    ConditioningError,
    DomainError,
    _fail,
    frob,
    guarded_rsolve,
    hermitian_pd_margin,
    rel_error,
    stack,
    symmetry_defect,
)
from sjkit.suites import SUITES, run_suite, trial_seed

ALGEBRAIC = [name for name, (fn, _) in SUITES.items() if isinstance(fn, suites._Batched)]
SHAPES = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_the_six_algebraic_suites_are_batched():
    assert ALGEBRAIC == ["group-axioms", "theta-hom", "compat-29", "compat-37",
                         "hc-reconstruct", "cocycle"]


@pytest.mark.parametrize("g,h", SHAPES)
@pytest.mark.parametrize("name", ALGEBRAIC)
def test_batched_suite_matches_trials_one_at_a_time(name, g, h):
    suite = SUITES[name][0]
    seeds = [trial_seed(5, i) for i in range(10)]
    batched = suite(g, h, seeds)
    assert batched.shape == (10,)
    alone = [suite.evaluate(*suite.draw(g, h, s)) for s in seeds]  # unbatched, 2-d holders
    assert all(type(r) in (float, np.float64) for r in alone)
    assert _bits(batched) == _bits(alone)
    assert _bits(np.concatenate([suite(g, h, [s]) for s in seeds])) == _bits(alone)


def test_trials_past_one_chunk_match_trials_one_at_a_time(monkeypatch):
    suite = SUITES["compat-29"][0]
    seeds = [trial_seed(2, i) for i in range(suites._CHUNK + 6)]
    stacked = []
    inner = suites.stack
    monkeypatch.setattr(suites, "stack", lambda items: stacked.append(len(items)) or inner(items))
    batched = suite(1, 1, seeds)
    assert stacked == [suites._CHUNK] * 2 + [6] * 2  # two kinds, two chunks
    assert _bits(batched) == _bits([suite.evaluate(*suite.draw(1, 1, s)) for s in seeds])


def test_a_failing_slice_past_the_first_chunk_names_its_chunk():
    def evaluate(m):  # fails on trial 67, slice 3 of the second chunk
        _fail(np.arange(len(m.m)) == 3 if len(m.m) < suites._CHUNK else False, DomainError,
              "bad trial")
        return np.zeros(len(m.m))
    with pytest.raises(DomainError, match=r"bad trial \(slice 3\), counting slices from trial 64"):
        suites._Batched(("sp",), evaluate)(1, 1, list(range(suites._CHUNK + 6)))


def _views(rng, b, r, c):
    """A batch of complex (r, c) matrices, and views of it in several layouts."""
    z = rng.normal(size=(b, r, c)) + 1j * rng.normal(size=(b, r, c))
    wide = rng.normal(size=(b, r, 2 * c)) + 1j * rng.normal(size=(b, r, 2 * c))
    return [z, z.mT, z[:, ::-1], wide[..., ::2], wide[..., c:], z.real, z.mT.imag]


@pytest.mark.parametrize("r,c", [(1, 1), (1, 4), (3, 3), (4, 2), (9, 9)])
def test_numkit_helpers_match_their_per_slice_results(r, c):
    rng = np.random.default_rng(10 * r + c)
    for x in _views(rng, 5, r, c):
        assert _bits(frob(x)) == _bits([frob(s) for s in x])
        y = x + 1e-3 * rng.normal(size=x.shape)
        assert _bits(rel_error(x, y)) == _bits([rel_error(s, t) for s, t in zip(x, y)])
        if x.shape[-1] == x.shape[-2]:
            assert _bits(symmetry_defect(x)) == _bits([symmetry_defect(s) for s in x])
            h = (x @ x.conj().mT + np.eye(x.shape[-1])).astype(complex)
            h[2, 0, -1] += 1j  # one slice that is not Hermitian
            num = rng.normal(size=(5, 2, x.shape[-1])) + 0j
            for m in (h, h.mT, h[::-1]):  # and a transposed and a reversed view
                got = hermitian_pd_margin(m)
                assert np.isneginf(got).sum() == 1
                assert _bits(got) == _bits([hermitian_pd_margin(s) for s in m])
                want = np.stack([guarded_rsolve(n, s) for n, s in zip(num, m)])
                assert guarded_rsolve(num, m).tobytes() == want.tobytes()


def test_frob_of_a_2d_input_is_a_float_and_of_a_batch_an_array():
    z = np.ones((3, 2, 2))
    assert type(frob(z[0])) is float
    assert frob(z).shape == (3,)
    assert frob(np.ones((2, 3, 2, 2))).shape == (2, 3)


def test_one_singular_denominator_fails_the_batch_naming_it():
    den = np.stack([np.eye(2), np.eye(2), np.diag([1.0, 0.0]), np.eye(2)]).astype(complex)
    with pytest.raises(ConditioningError, match=r"\(slice 2\)"):
        guarded_rsolve(np.ones((4, 1, 2)), den)
    den[2] = np.eye(2)
    guarded_rsolve(np.ones((4, 1, 2)), den)


def test_one_non_symplectic_slice_fails_the_batch_naming_it():
    ms = [sample_element("sp", 2, 1, seed=s).m.real for s in range(4)]
    ms[1] = ms[1] + 0.1 * np.eye(4)
    with pytest.raises(DomainError, match=r"not symplectic.*\(slice 1\)"):
        SymplecticMatrix(np.stack(ms))
    SymplecticMatrix(np.stack(ms[:1] + ms[2:]))


def test_stack_builds_one_holder_without_validating_again():
    els = [sample_element("gstarj", 2, 2, seed=s) for s in range(3)]
    batch = stack(els)
    assert (batch.g, batch.h) == (2, 2)
    assert batch.gs.p.shape == (3, 2, 2) and batch.hc.zeta.shape == (3, 2, 2)
    assert not batch.gs.p.flags.writeable
    np.testing.assert_array_equal(batch.hc.xi[1], els[1].hc.xi)


@pytest.mark.parametrize("name", ALGEBRAIC)
def test_ten_trials_take_the_guards_of_one(monkeypatch, name):
    guards = []
    inner = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: guards.append(1) or inner(*a, **k))
    counts = []
    for trials in (1, 10):
        guards.clear()
        assert run_suite(name, 2, 2, trials=trials, seed=3).passed
        counts.append(len(guards))
    assert counts[0] == counts[1]


def test_max_residual_reports_a_nan_in_any_position(monkeypatch):
    for residuals in ([0.1, np.nan], [np.nan, 0.1]):
        monkeypatch.setitem(SUITES, "compat-29", (lambda g, h, seeds, r=residuals: r, 1e-9))
        rep = run_suite("compat-29", 1, 1, trials=2, seed=0)
        assert np.isnan(rep.max_residual)
        assert not rep.passed and len(rep.failures) == 2


def test_python_m_sjkit_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "sjkit", "verify", "--suite", "all", "--trials", "1"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
