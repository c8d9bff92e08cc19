"""The (..., r, c) batch convention: a batched kernel gives every slice the
bits of the 2-d call, and a guard that fails on one slice raises for the
batch, naming that slice.  The samplers draw a batch of seeds in one holder,
the metrics and the volume density take such batches, the suites evaluate a
chunk of trials in one pass, and the Laplacians evaluate their displaced
points in one batch."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sjkit import geometry, groups, spaces, suites
from sjkit.geometry import (
    TEST_FIELDS,
    MetricParams,
    _abs_det2,
    laplacian_disk,
    laplacian_sj,
    laplacian_siegel,
    metric_disk,
    metric_siegel,
    metric_sj,
    pullback_metric_disk,
    sample_tangent,
    volume_density,
)
from sjkit.automorphy import IndexMatrix, Representation, j_factor, verify_cocycle
from sjkit.decomp import decompose_full, kc_component
from sjkit.groups import (
    SymplecticMatrix,
    _uniforms,
    gstarj_mul,
    heisenberg_mul,
    jacobi_mul,
    sample_element,
)
from sjkit.numkit import (
    ConditioningError,
    DimensionError,
    DomainError,
    Holder,
    _ensure,
    _slice_holder,
    _stack_holders,
    frob,
    guarded_rsolve,
    hermitian_pd_margin,
    rel_error,
    symmetry_defect,
)
from sjkit.spaces import (
    DiskPoint,
    SiegelJacobiPoint,
    SiegelPoint,
    act_disk,
    act_jacobi,
    act_jacobi_disk,
    act_siegel,
    cayley,
    check_compatibility,
    partial_cayley,
    sample_point,
)
from sjkit.suites import SUITES, run_suite, trial_seed

ALGEBRAIC = ["group-axioms", "theta-hom", "compat-29", "compat-37", "hc-reconstruct", "cocycle"]
# the suites that evaluate a chunk of trials in one pass
BATCHED = [name for name, (fn, _) in SUITES.items() if type(fn) is suites._Batched]
SHAPES = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_the_six_algebraic_suites_are_batched():
    assert set(ALGEBRAIC) < set(BATCHED)


def _runners(name: str) -> list:
    """The runners of a suite: laplacian-invariance has one per test field."""
    return list(suites._LAPLACIANS) if name == "laplacian-invariance" else [SUITES[name][0]]


def test_every_suite_runs_on_the_one_runner():
    assert [name for name in SUITES if name not in BATCHED] == ["laplacian-invariance"]
    assert "trial" not in suites._FAMILY
    # a runner per test field, its samples set by the field's domain
    runners = _runners("laplacian-invariance")
    assert [type(r) for r in runners] == [suites._Batched] * len(TEST_FIELDS)
    assert [r.evaluate.args for r in runners] == [(f,) for f in TEST_FIELDS]
    assert {f.domain: r.kinds for f, r in zip(TEST_FIELDS, runners)} == {
        "disk": ("gstar", "disk"), "sj": ("jacobi", "siegel_jacobi"), "siegel": ("sp", "siegel")}
    assert [f.name for f in TEST_FIELDS if f.domain == "siegel"] == ["trace-re-base", "logdet-y"]
    # trial s on the runner of its test field, TEST_FIELDS[s % 6], one trial per call
    seeds = [trial_seed(1, i) for i in range(8)]
    assert {s % 6 for s in seeds} == set(range(6))
    want = [runners[s % 6](1, 1, [s])[0] for s in seeds]
    assert _bits(SUITES["laplacian-invariance"][0](1, 1, seeds)) == _bits(want)


def _sample(kind: str, g: int, h: int, seed):
    """The public sampler's draw of kind on a seed or a sequence of seeds."""
    if kind.startswith("tangent"):
        return sample_tangent(g, h if kind == "tangent_jacobi" else None, seed)
    return _sampler(kind)(kind, g, h, seed)


def _draw_alone(suite, g, h, s) -> tuple:
    """A trial's samples as unbatched holders, each kind drawn with its int seed."""
    return tuple(_sample(kind, g, h, s + k) for k, kind in enumerate(suite.kinds))


def _rows(draws: list) -> list[int]:
    """The number of (seed, tag) rows of each stream pass counted in draws:
    the keys groups._stream takes, one int or an array of them."""
    return [np.size(args[0]) for args in draws]


@pytest.mark.parametrize("g,h", SHAPES)
@pytest.mark.parametrize("name", BATCHED)
def test_batched_suite_matches_trials_one_at_a_time(count_calls, name, g, h):
    suite = SUITES[name][0]
    seeds = [trial_seed(5, i) for i in range(10)]
    alone = [suite.evaluate(*_draw_alone(suite, g, h, s)) for s in seeds]  # unbatched, 2-d holders
    assert all(type(r) in (float, np.float64) for r in alone)
    evaluations, counted = _counting(suite)
    draws = count_calls("groups._stream")
    batched = counted(g, h, seeds)
    # one stream pass for every family, on ten seeds per offset of a kind
    assert _rows(draws) == [10 * len(suite.kinds)]
    assert evaluations == [1] and len(batched) == 10  # one pass, no trial replayed
    assert _bits(batched) == _bits(alone)
    one_at_a_time = []
    for s in seeds:
        draws.clear()
        one_at_a_time.append(suite(g, h, [s]))
        assert _rows(draws) == [len(suite.kinds)]  # the same pass, a row per offset
    assert all(type(r) in (float, np.float64) for (r,) in one_at_a_time)
    assert _bits(np.concatenate(one_at_a_time)) == _bits(alone)


def _counting(suite) -> tuple[list, suites._Batched]:
    """The suite with an evaluate that records each of its calls, and that record."""
    calls = []
    return calls, dataclasses.replace(
        suite, evaluate=lambda *batch: calls.append(1) or suite.evaluate(*batch))


def test_trials_past_one_chunk_match_trials_one_at_a_time(count_calls):
    suite = SUITES["compat-29"][0]
    seeds = [trial_seed(2, i) for i in range(suites._CHUNK + 6)]
    draws = count_calls("groups._stream")
    for g, h in [(1, 1), (2, 1), (3, 2)]:
        want = [suite.evaluate(*_draw_alone(suite, g, h, s)) for s in seeds]
        draws.clear()
        batched = suite(g, h, seeds)
        # one pass per chunk, on the rows of both families: the word's sp and the disk's disk
        assert _rows(draws) == [2 * suites._CHUNK, 2 * 6]
        assert _bits(batched) == _bits(want)


def _raise_on_trial_67(monkeypatch, name: str, k: int) -> None:
    """Run the suite with an evaluate that raises on trial 67's sample at
    offset k (slice 3 of the second chunk): that trial is replayed alone and
    recorded as a failure, and every other residual keeps its bits."""
    inner = SUITES[name][0]
    seeds = [trial_seed(2, i) for i in range(suites._CHUNK + 6)]
    for g, h in [(1, 1), (2, 1), (3, 2)]:
        bad = _arrays(_sample(inner.kinds[k], g, h, seeds[67] + k))[0]

        def evaluate(*batch, bad=bad):
            _ensure((_arrays(batch[k])[0] != bad).any(axis=(-2, -1)), DomainError, "bad trial")
            return inner.evaluate(*batch)

        calls, suite = _counting(dataclasses.replace(inner, evaluate=evaluate))
        got = suite(g, h, seeds)
        assert len(calls) == 2 + 6  # a pass per chunk, then the second chunk trial by trial
        assert type(got[67]) is DomainError and str(got[67]) == "bad trial"  # no "(slice 3)"
        want = inner(g, h, seeds)
        assert _bits(got[:67] + got[68:]) == _bits(want[:67] + want[68:])
        monkeypatch.setitem(SUITES, name, (suite, 1e-9))
        (failure,) = run_suite(name, g, h, trials=len(seeds), seed=2).failures
        assert failure["seed"] == seeds[67] and np.isnan(failure["residual"])
        assert failure["error"] == "DomainError: bad trial"


def test_a_raising_slice_is_replayed_alone_and_recorded_as_its_trial(monkeypatch):
    _raise_on_trial_67(monkeypatch, "compat-29", 1)  # the disk point


def test_a_raising_slice_of_a_repeated_kind_is_replayed_alone(monkeypatch):
    # the second of the three Heisenberg samples: the middle third of their one draw
    assert SUITES["group-axioms"][0].kinds[3:6] == ("heisenberg",) * 3
    _raise_on_trial_67(monkeypatch, "group-axioms", 4)


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


@pytest.mark.parametrize("name", BATCHED)
def test_ten_trials_take_the_guards_of_one(guards, name):
    counts = []
    for trials in (1, 10):
        guards.clear()
        assert run_suite(name, 2, 2, trials=trials, seed=3).passed
        counts.append(len(guards))
    assert counts[0] == counts[1]


def _j_factor(a, p):
    return tuple(j_factor(IndexMatrix(np.eye(a.h)), rep, a, p)
                 for rep in (Representation("det_power", 2), Representation("standard")))


# each function of two holders whose batches must broadcast, and the kinds it takes
_PAIRWISE = [(heisenberg_mul, "heisenberg", "heisenberg"), (jacobi_mul, "jacobi", "jacobi"),
             (gstarj_mul, "gstarj", "gstarj"), (act_siegel, "sp", "siegel"),
             (act_disk, "gstar", "disk"), (act_jacobi, "jacobi", "siegel_jacobi"),
             (act_jacobi_disk, "gstarj", "disk_jacobi"), (decompose_full, "gstarj", "disk_jacobi"),
             (kc_component, "gstarj", "disk_jacobi"), (_j_factor, "gstarj", "disk_jacobi"),
             (check_compatibility, "jacobi", "disk_jacobi")]


def _result_arrays(x) -> list:
    """Every array of a result, whether a holder, a dataclass of arrays, a tuple or a value."""
    if isinstance(x, Holder):
        return _arrays(x)
    if dataclasses.is_dataclass(x):
        return [a for f in dataclasses.fields(x) for a in _result_arrays(getattr(x, f.name))]
    if isinstance(x, tuple):
        return [a for y in x for a in _result_arrays(y)]
    return [np.asarray(x)]


@pytest.mark.parametrize("fn,kind_a,kind_b", _PAIRWISE,
                         ids=[fn.__name__.lstrip("_") for fn, *_ in _PAIRWISE])
def test_batches_that_do_not_broadcast_raise_naming_both_shapes(fn, kind_a, kind_b):
    with pytest.raises(DimensionError, match=r"^batch \(2,\) does not broadcast with batch \(3,\)$"):
        fn(_sample(kind_a, 2, 1, [1, 2]), _sample(kind_b, 2, 1, [1, 2, 3]))
    # a 2-d operand or a batch of one broadcasts: each slice has the bits of its 2-d call
    pick = lambda seeds, k: seeds if isinstance(seeds, int) else seeds[k % len(seeds)]  # noqa: E731
    for seeds_a, seeds_b in [(1, [1, 2, 3]), ([1, 2, 3], 4), ([1], [1, 2, 3]), ([1, 2, 3], [4])]:
        got = _result_arrays(fn(_sample(kind_a, 2, 1, seeds_a), _sample(kind_b, 2, 1, seeds_b)))
        alone = [_result_arrays(fn(_sample(kind_a, 2, 1, pick(seeds_a, k)),
                                   _sample(kind_b, 2, 1, pick(seeds_b, k)))) for k in range(3)]
        for x, *want in zip(got, *alone, strict=True):
            assert x.shape == (3,) + want[0].shape and x.tobytes() == np.stack(want).tobytes()


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


# -- samplers: per-seed draws, one batched construction per call ---------------

ELEMENT_KINDS = ["sp", "heisenberg", "jacobi", "gstar", "gstarj", "kstarj"]
POINT_KINDS = ["siegel", "disk", "siegel_jacobi", "disk_jacobi"]
TANGENT_KINDS = ["tangent", "tangent_jacobi"]
SAMPLE_SHAPES = [(1, 1), (2, 1), (3, 2), (4, 3)]


def _classed_arrays(x) -> list[tuple]:
    """(class of the holder that stores it, array) for every array a holder
    stores, nested holders included, in slot order."""
    out = []
    for name in type(x).__slots__:
        v = getattr(x, name)
        out += [(type(x), v)] if isinstance(v, np.ndarray) else \
            _classed_arrays(v) if isinstance(v, Holder) else []
    return out


def _arrays(x) -> list:
    """Every array a holder stores, nested holders included, in slot order."""
    return [a for _, a in _classed_arrays(x)]


def _sampler(kind):
    return sample_point if kind in POINT_KINDS else sample_element


def _word(kind: str, seed: int, g: int) -> list[int]:
    """The generator kinds of a seed's symplectic word, read from its stream
    the way the sampler reads them: u[0] sets the length, u[1 + k] the kind
    of step k (the blocks that follow do not move them, whatever g is)."""
    u = _uniforms(seed, groups._KIND_TAG[kind], 9 + 8 * g * g)
    return [int(4 * x) for x in u[1:5 + int(5 * u[0])]]


@pytest.mark.parametrize("g,h", SAMPLE_SHAPES)
@pytest.mark.parametrize("kind", ELEMENT_KINDS + POINT_KINDS + TANGENT_KINDS)
def test_a_batched_draw_is_the_draws_of_its_seeds_stacked(kind, g, h):
    chunks = [[41], list(range(40)), [trial_seed(9, i) for i in range(suites._CHUNK + 6)]]
    for seeds in chunks:
        batch = _sample(kind, g, h, seeds)
        alone = [_sample(kind, g, h, s) for s in seeds]
        assert (batch.g, getattr(batch, "h", h)) == (g, h)
        for got, *want in zip(_arrays(batch), *map(_arrays, alone), strict=True):
            assert got.shape == (len(seeds),) + want[0].shape and want[0].ndim == 2
            assert got.tobytes() == np.stack(want).tobytes()
            assert not got.flags.writeable


@pytest.mark.parametrize("g,h", SAMPLE_SHAPES)
@pytest.mark.parametrize("kind", ELEMENT_KINDS + POINT_KINDS + TANGENT_KINDS)
def test_a_slice_of_a_batch_is_the_batch_of_its_seeds(kind, g, h):
    seeds = [trial_seed(6, i) for i in range(12)]
    batch = _sample(kind, g, h, seeds)
    flags = [a.flags.writeable for a in _arrays(batch)]
    for rows in (slice(0, 5), slice(5, 12), slice(11, 12)):
        got = _slice_holder(batch, rows)
        want = _sample(kind, g, h, seeds[rows])
        assert type(got) is type(want) and (got.g, getattr(got, "h", h)) == (g, h)
        for x, y, whole in zip(_arrays(got), _arrays(want), _arrays(batch), strict=True):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
            assert not x.flags.writeable and x.base is not None and np.shares_memory(x, whole)
    assert [a.flags.writeable for a in _arrays(batch)] == flags  # the batch is left as it was
    with pytest.raises(DimensionError, match="no batch axis"):
        _slice_holder(_sample(kind, g, h, seeds[0]), slice(0, 1))


@pytest.mark.parametrize("g,h", SAMPLE_SHAPES)
@pytest.mark.parametrize("kind", ELEMENT_KINDS + POINT_KINDS + TANGENT_KINDS)
def test_a_stack_of_draws_is_the_batch_of_their_seeds(kind, g, h):
    seeds = [trial_seed(7, i) for i in range(3)]
    alone = [_sample(kind, g, h, s) for s in seeds]
    flags = [a.flags.writeable for x in alone for a in _arrays(x)]
    got, want = _stack_holders(*alone), _sample(kind, g, h, seeds)
    assert type(got) is type(want) and (got.g, getattr(got, "h", h)) == (g, h)
    if kind == "tangent":
        assert got.dfiber is None
    for x, y in zip(_arrays(got), _arrays(want), strict=True):
        assert x.shape == y.shape and x.tobytes() == y.tobytes() and not x.flags.writeable
    assert [a.flags.writeable for x in alone for a in _arrays(x)] == flags
    for k, x in enumerate(alone):  # slicing undoes the stack
        back = _slice_holder(got, slice(k, k + 1))
        assert [a.tobytes() for a in _arrays(back)] == [a.tobytes() for a in _arrays(x)]


@pytest.mark.parametrize("kind", ELEMENT_KINDS + POINT_KINDS + TANGENT_KINDS)
def test_a_stack_broadcasts_a_2d_holder_against_batched_ones(kind):
    one, batch = _sample(kind, 2, 1, 5), _sample(kind, 2, 1, [6, 7, 8])
    got = _stack_holders(batch, one, batch)
    assert type(got) is type(one)
    for x, b, o in zip(_arrays(got), _arrays(batch), _arrays(one), strict=True):
        assert x.shape == (3, 3) + o.shape and not x.flags.writeable
        assert x[0].tobytes() == x[2].tobytes() == b.tobytes()
        assert all(x[1, k].tobytes() == o.tobytes() for k in range(3))
    # batches that do not broadcast, or matrices of another size, still raise
    with pytest.raises(ValueError, match=r"cannot be broadcast"):
        _stack_holders(batch, _sample(kind, 2, 1, [1, 2]))
    for other in (_sample(kind, 3, 1, 5), _sample(kind, 2, 2, 5)):  # another g, another h
        if [x.shape for x in _arrays(other)] != [x.shape[1:] for x in _arrays(batch)]:
            with pytest.raises(ValueError, match=r"inhomogeneous shape"):
                _stack_holders(batch, other)


@pytest.mark.parametrize("seeds", [(1, [2, 3, 4], 5), ([1, 2, 3], 4, 5), (1, 2, [5, 6, 7]),
                                   ([1], [2, 3, 4], 5), ([1, 2, 3], 4, [5]),
                                   (1, [2, 3, 4], [5, 6, 7])])
def test_verify_cocycle_broadcasts_its_operands_slice_by_slice(seeds):
    # the one kc_component call stacks (g1 g2, g1, g2) and (p, g2 p, p), whose
    # batches differ when one operand is 2-d; each slice keeps its 2-d bits
    indexes = [IndexMatrix(np.eye(2)), IndexMatrix(np.zeros((2, 2)))]
    reps = [Representation("det_power", 2), Representation("standard")]
    kinds = ("gstarj", "gstarj", "disk_jacobi")
    got = verify_cocycle(indexes, reps, *(_sample(k, 2, 2, s) for k, s in zip(kinds, seeds)))
    pick = lambda s, k: s if isinstance(s, int) else s[k % len(s)]  # noqa: E731
    want = [verify_cocycle(indexes, reps, *(_sample(kind, 2, 2, pick(s, k))
                                            for kind, s in zip(kinds, seeds))) for k in range(3)]
    assert np.shape(got) == (3,) and _bits(got) == _bits(want)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["sp", "jacobi", "gstar", "gstarj"])
def test_the_forty_seed_chunk_has_words_of_every_length_and_generator(kind, g):
    # the chunk range(40) of the equality test above
    words = [_word(kind, s, g) for s in range(40)]
    assert {len(w) for w in words} == {4, 5, 6, 7, 8}
    assert {k for w in words for k in w} == {0, 1, 2, 3}


def test_a_scale_point_eight_draw_keeps_its_bits():
    # the sha256 of these draws from the counter-based streams
    digest = hashlib.sha256()
    for kind in ("sp", "gstar", "jacobi", "gstarj"):
        for g, h in [(1, 1), (2, 1), (4, 3)]:
            for seed in range(5):
                for a in _arrays(sample_element(kind, g, h, seed, scale=0.8)):
                    digest.update(a.tobytes())
    assert digest.hexdigest() == "20aa578e0b3aefeba39efdd132f4e634c3e5128a880396e93aaa94d20d9ac142"


@pytest.mark.parametrize("seed", [[], [[1, 2]], np.zeros((2, 2), dtype=int)])
def test_a_seed_list_must_be_one_non_empty_sequence(seed):
    for kind in ("sp", "siegel"):
        with pytest.raises(DimensionError, match="non-empty sequence"):
            _sampler(kind)(kind, 2, 1, seed)


@pytest.mark.parametrize("draw", [
    lambda: sample_tangent(0), lambda: sample_tangent(2, 0), lambda: sample_tangent(-1),
    lambda: sample_tangent(2, 1.5), lambda: sample_element("sp", 1.5),
    lambda: sample_element("sp", True), lambda: sample_element("jacobi", 2, 0),
    lambda: sample_point("siegel", "2"), lambda: sample_point("disk_jacobi", 1, np.int64(0)),
], ids=["tangent-g0", "tangent-h0", "tangent-g-1", "tangent-h1.5", "sp-g1.5", "sp-gTrue",
        "jacobi-h0", "siegel-g-str", "disk_jacobi-h-np0"])
def test_a_sampler_refuses_a_dimension_that_is_not_an_int_of_at_least_one(draw):
    with pytest.raises(DimensionError, match=r"must be an int >= 1"):
        draw()


def test_a_sampler_takes_numpy_int_dimensions():
    for kind in ("jacobi", "siegel_jacobi", "tangent_jacobi"):
        got, want = _sample(kind, np.int64(2), np.int32(1), 3), _sample(kind, 2, 1, 3)
        assert [a.tobytes() for a in _arrays(got)] == [a.tobytes() for a in _arrays(want)]


def _count_checks(count_calls, monkeypatch) -> dict:
    """Class name -> the list of its counted checks: each SymplecticMatrix
    validation, and each sampled Siegel or disk base's one positivity check,
    a spaces._positive call made by spaces._sample_points."""
    counted = {"SymplecticMatrix": count_calls("groups.SymplecticMatrix.validate"),
               "SiegelPoint": [], "DiskPoint": []}
    positive = spaces._positive

    def counted_positive(cls, m):
        if sys._getframe(1).f_code is spaces._sample_points.__code__:
            counted[cls.__name__].append(m)
        return positive(cls, m)

    monkeypatch.setattr(spaces, "_positive", counted_positive)
    return counted


def _counts(counted: dict) -> dict:
    return {name: len(calls) for name, calls in counted.items()}


def test_each_kind_is_validated_once_per_chunk(count_calls, monkeypatch):
    kinds = ("sp", "jacobi", "gstar", "gstarj", "siegel", "disk", "siegel_jacobi", "disk_jacobi")
    counted = _count_checks(count_calls, monkeypatch)
    suite = suites._Batched(kinds, lambda *batch: np.zeros(batch[0].m.shape[:-2]))
    for trials, chunks in [(suites._CHUNK + 6, 2), (1, 1)]:
        for calls in counted.values():
            calls.clear()
        assert len(suite(2, 1, list(range(trials)))) == trials
        # one word for the four kinds on it, one Siegel and one disk base for two each
        assert _counts(counted) == {"SymplecticMatrix": chunks, "SiegelPoint": chunks,
                                    "DiskPoint": chunks}
    for calls in counted.values():
        calls.clear()
    for kind in kinds:
        _sampler(kind)(kind, 2, 1, 5)
    assert _counts(counted) == {"SymplecticMatrix": 4, "SiegelPoint": 2, "DiskPoint": 2}


def test_a_corrupted_word_still_fails_its_validation(count_calls, monkeypatch):
    # the sampled word is assembled uncoerced but still validated, once per draw: with
    # its shear blocks left unsymmetrized, a word with a shear step is not symplectic
    validations = count_calls("groups.SymplecticMatrix.validate")
    seeds = list(range(12))
    sheared = [s for s in seeds if {0, 1} & set(_word("sp", s, 2))]
    assert 0 < len(sheared) < len(seeds)
    monkeypatch.setattr(groups, "_sym", lambda s: s)
    for s in seeds:
        if s in sheared:
            with pytest.raises(DomainError, match="^matrix is not symplectic within tolerance$"):
                sample_element("sp", 2, 1, s)
        else:
            sample_element("sp", 2, 1, s)
    assert len(validations) == len(seeds)
    # a suite's chunk fails as one draw, and each trial replayed alone fails or not as above
    runner = suites._Batched(("sp",), lambda m: np.zeros(m.m.shape[:-2]))
    validations.clear()
    got = runner(2, 1, seeds)
    assert [isinstance(r, DomainError) for r in got] == [s in sheared for s in seeds]
    assert len(validations) == 1 + len(seeds)


def _draw_counts(count_calls, monkeypatch, run) -> dict:
    """The calls each draw function and check makes in run(), which returns
    whether its trials passed."""
    counted = _count_checks(count_calls, monkeypatch) | {
        fn: count_calls(fn) for fn in
        ("groups._stream", "groups._sample_symplectic", "groups._sample_heisenberg")}
    assert run()
    return _counts(counted)


def _suite_counts(count_calls, monkeypatch, name: str, g: int, h: int) -> dict:
    """The calls each draw function and check makes in one one-trial call of a
    suite."""
    return _draw_counts(count_calls, monkeypatch,
                        lambda: run_suite(name, g, h, trials=1, seed=4).passed)


def test_a_metric_invariance_trial_draws_each_family_once(count_calls, monkeypatch):
    # 6 samples in four families from one stream pass: the word's jacobi and
    # gstarj, both with a Heisenberg part, the Siegel base's siegel_jacobi, the
    # disk base's disk_jacobi and two tangent vectors
    assert _suite_counts(count_calls, monkeypatch, "metric-invariance", 2, 2) == {
        "groups._stream": 1, "groups._sample_symplectic": 1, "groups._sample_heisenberg": 1,
        "SymplecticMatrix": 1, "SiegelPoint": 1, "DiskPoint": 1}


def test_a_metric_invariance_trial_makes_one_metric_call_per_model(count_calls, guards):
    # the two Jacobi maps, one partial_cayley on the bounded-model pair, then the
    # disk's and the Siegel-Jacobi metric once each on its stack, Siegel space
    # read off the latter's A-term: five guards, one per map and metric call
    calls = {fn: count_calls(fn) for fn in ("geometry.metric_disk", "geometry._metric_sj_terms",
                                            "spaces.partial_cayley", "spaces.act_jacobi",
                                            "spaces.act_jacobi_disk")}
    unused = {fn: count_calls(fn) for fn in ("geometry.metric_siegel", "spaces.act_siegel",
                                             "spaces.act_disk", "spaces.cayley")}
    assert run_suite("metric-invariance", 2, 2, trials=1, seed=4).passed
    assert _counts(calls) == dict.fromkeys(calls, 1)
    assert _counts(unused) == dict.fromkeys(unused, 0)
    assert len(guards) == 5


def test_a_metric_invariance_trial_tests_positivity_alone(count_calls):
    # every point the trial checks is built exactly symmetric, so no Hermitian test
    # is made again, and each eigensolve is kept: one per sampled base and map image;
    # of the sampled elements only the word is validated
    calls = {fn: count_calls(f"numkit.{fn}") for fn in ("hermitian_pd_margin", "_eigvalsh", "frob")}
    assert run_suite("metric-invariance", 2, 2, trials=1, seed=4).passed
    assert _counts(calls) == {"hermitian_pd_margin": 0, "_eigvalsh": 5, "frob": 9}


def test_a_volume_invariance_trial_draws_as_before(count_calls, monkeypatch):
    # a jacobi element and a siegel_jacobi point, one row each of one stream pass
    assert _suite_counts(count_calls, monkeypatch, "volume-invariance", 2, 2) == {
        "groups._stream": 1, "groups._sample_symplectic": 1, "groups._sample_heisenberg": 1,
        "SymplecticMatrix": 1, "SiegelPoint": 1, "DiskPoint": 0}


def test_a_laplacian_trial_of_a_field_of_omega_alone_draws_each_family_once(count_calls,
                                                                             monkeypatch):
    # an sp element, a word with no Heisenberg part, and a siegel point, from one pass
    (k,) = [k for k, f in enumerate(TEST_FIELDS) if f.name == "logdet-y"]
    run = lambda: suites._LAPLACIANS[k](2, 2, [6 * 7 + k])[0] <= 1e-3  # noqa: E731
    assert _draw_counts(count_calls, monkeypatch, run) == {
        "groups._stream": 1, "groups._sample_symplectic": 1, "groups._sample_heisenberg": 0,
        "SymplecticMatrix": 1, "SiegelPoint": 1, "DiskPoint": 0}


@pytest.mark.parametrize("seeds", [
    {"sp": [1, 2], "gstar": 7, "jacobi": [3, 4], "gstarj": [5, 6]},
    {"gstar": [8, 9, 10], "gstarj": 11, "sp": 12, "jacobi": [13]},
    {"sp": 14, "jacobi": 15},
], ids=["heisenberg-kinds-last", "mixed", "sp-first"])
def test_a_word_draw_in_any_order_of_kinds_gives_each_kind_its_public_draw(count_calls, seeds):
    words, parts = count_calls("groups._sample_symplectic"), count_calls("groups._sample_heisenberg")
    # the kinds' rows one after another, an int seed's as one row at an int index
    width, blocks, spans = groups._element_width(2, 1, seeds), [], {}
    for kind, s in seeds.items():
        at, u = sum(map(len, blocks)), _uniforms(s, groups._KIND_TAG[kind], width)
        spans[kind] = at if u.ndim == 1 else slice(at, at + len(u))
        blocks.append(np.atleast_2d(u))
    got = groups._sample_elements(2, 1, np.concatenate(blocks), spans)
    # one word and one Heisenberg part, each built on every row of the draw
    assert len(words) == len(parts) == 1
    for kind, s in seeds.items():
        want = sample_element(kind, 2, 1, s)
        assert [(a.shape, a.tobytes()) for a in _arrays(got[kind])] == \
            [(a.shape, a.tobytes()) for a in _arrays(want)]


def _outcomes(results: list) -> list:
    """A runner's results as comparable values: a residual's bytes, an error's class and text."""
    return [(type(r).__name__, str(r)) if isinstance(r, Exception) else _bits(r) for r in results]


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1)])
@pytest.mark.parametrize("k", range(len(TEST_FIELDS)))
def test_a_laplacian_runner_given_several_seeds_replays_them_one_at_a_time(g, h, k):
    runner, seeds = suites._LAPLACIANS[k], [6 * j + k for j in range(7, 10)]
    # the chunk's batched points stop at the Laplacian, which takes one point
    with pytest.raises(DimensionError, match="takes one point, not a batch of shape"):
        runner.evaluate(*runner._draw(g, h, seeds))
    assert _outcomes(runner(g, h, seeds)) == _outcomes([runner.alone(g, h, s) for s in seeds])


def test_the_suites_call_no_public_sampler(count_calls):
    calls = [count_calls(fn) for fn in
             ("groups.sample_element", "spaces.sample_point", "geometry.sample_tangent")]
    assert all(r.passed for r in suites.run_all(trials=2))
    assert calls == [[], [], []]


@pytest.mark.parametrize("g,h", SHAPES)
@pytest.mark.parametrize("name", list(SUITES))
def test_every_sample_of_a_family_draw_has_the_bytes_of_its_int_seed_draw(name, g, h):
    for suite, n in [(suite, n) for suite in _runners(name) for n in (1, 3)]:
        chunk = [trial_seed(8, i) for i in range(n)]
        for k, (kind, got) in enumerate(zip(suite.kinds, suite._draw(g, h, chunk), strict=True)):
            alone = [_sample(kind, g, h, s + k) for s in chunk]
            assert type(got) is type(alone[0])
            for x, *want in zip(_arrays(got), *map(_arrays, alone), strict=True):
                assert want[0].ndim == 2 and x.shape == (() if n == 1 else (n,)) + want[0].shape
                assert x.tobytes() == np.stack(want).tobytes()


# every kind a suite draws, some at a second offset too, so a kind's batch is
# also read as int rows and as slices
_ALL_KINDS = tuple(suites._FAMILY) + ("jacobi", "siegel_jacobi", "tangent", "heisenberg")


def _frozen_alone(a: np.ndarray) -> bool:
    """Read-only and C-contiguous, with no writeable array behind it (numpy
    gives a view its owner as base), so no write can reach it."""
    return (not a.flags.writeable and a.flags.c_contiguous
            and (a.base is None or not a.base.flags.writeable))


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (4, 3)])
def test_an_assembled_draw_is_the_public_draw_frozen(g, h):
    # the samplers assemble their holders from the arrays they make, with no
    # coercion: a suite's draw of each kind, alone and batched, has the public
    # sampler's bytes and dtypes, and each array part is frozen and unshared
    runner = suites._Batched(_ALL_KINDS, None)
    for chunk in ([trial_seed(3, 0)], [trial_seed(3, i) for i in range(4)]):
        for k, (kind, got) in enumerate(zip(_ALL_KINDS, runner._draw(g, h, chunk), strict=True)):
            seeds = chunk[0] + k if len(chunk) == 1 else [s + k for s in chunk]
            want = _sample(kind, g, h, seeds)
            assert type(got) is type(want) and (got.g, getattr(got, "h", h)) == (g, h)
            if kind == "tangent":
                assert got.dfiber is None and want.dfiber is None
            for (cls, x), y in zip(_classed_arrays(got), _arrays(want), strict=True):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), kind
                # the dtype the public constructors coerce to: real Heisenberg parts
                assert x.dtype == (float if cls is groups.HeisenbergElement else complex), kind
                assert _frozen_alone(y), kind
                # the suite's samples are views of its kinds' batches, frozen in turn
                assert _frozen_alone(x if x.base is None else x.base), kind


def test_a_chunk_shape_is_planned_once_and_its_seeds_keyed_in_one_mix(count_calls):
    runner = suites._Batched(_ALL_KINDS, None)
    keyed = count_calls("groups._key")
    shapes = [(1, 1, 1), (2, 1, 1), (1, 1, 5), (1, 1, 1), (2, 1, 5), (2, 1, 1)]
    for g, h, n in shapes:
        plan = runner._plan(g, h, n)
        runner._draw(g, h, [trial_seed(4, i) for i in range(n)])
        assert runner._plan(g, h, n) is plan
    # a plan per (g, h, chunk length) met, and no seed keyed alone below 2**64
    assert set(runner._plans) == set(shapes) and keyed == []
    for bad in ([-1], [3, True], [2.0]):  # every seed still goes through _seed
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            runner._draw(1, 1, bad)


@pytest.mark.parametrize("top", [2 ** 64 - 3, 2 ** 64, 2 ** 70 + 5])
def test_a_chunk_with_seeds_past_two_to_the_64_keeps_their_streams(count_calls, top):
    # s + k of 2**64 and above takes _key's loop over the higher words, row by row
    runner = suites._Batched(("jacobi", "siegel_jacobi", "jacobi", "tangent"), None)
    keyed = count_calls("groups._key")
    for chunk in ([top], [5, top, top + 1]):
        keyed.clear()
        got = runner._draw(2, 1, chunk)
        assert len(keyed) == len(chunk) * len(runner.kinds)
        for k, (kind, x) in enumerate(zip(runner.kinds, got, strict=True)):
            want = _sample(kind, 2, 1, chunk[0] + k if len(chunk) == 1 else [s + k for s in chunk])
            assert [a.tobytes() for a in _arrays(x)] == [a.tobytes() for a in _arrays(want)]


# -- tangent vectors, metrics and volume: one batched pass per call ----------


def _tangent_bytes(v) -> bytes:
    return v.dbase.tobytes() + (b"" if v.dfiber is None else v.dfiber.tobytes())


@pytest.mark.parametrize("g,h", SAMPLE_SHAPES)
def test_batched_tangents_metrics_and_volume_match_their_slices(g, h):
    seeds = [trial_seed(4, i) for i in range(24)]
    for fiber in (None, h):
        batch = sample_tangent(g, fiber, seeds)
        alone = [sample_tangent(g, fiber, s) for s in seeds]
        assert _tangent_bytes(batch) == b"".join(np.stack(x).tobytes() for x in zip(
            *[(v.dbase,) if v.dfiber is None else (v.dbase, v.dfiber) for v in alone]))
    params = MetricParams(2.0, 0.5)
    cases = [(metric_siegel, "siegel", None), (metric_disk, "disk", None),
             (partial(metric_sj, params), "siegel_jacobi", h),
             (partial(pullback_metric_disk, params), "disk_jacobi", h)]
    for metric, kind, fiber in cases:
        p, v = sample_point(kind, g, h, [s + 1 for s in seeds]), sample_tangent(g, fiber, seeds)
        points = [sample_point(kind, g, h, s + 1) for s in seeds]
        want = [metric(q, sample_tangent(g, fiber, s)) for q, s in zip(points, seeds)]
        assert all(type(w) is float for w in want)
        assert _bits(metric(p, v)) == _bits(want), kind
        # an unbatched tangent vector broadcasts against the batch of points
        v0 = sample_tangent(g, fiber, seeds[0])
        assert _bits(metric(p, v0)) == _bits([metric(q, v0) for q in points]), kind
        # a stack of batches, (k, n, ...) as a metric-invariance chunk stacks its models
        stacked = [_stack_holders(*(_slice_holder(x, slice(k, k + 8)) for k in (0, 8, 16)))
                   for x in (p, v)]
        assert _bits(metric(*stacked)) == _bits(np.reshape(want, (3, 8))), kind
    a = sample_element("jacobi", g, h, seeds)
    p = sample_point("siegel_jacobi", g, h, [s + 1 for s in seeds])
    moved, (pushed,) = act_jacobi(a, p, dirs=[geometry._coordinate_dirs(p)])
    want_volume, want_det = [], []
    for s in seeds:
        q = sample_point("siegel_jacobi", g, h, s + 1)
        moved_q, (pushed_q,) = act_jacobi(sample_element("jacobi", g, h, s), q,
                                          dirs=[geometry._coordinate_dirs(q)])
        want_volume.append(volume_density(moved_q))
        want_det.append(_abs_det2(pushed_q))
    assert all(type(w) is float for w in want_volume + want_det)
    assert _bits(volume_density(moved)) == _bits(want_volume)
    assert _bits(_abs_det2(pushed)) == _bits(want_det)
    # the images and their points stacked on a leading axis: (2, n, ...)
    want_p = [volume_density(sample_point("siegel_jacobi", g, h, s + 1)) for s in seeds]
    assert _bits(volume_density(_stack_holders(moved, p))) == _bits([want_volume, want_p])


def test_volume_density_is_the_exp_of_a_log_density_finite_where_it_leaves_float_range():
    y = np.random.default_rng(0).uniform(0.05, 3.0, 5000)
    p = SiegelJacobiPoint(SiegelPoint(1j * y[:, None, None]), np.zeros((len(y), 3, 1)))
    want = [float(np.linalg.det(q)) ** -5 for q in p.base.y]
    np.testing.assert_allclose(volume_density(p), want, rtol=1e-14, atol=0)
    # det(Y) = 1e600 overflows and the density 1e-3600 underflows; the log stays finite
    big = SiegelJacobiPoint(SiegelPoint(1e150j * np.eye(4)), np.zeros((1, 4)))
    with pytest.raises(DomainError, match=r"= 0\.0 is not a positive finite number"):
        volume_density(big)
    assert geometry._log_volume_density(big) == pytest.approx(-6 * 4 * np.log(1e150), rel=1e-15)


# -- Laplacian stencils: one batched pass per Laplacian -----------------------

FD_SHAPES = [(1, 1), (2, 1), (3, 2), (4, 3)]


def _laplacian_point_by_point(f, p, frame, weights):
    """The Laplacian stencil evaluated one displaced point at a time: f(p),
    then p + s e_k for each frame direction e_k and s = t, -t, it, -it with
    the fixed step t, summed in that order, each direction's sum times its
    weight."""
    base, fiber = geometry._point_parts(p)
    t = geometry.FD_SECOND_STEP
    db, df = frame(base, fiber)
    f0 = f(p)
    total = 0.0
    for k in range(len(db)):
        second = 0.0
        for s in (t, -t, 1j * t, -1j * t):
            q = geometry._rebuild(p, base + s * db[k], fiber if df is None else fiber + s * df[k])
            second += f(q) - f0
        total += weights[k] * second
    return float(total / t**2)


def _centred(p):
    """A field that is 0 at p and of every size nearby, so that the order in
    which the stencil adds its differences shows in the last bits."""
    return lambda q: np.expm1(1e3 * np.trace(q.omega - p.omega, axis1=-2, axis2=-1).real)


def _laplacian_cases(g, h, seed):
    """(field, point, laplacian, its frame, its weights) for each test field
    and each Laplacian it lives on, with the field itself and with it after an
    action, and for a field centred at the point."""
    params = MetricParams(2.0, 0.5)
    a = sample_element("jacobi", g, h, seed)
    m = sample_element("sp", g, h, seed + 1)
    gs = sample_element("gstar", g, h, seed + 2)
    pj = sample_point("siegel_jacobi", g, h, seed + 3)
    ps = sample_point("siegel", g, h, seed + 4)
    pd = sample_point("disk", g, h, seed + 5)
    sj = (partial(laplacian_sj, params), geometry._sj_frame,
          [1 / params.a] * (g * (g + 1) // 2) + [1 / params.b] * (h * g))
    siegel = (laplacian_siegel, geometry._siegel_frame, [1.0] * (g * (g + 1) // 2))
    disk = (laplacian_disk, geometry._disk_frame, [1.0] * (g * (g + 1) // 2))
    yield (_centred(pj), pj) + sj
    yield (_centred(ps), ps) + siegel
    for f in TEST_FIELDS:
        if f.domain == "disk":
            yield (f, pd) + disk
            yield (lambda q, f=f: f(act_disk(gs, q)), pd) + disk
            continue
        yield (f, pj) + sj
        yield (lambda q, f=f: f(act_jacobi(a, q)), pj) + sj
        if f.domain == "siegel":
            yield (f, ps) + siegel
            yield (lambda q, f=f: f(act_siegel(m, q)), ps) + siegel


@pytest.mark.parametrize("g,h", FD_SHAPES)
def test_batched_laplacian_stencil_matches_points_one_at_a_time(g, h):
    cases = 0
    for seed in (0, 40):
        for f, p, laplacian, frame, weights in _laplacian_cases(g, h, seed):
            got = laplacian(f, p)
            assert type(got) is float
            assert got.hex() == _laplacian_point_by_point(f, p, frame, weights).hex()
            cases += 1
    # six fields on the Laplacians they live on (eight pairs), with and without an
    # action, and two centred fields
    assert cases == 2 * 18


# each test field written for one point, with numpy scalars
_SCALAR_FIELDS = {
    "trace-re-base": lambda p: float(np.trace(np.real(p.omega))),
    "logdet-y": lambda p: float(2 * np.log(np.diag(np.linalg.cholesky(np.imag(p.omega)))).sum()),
    "trace-yvv": lambda p: float(np.trace(np.imag(p.omega) @ np.imag(p.z).T @ np.imag(p.z))),
    "re-trace-z": lambda p: float(np.real(np.trace(p.z))),
    "abs2-trace-z": lambda p: float(abs(np.trace(p.z)) ** 2),
    "logdet-disk": lambda p: float(np.real(np.log(np.linalg.det(np.eye(p.g) - p.w @ p.w.conj())))),
}


@pytest.mark.parametrize("g,h", FD_SHAPES)
def test_test_fields_give_each_point_of_a_batch_its_scalar_bits(g, h):
    # enough points that np.abs for hypot, or x * x for pow, would show
    rng = np.random.default_rng(10 * g + h)
    n = 2000
    x, y = rng.uniform(-1, 1, (2, n, g, g))
    a = rng.uniform(-1, 1, (n, g, g))
    omega = (x + x.mT) / 2 + 1j * (a @ a.mT + 0.1 * np.eye(g))
    z = rng.uniform(-2, 2, (n, h, g)) + 1j * rng.uniform(-2, 2, (n, h, g))
    w = (x + 1j * y + (x + 1j * y).mT) / 2
    w = 0.9 * w / (1 + np.linalg.norm(w, 2, axis=(-2, -1)))[:, None, None]
    batches = {"sj": SiegelJacobiPoint(SiegelPoint(omega), z), "disk": DiskPoint(w),
               "siegel": SiegelPoint(omega)}
    points = {"sj": [SiegelJacobiPoint(SiegelPoint(o, validate=False), f)
                     for o, f in zip(omega, z)],
              "disk": [DiskPoint(m) for m in w],
              "siegel": [SiegelPoint(o, validate=False) for o in omega]}
    for f in TEST_FIELDS:
        got = f(batches[f.domain])
        assert got.shape == (n,)
        assert _bits(got) == _bits([_SCALAR_FIELDS[f.name](q) for q in points[f.domain]]), f.name


@pytest.mark.parametrize("field", [
    lambda q: 3.25,  # a constant
    lambda q: np.imag(q.omega[0, 0]),  # a per-point field reads row 0 of slice 0
    lambda q: np.imag(q.omega[..., :1, 0]),  # one value per point, in a column
    lambda q: np.imag(q.omega[:-1, 0, 0]),  # one value too few
], ids=["constant", "per-point", "column", "short"])
def test_a_field_of_the_wrong_shape_raises_naming_the_contract(field):
    p = sample_point("siegel_jacobi", 2, 1, seed=5)
    for laplacian in (laplacian_siegel, partial(laplacian_sj, MetricParams())):
        with pytest.raises(DimensionError, match=r"returns one value per point"):
            laplacian(field, p)


@pytest.mark.parametrize("g,h", [(1, 1), (2, 2), (4, 3)])
def test_a_laplacian_trial_calls_its_field_at_most_four_times_at_every_shape(monkeypatch, guards,
                                                                           g, h):
    fields, frames = [], []
    inner_call, inner_frame = geometry.ScalarField.__call__, geometry._sym_frame
    monkeypatch.setattr(geometry.ScalarField, "__call__",
                        lambda self, q: fields.append(1) or inner_call(self, q))
    monkeypatch.setattr(geometry, "_sym_frame", lambda *a: frames.append(1) or inner_frame(*a))
    for k in range(len(TEST_FIELDS)):  # the trial's field is its seed modulo six
        fields.clear()
        guards.clear()
        frames.clear()
        (res,) = suites._LAPLACIANS[k](g, h, [6 * 7 + k])
        assert type(res) in (float, np.float64)
        # one Laplacian of the field after the action, one of the field at the
        # image: one action of the stencil's batch and one of the point, and the
        # conditioning check of each Laplacian's frame
        assert len(fields) == len(guards) == len(frames) == 2
