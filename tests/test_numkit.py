import numpy as np
import pytest

from sjkit.numkit import (
    ConditioningError,
    DimensionError,
    PD_MIN_EIG,
    _block,
    bracket,
    frob,
    guarded_rsolve,
    hermitian_pd_margin,
    rel_error,
    symmetry_defect,
)


def test_bracket_identity():
    np.testing.assert_allclose(bracket(np.eye(2), np.eye(2)), np.eye(2))


def test_bracket_zero():
    np.testing.assert_allclose(bracket(np.eye(2), np.zeros((2, 2))), np.zeros((2, 2)))


def test_bracket_scalar():
    np.testing.assert_allclose(bracket([[2]], [[3]]), [[18]])


def test_bracket_rejects_mismatch():
    with pytest.raises(DimensionError):
        bracket(np.eye(2), np.zeros((3, 3)))


def test_bracket_transpose_and_symmetry_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k, l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        b = rng.normal(size=(k, l)) + 1j * rng.normal(size=(k, l))
        np.testing.assert_allclose(bracket(a, b).T, bracket(a.T, b), atol=1e-12)
        s = a + a.T
        res = bracket(s, b)
        np.testing.assert_allclose(res, res.T, atol=1e-12)


def test_is_symmetric_cases():
    assert symmetry_defect(np.eye(2)) == 0
    assert symmetry_defect(np.array([[0, 1], [-1, 0]])) > 1e-9
    assert symmetry_defect(np.array([[1, 2 + 1j], [2 + 1j, 3]])) == 0


def test_is_hermitian_pd_cases():
    assert hermitian_pd_margin(np.eye(2)) > PD_MIN_EIG
    assert not hermitian_pd_margin(-np.eye(2)) > PD_MIN_EIG
    w = 0.3 * np.eye(2)
    m = np.eye(2) - w @ w.conj()
    assert hermitian_pd_margin(m) > PD_MIN_EIG
    assert hermitian_pd_margin(m) == pytest.approx(0.91)


def test_pd_congruence_invariance():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        r = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = r.conj().T @ r + 0.5 * np.eye(n)
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + np.eye(n)
        if abs(np.linalg.det(s)) < 1e-3:
            continue
        assert hermitian_pd_margin(m) > PD_MIN_EIG
        assert hermitian_pd_margin(s.conj().T @ m @ s) > PD_MIN_EIG


def test_rel_close_cases():
    i = np.eye(2)
    assert rel_error(i, i) == 0
    assert rel_error(i, 2 * i) > 1e-9
    assert rel_error(i, i + 1e-12 * np.ones((2, 2))) <= 1e-9


def test_rel_close_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        rel_error(np.eye(2), np.eye(3))



def test_guarded_solve_raises_on_ill_conditioning():
    den = np.diag([1e13, 1.0]).astype(complex)
    with pytest.raises(ConditioningError):
        guarded_rsolve(np.eye(2), den)


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _grids(g, h, rng):
    """Every block grid the library assembles, on random blocks of its shapes."""
    def r(m, n):
        return rng.uniform(-1, 1, (m, n))

    def c(m, n):
        return r(m, n) + 1j * r(m, n)

    i, z = np.eye(g), np.zeros((g, g))
    cg = c(g, g)
    return [
        [[z, i], [-i, z]],
        [[i, i], [1j * i, -1j * i]],
        [[r(g, g).T, -r(g, g).T], [-r(g, g).T, r(g, g).T]],
        [[cg, c(g, g)], [cg.conj(), cg.T.conj()]],
        [[i, c(g, g)], [z, i]],
        [[c(g, g), z], [z, c(g, g)]],
        [[i, z], [c(g, g), i]],
        [[r(g, g), np.zeros((g, h)), r(g, g), r(g, h)],
         [r(h, g), np.eye(h), r(h, g), r(h, h)],
         [r(g, g), np.zeros((g, h)), r(g, g), r(g, h)],
         [np.zeros((h, g)), np.zeros((h, h)), np.zeros((h, g)), np.eye(h)]],
        [[c(g, g), c(h, g).T], [c(h, g), np.eye(h) + 0.5j * r(h, h)]],
        [[r(g, g)[::-1], c(g, 2 * g)[:, ::2]], [r(h, g), c(h, g)]],
    ]


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (2, 2), (4, 3)])
def test_block_matches_np_block(g, h):
    rng = np.random.default_rng(10 * g + h)
    for grid in _grids(g, h, rng):
        # the same grid transposed, so that every block is Fortran-ordered
        for grid in (grid, [[b.T for b in col] for col in zip(*grid)]):
            got, want = _block(grid), np.block(grid)
            _assert_same_bytes(got, want)
            assert got.flags.f_contiguous == want.flags.f_contiguous
            assert got.flags.c_contiguous == want.flags.c_contiguous


def test_block_rejects_ragged_grids():
    with pytest.raises(DimensionError):
        _block([[np.eye(2), np.eye(2)], [np.eye(2), np.eye(3)]])
    with pytest.raises(ValueError):
        _block([[np.eye(2), np.eye(2)], [np.eye(2)]])


def test_frob_matches_linalg_norm():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 6))
    z = x + 1j * rng.normal(size=(5, 6))
    cases = [x, z, x.T, z.T, x[::2, 1::3], z[::-1, ::2], z.real, z.imag,
             np.arange(12).reshape(3, 4), np.zeros((0, 3)), np.zeros((0, 3), complex),
             np.array([[np.inf, 1.0]]), np.array([[np.nan + 1j]]), x.astype(np.float32), x[0], z[:, 1]]
    for n in range(1, 25):
        y = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
        cases += [y, y + 1j * rng.normal(size=(n, n)), y.T[::2]]
    for a in cases:
        want = float(np.linalg.norm(a))
        got = frob(a)
        assert type(got) is float
        assert np.array([got]).tobytes() == np.array([want]).tobytes()
    assert frob([[3, 4]]) == 5.0 and frob(-2.0) == 2.0 and frob([1j, 0]) == 1.0
