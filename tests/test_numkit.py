import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from sjkit import numkit
from sjkit.numkit import (
    ConditioningError,
    DimensionError,
    PD_MIN_EIG,
    _block,
    _cholesky,
    _det,
    _eigvalsh,
    _inv,
    _solve,
    _svdvals,
    bracket,
    frob,
    guarded_inv,
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


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 1e-3], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, np.nan]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([[1.0, np.inf], [np.inf, 1.0]]),
], ids=["not-hermitian", "nan", "inf-diagonal", "inf-offdiagonal"])
def test_a_slice_that_is_not_hermitian_or_not_finite_has_margin_minus_inf(bad):
    # with no RuntimeWarning: warnings are errors in this suite
    assert hermitian_pd_margin(bad) == -np.inf
    got = hermitian_pd_margin(np.stack([np.eye(2), bad, 2 * np.eye(2)]))
    assert got.tolist() == [1.0, -np.inf, 2.0]


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


@pytest.mark.parametrize("call", [
    lambda: guarded_inv(np.eye(3)[:2]),
    lambda: guarded_inv(np.ones((4, 1, 2))),
    lambda: guarded_rsolve(np.ones((2, 2)), np.eye(3)[:2]),
    lambda: guarded_rsolve(np.ones((2, 2)), np.eye(3)),
    lambda: guarded_rsolve(np.ones((4, 2, 3)), np.eye(2)),
    lambda: guarded_rsolve(np.ones((3, 2, 2)), np.ones((4, 2, 2)) + np.eye(2)),
], ids=["inv-2x3", "inv-batch-1x2", "rsolve-den-2x3", "rsolve-num-cols", "rsolve-batch-num-cols",
        "rsolve-batches-3-4"])
def test_guarded_solves_reject_nonconforming_shapes_before_lapack(monkeypatch, call):
    def no_lapack(*args):
        raise AssertionError("LAPACK was called")

    for name in ("_svdvals", "_inv", "_solve"):
        monkeypatch.setattr(numkit, name, no_lapack)
    with pytest.raises(DimensionError):
        call()


def test_guarded_rsolve_broadcasts_batches_that_broadcast():
    den = np.array([[2.0, 1.0], [0.0, 4.0]]) + np.zeros((3, 1, 2, 2))
    num = np.arange(8.0).reshape(4, 1, 2)
    want = np.stack([[guarded_rsolve(n, d) for n in num] for d in den[:, 0]])
    assert guarded_rsolve(num, den).tobytes() == want.tobytes()


def test_guarded_rsolve_takes_a_numerator_of_any_row_count():
    den = np.array([[2.0, 1.0], [0.0, 4.0]])
    num = np.arange(10.0).reshape(5, 2)
    np.testing.assert_allclose(guarded_rsolve(num, den) @ den, num, atol=1e-12)


# ---------------------------------------------------------------------------
# LAPACK kernels against the np.linalg functions they stand in for

def _svd_values(a):
    return np.linalg.svd(a, compute_uv=False)


_KERNELS = [  # (kernel, np.linalg counterpart, operands for an (..., n, n) matrix a)
    (_svdvals, _svd_values, lambda a: (a,)),
    (_eigvalsh, np.linalg.eigvalsh, lambda a: (a + a.conj().mT,)),
    (_inv, np.linalg.inv, lambda a: (a,)),
    (_solve, np.linalg.solve, lambda a: (a, a[..., ::-1, :].mT[..., :, :3])),
    (_det, np.linalg.det, lambda a: (a,)),
    (_cholesky, np.linalg.cholesky,
     lambda a: (a @ a.conj().mT + a.shape[-1] * np.eye(a.shape[-1]),)),
]
_KERNEL_IDS = [kernel.__name__[1:] for kernel, *_ in _KERNELS]


def _outcome(fn, *args):
    """fn(*args) as (dtype, shape, bytes), or as (exception class, message)."""
    try:
        r = np.asarray(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)
    return r.dtype, r.shape, r.tobytes()


@pytest.mark.parametrize("kernel,reference,operands", _KERNELS, ids=_KERNEL_IDS)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("batch", [(), (7,)], ids=["2d", "batch7"])
def test_each_kernel_gives_the_bytes_of_its_np_linalg_function(kernel, reference, operands,
                                                             dtype, batch):
    rng = np.random.default_rng(8)
    out_dtype = np.float64 if kernel in (_svdvals, _eigvalsh) else dtype
    for n in range(1, 9):
        a = rng.normal(size=batch + (n, n))
        if dtype is np.complex128:
            a = a + 1j * rng.normal(size=batch + (n, n))
        for x in (a, a.mT):  # C and Fortran order, as guarded_rsolve passes them
            args = operands(x)
            got = _outcome(kernel, *args)
            assert got == _outcome(reference, *args)
            assert got[0] == out_dtype


def test_a_2d_solve_broadcasts_against_a_batched_right_hand_side():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(5, 3, 2))
    assert _outcome(_solve, a, b) == _outcome(np.linalg.solve, a, b)
    assert _outcome(_solve, b[0, :2, :2], a[:2]) == _outcome(np.linalg.solve, b[0, :2, :2], a[:2])


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_a_singular_inverse_or_solve_raises_numpys_linalgerror(dtype):
    for a in (np.zeros((3, 3), dtype), np.ones((2, 2), dtype), np.zeros((4, 2, 2), dtype)):
        with pytest.raises(LinAlgError, match=r"^Singular matrix$"):
            _inv(a)
        with pytest.raises(LinAlgError, match=r"^Singular matrix$"):
            _solve(a, np.ones(a.shape, dtype))


@pytest.mark.parametrize("a", [
    -np.eye(2), np.diag([1.0, 0.0]), np.array([[1, 2], [2, 1]]) + 0j, np.zeros((3, 2, 2)),
], ids=["negative", "singular", "indefinite-complex", "batch-zero"])
def test_a_cholesky_of_a_matrix_not_pd_raises_what_np_linalg_raises(a):
    with pytest.raises(LinAlgError, match=r"^Matrix is not positive definite$"):
        _cholesky(a)
    assert _outcome(_cholesky, a) == _outcome(np.linalg.cholesky, a)


@pytest.mark.parametrize("a", [
    np.full((3, 3), np.nan), np.array([[1, np.nan], [np.nan, 1]]),
    np.full((2, 2), np.nan + 0j), np.array([[1, np.nan * 1j], [np.nan, 1]]),
    np.full((4, 2, 2), np.nan),
], ids=["all-nan", "offdiag-nan", "complex-nan", "complex-offdiag-nan", "batch-nan"])
def test_nan_input_to_an_eigen_or_singular_value_kernel_acts_as_np_linalg(a):
    for kernel, reference in ((_eigvalsh, np.linalg.eigvalsh), (_svdvals, _svd_values)):
        assert _outcome(kernel, a) == _outcome(reference, a)
    assert _outcome(_svdvals, a) == (LinAlgError, "SVD did not converge")


def test_no_kernel_warns_where_np_linalg_does_not():
    # overflow, underflow, singular, NaN, Inf and indefinite input, warnings raised as errors
    edge = [np.diag([1e300, 1e-300]), np.diag([1e-300, 1e-300]), np.zeros((2, 2)),
            np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), -np.eye(2), np.diag([1e200, 1e200])]
    for a in edge + [x.astype(complex) for x in edge]:
        for kernel, reference, _ in _KERNELS:
            args = (a, a) if kernel is _solve else (a,)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _outcome(kernel, *args)
                assert got == _outcome(reference, *args)
            # np.linalg.det sets no errstate, so an overflowing det warns in both
            warned = isinstance(got[0], type) and issubclass(got[0], Warning)
            assert not warned or kernel is _det


def test_a_failed_eigensolve_reads_as_a_conditioning_error(monkeypatch):
    def fail(a):
        raise LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(numkit, "_eigvalsh", fail)
    with pytest.raises(ConditioningError, match="eigenvalue iteration failed: Eigenvalues did not"):
        hermitian_pd_margin(np.eye(2))


# ---------------------------------------------------------------------------
# numkit owns every LAPACK call

_LAPACK_KERNELS = {"_svdvals", "_eigvalsh", "_inv", "_solve", "_det", "_cholesky"}
# (module, enclosing function, use) allowed besides the kernels' own gufunc calls
_ALLOWED = {("groups", "_sample_elements", "linalg.qr"), ("numkit", "frob", "linalg.norm"),
            ("numkit", "<module>", "import LinAlgError"),
            ("numkit", "<module>", "import _umath_linalg")}


def _linalg_uses(module: str, source: str) -> list:
    """(module, enclosing function, use) of each X.linalg.name and
    _umath_linalg.name reference and each import of or from numpy.linalg."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.value, (ast.Attribute, ast.Name)):
                owner = getattr(child.value, "attr", getattr(child.value, "id", None))
                if owner in ("linalg", "_umath_linalg"):
                    found.append((module, where, f"{owner}.{child.attr}"))
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("numpy.linalg"):
                found.extend((module, where, f"import {a.name}") for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module == "numpy":
                found.extend((module, where, "import linalg") for a in child.names
                             if a.name == "linalg")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named else where)

    visit(ast.parse(source), "<module>")
    return found


def _stray(uses: list) -> list:
    """The uses that break numkit's ownership of LAPACK."""
    return [(m, f, use) for m, f, use in uses
            if (m, f, use) not in _ALLOWED and use != "linalg.LinAlgError"
            and not (m == "numkit" and f in _LAPACK_KERNELS and use.startswith("_umath_linalg."))]


def test_numkit_kernels_make_every_lapack_call_in_the_library():
    sources = sorted(Path(numkit.__file__).parent.glob("*.py"))
    assert {p.stem for p in sources} >= {"numkit", "geometry", "groups", "spaces", "decomp"}
    uses = [u for p in sources for u in _linalg_uses(p.stem, p.read_text())]
    assert _stray(uses) == []
    assert {f for m, f, use in uses if use.startswith("_umath_linalg.")} == _LAPACK_KERNELS


@pytest.mark.parametrize("module,source", [
    ("geometry", "def f(a):\n    return np.linalg.inv(a)\n"),
    ("spaces", "import numpy\nx = numpy.linalg.svd(a, compute_uv=False)\n"),
    ("groups", "def sample_element():\n    return np.linalg.det(a)\n"),
    ("numkit", "def frob(a):\n    return np.linalg.cond(a)\n"),
    ("numkit", "def guarded_inv(a):\n    return _umath_linalg.inv(a, signature='D->D')\n"),
    ("decomp", "from numpy.linalg import solve\n"),
    ("automorphy", "from numpy import linalg as la\n"),
    ("automorphy", "from numpy.linalg import _umath_linalg\n"),
], ids=["inv", "numpy-svd", "det-beside-qr", "cond-beside-norm", "gufunc-outside-kernel",
        "import-solve", "import-linalg", "import-gufuncs"])
def test_the_ownership_check_flags_a_stray_lapack_call(module, source):
    assert _stray(_linalg_uses(module, source))


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
            assert got.flags.c_contiguous


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


def test_the_guard_reads_the_condition_number_np_linalg_cond_gives():
    # one SVD's extreme singular values: cond's quotient, bit for bit, on every slice
    rng = np.random.default_rng(5)
    a = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
    a[:, :, 0] = a[:, :, 1] + 1e-14 * a[:, :, 0]  # about 1e14
    for x in a:
        with pytest.raises(ConditioningError, match=re.escape(f"number {np.linalg.cond(x):.3e} ")):
            guarded_inv(x)
    with pytest.raises(ConditioningError, match=r"condition number .* \(slice 0\)"):
        guarded_inv(a)
    s = np.linalg.svd(a, compute_uv=False)
    assert (s[..., 0] / s[..., -1]).tobytes() == np.linalg.cond(a).tobytes()
    # an all-zero matrix reads NaN, where np.linalg.cond reads inf, and fails all the same
    with pytest.raises(ConditioningError, match="condition number nan exceeds"):
        guarded_inv(np.zeros((2, 2)))
