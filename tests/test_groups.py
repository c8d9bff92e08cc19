import numpy as np
import pytest

from sjkit.groups import (
    ComplexHeisenbergElement,
    GStarElement,
    GStarJacobiElement,
    HeisenbergElement,
    JacobiElement,
    SymplecticMatrix,
    cayley_matrix,
    conjugate_by_T,
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
from sjkit import groups
from sjkit.geometry import volume_density
from sjkit.groups import _SCALE_MAX
from sjkit.automorphy import IndexMatrix
from sjkit.numkit import DimensionError, DomainError, Holder, hermitian_pd_margin, rel_error
from sjkit.serialize import decode_element, encode_matrix
from sjkit.spaces import TangentVector, sample_point


def heis(lam, mu, kappa):
    return HeisenbergElement(np.atleast_2d(lam), np.atleast_2d(mu), np.atleast_2d(kappa))


def test_heisenberg_identity_law():
    a = sample_element("heisenberg", 2, 2, seed=1)
    e = HeisenbergElement.identity(2, 2)
    prod = heisenberg_mul(a, e)
    np.testing.assert_allclose(prod.lam, a.lam)
    np.testing.assert_allclose(prod.mu, a.mu)
    np.testing.assert_allclose(prod.kappa, a.kappa)


def test_heisenberg_central_part_on_negated_pair():
    a = sample_element("heisenberg", 2, 2, seed=2)
    # (-lam, -mu) has the same symmetry constraint as (lam, mu), so a.kappa is valid
    b = HeisenbergElement(-a.lam, -a.mu, a.kappa)
    prod = heisenberg_mul(a, b)
    expected = a.kappa + b.kappa - a.lam @ a.mu.T + a.mu @ a.lam.T
    np.testing.assert_allclose(prod.kappa, expected, atol=1e-12)


def test_heisenberg_scalar_example():
    a = heis([[1.0]], [[0.0]], [[0.0]])
    b = heis([[0.0]], [[1.0]], [[0.0]])
    prod = heisenberg_mul(a, b)
    assert prod.lam[0, 0] == 1 and prod.mu[0, 0] == 1 and prod.kappa[0, 0] == 1


def test_jacobi_identity_and_inverse():
    e = JacobiElement.identity(2, 1)
    a = sample_element("jacobi", 2, 1, seed=3)
    for prod in (jacobi_mul(a, e), jacobi_mul(e, a)):
        assert rel_error(prod.m.m, a.m.m) < 1e-12
        assert rel_error(prod.hs.kappa, a.hs.kappa) < 1e-12
    left = jacobi_mul(a, jacobi_inv(a))
    assert rel_error(left.m.m, e.m.m) < 1e-10
    assert np.max(np.abs(left.hs.lam)) < 1e-10
    assert np.max(np.abs(left.hs.kappa)) < 1e-10


def test_jacobi_inverse_of_pure_heisenberg_h1():
    # with h = 1 the central twist vanishes and the inverse negates the triple
    a = JacobiElement(SymplecticMatrix.identity(1), heis([[0.4]], [[-0.3]], [[0.7]]))
    inv = jacobi_inv(a)
    np.testing.assert_allclose(inv.hs.lam, [[-0.4]])
    np.testing.assert_allclose(inv.hs.mu, [[0.3]])
    np.testing.assert_allclose(inv.hs.kappa, [[-0.7]])


def test_jacobi_mul_matches_sp_embedding():
    for seed in range(20):
        a = sample_element("jacobi", 2, 1, seed=seed)
        b = sample_element("jacobi", 2, 1, seed=seed + 1000)
        lhs = embed_sp_gph(jacobi_mul(a, b))
        rhs = embed_sp_gph(a) @ embed_sp_gph(b)
        assert rel_error(lhs, rhs) < 1e-9


def test_embed_is_symplectic():
    j = np.real(symplectic_j(3))
    for seed in range(10):
        e = embed_sp_gph(sample_element("jacobi", 2, 1, seed=seed))
        assert rel_error(e.T @ j @ e, j) < 1e-9


def test_embed_identity():
    np.testing.assert_allclose(embed_sp_gph(JacobiElement.identity(2, 2)), np.eye(8))


def test_big_product_identity_and_associativity():
    # at g = 1 the determinant-one condition makes the block preserve the
    # central pairing, which is what associativity of the ambient law needs
    rng = np.random.default_rng(5)
    def rand_big():
        blk = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
        blk = blk / np.sqrt(np.linalg.det(blk))
        xi = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
        eta = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
        zeta = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
        return blk, xi, eta, zeta
    z = np.zeros((1, 1), dtype=complex)
    e = np.eye(2, dtype=complex), z, z, z
    for _ in range(20):
        a, b, c = rand_big(), rand_big(), rand_big()
        ae = groups._big_product(a, e)
        assert rel_error(ae[0], a[0]) < 1e-12
        assert rel_error(ae[3], a[3]) < 1e-12
        lhs = groups._big_product(groups._big_product(a, b), c)
        rhs = groups._big_product(a, groups._big_product(b, c))
        assert rel_error(lhs[0], rhs[0]) < 1e-9
        assert rel_error(lhs[3], rhs[3]) < 1e-9


def test_big_product_central_parts_add():
    z1 = np.array([[0.3 + 0.1j]])
    z2 = np.array([[-0.2 + 0.5j]])
    zf = np.zeros((1, 1), dtype=complex)
    a = np.eye(2, dtype=complex), zf, zf, z1
    b = np.eye(2, dtype=complex), zf, zf, z2
    np.testing.assert_allclose(groups._big_product(a, b)[3], z1 + z2)


def test_gstarj_mul_identity_and_theta_homomorphism():
    e = GStarJacobiElement.identity(2, 1)
    for seed in range(20):
        a = sample_element("jacobi", 2, 1, seed=seed)
        b = sample_element("jacobi", 2, 1, seed=seed + 500)
        lhs = theta(jacobi_mul(a, b))
        rhs = gstarj_mul(theta(a), theta(b))
        assert rel_error(lhs.gs.p, rhs.gs.p) < 1e-9
        assert rel_error(lhs.gs.q, rhs.gs.q) < 1e-9
        assert rel_error(lhs.hc.xi, rhs.hc.xi) < 1e-9
        assert rel_error(lhs.hc.zeta, rhs.hc.zeta) < 1e-9
    ae = gstarj_mul(theta(sample_element("jacobi", 2, 1, seed=7)), e)
    assert rel_error(ae.gs.p, theta(sample_element("jacobi", 2, 1, seed=7)).gs.p) < 1e-12


def test_gstarj_unitary_closure():
    a = sample_element("kstarj", 2, 2, seed=11)
    b = sample_element("kstarj", 2, 2, seed=12)
    prod = gstarj_mul(a, b)
    assert np.max(np.abs(prod.gs.q)) < 1e-12
    assert rel_error(prod.gs.p @ prod.gs.p.conj().T, np.eye(2)) < 1e-10


def test_gstarj_inverse():
    e = GStarJacobiElement.identity(2, 2)
    a = sample_element("gstarj", 2, 2, seed=13)
    prod = gstarj_mul(a, gstarj_inv(a))
    assert rel_error(prod.gs.p, e.gs.p) < 1e-9
    assert np.max(np.abs(prod.gs.q)) < 1e-9
    assert np.max(np.abs(prod.hc.xi)) < 1e-9
    assert np.max(np.abs(prod.hc.zeta)) < 1e-9


def test_conjugate_by_T_identity():
    gs = conjugate_by_T(SymplecticMatrix.identity(2))
    np.testing.assert_allclose(gs.p, np.eye(2))
    np.testing.assert_allclose(gs.q, np.zeros((2, 2)))


def test_conjugate_by_T_of_j1():
    j1 = SymplecticMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    gs = conjugate_by_T(j1)
    np.testing.assert_allclose(gs.p, [[1j]], atol=1e-15)
    np.testing.assert_allclose(gs.q, [[0]], atol=1e-15)


def test_conjugate_by_T_matches_explicit_conjugation():
    for seed in range(20):
        m = sample_element("sp", 2, 1, seed=seed)
        gs = conjugate_by_T(m)
        t = cayley_matrix(2)
        explicit = np.linalg.inv(t) @ m.m @ t
        assert rel_error(gs.block(), explicit) < 1e-10


def test_conjugate_lands_in_su_gg_and_sp_gc():
    igg = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]])
    j = symplectic_j(2)
    for seed in range(10):
        hmat = conjugate_by_T(sample_element("sp", 2, 1, seed=seed)).block()
        assert rel_error(hmat.T @ igg @ hmat.conj(), igg) < 1e-9
        assert rel_error(hmat.T @ j @ hmat, j) < 1e-9


def test_conjugate_g1_lands_in_su11():
    i11 = np.diag([1.0, -1.0]).astype(complex)
    for seed in range(10):
        hmat = conjugate_by_T(sample_element("sp", 1, 1, seed=seed)).block()
        assert rel_error(hmat.T @ i11 @ hmat.conj(), i11) < 1e-10


def test_theta_of_identity_and_pure_heisenberg():
    th = theta(JacobiElement.identity(2, 1))
    np.testing.assert_allclose(th.gs.p, np.eye(2))
    np.testing.assert_allclose(th.gs.q, np.zeros((2, 2)))

    hs = heis([[0.5, -0.2]], [[0.1, 0.3]], [[0.4]])
    a = JacobiElement(SymplecticMatrix.identity(2), hs)
    th = theta(a)
    np.testing.assert_allclose(th.hc.xi, 0.5 * (hs.lam + 1j * hs.mu))
    np.testing.assert_allclose(th.hc.eta, 0.5 * (hs.lam - 1j * hs.mu))
    np.testing.assert_allclose(th.hc.zeta, -0.5j * hs.kappa)


def test_tstar_oracle_identity():
    a = JacobiElement.identity(2, 1)
    assert tstar_agreement_residual(a) <= 1e-9
    p, q = groups._tstar_closed(a)
    np.testing.assert_allclose(p, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(q, np.zeros((3, 3)), atol=1e-14)


def test_tstar_oracle_pure_heisenberg_blocks():
    lam, mu, kap = 0.7, -0.4, 0.9
    a = JacobiElement(SymplecticMatrix.identity(1), heis([[lam]], [[mu]], [[kap]]))
    assert tstar_agreement_residual(a) <= 1e-9
    p, q = groups._tstar_closed(a)
    np.testing.assert_allclose(p[0, 0], 1.0)
    np.testing.assert_allclose(p[1, 0], 0.5 * (lam + 1j * mu))
    np.testing.assert_allclose(p[0, 1], -0.5 * (lam - 1j * mu))
    np.testing.assert_allclose(p[1, 1], 1 + 0.5j * kap)
    np.testing.assert_allclose(q[0, 0], 0.0)
    np.testing.assert_allclose(q[1, 0], 0.5 * (lam - 1j * mu))
    np.testing.assert_allclose(q[0, 1], 0.5 * (lam - 1j * mu))
    np.testing.assert_allclose(q[1, 1], -0.5j * kap)


def test_tstar_oracle_agreement_on_random_elements():
    for seed in range(20):
        assert tstar_agreement_residual(sample_element("jacobi", 1, 2, seed=seed)) <= 1e-9


def test_theta_matches_tstar_blocks():
    a = sample_element("jacobi", 1, 1, seed=21)
    th = theta(a)
    assert tstar_agreement_residual(a) <= 1e-9
    p, q = groups._tstar_closed(a)
    np.testing.assert_allclose(p[:1, :1], th.gs.p, atol=1e-12)
    np.testing.assert_allclose(q[:1, :1], th.gs.q, atol=1e-12)
    np.testing.assert_allclose(p[1:, :1], th.hc.xi, atol=1e-12)
    np.testing.assert_allclose(q[1:, :1], th.hc.eta, atol=1e-12)
    np.testing.assert_allclose(q[1:, 1:], th.hc.zeta, atol=1e-12)


def test_sampling_invariants_and_determinism():
    m = sample_element("sp", 2, 1, seed=7)
    j = symplectic_j(2)
    assert rel_error(m.m.T @ j @ m.m, j) < 1e-9

    hs = sample_element("heisenberg", 3, 2, seed=7)
    s = hs.kappa + hs.mu @ hs.lam.T
    assert rel_error(s, s.T) < 1e-12

    again = sample_element("sp", 2, 1, seed=7)
    np.testing.assert_array_equal(m.m, again.m)
    other = sample_element("sp", 2, 1, seed=8)
    assert not np.array_equal(m.m, other.m)


def test_sample_rejects_bad_arguments():
    with pytest.raises(Exception):
        sample_element("sp", 0, 1, seed=1)
    with pytest.raises(DomainError):
        sample_element("nonsense", 1, 1, seed=1)


@pytest.mark.parametrize("call, error", [
    (lambda: sample_element("sp", 1, 1, 0, "x"), DomainError),
    (lambda: sample_element("sp", 1, 1, 0, True), DomainError),
    (lambda: sample_point("siegel", 1, 1, 0, None), DomainError),
    (lambda: sample_point(["siegel"], 1), DomainError),
    (lambda: sample_element(["sp"], 1), DomainError),
    (lambda: symplectic_j(-1), DimensionError),
    (lambda: symplectic_j("a"), DimensionError),
    (lambda: cayley_matrix(-1), DimensionError),
    (lambda: hermitian_pd_margin("x"), DimensionError),
    (lambda: hermitian_pd_margin([[1.0, 0.0], [0.0]]), DimensionError),
    (lambda: IndexMatrix("a"), DimensionError),
    (lambda: HeisenbergElement("a", [[0.0]], [[0.0]]), DimensionError),
    (lambda: HeisenbergElement([[0.0]], [[0.0], [0.0, 1.0]], [[0.0]]), DimensionError),
    (lambda: encode_matrix("x"), DimensionError),
    (lambda: decode_element({"kind": "sp"}), DimensionError),
    (lambda: SymplecticMatrix.identity("a"), DimensionError),
    (lambda: HeisenbergElement.identity(-1, 1), DimensionError),
    (lambda: GStarJacobiElement.identity(0, 1), DimensionError),
    (lambda: JacobiElement.identity(2, True), DimensionError),
    (lambda: GStarElement.identity(1.0), DimensionError),
    (lambda: ComplexHeisenbergElement.identity(1, 0), DimensionError),
    (lambda: TangentVector(np.eye(2), np.ones((1, 3))), DimensionError),
], ids=["element-scale-str", "element-scale-bool", "point-scale-none", "point-kind-list",
        "element-kind-list", "symplectic_j-negative", "symplectic_j-str", "cayley_matrix-negative",
        "pd-margin-str", "pd-margin-ragged", "index-matrix-str", "heisenberg-str",
        "heisenberg-ragged", "encode-str", "decode-missing-key", "symplectic-identity-str",
        "heisenberg-identity-negative", "gstarj-identity-zero", "jacobi-identity-bool-h",
        "gstar-identity-float", "complex-heisenberg-identity-h0", "tangent-fiber-width"])
def test_a_malformed_argument_raises_a_library_error(call, error):
    with pytest.raises(error):
        call()


# each identity as its constructor builds it from plain numpy arrays, at degrees (g, h)
_CONSTRUCTED = {
    SymplecticMatrix: lambda g, h: SymplecticMatrix(np.eye(2 * g)),
    HeisenbergElement: lambda g, h: HeisenbergElement(*_zeros(g, h)),
    GStarElement: lambda g, h: GStarElement(np.eye(g), np.zeros((g, g))),
    ComplexHeisenbergElement: lambda g, h: ComplexHeisenbergElement(*_zeros(g, h)),
}
_CONSTRUCTED[JacobiElement] = lambda g, h: JacobiElement(
    _CONSTRUCTED[SymplecticMatrix](g, h), _CONSTRUCTED[HeisenbergElement](g, h))
_CONSTRUCTED[GStarJacobiElement] = lambda g, h: GStarJacobiElement(
    _CONSTRUCTED[GStarElement](g, h), _CONSTRUCTED[ComplexHeisenbergElement](g, h))


def _zeros(g: int, h: int) -> tuple:
    return np.zeros((h, g)), np.zeros((h, g)), np.zeros((h, h))


def _holder_arrays(x) -> list:
    """Every array a holder stores, nested holders included, in slot order."""
    out = []
    for name in type(x).__slots__:
        v = getattr(x, name)
        out += [v] if isinstance(v, np.ndarray) else _holder_arrays(v) if isinstance(v, Holder) \
            else []
    return out


@pytest.mark.parametrize("cls", list(_CONSTRUCTED), ids=lambda c: c.__name__)
def test_an_identity_has_the_parts_its_constructor_gives(cls):
    # assembled without the constructor's coercion, an identity has the degrees,
    # and its parts the dtype, shape and bytes, that the constructor gives, read-only
    g, h = 2, 3
    got = cls.identity(g) if cls in (SymplecticMatrix, GStarElement) else cls.identity(g, h)
    want = _CONSTRUCTED[cls](g, h)
    assert (got.g, getattr(got, "h", h)) == (g, h)
    for x, y in zip(_holder_arrays(got), _holder_arrays(want), strict=True):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        assert not x.flags.writeable and x.flags.c_contiguous


def test_invalid_elements_rejected():
    with pytest.raises(DomainError):
        SymplecticMatrix(np.eye(2) * 2)
    with pytest.raises(DomainError):
        HeisenbergElement([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]],
                          np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        GStarElement(2 * np.eye(2), np.zeros((2, 2)))
    xi = np.array([[0.2 + 0.1j]])
    with pytest.raises(DomainError):
        GStarJacobiElement(
            GStarElement(np.eye(1), np.zeros((1, 1))),
            ComplexHeisenbergElement(xi, xi, np.array([[0.5 + 0.0j]])),
        )


PREMISE_SHAPES = [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (4, 3)]


def _validated_parts(x) -> list:
    """The holders with a validate of a sampled element: a gstarj with its
    blocks and Heisenberg part, a jacobi element's Heisenberg part, or x."""
    if isinstance(x, GStarJacobiElement):
        return [x, x.gs, x.hc]
    return [x.hs] if isinstance(x, JacobiElement) else [x]


@pytest.mark.parametrize("g,h", PREMISE_SHAPES)
def test_sampled_elements_built_unvalidated_pass_validation_far_inside_its_tolerance(
        monkeypatch, g, h):
    # gstar and gstarj are exact images of a validated word and jacobi element,
    # and a sampled Heisenberg part is symmetric by construction, so none is
    # validated when drawn: each passes validate() with the tolerance 1e-9
    # lowered to 1e-12, for each seed alone and for the batch of all of them
    seeds = list(range(200))
    monkeypatch.setattr(groups, "ALGEBRAIC_REL", 1e-12)
    for kind in ("gstar", "gstarj", "jacobi", "heisenberg"):
        alone = [sample_element(kind, g, h, s) for s in seeds]
        for x in alone + [sample_element(kind, g, h, seeds)]:
            for part in _validated_parts(x):
                part.validate()


def test_the_constructors_still_reject_corrupted_parts():
    # the sampled holders skip validation; a caller's parts do not
    bump = lambda a: a + 1e-6 * np.triu(np.ones(a.shape[-2:]), 1)  # noqa: E731
    for g, h in PREMISE_SHAPES:
        gs, b = sample_element("gstar", g, h, 3), sample_element("gstarj", g, h, 4)
        a = sample_element("jacobi", g, h, 5).hs
        with pytest.raises(DomainError, match=r"t\(P\) conj\(P\)"):
            GStarElement(1.001 * gs.p, gs.q)
        hc = b.hc
        if h > 1:
            with pytest.raises(DomainError, match=r"zeta \+ eta t\(xi\) is not symmetric"):
                ComplexHeisenbergElement(hc.xi, hc.eta, bump(hc.zeta))
            with pytest.raises(DomainError, match=r"kappa \+ mu t\(lam\) is not symmetric"):
                HeisenbergElement(a.lam, a.mu, bump(a.kappa))
        with pytest.raises(DomainError, match=r"eta != conj\(xi\)"):
            GStarJacobiElement(b.gs, ComplexHeisenbergElement(hc.xi, 1.001 * hc.eta, hc.zeta,
                                                              validate=False))
        with pytest.raises(DomainError, match="zeta is not i"):
            GStarJacobiElement(b.gs, ComplexHeisenbergElement(hc.xi, hc.eta, hc.zeta + 1e-3))


def test_a_real_symplectic_matrix_is_validated_without_a_realness_norm(count_calls):
    m = sample_element("sp", 2, 1, seed=3).m
    a, b = (sample_element("jacobi", 2, 1, seed=s) for s in (1, 2))
    norms = count_calls("numkit.frob")
    SymplecticMatrix(m.real)
    assert len(norms) == 3  # the symplectic residual, by _rel
    jacobi_mul(a, b)
    assert len(norms) == 3 + 3 + 2  # and the Heisenberg part's symmetry defect
    SymplecticMatrix(m + 1e-14j)  # real within tolerance
    with pytest.raises(DomainError, match="^symplectic matrix must be real$"):
        SymplecticMatrix(m + 1e-3j)


# The checks of these finite inputs overflow on purpose; numpy warns as they do.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("make, match", [
    (lambda: HeisenbergElement([[1e308], [0]], [[0], [1e308]], np.zeros((2, 2))),
     "kappa \\+ mu t\\(lam\\) is not symmetric"),
    (lambda: HeisenbergElement([[1e308 + 1e308j]], [[0]], [[0]]), "lam must be real"),
    (lambda: SymplecticMatrix(np.array([[1e308 + 1e308j, 0], [0, 1]])),
     "symplectic matrix must be real"),
], ids=["heisenberg-symmetry", "heisenberg-real", "symplectic-real"])
def test_a_check_that_overflows_rejects(make, match):
    """A residual and its scale that both overflow to inf fail the check
    (inf / inf is NaN) rather than passing it (inf <= inf)."""
    with pytest.raises(DomainError, match=match):
        make()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_heisenberg_rejects_non_finite_entries(slot, bad):
    parts = [np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 1))]
    parts[slot][0, 0] = bad
    for validate in (True, False):
        with pytest.raises(DomainError):
            HeisenbergElement(*parts, validate=validate)


def test_heisenberg_rejects_complex_entries():
    for lam in (0.5j, 1 + 1j * np.inf, 1 + 1j * np.nan, complex(np.inf, 0.0)):
        with pytest.raises(DomainError):
            HeisenbergElement(np.array([[lam]]), np.zeros((1, 1)), np.zeros((1, 1)))
    for slot in range(3):
        parts = [np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 1))]
        parts[slot] = parts[slot] + 1e-3j
        for validate in (True, False):
            with pytest.raises(DomainError):
                HeisenbergElement(*parts, validate=validate)
    a = HeisenbergElement(np.array([[0.5 + 0j]]), np.zeros((1, 1)), np.zeros((1, 1)))
    assert a.lam.dtype == np.float64 and a.lam[0, 0] == 0.5


def _bytes(*arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def test_symplectic_j_and_cayley_matrix_match_np_block_forms():
    for g in range(1, 6):
        z, i = np.zeros((g, g)), np.eye(g)
        assert _bytes(symplectic_j(g)) == _bytes(np.block([[z, i], [-i, z]]).astype(np.complex128))
        want = np.block([[i, i], [1j * i, -1j * i]]) / np.sqrt(2.0)
        assert _bytes(cayley_matrix(g)) == _bytes(want)


def _np_block_sample_symplectic(u, g, scale):
    """_sample_symplectic as written with np.block, kept as the reference: u[0]
    sets the length, u[1 + k] the kind of step k and u[9 + k g^2:] its block."""
    j = np.real(np.block([[np.zeros((g, g)), np.eye(g)], [-np.eye(g), np.zeros((g, g))]]))
    m = np.eye(2 * g)
    for k in range(4 + int(5 * u[0])):
        kind = int(4 * u[1 + k])
        block = -scale + 2 * scale * u[9 + k * g * g:9 + (k + 1) * g * g].reshape(g, g)
        if kind == 0:
            b = (block + block.T) / 2
            gen = np.block([[np.eye(g), b], [np.zeros((g, g)), np.eye(g)]])
        elif kind == 1:
            c = (block + block.T) / 2
            gen = np.block([[np.eye(g), np.zeros((g, g))], [c, np.eye(g)]])
        elif kind == 2:
            a = np.eye(g) + block / max(1, g)
            gen = np.block([[a, np.zeros((g, g))], [np.zeros((g, g)), np.linalg.inv(a).T]])
        else:
            gen = j
        m = m @ gen
    return SymplecticMatrix(m)


@pytest.mark.parametrize("g,h", [(1, 1), (2, 2), (4, 3)])
def test_sampled_elements_match_np_block_reference(g, h):
    word, heis = 9 + 8 * g * g, 2 * h * g + h * h
    for seed in range(30):
        u = groups._uniforms(seed, groups._KIND_TAG["sp"], word)
        assert _bytes(sample_element("sp", g, h, seed=seed).m) == \
            _bytes(_np_block_sample_symplectic(u, g, 0.8).m)
        u = groups._uniforms(seed, groups._KIND_TAG["jacobi"], word + heis)
        want = JacobiElement(_np_block_sample_symplectic(u, g, 0.8),
                             groups._sample_heisenberg(u[word:], g, h, 0.8))
        got = sample_element("jacobi", g, h, seed=seed)
        assert _bytes(got.m.m, got.hs.lam, got.hs.mu, got.hs.kappa) == \
            _bytes(want.m.m, want.hs.lam, want.hs.mu, want.hs.kappa)
        u = groups._uniforms(seed, groups._KIND_TAG["gstarj"], word + heis)
        want = theta(JacobiElement(_np_block_sample_symplectic(u, g, 0.8),
                                   groups._sample_heisenberg(u[word:], g, h, 0.8)))
        got = sample_element("gstarj", g, h, seed=seed)
        assert _bytes(got.gs.p, got.gs.q, got.hc.xi, got.hc.eta, got.hc.zeta) == \
            _bytes(want.gs.p, want.gs.q, want.hc.xi, want.hc.eta, want.hc.zeta)


@pytest.mark.parametrize("kind", ["sp", "gstar", "jacobi", "gstarj"])
def test_symplectic_based_kinds_reject_a_scale_above_one(kind):
    for scale in (1.0 + 1e-12, 1.5, 50.0):
        with pytest.raises(DomainError, match="scale must be at most 1"):
            sample_element(kind, 2, 1, seed=0, scale=scale)
    sample_element(kind, 2, 1, seed=0, scale=1.0)


def test_other_kinds_keep_their_scales():
    for kind in ("heisenberg", "kstarj"):
        sample_element(kind, 2, 1, seed=0, scale=50.0)


WORD_KINDS = ("sp", "gstar", "jacobi", "gstarj")
SAMPLED_KINDS = WORD_KINDS + ("heisenberg", "kstarj", "siegel", "disk", "siegel_jacobi",
                              "disk_jacobi")


def _assert_valid(x):
    """Every array x stores is finite and every holder in it passes its validation."""
    if hasattr(x, "validate"):
        x.validate()
    for name in type(x).__slots__:
        v = getattr(x, name)
        if isinstance(v, np.ndarray):
            assert np.isfinite(v).all()
        elif isinstance(v, Holder):
            _assert_valid(v)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g,h", [(1, 1), (4, 3)])
@pytest.mark.parametrize("kind", SAMPLED_KINDS)
def test_samplers_check_scale_at_entry(kind, g, h):
    draw = sample_element if kind in groups._KIND_TAG else sample_point
    good = (1e-300, 1.0) if kind in WORD_KINDS else (1e-300, 1.0, 50.0, _SCALE_MAX)
    for scale in good:
        _assert_valid(draw(kind, g, h, seed=3, scale=scale))
        _assert_valid(draw(kind, g, h, seed=[3, 4], scale=scale))
    for scale in (0.0, -1.0, np.nan, np.inf, 10 * _SCALE_MAX, 1e308):
        with pytest.raises(DomainError, match="_SCALE_MAX"):
            draw(kind, g, h, seed=3, scale=scale)


def _element_inputs():
    """(constructor, caller arrays, attribute names) for each element class
    that stores arrays, with inputs that need no dtype conversion."""
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, s], [-s, c]])
    xi = np.array([[0.2 + 0.1j, -0.4j]])
    return [
        (SymplecticMatrix, [rot.astype(complex)], ["m"]),
        (HeisenbergElement, [np.array([[0.5, 1.0]]), np.array([[0.25, -1.0]]), np.array([[0.75]])],
         ["lam", "mu", "kappa"]),
        (HeisenbergElement, [np.array([[0.5 + 0j]]), np.array([[0.25 + 0j]]), np.array([[1.0 + 0j]])],
         ["lam", "mu", "kappa"]),
        (GStarElement, [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)], ["p", "q"]),
        (ComplexHeisenbergElement, [xi, xi.conj(), np.array([[0.5j]])], ["xi", "eta", "zeta"]),
    ]


@pytest.mark.parametrize("case", range(5))
def test_element_constructors_leave_caller_arrays_writeable_and_unaliased(case):
    make, inputs, names = _element_inputs()[case]
    before = [a.copy() for a in inputs]
    el = make(*inputs)
    for a, name, old in zip(inputs, names, before, strict=True):
        assert a.flags.writeable
        stored = getattr(el, name)
        assert not stored.flags.writeable
        a += 7.0
        np.testing.assert_array_equal(stored, np.real(old) if stored.dtype.kind == "f" else old)


def test_composite_element_constructors_check_the_classes_of_their_parts():
    m = sample_element("sp", 2, 1, seed=1)
    hs = sample_element("heisenberg", 2, 1, seed=2)
    gs = sample_element("gstar", 2, 1, seed=3)
    hc = sample_element("gstarj", 2, 1, seed=4).hc
    cases = [(lambda: JacobiElement(m, m), "JacobiElement takes a HeisenbergElement, not a "
              "SymplecticMatrix"),
             (lambda: JacobiElement(hs, hs), "JacobiElement takes a SymplecticMatrix, not a "
              "HeisenbergElement"),
             (lambda: GStarJacobiElement(m, m), "GStarJacobiElement takes a GStarElement, not a "
              "SymplecticMatrix"),
             (lambda: GStarJacobiElement(gs, hs), "GStarJacobiElement takes a "
              "ComplexHeisenbergElement, not a HeisenbergElement")]
    for make, match in cases:
        with pytest.raises(DimensionError, match=f"^{match}$"):
            make()
    assert JacobiElement(m, hs).hs is hs
    assert GStarJacobiElement(gs, hc, validate=False).hc is hc


_J, _GJ = "takes a JacobiElement, not a GStarJacobiElement", "takes a GStarJacobiElement, not a"


@pytest.mark.parametrize("call, message", [
    (lambda a, b, p: heisenberg_mul(a.hs, a), "heisenberg_mul takes a HeisenbergElement, not a "
     "JacobiElement"),
    (lambda a, b, p: jacobi_mul(a, b), f"jacobi_mul {_J}"),
    (lambda a, b, p: jacobi_inv(b), f"jacobi_inv {_J}"),
    (lambda a, b, p: gstarj_mul(b, a), f"gstarj_mul {_GJ} JacobiElement"),
    (lambda a, b, p: gstarj_inv(a), f"gstarj_inv {_GJ} JacobiElement"),
    (lambda a, b, p: conjugate_by_T(a), "conjugate_by_T takes a SymplecticMatrix, not a "
     "JacobiElement"),
    (lambda a, b, p: theta(b), f"theta {_J}"),
    (lambda a, b, p: embed_sp_gph(b), f"embed_sp_gph {_J}"),
    (lambda a, b, p: tstar_agreement_residual(b), f"tstar_agreement_residual {_J}"),
    (lambda a, b, p: volume_density(p), "volume_density takes a SiegelJacobiPoint, not a "
     "DiskJacobiPoint"),
], ids=["heisenberg_mul", "jacobi_mul", "jacobi_inv", "gstarj_mul", "gstarj_inv",
        "conjugate_by_T", "theta", "embed_sp_gph", "tstar_agreement_residual", "volume_density"])
def test_an_argument_of_the_wrong_class_is_a_dimension_error(call, message):
    a, b = sample_element("jacobi", 2, 1, 2), sample_element("gstarj", 2, 1, 1)
    with pytest.raises(DimensionError, match=f"^{message}$"):
        call(a, b, sample_point("disk_jacobi", 2, 1, 1))
