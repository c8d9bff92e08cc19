import re

import numpy as np
import pytest

from sjkit.decomp import decompose_full, hc_decompose_gstar
from sjkit.geometry import sample_tangent
from sjkit.groups import (
    GStarElement,
    GStarJacobiElement,
    JacobiElement,
    SymplecticMatrix,
    conjugate_by_T,
    jacobi_mul,
    sample_element,
    theta,
)
from sjkit.numkit import (
    ALGEBRAIC_REL,
    DimensionError,
    DomainError,
    _pd_margin,
    hermitian_pd_margin,
    rel_error,
    symmetry_defect,
)
from sjkit.spaces import (
    DiskJacobiPoint,
    DiskPoint,
    SiegelJacobiPoint,
    SiegelPoint,
    TangentVector,
    act_disk,
    act_jacobi,
    act_jacobi_disk,
    act_siegel,
    cayley,
    cayley_inv,
    check_compatibility,
    partial_cayley,
    partial_cayley_inv,
    sample_point,
)


def sp1(m):
    return SymplecticMatrix(np.asarray(m, dtype=float))


def test_act_siegel_identity():
    p = sample_point("siegel", 2, 1, seed=1)
    out = act_siegel(SymplecticMatrix.identity(2), p)
    assert rel_error(out.omega, p.omega) < 1e-12


def test_act_siegel_translation():
    out = act_siegel(sp1([[1, 1], [0, 1]]), SiegelPoint([[1j]]))
    assert out.omega[0, 0] == pytest.approx(1 + 1j)


def test_act_siegel_inversion_fixed_point():
    out = act_siegel(sp1([[0, 1], [-1, 0]]), SiegelPoint([[1j]]))
    assert out.omega[0, 0] == pytest.approx(1j)


def test_act_disk_identity_and_scalar_case():
    w = DiskPoint([[0.3 + 0j]])
    out = act_disk(GStarElement(np.eye(1), np.zeros((1, 1))), w)
    assert out.w[0, 0] == pytest.approx(0.3)
    gs = conjugate_by_T(sp1([[0, 1], [-1, 0]]))
    out = act_disk(gs, w)
    assert out.w[0, 0] == pytest.approx(-0.3)


def test_act_disk_rotation():
    theta_angle = 0.7
    p = np.array([[np.exp(1j * theta_angle)]])
    gs = GStarElement(p, np.zeros((1, 1)))
    w = DiskPoint([[0.2 - 0.4j]])
    out = act_disk(gs, w)
    assert out.w[0, 0] == pytest.approx(np.exp(2j * theta_angle) * (0.2 - 0.4j))


def test_act_jacobi_translation_and_kappa_independence():
    from sjkit.groups import HeisenbergElement, JacobiElement

    lam = np.array([[0.4]])
    mu = np.array([[-0.2]])
    p = SiegelJacobiPoint(SiegelPoint([[0.3 + 1.2j]]), [[0.1 - 0.5j]])
    for kap in (0.0, 0.8):
        a = JacobiElement(SymplecticMatrix.identity(1),
                          HeisenbergElement(lam, mu, np.array([[kap]])))
        out = act_jacobi(a, p)
        assert rel_error(out.omega, p.omega) < 1e-12
        expected = p.z + lam @ p.omega + mu
        assert rel_error(out.z, expected) < 1e-12


def test_act_jacobi_inversion_scalar():
    from sjkit.groups import HeisenbergElement, JacobiElement

    a = JacobiElement(sp1([[0, 1], [-1, 0]]),
                      HeisenbergElement(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))))
    z = 0.3 - 0.1j
    out = act_jacobi(a, SiegelJacobiPoint(SiegelPoint([[1j]]), [[z]]))
    assert out.omega[0, 0] == pytest.approx(1j)
    assert out.z[0, 0] == pytest.approx(1j * z)


def test_act_jacobi_disk_identity_and_translation():
    from sjkit.groups import ComplexHeisenbergElement, GStarJacobiElement

    xi = np.array([[0.2 + 0.3j]])
    a = GStarJacobiElement(
        GStarElement(np.eye(1), np.zeros((1, 1))),
        ComplexHeisenbergElement(xi, xi.conj(), 1j * np.array([[0.4]])),
    )
    p = DiskJacobiPoint(DiskPoint([[0.1 + 0.2j]]), [[0.5 - 0.1j]])
    out = act_jacobi_disk(a, p)
    assert rel_error(out.w, p.w) < 1e-12
    expected = p.eta + xi @ p.w + xi.conj()
    assert rel_error(out.eta, expected) < 1e-12


def test_cayley_examples():
    assert rel_error(cayley(DiskPoint(np.zeros((3, 3)))).omega, 1j * np.eye(3)) < 1e-14
    out = cayley(DiskPoint([[0.5j]]))
    assert out.omega[0, 0] == pytest.approx(-0.8 + 0.6j)
    out = cayley(DiskPoint(0.5 * np.eye(2)))
    assert rel_error(out.omega, 3j * np.eye(2)) < 1e-12


def test_cayley_inv_examples():
    assert np.max(np.abs(cayley_inv(SiegelPoint(1j * np.eye(2))).w)) < 1e-14
    out = cayley_inv(SiegelPoint([[-0.8 + 0.6j]]))
    assert out.w[0, 0] == pytest.approx(0.5j)
    out = cayley_inv(SiegelPoint([[1 + 1j]]))
    assert out.w[0, 0] == pytest.approx(0.2 - 0.4j)


def test_cayley_roundtrip():
    for seed in range(10):
        p = sample_point("disk", 2, 1, seed=seed)
        back = cayley_inv(cayley(p))
        assert rel_error(back.w, p.w) < 1e-10


def test_partial_cayley_examples():
    out = partial_cayley(DiskJacobiPoint(DiskPoint(np.zeros((2, 2))), np.zeros((1, 2))))
    assert rel_error(out.omega, 1j * np.eye(2)) < 1e-14
    assert np.max(np.abs(out.z)) < 1e-14

    eta = np.array([[0.3 - 0.7j, 0.2 + 0.1j]])
    out = partial_cayley(DiskJacobiPoint(DiskPoint(np.zeros((2, 2))), eta))
    assert rel_error(out.z, 2j * eta) < 1e-13

    out = partial_cayley(DiskJacobiPoint(DiskPoint([[0.5j]]), [[1.0 + 0j]]))
    assert out.omega[0, 0] == pytest.approx(-0.8 + 0.6j)
    assert out.z[0, 0] == pytest.approx(-0.8 + 1.6j)


def test_partial_cayley_inv_substitution():
    z = np.array([[0.4 + 0.2j], [0.1 - 0.9j]]).reshape(2, 1)
    p = SiegelJacobiPoint(SiegelPoint(1j * np.eye(1)), z)
    out = partial_cayley_inv(p)
    assert np.max(np.abs(out.w)) < 1e-14
    assert rel_error(out.eta, -0.5j * z) < 1e-13


def test_partial_cayley_roundtrips():
    for seed in range(100):
        p = sample_point("disk_jacobi", 2, 2, seed=seed)
        back = partial_cayley_inv(partial_cayley(p))
        assert rel_error(back.w, p.w) < 1e-10
        assert rel_error(back.eta, p.eta) < 1e-10
        q = sample_point("siegel_jacobi", 2, 2, seed=seed)
        forth = partial_cayley(partial_cayley_inv(q))
        assert rel_error(forth.omega, q.omega) < 1e-10
        assert rel_error(forth.z, q.z) < 1e-10


def test_partial_cayley_consistent_with_base_cayley():
    p = sample_point("disk", 2, 1, seed=5)
    pj = DiskJacobiPoint(p, np.zeros((1, 2)))
    out = partial_cayley(pj)
    assert rel_error(out.omega, cayley(p).omega) < 1e-12
    assert np.max(np.abs(out.z)) < 1e-14


def test_action_axioms_all_four_actions():
    for seed in range(10):
        m1 = sample_element("sp", 2, 1, seed=seed)
        m2 = sample_element("sp", 2, 1, seed=seed + 100)
        p = sample_point("siegel", 2, 1, seed=seed)
        lhs = act_siegel(SymplecticMatrix(np.real(m1.m @ m2.m)), p)
        rhs = act_siegel(m1, act_siegel(m2, p))
        assert rel_error(lhs.omega, rhs.omega) < 1e-9

        a1 = sample_element("jacobi", 2, 1, seed=seed)
        a2 = sample_element("jacobi", 2, 1, seed=seed + 100)
        pj = sample_point("siegel_jacobi", 2, 1, seed=seed)
        lhs = act_jacobi(jacobi_mul(a1, a2), pj)
        rhs = act_jacobi(a1, act_jacobi(a2, pj))
        assert rel_error(lhs.omega, rhs.omega) < 1e-9
        assert rel_error(lhs.z, rhs.z) < 1e-9

        from sjkit.groups import gstarj_mul

        b1, b2 = theta(a1), theta(a2)
        pd = sample_point("disk_jacobi", 2, 1, seed=seed)
        lhs = act_jacobi_disk(gstarj_mul(b1, b2), pd)
        rhs = act_jacobi_disk(b1, act_jacobi_disk(b2, pd))
        assert rel_error(lhs.w, rhs.w) < 1e-9
        assert rel_error(lhs.eta, rhs.eta) < 1e-9


def test_classical_compatibility():
    for seed in range(25):
        m = sample_element("sp", 3, 1, seed=seed)
        w = sample_point("disk", 3, 1, seed=seed)
        lhs = act_siegel(m, cayley(w))
        rhs = cayley(act_disk(conjugate_by_T(m), w))
        assert rel_error(lhs.omega, rhs.omega) < 1e-9


def test_jacobi_compatibility_residuals():
    for seed in range(25):
        a = sample_element("jacobi", 2, 2, seed=seed)
        p = sample_point("disk_jacobi", 2, 2, seed=seed)
        assert check_compatibility(a, p) < 1e-9
    e = __import__("sjkit.groups", fromlist=["JacobiElement"]).JacobiElement.identity(1, 1)
    p = sample_point("disk_jacobi", 1, 1, seed=0)
    assert check_compatibility(e, p) < 1e-15


def test_compatibility_at_origin_with_inversion():
    from sjkit.groups import HeisenbergElement, JacobiElement

    a = JacobiElement(sp1([[0, 1], [-1, 0]]),
                      HeisenbergElement(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))))
    p = DiskJacobiPoint(DiskPoint([[0j]]), [[0j]])
    assert check_compatibility(a, p) < 1e-14
    moved = act_jacobi(a, partial_cayley(p))
    assert moved.omega[0, 0] == pytest.approx(1j)
    assert abs(moved.z[0, 0]) < 1e-14


def test_domain_preservation_with_margin():
    for seed in range(10):
        a = sample_element("jacobi", 2, 1, seed=seed)
        p = sample_point("siegel_jacobi", 2, 1, seed=seed)
        out = act_jacobi(a, p)
        assert out.base.pd_margin() > 0
        b = theta(a)
        pd = sample_point("disk_jacobi", 2, 1, seed=seed)
        outd = act_jacobi_disk(b, pd)
        assert outd.base.pd_margin() > 0


def test_sample_point_guarantees():
    w = sample_point("disk", 3, 1, seed=9)
    assert np.linalg.norm(w.w, 2) < 0.9
    s = sample_point("siegel", 3, 1, seed=9)
    assert np.linalg.eigvalsh(s.y)[0] >= 0.1 - 1e-12
    again = sample_point("disk", 3, 1, seed=9)
    np.testing.assert_array_equal(w.w, again.w)


def test_invalid_points_rejected():
    with pytest.raises(DomainError):
        SiegelPoint([[1.0 + 0j]])  # Im = 0
    with pytest.raises(DomainError):
        SiegelPoint(np.array([[1j, 0.5], [0.0, 1j]]))  # not symmetric
    with pytest.raises(DomainError):
        DiskPoint([[1.5 + 0j]])  # outside the disk


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
@pytest.mark.parametrize("batch", [False, True], ids=["2d", "batch"])
def test_what_is_checked_for_positivity_alone_is_exactly_symmetric(count_calls, g, h, batch):
    """Each point built at an exactly symmetric matrix is checked for positivity
    alone (spaces._positive), and each sampled or pushed tangent vector skips
    its symmetry test: every test left out could only pass, with the margin
    hermitian_pd_margin gives bit for bit."""
    checked = count_calls("spaces._positive")
    for seed in range(6):
        seeds = list(range(8 * seed, 8 * seed + 8)) if batch else seed
        a = sample_element("jacobi", g, h, seed=seeds)
        pj = sample_point("siegel_jacobi", g, h, seed=seeds)
        pd = sample_point("disk_jacobi", g, h, seed=seeds)
        v, vj = sample_tangent(g, seed=seeds), sample_tangent(g, h, seed=seeds)
        vectors = [v, vj]
        for image, pushed in (act_siegel(a.m, pj.base, dirs=[v]),
                              act_disk(conjugate_by_T(a.m), pd.base, dirs=[v]),
                              act_jacobi(a, pj, dirs=[vj]),
                              act_jacobi_disk(theta(a), pd, dirs=[vj]),
                              cayley(pd.base, dirs=[v]), partial_cayley(pd, dirs=[vj])):
            vectors += pushed
        cayley_inv(pj.base)
        partial_cayley_inv(pj)
        decompose_full(theta(a), pd)
        hc_decompose_gstar(conjugate_by_T(a.m))
        for u in vectors:
            assert (u.dbase == u.dbase.mT).all()
    # the two sampled bases, eight map images and two P+ coordinates per seed
    assert len(checked) == 6 * 12
    for cls, m in checked:
        assert (m == m.mT).all()
        form = cls(m, validate=False)._pd_matrix()
        assert (form == form.conj().mT).all()
        got = _pd_margin(form)
        assert np.asarray(got).tobytes() == np.asarray(hermitian_pd_margin(form)).tobytes()
        assert np.all(got > 0)


_OUT_S = SiegelPoint(-2j * np.eye(2), validate=False)  # Im(omega) = -2 I
_OUT_D = DiskPoint(1.5 * np.eye(2), validate=False)  # W = 1.5 I
_FIBER = np.zeros((1, 2))


@pytest.mark.parametrize("make, cls", [
    (lambda: act_siegel(SymplecticMatrix.identity(2), _OUT_S), SiegelPoint),
    (lambda: act_disk(GStarElement.identity(2), _OUT_D), DiskPoint),
    (lambda: act_jacobi(JacobiElement.identity(2, 1), SiegelJacobiPoint(_OUT_S, _FIBER)),
     SiegelPoint),
    (lambda: act_jacobi_disk(GStarJacobiElement.identity(2, 1), DiskJacobiPoint(_OUT_D, _FIBER)),
     DiskPoint),
    (lambda: cayley(_OUT_D), SiegelPoint),
    (lambda: cayley_inv(_OUT_S), DiskPoint),
    (lambda: partial_cayley(DiskJacobiPoint(_OUT_D, _FIBER)), SiegelPoint),
    (lambda: partial_cayley_inv(SiegelJacobiPoint(_OUT_S, _FIBER)), DiskPoint),
    (lambda: decompose_full(GStarJacobiElement.identity(2, 1), DiskJacobiPoint(_OUT_D, _FIBER)),
     DiskPoint),
    (lambda: hc_decompose_gstar(GStarElement(np.eye(2), 1.5 * np.eye(2), validate=False)),
     DiskPoint),
    (lambda: SiegelPoint(np.diag([1j, -1j])), SiegelPoint),
    (lambda: DiskPoint(np.diag([0.5, 1.5])), DiskPoint),
], ids=["act_siegel", "act_disk", "act_jacobi", "act_jacobi_disk", "cayley", "cayley_inv",
        "partial_cayley", "partial_cayley_inv", "decompose_full", "hc_decompose_gstar",
        "siegel-base", "disk-base"])
def test_an_image_or_base_that_is_not_positive_definite_is_rejected(make, cls):
    with pytest.raises(DomainError, match=f"^{re.escape(cls._NOT_PD)}$"):
        make()


def test_a_siegel_point_whose_imaginary_part_is_not_symmetric_is_rejected():
    # omega passes its symmetry test, as a large real part hides the skew of Im(omega)
    omega = np.array([[1e6 + 1j, 1e6 + 0.5001j], [1e6 + 0.5j, 1e6 + 1j]])
    assert symmetry_defect(omega) <= ALGEBRAIC_REL < symmetry_defect(omega.imag)
    with pytest.raises(DomainError, match=r"^Im\(omega\) is not positive definite$"):
        SiegelPoint(omega)
    assert SiegelPoint(omega, validate=False).pd_margin() == -np.inf


# The checks of these finite inputs overflow on purpose; numpy warns as they do.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("make, match", [
    (lambda: SiegelPoint([[1j, 1e308], [-1e308, 1j]]), "omega is not symmetric"),
    (lambda: TangentVector([[0, 1e308], [-1e308, 0]]), "dbase is not symmetric"),
    (lambda: DiskPoint([[1e-320 + 1e308j]]), "I - W conj\\(W\\) is not positive definite"),
    (lambda: DiskPoint(np.array([[[0.5]], [[1e-320 + 1e308j]]])),
     "I - W conj\\(W\\) is not positive definite \\(slice 1\\)"),
], ids=["siegel-symmetry", "tangent-symmetry", "disk-positivity", "disk-batch"])
def test_a_check_that_overflows_rejects(make, match):
    """A residual that overflows to NaN fails its check rather than passing it."""
    with pytest.raises(DomainError, match=match):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: SiegelJacobiPoint(sample_point("disk", 2), np.ones((1, 2))),
     "SiegelJacobiPoint takes a SiegelPoint, not a DiskPoint"),
    (lambda: SiegelJacobiPoint(sample_point("siegel_jacobi", 2), np.ones((1, 2))),
     "SiegelJacobiPoint takes a SiegelPoint, not a SiegelJacobiPoint"),
    (lambda: DiskJacobiPoint(sample_point("siegel", 2), np.ones((1, 2))),
     "DiskJacobiPoint takes a DiskPoint, not a SiegelPoint"),
], ids=["siegel_jacobi-on-disk", "siegel_jacobi-on-siegel_jacobi", "disk_jacobi-on-siegel"])
def test_a_jacobi_point_on_a_base_of_another_model_is_a_dimension_error(make, match):
    with pytest.raises(DimensionError, match=f"^{match}$"):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: SiegelPoint(sample_point("disk", 2)), "omega"),
    (lambda: SiegelJacobiPoint(1j * np.eye(2), sample_point("disk", 2)), "z"),
    (lambda: DiskPoint([[0.5, 0.1], [0.1]]), "w"),
    (lambda: TangentVector("ab"), "dbase"),
    (lambda: TangentVector(np.eye(2), [[10**400, 0]]), "dfiber"),
], ids=["point-as-omega", "point-as-fiber", "ragged", "malformed-string", "past-the-doubles"])
def test_an_argument_that_is_not_an_array_of_complex_numbers_is_a_dimension_error(make, match):
    with pytest.raises(DimensionError, match=f"^{match}: not an array of complex numbers: "):
        make()


@pytest.mark.parametrize("kind", ["siegel", "disk", "siegel_jacobi", "disk_jacobi"])
def test_point_constructors_leave_caller_arrays_writeable_and_unaliased(kind):
    base = np.array([[0.1 + 1.0j, 0.2], [0.2, 0.3 + 2.0j]]) / (1 if "siegel" in kind else 4)
    fiber = np.array([[0.5 - 0.25j, 1j]])
    before = (base.copy(), fiber.copy())
    if kind == "siegel":
        p, stored = SiegelPoint(base), lambda p: [p.omega]
    elif kind == "disk":
        p, stored = DiskPoint(base), lambda p: [p.w]
    elif kind == "siegel_jacobi":
        p, stored = SiegelJacobiPoint(base, fiber), lambda p: [p.omega, p.z]
    else:
        p, stored = DiskJacobiPoint(base, fiber), lambda p: [p.w, p.eta]
    for a, arr, old in zip((base, fiber), stored(p), before):
        assert a.flags.writeable
        assert not arr.flags.writeable
        a += 7.0
        np.testing.assert_array_equal(arr, old)


# ---------------------------------------------------------------------------
# each map against its textbook formula, written out with np.linalg.inv


def _oracle_cases(g, h, seed, batch):
    """(name, image, want) for the eight maps at the seed's points and elements,
    a batch of three of each if batch: want lists the image's parts, base then
    fiber, from the formula of the map's docstring."""
    def seeds(k):
        return [seed + 10 * i + k for i in range(3)] if batch else seed + k

    eye, inv = np.eye(g), np.linalg.inv
    om = sample_point("siegel_jacobi", g, h, seeds(0))
    dk = sample_point("disk_jacobi", g, h, seeds(1))
    m, gs = sample_element("sp", g, h, seeds(2)), sample_element("gstar", g, h, seeds(2))
    j, jd = sample_element("jacobi", g, h, seeds(2)), sample_element("gstarj", g, h, seeds(2))
    o, z, w, eta = om.omega, om.z, dk.w, dk.eta

    def siegel(a, b, c, d):
        return (a @ o + b) @ inv(c @ o + d), inv(c @ o + d)

    def disk(p, q):
        return (p @ w + q) @ inv(q.conj() @ w + p.conj()), inv(q.conj() @ w + p.conj())

    mj, jinv = siegel(j.m.a, j.m.b, j.m.c, j.m.d)
    mjd, dinv = disk(jd.gs.p, jd.gs.q)
    forth, back = 1j * (eye + w) @ inv(eye - w), (o - 1j * eye) @ inv(o + 1j * eye)
    return [
        ("act_siegel", act_siegel(m, om.base), [siegel(m.a, m.b, m.c, m.d)[0]]),
        ("act_disk", act_disk(gs, dk.base), [disk(gs.p, gs.q)[0]]),
        ("act_jacobi", act_jacobi(j, om), [mj, (z + j.hs.lam @ o + j.hs.mu) @ jinv]),
        ("act_jacobi_disk", act_jacobi_disk(jd, dk),
         [mjd, (eta + jd.hc.xi @ w + jd.hc.eta) @ dinv]),
        ("cayley", cayley(dk.base), [forth]),
        ("cayley_inv", cayley_inv(om.base), [back]),
        ("partial_cayley", partial_cayley(dk), [forth, 2j * eta @ inv(eye - w)]),
        ("partial_cayley_inv", partial_cayley_inv(om), [back, z @ inv(o + 1j * eye)]),
    ]


@pytest.mark.parametrize("batch", [False, True], ids=["2d", "batch"])
@pytest.mark.parametrize("g,h", [(2, 1), (3, 2), (4, 3)])
def test_each_map_gives_its_textbook_formula(g, h, batch):
    for seed in range(4):
        for name, image, want in _oracle_cases(g, h, seed, batch):
            parts = [getattr(image, n) for n in ("omega", "w", "z", "eta") if hasattr(image, n)]
            assert len(parts) == len(want), name
            for got, ref in zip(parts, want):
                assert got.shape == ref.shape, name
                assert np.all(rel_error(got, ref) <= 1e-12), (name, rel_error(got, ref))


# ---------------------------------------------------------------------------
# each base-model map is the base part of its Jacobi map, bit for bit


@pytest.mark.parametrize("seed", [4, [4, 5, 6]], ids=["2d", "batch"])
@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (4, 3)])
def test_each_base_model_map_is_the_base_part_of_its_jacobi_map(g, h, seed):
    # metric-invariance reads its base-model identities off the Jacobi maps' images
    a, pj = sample_element("jacobi", g, h, seed), sample_point("siegel_jacobi", g, h, seed)
    b, pb = sample_element("gstarj", g, h, seed), sample_point("disk_jacobi", g, h, seed)
    v = sample_tangent(g, h, seed)
    pairs = [("omega", act_siegel(a.m, pj.base, dirs=[v]), act_jacobi(a, pj, dirs=[v])),
             ("w", act_disk(b.gs, pb.base, dirs=[v]), act_jacobi_disk(b, pb, dirs=[v])),
             ("omega", cayley(pb.base, dirs=[v]), partial_cayley(pb, dirs=[v]))]
    for part, (base, (dbase,)), (full, (dfull,)) in pairs:
        assert type(base) is type(full.base)
        assert np.array_equal(getattr(base, part), getattr(full.base, part))
        assert dbase.dfiber is None and np.array_equal(dbase.dbase, dfull.dbase)


@pytest.mark.parametrize("dirs", [sample_tangent(2, 1, 3), np.eye(2)], ids=["tangent", "array"])
def test_dirs_that_are_not_a_list_or_tuple_are_a_dimension_error_before_any_solve(guards, dirs):
    a, p = sample_element("jacobi", 2, 1, 1), sample_point("siegel_jacobi", 2, 1, 2)
    with pytest.raises(DimensionError, match="^dirs takes a list or tuple of TangentVectors, "
                                             f"not a {type(dirs).__name__}$"):
        act_jacobi(a, p, dirs=dirs)
    assert guards == []
