import numpy as np
import pytest

from sjkit.automorphy import (
    IndexMatrix,
    Representation,
    chi_character,
    j_factor,
    rho_eval,
    verify_cocycle,
)
from sjkit.decomp import kc_component
from sjkit.groups import (
    ComplexHeisenbergElement,
    GStarElement,
    GStarJacobiElement,
    gstarj_mul,
    sample_element,
)
from sjkit.numkit import DomainError, rel_error
from sjkit.spaces import DiskJacobiPoint, act_jacobi_disk, sample_point


def test_chi_at_zero():
    assert chi_character(IndexMatrix(np.eye(1)), np.zeros((1, 1))) == pytest.approx(1.0)


def test_chi_scalar_values():
    idx = IndexMatrix(np.eye(1))
    assert chi_character(idx, [[0.5 + 0j]]) == pytest.approx(-1.0)
    assert chi_character(idx, [[1j]]) == pytest.approx(np.exp(2 * np.pi), rel=1e-12)


def test_chi_is_a_character():
    rng = np.random.default_rng(3)
    idx = IndexMatrix(np.array([[1.0, 0.5], [0.5, 2.0]]))
    for _ in range(20):
        c1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = chi_character(idx, c1 + c2)
        rhs = chi_character(idx, c1) * chi_character(idx, c2)
        assert abs(lhs - rhs) < 1e-9 * max(1, abs(lhs))


def test_chi_overflow_guard():
    idx = IndexMatrix(np.eye(1))
    with pytest.raises(DomainError):
        chi_character(idx, [[200j]])


def test_index_matrix_validation():
    IndexMatrix(np.array([[1.0, 0.5], [0.5, 2.0]]), half_integral=True, psd=True)
    with pytest.raises(DomainError):
        IndexMatrix(np.array([[1.2]]), half_integral=True)
    with pytest.raises(DomainError):
        IndexMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]), half_integral=True)
    with pytest.raises(DomainError):
        IndexMatrix(-np.eye(2), psd=True)
    with pytest.raises(DomainError):
        IndexMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_index_matrix_rejects_non_finite_entries(bad):
    for flags in ({}, {"psd": True}, {"half_integral": True}):
        with pytest.raises(DomainError):
            IndexMatrix([[bad]], **flags)
        with pytest.raises(DomainError):
            IndexMatrix(np.array([[1.0, bad], [bad, 1.0]]), **flags)


# The symmetry check of this finite index overflows on purpose; numpy warns as it does.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_index_matrix_whose_check_overflows_is_rejected():
    with pytest.raises(DomainError, match="must be symmetric"):
        IndexMatrix(np.array([[1e308, 1e308], [-1e308, 1e308]]))


def test_index_matrix_rejects_complex_entries():
    for m in (np.array([[1 + 5j]]), [[1.0, 0.5j], [0.5j, 1.0]],
              np.array([[1 + 1j * np.inf]]), np.array([[1 + 1j * np.nan]]),
              np.array([[complex(np.nan, 0.0)]])):
        with pytest.raises(DomainError):
            IndexMatrix(m)
    idx = IndexMatrix(np.array([[2 + 0j]]))
    assert idx.m.dtype == np.float64 and idx.m[0, 0] == 2.0


def test_rho_det_power_and_standard():
    assert rho_eval(Representation("det_power", 0), 3.7 * np.eye(2))[0, 0] == pytest.approx(1.0)
    assert rho_eval(Representation("det_power", 2), 2 * np.eye(2))[0, 0] == pytest.approx(16.0)
    p = np.array([[1.0, 2.0], [0.5, 3.0]]).astype(complex)
    np.testing.assert_allclose(rho_eval(Representation("standard"), p), p)
    with pytest.raises(DomainError):
        rho_eval(Representation("det_power", 1), np.zeros((2, 2)))


@pytest.mark.parametrize("k", [1.5, True, np.bool_(True), "2", None, np.float64(2.0)])
def test_a_representation_takes_only_an_int_power(k):
    # det^1.5 would take the principal branch, -1j at det = -1: not a representation
    with pytest.raises(DomainError, match=r"the power k must be an int"):
        Representation("det_power", k)
    assert rho_eval(Representation("det_power", np.int64(2)), 2 * np.eye(2))[0, 0] == 16.0


def test_rho_det_power_that_overflows_is_a_domain_error():
    rep = Representation("det_power", -100000)
    for p in (0.5 * np.eye(1), np.stack([np.eye(2), 0.5 * np.eye(2)])):
        with pytest.raises(DomainError, match="out of double-precision range"):
            rho_eval(rep, p)
    assert rho_eval(rep, 2 * np.eye(1))[0, 0] == 0  # an underflow is exact zero, not an error


def test_rho_multiplicativity():
    rng = np.random.default_rng(4)
    rep = Representation("det_power", 2)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + np.eye(2)
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + np.eye(2)
        lhs = rho_eval(rep, a @ b)
        rhs = rho_eval(rep, a) @ rho_eval(rep, b)
        assert rel_error(lhs, rhs) < 1e-9


def test_summand_identity_and_central_case():
    e = GStarJacobiElement.identity(1, 1)
    p = sample_point("disk_jacobi", 1, 1, seed=1)
    assert np.max(np.abs(kc_component(e, p)[2])) < 1e-14

    kap = np.array([[0.7]])
    a = GStarJacobiElement(
        GStarElement(np.eye(1), np.zeros((1, 1))),
        ComplexHeisenbergElement(np.zeros((1, 1)), np.zeros((1, 1)), 1j * kap),
    )
    np.testing.assert_allclose(kc_component(a, p)[2], 1j * kap)


def test_factor_b_cases_and_independence():
    e = GStarJacobiElement.identity(2, 1)
    p = sample_point("disk_jacobi", 2, 1, seed=2)
    up, low = kc_component(e, p)[:2]
    np.testing.assert_allclose(up, np.eye(2))
    np.testing.assert_allclose(low, np.eye(2))

    a = sample_element("kstarj", 2, 1, seed=3)  # Q = 0
    up, low = kc_component(a, p)[:2]
    np.testing.assert_allclose(up, a.gs.p)
    np.testing.assert_allclose(low, a.gs.p.conj())

    # output depends only on the block part and W
    b = sample_element("gstarj", 2, 1, seed=4)
    p2 = DiskJacobiPoint(p.base, p.eta + (0.3 - 0.9j) * np.ones((1, 2)))
    up1, low1 = kc_component(b, p)[:2]
    up2, low2 = kc_component(b, p2)[:2]
    np.testing.assert_allclose(up1, up2)
    np.testing.assert_allclose(low1, low2)
    k_p, k_lower, _ = kc_component(b, p)
    np.testing.assert_allclose(up1, k_p)
    np.testing.assert_allclose(low1, k_lower)

    # ... and only on them: shifting the central part leaves it unchanged
    shift = np.array([[0.9]])
    b2 = GStarJacobiElement(b.gs, ComplexHeisenbergElement(b.hc.xi, b.hc.eta,
                                                           b.hc.zeta + 1j * shift))
    up3, low3 = kc_component(b2, p)[:2]
    np.testing.assert_allclose(up3, up1)
    np.testing.assert_allclose(low3, low1)


def test_j_factor_identity_and_rotation():
    e = GStarJacobiElement.identity(1, 1)
    p = sample_point("disk_jacobi", 1, 1, seed=5)
    out = j_factor(IndexMatrix(np.eye(1)), Representation("det_power", 3), e, p)
    assert out[0, 0] == pytest.approx(1.0)

    angle = 0.9
    rot = GStarJacobiElement(
        GStarElement(np.exp(1j * angle) * np.eye(1), np.zeros((1, 1))),
        ComplexHeisenbergElement.identity(1, 1),
    )
    out = j_factor(IndexMatrix(np.zeros((1, 1))), Representation("det_power", 1), rot, p)
    assert out[0, 0] == pytest.approx(np.exp(-1j * angle))


def test_j_factor_reduces_to_classical_factor():
    idx = IndexMatrix(np.zeros((1, 1)))
    for k in (0, 1, 2):
        rep = Representation("det_power", k)
        a = sample_element("gstarj", 2, 1, seed=6)
        p = sample_point("disk_jacobi", 2, 1, seed=7)
        out = j_factor(idx, rep, a, p)
        classical = np.linalg.det(a.gs.q.conj() @ p.w + a.gs.p.conj()) ** k
        assert out[0, 0] == pytest.approx(classical)


def test_cocycles_with_identity_and_random():
    idx = IndexMatrix(np.eye(1))
    rep = Representation("det_power", 2)
    e = GStarJacobiElement.identity(1, 1)
    p = sample_point("disk_jacobi", 1, 1, seed=8)
    assert verify_cocycle([idx], [rep], e, e, p) < 1e-14

    g1 = sample_element("gstarj", 1, 1, seed=9)
    assert verify_cocycle([idx], [rep], g1, e, p) < 1e-12

    for seed in range(20):
        for g, h in ((1, 1), (2, 1), (1, 2), (2, 2)):
            g1 = sample_element("gstarj", g, h, seed=seed)
            g2 = sample_element("gstarj", g, h, seed=seed + 100)
            q = sample_point("disk_jacobi", g, h, seed=seed)
            res = verify_cocycle([IndexMatrix(np.eye(h))], [rep], g1, g2, q)
            assert res < 1e-8


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2)])
def test_verify_cocycle_matches_j_factor_oracle(g, h):
    # the residual is the max of the additive kappa_star residual and, per
    # (index, representation) pair, j(g1 g2, p) against j(g1, g2 p) j(g2, p)
    indexes = [IndexMatrix(np.zeros((h, h))), IndexMatrix(np.eye(h)),
               IndexMatrix(2.0 * np.eye(h) + 0.5 * (np.ones((h, h)) - np.eye(h)),
                           half_integral=True, psd=True)]
    reps = [Representation("det_power", k) for k in (0, 1, 2)] + [Representation("standard")]
    for seed in range(12):
        g1 = sample_element("gstarj", g, h, seed=seed)
        g2 = sample_element("gstarj", g, h, seed=seed + 50)
        p = sample_point("disk_jacobi", g, h, seed=seed + 100)
        prod, moved = gstarj_mul(g1, g2), act_jacobi_disk(g2, p)
        want = rel_error(kc_component(prod, p)[2],
                         kc_component(g1, moved)[2] + kc_component(g2, p)[2])
        for idx in indexes:
            for rep in reps:
                lhs = j_factor(idx, rep, prod, p)
                rhs = j_factor(idx, rep, g1, moved) @ j_factor(idx, rep, g2, p)
                want = max(want, rel_error(lhs, rhs))
        assert verify_cocycle(indexes, reps, g1, g2, p) == want
        assert verify_cocycle(indexes[1:2], reps[3:], g1, g2, p) <= want
