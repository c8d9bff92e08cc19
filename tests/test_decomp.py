import numpy as np
import pytest

from sjkit.decomp import (
    component_residuals,
    decompose_full,
    hc_decompose_gstar,
    kc_component,
    pminus_component,
)
from sjkit.groups import (
    ComplexHeisenbergElement,
    GStarElement,
    GStarJacobiElement,
    gstarj_mul,
    sample_element,
)
from sjkit import decomp, groups, suites
from sjkit.automorphy import IndexMatrix, Representation, j_factor
from sjkit.numkit import ConsistencyError, DomainError, rel_error
from sjkit.spaces import (
    DiskJacobiPoint,
    DiskPoint,
    act_disk,
    act_jacobi,
    act_jacobi_disk,
    act_siegel,
    cayley,
    cayley_inv,
    partial_cayley,
    partial_cayley_inv,
    sample_point,
)


def origin(g, h):
    return DiskJacobiPoint(DiskPoint(np.zeros((g, g))), np.zeros((h, g)))


def test_hc_decompose_identity():
    f = hc_decompose_gstar(GStarElement(np.eye(2), np.zeros((2, 2))))
    assert np.max(np.abs(f.pplus_w)) < 1e-14
    assert np.max(np.abs(f.pminus_w)) < 1e-14
    np.testing.assert_allclose(f.k_p, np.eye(2))
    np.testing.assert_allclose(f.k_lower, np.eye(2))


def test_hc_decompose_rotation_image():
    f = hc_decompose_gstar(GStarElement(1j * np.eye(1), np.zeros((1, 1))))
    assert np.max(np.abs(f.pplus_w)) < 1e-14
    assert np.max(np.abs(f.pminus_w)) < 1e-14
    assert f.k_p[0, 0] == pytest.approx(1j)


def test_hc_decompose_random_reconstruction():
    for seed in range(30):
        gs = sample_element("gstar", 2, 1, seed=seed)
        f = hc_decompose_gstar(gs)
        assert rel_error(f.reconstruct(), gs.block()) < 1e-9
        assert rel_error(f.pplus_w, f.pplus_w.T) < 1e-9
        DiskPoint((f.pplus_w + f.pplus_w.T) / 2)  # upper coordinate is in the disk


def test_pplus_component_equals_action():
    for seed in range(50):
        for g, h in ((1, 1), (2, 1), (1, 2), (2, 2)):
            a = sample_element("gstarj", g, h, seed=seed)
            p = sample_point("disk_jacobi", g, h, seed=seed + 1)
            f = decompose_full(a, p)
            rhs = act_jacobi_disk(a, p)
            assert rel_error(f.hc.pplus_w, rhs.w) < 1e-12
            assert rel_error(f.pplus_eta, rhs.eta) < 1e-12
            # the raising views read the same components, field for field
            k_p, k_lower, kappa_star = kc_component(a, p)
            pm_w, pm_xi = pminus_component(a, p)
            np.testing.assert_array_equal(f.hc.k_p, k_p)
            np.testing.assert_array_equal(f.hc.k_lower, k_lower)
            np.testing.assert_array_equal(f.kappa_star, kappa_star)
            np.testing.assert_array_equal(f.hc.pminus_w, pm_w)
            np.testing.assert_array_equal(f.pminus_xi, pm_xi)


def test_pplus_identity_and_translation():
    e = GStarJacobiElement.identity(1, 1)
    p = sample_point("disk_jacobi", 1, 1, seed=4)
    out = act_jacobi_disk(e, p)
    assert rel_error(out.w, p.w) < 1e-14

    xi = np.array([[0.3 - 0.2j]])
    a = GStarJacobiElement(
        GStarElement(np.eye(1), np.zeros((1, 1))),
        ComplexHeisenbergElement(xi, xi.conj(), np.zeros((1, 1), dtype=complex)),
    )
    out = act_jacobi_disk(a, origin(1, 1))
    assert np.max(np.abs(out.w)) < 1e-14
    np.testing.assert_allclose(out.eta, xi.conj())  # mu-part survives at the origin


def test_kc_component_identity_and_kappa_reduction():
    e = GStarJacobiElement.identity(2, 1)
    p = sample_point("disk_jacobi", 2, 1, seed=5)
    k_p, k_lower, kappa_star = kc_component(e, p)
    np.testing.assert_allclose(k_p, np.eye(2))
    np.testing.assert_allclose(k_lower, np.eye(2))
    assert np.max(np.abs(kappa_star)) < 1e-14

    # lam = 0 and Q = 0: kappa_star reduces to the central part
    kap = np.array([[0.6]])
    a = GStarJacobiElement(
        GStarElement(1j * np.eye(1), np.zeros((1, 1))),
        ComplexHeisenbergElement(np.zeros((1, 1)), np.zeros((1, 1)), 1j * kap),
    )
    _, _, kappa_star = kc_component(a, sample_point("disk_jacobi", 1, 1, seed=6))
    np.testing.assert_allclose(kappa_star, 1j * kap)


def test_pminus_component_cases():
    e = GStarJacobiElement.identity(2, 1)
    p = sample_point("disk_jacobi", 2, 1, seed=7)
    pm_w, pm_xi = pminus_component(e, p)
    assert np.max(np.abs(pm_w)) < 1e-14
    assert np.max(np.abs(pm_xi)) < 1e-14

    a = sample_element("kstarj", 1, 1, seed=8)  # Q = 0, xi = 0
    pm_w, pm_xi = pminus_component(a, sample_point("disk_jacobi", 1, 1, seed=8))
    assert np.max(np.abs(pm_w)) < 1e-14
    np.testing.assert_allclose(pm_xi, a.hc.xi)


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2)])
def test_pminus_symmetry_random(g, h):
    for seed in range(30):
        a = sample_element("gstarj", g, h, seed=seed)
        p = sample_point("disk_jacobi", g, h, seed=seed + 1)
        pm_w, _ = pminus_component(a, p)
        assert rel_error(pm_w, pm_w.T) < 1e-10


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2)])
def test_decompose_full_trivial_and_random(g, h):
    e = GStarJacobiElement.identity(g, h)
    f = decompose_full(e, origin(g, h))
    assert np.max(np.abs(f.hc.pplus_w)) < 1e-14
    assert np.max(np.abs(f.kappa_star)) < 1e-14

    for seed in range(50):
        a = sample_element("gstarj", g, h, seed=seed)
        p = sample_point("disk_jacobi", g, h, seed=seed + 1)
        res = component_residuals(a, p)
        assert res["reconstruction"] < 1e-9
        assert res["pminus_symmetry"] < 1e-10
        assert res["kappa_agreement"] < 1e-10


def test_pure_heisenberg_kappa_star_at_origin():
    from sjkit.groups import HeisenbergElement, JacobiElement, SymplecticMatrix, theta

    lam = np.array([[0.4], [0.2]])
    mu = np.array([[-0.3], [0.6]])
    s = np.array([[0.5, 0.1], [0.1, -0.2]])
    kappa = s - mu @ lam.T + (mu @ lam.T + lam @ mu.T) / 2
    a = theta(JacobiElement(SymplecticMatrix.identity(1), HeisenbergElement(lam, mu, kappa)))
    _, _, kappa_star = kc_component(a, origin(1, 2))
    expected = a.hc.zeta + a.hc.eta @ a.hc.xi.T  # central part + mu t(lam) at the origin
    np.testing.assert_allclose(kappa_star, expected, atol=1e-13)


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or inner(*args))
    return calls


def test_one_conditioning_guard_per_call(monkeypatch):
    a = sample_element("gstarj", 2, 2, seed=1)
    p = sample_point("disk_jacobi", 2, 2, seed=2)
    calls = _count_calls(monkeypatch, np.linalg, "cond")
    idx, rep = IndexMatrix(np.eye(2)), Representation("det_power", 1)
    for fn in (lambda: decompose_full(a, p), lambda: component_residuals(a, p),
               lambda: kc_component(a, p), lambda: pminus_component(a, p),
               lambda: j_factor(idx, rep, a, p)):
        calls.clear()
        fn()
        assert len(calls) == 1


def test_cocycle_trial_guards_and_cores(monkeypatch):
    guards = _count_calls(monkeypatch, np.linalg, "cond")
    cores = _count_calls(monkeypatch, decomp, "_hc_core")
    for seeds in ([0], [1], [2], [0, 1, 2]):
        guards.clear()
        cores.clear()
        suites.SUITES["cocycle"][0](2, 2, seeds)
        # one action plus three Harish-Chandra cores, each guarded once per batch
        assert (len(guards), len(cores)) == (4, 3)


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2)])
def test_jacobi_actions_one_guard_and_base_action(monkeypatch, g, h):
    a = sample_element("jacobi", g, h, seed=7)
    p = sample_point("siegel_jacobi", g, h, seed=8)
    b = sample_element("gstarj", g, h, seed=9)
    q = sample_point("disk_jacobi", g, h, seed=10)
    guards = _count_calls(monkeypatch, np.linalg, "cond")
    out = act_jacobi(a, p)
    assert len(guards) == 1
    outd = act_jacobi_disk(b, q)
    assert len(guards) == 2
    np.testing.assert_array_equal(out.omega, act_siegel(a.m, p.base).omega)
    np.testing.assert_array_equal(outd.w, act_disk(b.gs, q.base).w)


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2)])
def test_partial_cayley_maps_one_guard_and_base_map(monkeypatch, g, h):
    p = sample_point("disk_jacobi", g, h, seed=11)
    q = sample_point("siegel_jacobi", g, h, seed=12)
    guards = _count_calls(monkeypatch, np.linalg, "cond")
    out = partial_cayley(p)
    assert len(guards) == 1
    outi = partial_cayley_inv(q)
    assert len(guards) == 2
    np.testing.assert_array_equal(out.omega, cayley(p.base).omega)
    np.testing.assert_array_equal(outi.w, cayley_inv(q.base).w)


@pytest.mark.parametrize("key,error", [
    ("pplus_symmetry", DomainError),
    ("kappa_agreement", ConsistencyError),
    ("pminus_symmetry", ConsistencyError),
])
def test_raising_views_check_core_residuals(monkeypatch, key, error):
    a = sample_element("gstarj", 2, 1, seed=3)
    p = sample_point("disk_jacobi", 2, 1, seed=4)
    factors, res = decomp._hc_core(a, p)
    monkeypatch.setattr(decomp, "_hc_core", lambda a, p: (factors, {**res, key: 1e-6}))
    assert component_residuals(a, p)[key] == 1e-6
    with pytest.raises(error):
        decompose_full(a, p)
    view = {"kappa_agreement": kc_component, "pminus_symmetry": pminus_component}.get(key)
    if view is not None:
        with pytest.raises(error):
            view(a, p)


def test_decompose_full_checks_membership_and_reconstruction(monkeypatch):
    from dataclasses import replace

    a = sample_element("gstarj", 2, 1, seed=5)
    p = sample_point("disk_jacobi", 2, 1, seed=6)
    factors, res = decomp._hc_core(a, p)
    outside = replace(factors, hc=replace(factors.hc, pplus_w=2 * np.eye(2)))
    monkeypatch.setattr(decomp, "_hc_core", lambda a, p: (outside, res))
    with pytest.raises(DomainError):
        decompose_full(a, p)
    shifted = replace(factors, kappa_star=factors.kappa_star + 1e-3)
    monkeypatch.setattr(decomp, "_hc_core", lambda a, p: (shifted, res))
    with pytest.raises(ConsistencyError):
        decompose_full(a, p)
    assert component_residuals(a, p)["reconstruction"] > 1e-9


def _part(factors, field):
    return getattr(factors.hc if field in ("pplus_w", "k_p", "k_lower", "pminus_w") else factors,
                   field)


def _corrupt(factors, field, value):
    from dataclasses import replace

    if field in ("pplus_w", "k_p", "k_lower", "pminus_w"):
        return replace(factors, hc=replace(factors.hc, **{field: value}))
    return replace(factors, **{field: value})


# The errors the factor and product holders raised: pplus_eta * 1e300
# overflows inside the symmetry check on purpose.
CORRUPTIONS = [
    ("kappa_star", lambda x: np.full_like(x, np.nan), "zeta: entries must be finite (no NaN/Inf)"),
    ("k_lower", np.zeros_like, "block matrix is singular"),
    ("pplus_eta", lambda x: x * 1e300, "zeta + eta t(xi) is not symmetric"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2)])
@pytest.mark.parametrize("field,bad,message", CORRUPTIONS)
def test_reconstruction_of_corrupted_factors_raises_the_holder_errors(g, h, field, bad, message):
    a = sample_element("gstarj", g, h, seed=5)
    p = sample_point("disk_jacobi", g, h, seed=6)
    factors = decompose_full(a, p)
    with pytest.raises(DomainError) as err:
        decomp.reconstruction_residual(a, p, _corrupt(factors, field, bad(_part(factors, field))))
    assert str(err.value) == message


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("field,bad,message", CORRUPTIONS)
def test_reconstruction_of_a_batch_names_its_corrupted_slice(field, bad, message):
    seeds = list(range(7))
    a = sample_element("gstarj", 2, 1, seed=seeds)
    p = sample_point("disk_jacobi", 2, 1, seed=[s + 1 for s in seeds])
    factors = decompose_full(a, p)
    part = _part(factors, field).copy()
    part[3] = bad(part[3])
    with pytest.raises(DomainError) as err:
        decomp.reconstruction_residual(a, p, _corrupt(factors, field, part))
    assert str(err.value) == message + " (slice 3)"


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2)])
def test_reconstruction_of_a_shifted_factor_is_a_residual(g, h):
    a = sample_element("gstarj", g, h, seed=5)
    p = sample_point("disk_jacobi", g, h, seed=6)
    factors = decompose_full(a, p)
    shifted = _corrupt(factors, "pminus_xi", factors.pminus_xi + 1e-3)
    assert decomp.reconstruction_residual(a, p, shifted) > 1e-9


def _oracle(block, xi, eta, zeta):
    """The 2(g+h) x 2(g+h) complex matrix E(block, xi, eta, zeta): embed_sp_gph's
    block formula with (M, lam, mu, kappa) replaced by (block, xi, eta, zeta),
    so that E(ab) = E(a) E(b) in SL(2g,C) x H_C for complex symplectic blocks."""
    g, h = block.shape[-1] // 2, xi.shape[-2]
    batch = np.broadcast_shapes(*(x.shape[:-2] for x in (block, xi, eta, zeta)))
    a, b, c, d = block[..., :g, :g], block[..., :g, g:], block[..., g:, :g], block[..., g:, g:]

    def full(x):
        return np.broadcast_to(x, batch + x.shape[-2:])

    def zero(r, c):
        return np.zeros(batch + (r, c))

    one = full(np.eye(h))
    return np.block([[full(a), zero(g, h), full(b), full(a @ eta.mT - b @ xi.mT)],
                     [full(xi), one, full(eta), full(zeta)],
                     [full(c), zero(g, h), full(d), full(c @ eta.mT - d @ xi.mT)],
                     [zero(h, g), zero(h, h), zero(h, g), one]])


def _oracle_rel(x, y):
    """Relative Frobenius residual |x - y| / |y| of each slice."""
    return np.linalg.norm(x - y, axis=(-2, -1)) / np.linalg.norm(y, axis=(-2, -1))


def _oracle_reconstruction(a, p, factors):
    """reconstruction_residual through the oracle: E(up) E(mid) E(low) against
    E(a) E(embedded point)."""
    up, mid, low = (_oracle(*parts) for parts in factors._parts(p.h))
    target = _oracle(*groups._embedded(a)) @ _oracle(*decomp._embedded_point(p))
    return _oracle_rel(up @ mid @ low, target)


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2), (4, 3)])
@pytest.mark.parametrize("seed", [0, list(range(20, 27))])
def test_array_products_match_the_holder_path_bit_for_bit(g, h, seed):
    """_big_product, gstarj_mul and reconstruction_residual against the
    independent 2(g+h) matrix oracle E."""
    other = 40 if np.ndim(seed) == 0 else [s + 20 for s in seed]
    a = sample_element("gstarj", g, h, seed=seed)
    b = sample_element("gstarj", g, h, seed=other)
    p = sample_point("disk_jacobi", g, h, seed=other)
    ea, eb = _oracle(*groups._embedded(a)), _oracle(*groups._embedded(b))
    kernel = groups._big_product(groups._embedded(a), groups._embedded(b))
    assert np.all(_oracle_rel(_oracle(*kernel), ea @ eb) <= 1e-12)
    factors = decompose_full(a, p)
    up, mid, low = (groups._big_parts(*parts) for parts in factors._parts(h))
    rebuilt = groups._big_product(groups._big_product(up, mid), low)
    assert np.all(_oracle_rel(_oracle(*rebuilt), _oracle(*up) @ _oracle(*mid) @ _oracle(*low))
                  <= 1e-12)
    res = decomp.reconstruction_residual(a, p, factors)
    assert np.shape(res) == np.shape(seed)
    assert np.all(res <= 1e-12) and np.all(_oracle_reconstruction(a, p, factors) <= 1e-12)
    # a shifted factor leaves a residual on both paths
    shifted = _corrupt(factors, "pminus_xi", factors.pminus_xi + 1e-3)
    assert np.all(decomp.reconstruction_residual(a, p, shifted) > 1e-9)
    assert np.all(_oracle_reconstruction(a, p, shifted) > 1e-9)
    # gstarj_mul's parts, read off E(a) E(b)
    prod, ref, n = gstarj_mul(a, b), ea @ eb, g + h
    for got, want in [(prod.gs.p, ref[..., :g, :g]), (prod.gs.q, ref[..., :g, n:n + g]),
                      (prod.hc.xi, ref[..., g:n, :g]), (prod.hc.eta, ref[..., g:n, n:n + g]),
                      (prod.hc.zeta, ref[..., g:n, n + g:])]:
        assert np.all(_oracle_rel(got, want) <= 1e-12)


def test_decompose_full_builds_no_big_group_holders(monkeypatch):
    a = sample_element("gstarj", 2, 2, seed=1)
    p = sample_point("disk_jacobi", 2, 2, seed=2)
    built = []
    inner = ComplexHeisenbergElement.__init__
    monkeypatch.setattr(ComplexHeisenbergElement, "__init__", lambda self, *args, **kw:
                        built.append(type(self).__name__) or inner(self, *args, **kw))
    decompose_full(a, p)
    assert built == []
    ComplexHeisenbergElement(p.eta, p.eta, np.zeros((2, 2)))  # the counter counts
    assert built == ["ComplexHeisenbergElement"]
