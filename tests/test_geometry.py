import re
from functools import partial

import numpy as np
import pytest

from fd_oracle import FD_FIRST_REL, fd_jacobian_det, fd_pushforward
from sjkit.geometry import (
    MetricParams,
    TEST_FIELDS,
    _coordinate_dirs,
    _disk_frame,
    _metric_sj_terms,
    _point_parts,
    _siegel_frame,
    _sj_frame,
    _triu,
    laplacian_disk,
    laplacian_sj,
    laplacian_siegel,
    metric_disk,
    metric_sj,
    metric_siegel,
    pullback_metric_disk,
    sample_tangent,
    volume_density,
)
from sjkit.groups import conjugate_by_T, sample_element
from sjkit.numkit import (
    ConditioningError,
    DimensionError,
    DomainError,
    _stack_holders,
    rel_error,
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
    sample_point,
)

FIELDS = {f.name: f for f in TEST_FIELDS}


def tv(dbase, dfiber=None):
    return TangentVector(np.atleast_2d(dbase), None if dfiber is None else np.atleast_2d(dfiber))


# -- metrics ----------------------------------------------------------------


def test_metric_siegel_scalar_cases():
    assert metric_siegel(SiegelPoint([[1j]]), tv([[1.0]])) == pytest.approx(1.0)
    assert metric_siegel(SiegelPoint([[2j]]), tv([[1.0]])) == pytest.approx(0.25)
    assert metric_siegel(SiegelPoint([[2j]]), tv([[0.0]])) == 0.0


def test_metric_disk_scalar_cases():
    assert metric_disk(DiskPoint([[0j]]), tv([[1.0]])) == pytest.approx(4.0)
    assert metric_disk(DiskPoint([[0.5 + 0j]]), tv([[1.0]])) == pytest.approx(64.0 / 9.0)
    assert metric_disk(DiskPoint([[0.5 + 0j]]), tv([[0.0]])) == 0.0


def test_metric_sj_reductions():
    params = MetricParams(2.5, 1.0)
    p = SiegelJacobiPoint(SiegelPoint([[0.7 + 1.3j]]), [[0.4 + 0j]])  # V = 0
    v = tv([[0.3 - 0.8j]], [[0.0]])
    assert metric_sj(params, p, v) == pytest.approx(2.5 * metric_siegel(p.base, v))

    p = SiegelJacobiPoint(SiegelPoint([[1j]]), [[0j]])
    assert metric_sj(MetricParams(1, 1), p, tv([[0.0]], [[1.0]])) == pytest.approx(1.0)

    p = SiegelJacobiPoint(SiegelPoint([[1j]]), [[1j]])  # V = 1
    assert metric_sj(MetricParams(1, 1), p, tv([[1.0]], [[0.0]])) == pytest.approx(2.0)


@pytest.mark.parametrize("a,b", [(True, 1), (1, np.bool_(False)), ("a", 1), (1, None),
                                 (1 + 0j, 1), (0, 1), (1, -2.0), (np.inf, 1), (1, np.nan)])
def test_metric_params_take_only_finite_positive_reals(a, b):
    with pytest.raises(DomainError, match=r"metric parameters must be finite positive reals"):
        MetricParams(a, b)


def test_metric_invariance_samples():
    for seed in range(10):
        m = sample_element("sp", 2, 1, seed=seed)
        p = sample_point("siegel", 2, 1, seed=seed)
        v = sample_tangent(2, None, seed=seed)
        lhs = metric_siegel(p, v)
        rhs = metric_siegel(act_siegel(m, p), fd_pushforward(lambda q: act_siegel(m, q), p, v))
        assert abs(lhs - rhs) / max(1, abs(lhs)) < 1e-5

        gs = conjugate_by_T(m)
        pd = sample_point("disk", 2, 1, seed=seed)
        vd = sample_tangent(2, None, seed=seed + 50)
        lhs = metric_disk(pd, vd)
        rhs = metric_disk(act_disk(gs, pd), fd_pushforward(lambda q: act_disk(gs, q), pd, vd))
        assert abs(lhs - rhs) / max(1, abs(lhs)) < 1e-5


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (4, 3)])
def test_metric_siegel_is_the_real_part_of_the_sj_a_term_bit_for_bit(g, h):
    # so metric-invariance reads its Siegel-space values off that A-term
    seeds = list(range(12))
    for s in seeds:
        p, v = sample_point("siegel_jacobi", g, h, s), sample_tangent(g, h, s + 50)
        assert metric_siegel(p.base, v).hex() == _metric_sj_terms(p, v)[0].real.hex()
    p, v = sample_point("siegel_jacobi", g, h, seeds), sample_tangent(g, h, [s + 50 for s in seeds])
    want = _metric_sj_terms(p, v)[0].real
    assert [x.hex() for x in metric_siegel(p.base, v)] == [x.hex() for x in want]


def test_metric_sj_invariance_two_parameter_sets():
    for seed in range(8):
        a = sample_element("jacobi", 1, 1, seed=seed)
        p = sample_point("siegel_jacobi", 1, 1, seed=seed)
        v = sample_tangent(1, 1, seed=seed)
        for params in (MetricParams(1, 1), MetricParams(2.0, 0.5)):
            lhs = metric_sj(params, p, v)
            rhs = metric_sj(params, act_jacobi(a, p),
                            fd_pushforward(lambda q: act_jacobi(a, q), p, v))
            assert abs(lhs - rhs) / max(1, abs(lhs)) < 1e-5


def test_pullback_metric_origin_and_invariance():
    params = MetricParams(1, 1)
    origin = DiskJacobiPoint(DiskPoint([[0j]]), [[0j]])
    assert pullback_metric_disk(params, origin, tv([[1.0]], [[0.0]])) == pytest.approx(4.0, rel=1e-6)
    assert pullback_metric_disk(params, origin, tv([[0.0]], [[0.0]])) == pytest.approx(0.0, abs=1e-12)

    for seed in range(5):
        b = sample_element("gstarj", 1, 1, seed=seed)
        p = sample_point("disk_jacobi", 1, 1, seed=seed)
        v = sample_tangent(1, 1, seed=seed)
        lhs = pullback_metric_disk(params, p, v)
        rhs = pullback_metric_disk(params, act_jacobi_disk(b, p),
                                   fd_pushforward(lambda q: act_jacobi_disk(b, q), p, v))
        assert abs(lhs - rhs) / max(1, abs(lhs)) < 1e-5


def test_cayley_isometry():
    for seed in range(10):
        for g in (1, 2, 3):
            p = sample_point("disk", g, 1, seed=seed)
            v = sample_tangent(g, None, seed=seed)
            lhs = metric_disk(p, v)
            rhs = metric_siegel(cayley(p), fd_pushforward(cayley, p, v))
            assert abs(lhs - rhs) / max(1, abs(lhs)) < 1e-5


# -- Laplacians ---------------------------------------------------------------


def test_laplacian_constants_vanish():
    p = sample_point("siegel", 2, 1, seed=1)
    assert laplacian_siegel(lambda q: np.full(q.omega.shape[:-2], 3.25), p) == pytest.approx(0.0, abs=1e-10)
    pd = sample_point("disk", 2, 1, seed=1)
    assert laplacian_disk(lambda q: np.full(q.w.shape[:-2], -1.5), pd) == pytest.approx(0.0, abs=1e-10)


def test_laplacian_siegel_closed_values():
    p = SiegelPoint([[0.6 + 1.4j]])
    logy = lambda q: np.log(np.imag(q.omega[..., 0, 0]))
    assert laplacian_siegel(logy, p) == pytest.approx(-1.0, abs=1e-4)
    assert laplacian_siegel(lambda q: np.imag(q.omega[..., 0, 0]), p) == pytest.approx(
        0.0, abs=1e-6
    )


def test_laplacian_disk_closed_value_and_correspondence():
    assert laplacian_disk(lambda q: abs(q.w[..., 0, 0]) ** 2, DiskPoint([[0j]])) == pytest.approx(
        1.0, abs=1e-6
    )
    # isometry correspondence at a non-trivial point, f = log Im on the upper model
    w = DiskPoint([[0.3 - 0.2j]])
    logy = lambda q: np.log(np.imag(q.omega[..., 0, 0]))
    lhs = laplacian_disk(lambda q: logy(cayley(q)), w)
    rhs = laplacian_siegel(logy, cayley(w))
    assert lhs == pytest.approx(rhs, abs=1e-4)
    assert lhs == pytest.approx(-1.0, abs=1e-4)


def test_laplacian_sj_closed_value_and_reduction():
    p = SiegelJacobiPoint(SiegelPoint([[0.4 + 1.1j]]), [[0.3 + 0.2j]])
    logy = lambda q: np.log(np.imag(q.omega[..., 0, 0]))
    assert laplacian_sj(MetricParams(2.0, 1.0), logy, p) == pytest.approx(-0.5, abs=1e-4)
    # V = 0, Z-independent field, A = 1: agrees with the base operator
    p0 = SiegelJacobiPoint(SiegelPoint([[0.4 + 1.1j]]), [[0.25 + 0j]])
    got = laplacian_sj(MetricParams(1.0, 1.0), logy, p0)
    want = laplacian_siegel(logy, p0.base)
    assert got == pytest.approx(want, abs=1e-6)
    # hand value -g(g+1)/(2A) of log det Y at g >= 2, for any B and any V
    for g, h in ((2, 2), (3, 2)):
        for seed in (0, 1):
            p = sample_point("siegel_jacobi", g, h, seed=seed)
            for a, b in ((1.0, 0.5), (2.0, 3.0)):
                got = laplacian_sj(MetricParams(a, b), FIELDS["logdet-y"], p)
                assert got == pytest.approx(-g * (g + 1) / (2 * a), abs=1e-4)


def test_laplacian_sj_mixed_terms_hand_value():
    # f = y v^2 at g = h = 1: all four cross derivatives are nonzero and the
    # operator evaluates to 6 y v^2 / A + 2 y^2 / B (hand Wirtinger computation)
    p = SiegelJacobiPoint(SiegelPoint([[0.2 + 1.1j]]), [[0.3 + 0.4j]])
    f = FIELDS["trace-yvv"]
    y, v = 1.1, 0.4
    got = laplacian_sj(MetricParams(2.0, 1.0), f, p)
    assert got == pytest.approx(6 * y * v**2 / 2.0 + 2 * y**2 / 1.0, abs=1e-4)


def test_laplacian_siegel_logdet_multidim():
    # hand value: -g(g+1)/2 at any point, checked at g = 2
    p = sample_point("siegel", 2, 1, seed=3)
    f = FIELDS["logdet-y"]
    assert laplacian_siegel(f, p) == pytest.approx(-3.0, abs=1e-3)


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_laplacian_invariance_catalog(g, h):
    params = MetricParams(1, 1)
    a = sample_element("jacobi", g, h, seed=11)
    p = sample_point("siegel_jacobi", g, h, seed=12)
    for f in TEST_FIELDS:
        if f.domain == "disk":
            gs = sample_element("gstar", g, h, seed=13)
            pd = sample_point("disk", g, h, seed=14)
            lhs = laplacian_disk(lambda q: f(act_disk(gs, q)), pd)
            rhs = laplacian_disk(f, act_disk(gs, pd))
        else:
            lhs = laplacian_sj(params, lambda q: f(act_jacobi(a, q)), p)
            rhs = laplacian_sj(params, f, act_jacobi(a, p))
        assert abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)) < 1e-3


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (4, 3)])
@pytest.mark.parametrize("name", [f.name for f in TEST_FIELDS if f.domain == "siegel"])
def test_a_field_of_omega_alone_has_the_bits_of_its_siegel_laplacian_on_siegel_jacobi_space(
        name, g, h):
    # the fiber directions of the Siegel-Jacobi frame leave Omega fixed, so their
    # differences are exactly 0, and act_jacobi's base is act_siegel's image: the
    # laplacian-invariance check of such a field on its Siegel model is the one
    # it would make on Siegel-Jacobi space, bit for bit
    f, sj = FIELDS[name], partial(laplacian_sj, MetricParams(1, 1))
    for seed in range(4):
        a = sample_element("jacobi", g, h, seed=seed)
        p = sample_point("siegel_jacobi", g, h, seed=seed + 1)
        got = [sj(lambda q: f(act_jacobi(a, q)), p), sj(f, act_jacobi(a, p))]
        want = [laplacian_siegel(lambda q: f(act_siegel(a.m, q)), p.base),
                laplacian_siegel(f, act_siegel(a.m, p.base))]
        assert [x.hex() for x in got] == [x.hex() for x in want], seed


def _polarized_gram(metric, frame):
    """Gram matrix of the Hermitian form whose quadratic form is metric."""
    def q(u, v, c):
        return metric(TangentVector(u[0] + c * v[0], None if u[1] is None else u[1] + c * v[1]))

    units = (1, -1, 1j, -1j)
    db, df = frame  # the stacked displacements, df None for a fixed fiber
    frame = list(zip(db, [None] * len(db) if df is None else df))
    return np.array([[sum(c * q(u, v, c) for c in units) / 4 for v in frame] for u in frame])


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2)])
def test_laplacian_frames_are_metric_orthonormal(g, h):
    # the operators' frames against the metric functions they are derived from;
    # the Siegel-Jacobi frame is orthonormal for A = B = 1, so under (A, B) its
    # Gram matrix is diag(A, ..., A, B, ..., B), the reciprocals of its weights
    params = MetricParams(2.0, 0.5)
    p = sample_point("siegel", g, h, seed=21)
    pd = sample_point("disk", g, h, seed=22)
    pj = sample_point("siegel_jacobi", g, h, seed=23)
    n = g * (g + 1) // 2
    cases = [
        (lambda v: metric_siegel(p, v), _siegel_frame(p.omega), np.ones(n)),
        (lambda v: metric_disk(pd, v), _disk_frame(pd.w), np.ones(n)),
        (lambda v: metric_sj(params, pj, v), _sj_frame(pj.omega, pj.z),
         np.repeat([params.a, params.b], [n, h * g])),
    ]
    for metric, frame, diag in cases:
        gram = _polarized_gram(metric, frame)
        assert np.max(np.abs(gram - np.diag(diag))) < 1e-12


def _close(got, want, weights=()):
    # relative, with a floor of 1 and of the weights 1/A and 1/B, which scale the
    # stencil's rounding also where the value is 0
    assert abs(got - want) <= 1e-4 * max(1.0, abs(want), *weights), (got, want)


def _check_closed_forms(g, omega, z, w):
    """Delta logdet-y = -g(g+1)/2 on Siegel space and -g(g+1)/(2A) on the
    Siegel-Jacobi space, Delta logdet-disk = -g(g+1)/2, and trace-re-base and
    re-trace-z, real parts of holomorphic functions, are harmonic."""
    n = g * (g + 1) / 2
    if omega is not None:
        p = SiegelPoint(omega)
        _close(laplacian_siegel(FIELDS["logdet-y"], p), -n)
        _close(laplacian_siegel(FIELDS["trace-re-base"], p), 0.0)
        pj = SiegelJacobiPoint(p, z)
        for a, b in ((1, 1), (2, 0.5), (1e-6, 1), (1e6, 1e6)):
            params = MetricParams(a, b)
            _close(laplacian_sj(params, FIELDS["logdet-y"], pj), -n / a, (1 / a, 1 / b))
            for name in ("trace-re-base", "re-trace-z"):
                _close(laplacian_sj(params, FIELDS[name], pj), 0.0, (1 / a, 1 / b))
    if w is not None:
        _close(laplacian_disk(FIELDS["logdet-disk"], DiskPoint(w)), -n)


def _near_boundary_disk(g, gap, seed):
    """W = r U with U = V V^T, V unitary of random phases, and 1 - r^2 = gap: a
    point of the disk with I - W conj(W) = gap I, neither real nor diagonal."""
    a = np.random.default_rng(seed).normal(size=(2, g, g))
    v = np.linalg.qr(a[0] + 1j * a[1])[0]
    return np.sqrt(1 - gap) * v @ v.T


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2), (4, 3)])
def test_laplacians_meet_their_closed_forms_near_the_boundary_and_far_out(g, h):
    # a step in the frame's units keeps the stencil inside the domain at any point
    # the conditioning check admits: on the disk while 4 / lambda_min(M) <= 4504
    eye = np.eye(g)
    z = sample_point("siegel_jacobi", g, h, seed=30).z
    for seed in (31, 32):
        _check_closed_forms(g, sample_point("siegel", g, h, seed).omega, z,
                            sample_point("disk", g, h, seed).w)
    for omega in (1e-5j * eye, 1e4 * eye + 1j * eye, 3 * eye + 1e-6j * eye):
        _check_closed_forms(g, omega, z, None)
    for seed in (33, 34, 35):
        _check_closed_forms(g, None, None, _near_boundary_disk(g, 1e-3, seed))


def _conditioned(cond):
    """Valid g = 2 points whose M = Im(Omega) has condition number cond and whose
    M = I - W conj(W) has 4 / lambda_min(M) = cond."""
    omega = 1j * np.diag([1.0, 1 / cond])
    return omega, np.array([[0.5 + 0.3j, -0.2 + 0.1j]]), np.diag([0.0, np.sqrt(1 - 4 / cond)])


@pytest.mark.parametrize("cond", [5e3, 1e5])
def test_laplacians_refuse_an_ill_conditioned_point_before_any_field_call(cond):
    omega, z, w = _conditioned(cond)
    calls = []
    field = lambda q: calls.append(q) or np.zeros(q.omega.shape[:-2])  # noqa: E731
    disk_field = lambda q: calls.append(q) or np.zeros(q.w.shape[:-2])  # noqa: E731
    cases = [(laplacian_siegel, field, SiegelPoint(omega), "Im(omega): condition number"),
             (partial(laplacian_sj, MetricParams()), field,
              SiegelJacobiPoint(SiegelPoint(omega), z), "Im(omega): condition number"),
             (laplacian_disk, disk_field, DiskPoint(w), "I - W conj(W): 4/lambda_min")]
    for laplacian, f, p, m in cases:
        with pytest.raises(ConditioningError, match=re.escape(f"{m} {cond:.3e} ")):
            laplacian(f, p)
    assert calls == []


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_the_disk_laplacian_refuses_points_near_the_boundary_before_any_field_call(g):
    # I - W conj(W) is well conditioned at W = r U, but a field forms it from terms
    # of size 1, losing eps / (1 - r^2): there the stencil's error would exceed 1e-4
    calls = []
    field = lambda q: calls.append(q) or np.zeros(q.w.shape[:-2])  # noqa: E731
    points = [0.99999 * np.eye(g)] + [_near_boundary_disk(g, gap, seed=40 + g)
                                      for gap in (2e-4, 1e-5, 1e-8)]
    for w in points:
        with pytest.raises(ConditioningError, match=re.escape("I - W conj(W): 4/lambda_min")):
            laplacian_disk(field, DiskPoint(w))
    assert calls == []


@pytest.mark.parametrize("omega", [
    [[-1j]], np.diag([-1j, -2j]), np.diag([1j, -1j]), np.diag([1j, 0j]), np.zeros((2, 2)),
], ids=["negative-1x1", "negative-definite", "indefinite", "singular", "zero"])
def test_a_siegel_frame_that_is_not_positive_definite_is_a_conditioning_error(omega):
    # every eigenvalue negative once passed top / lambda_min <= 4504; a zero one divided by 0
    omega = np.asarray(omega, dtype=complex)
    calls = []
    field = lambda q: calls.append(q) or np.zeros(q.omega.shape[:-2])  # noqa: E731
    cases = [(laplacian_siegel, SiegelPoint(omega, validate=False)),
             (partial(laplacian_sj, MetricParams()),
              SiegelJacobiPoint(SiegelPoint(omega, validate=False), np.zeros((1, len(omega)))))]
    for laplacian, p in cases:
        with pytest.raises(ConditioningError, match=re.escape("Im(omega): condition number inf ")):
            laplacian(field, p)
    assert calls == []


@pytest.mark.parametrize("w", [[[1.0]], [[1j]], [[-1.0]], np.diag([0.5, 1.0]), np.diag([2.0, 0.1])],
                         ids=["1", "i", "-1", "diag-0.5-1", "outside"])
def test_a_disk_frame_at_or_past_the_boundary_is_a_conditioning_error(w):
    calls = []
    field = lambda q: calls.append(q) or np.zeros(q.w.shape[:-2])  # noqa: E731
    with pytest.raises(ConditioningError, match=re.escape("I - W conj(W): 4/lambda_min inf ")):
        laplacian_disk(field, DiskPoint(np.asarray(w, dtype=complex), validate=False))
    assert calls == []


def test_laplacians_meet_their_closed_forms_just_inside_the_conditioning_bound():
    omega, z, w = _conditioned(3e3)
    _check_closed_forms(2, omega, z, w)


@pytest.mark.parametrize("a,b", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (0.0, 1.0), (1.0, -2.0)])
def test_metric_params_must_be_finite_and_positive(a, b):
    with pytest.raises(DomainError):
        MetricParams(a, b)


# -- volume, finite-difference oracle, jacobian -------------------------------------------


def test_volume_density_values():
    assert volume_density(SiegelJacobiPoint(SiegelPoint(1j * np.eye(2)), np.zeros((1, 2)))) == 1.0
    assert volume_density(SiegelJacobiPoint(SiegelPoint([[2j]]), [[0j]])) == pytest.approx(0.125)
    y = np.diag([1.0, 2.0])
    p = SiegelJacobiPoint(SiegelPoint(1j * y), np.zeros((1, 2)))
    assert volume_density(p) == pytest.approx(0.0625)


def _sj_point(y: float, g: int, h: int) -> SiegelJacobiPoint:
    return SiegelJacobiPoint(SiegelPoint(1j * y * np.eye(g)), np.zeros((h, g)))


@pytest.mark.parametrize("y,g,h", [
    # det(Y) = 1e200 is finite and its -4th power underflows to 0 with no warning
    (1e100, 2, 1),
    # det(Y) overflows to inf, so the density is 0; no RuntimeWarning comes first
    (1e150, 4, 1),
    # det(Y) = 1e-40 and its -8th power overflows to inf, again with no warning
    (1e-10, 4, 3),
], ids=["underflow-to-0", "det-overflows", "power-overflows"])
def test_a_volume_density_of_zero_or_inf_is_a_domain_error(y, g, h):
    with pytest.raises(DomainError, match=r"density det\(Y\)\^-\(g\+h\+1\) = (0\.0|inf) is not"):
        volume_density(_sj_point(y, g, h))
    batch = SiegelJacobiPoint(SiegelPoint(1j * np.array([1.0, y])[:, None, None] * np.eye(g)),
                              np.zeros((2, h, g)))
    with pytest.raises(DomainError, match=r"not a positive finite number \(slice 1\)"):
        volume_density(batch)


_NOT_FINITE = ": not finite, from a NaN or inf field value or differences that overflow$"


# |tr Z|^2 = 1e400 = inf at this point on purpose, so abs2-trace-z is inf; numpy warns as it does
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_field_value_that_is_not_finite_raises_naming_its_laplacian():
    p = SiegelJacobiPoint(SiegelPoint(1j * np.eye(4)), np.full((1, 4), 1e200))
    with pytest.raises(DomainError, match="^siegel-jacobi laplacian" + _NOT_FINITE):
        laplacian_sj(MetricParams(), FIELDS["abs2-trace-z"], p)
    with pytest.raises(DomainError, match="^siegel laplacian" + _NOT_FINITE):
        laplacian_siegel(FIELDS["abs2-trace-z"], p)


def test_logdet_y_laplacian_is_finite_where_det_y_overflows():
    # det(Y) = 1e600 is out of range; logdet-y, 2 sum log diag L with Y = L L^T, is not
    p = _sj_point(1e150, 4, 1)
    _close(laplacian_sj(MetricParams(), FIELDS["logdet-y"], p), -10.0)
    _close(laplacian_siegel(FIELDS["logdet-y"], p.base), -10.0)


def test_a_nan_field_value_raises_naming_its_laplacian():
    # one NaN among the stencil's values, at a displaced point
    def nan_at_one_point(q):
        vals = np.zeros(q.w.shape[:-2])
        vals[3] = np.nan
        return vals

    with pytest.raises(DomainError, match="^disk laplacian" + _NOT_FINITE):
        laplacian_disk(nan_at_one_point, sample_point("disk", 2, 1, seed=1))


def test_a_batched_point_raises_naming_its_laplacian_before_any_field_call():
    calls = []
    field = lambda q: calls.append(q) or np.zeros(q.omega.shape[:-2])  # noqa: E731
    cases = [(laplacian_siegel, "siegel", "siegel laplacian"),
             (partial(laplacian_sj, MetricParams()), "siegel_jacobi", "siegel-jacobi laplacian"),
             (laplacian_disk, "disk", "disk laplacian")]
    for laplacian, kind, what in cases:
        p = sample_point(kind, 2, 1, [1, 2])
        with pytest.raises(DimensionError, match=re.escape(f"{what} takes one point, "
                                                           "not a batch of shape (2,)")):
            laplacian(field, p)
    assert calls == []


def test_pushforward_identity_and_cayley():
    p = sample_point("disk", 1, 1, seed=2)
    v = tv([[0.7 - 0.1j]])
    out = fd_pushforward(lambda q: q, p, v)
    assert rel_error(out.dbase, v.dbase) < 1e-9

    origin = DiskPoint([[0j]])
    out = fd_pushforward(cayley, origin, tv([[1.0]]))
    assert out.dbase[0, 0] == pytest.approx(2j, abs=1e-8)


def test_pushforward_linearity():
    p = sample_point("disk", 2, 1, seed=4)
    v = sample_tangent(2, None, seed=4)
    a = fd_pushforward(cayley, p, TangentVector(2.0 * v.dbase))
    b = fd_pushforward(cayley, p, v)
    assert rel_error(a.dbase, 2 * b.dbase) < 1e-6


def test_volume_invariance():
    for seed in range(5):
        for g, h in ((1, 1), (2, 1)):
            a = sample_element("jacobi", g, h, seed=seed)
            p = sample_point("siegel_jacobi", g, h, seed=seed)
            det_j = fd_jacobian_det(lambda q: act_jacobi(a, q), p)
            lhs = volume_density(act_jacobi(a, p)) * det_j
            rhs = volume_density(p)
            assert abs(lhs - rhs) / max(1.0, rhs) < 1e-4


def _abs_det_j(m, omega) -> float:
    """|det(C Omega + D)| for the symplectic part m."""
    return abs(np.linalg.det(m.c @ omega + m.d))


@pytest.mark.parametrize("g, h", [(2, 2), (3, 2), (4, 3)])
def test_jacobian_det_jacobi_action_closed_form(g, h):
    # J-H. Yang, J. Number Theory 127 (2007): |det(C Omega + D)|^-2(g+h+1)
    for seed in range(3):
        a = sample_element("jacobi", g, h, seed=seed)
        p = sample_point("siegel_jacobi", g, h, seed=seed + 1)
        got = fd_jacobian_det(lambda q: act_jacobi(a, q), p)
        want = _abs_det_j(a.m, p.omega) ** (-2 * (g + h + 1))
        assert abs(got - want) <= FD_FIRST_REL * want


@pytest.mark.parametrize("g", [2, 3, 4])
def test_jacobian_det_siegel_action_closed_form(g):
    for seed in range(3):
        m = sample_element("sp", g, 1, seed=seed)
        p = sample_point("siegel", g, 1, seed=seed + 1)
        got = fd_jacobian_det(lambda q: act_siegel(m, q), p)
        want = _abs_det_j(m, p.omega) ** (-2 * (g + 1))
        assert abs(got - want) <= FD_FIRST_REL * want


def test_tangent_vector_validation():
    with pytest.raises(DomainError):
        TangentVector(np.array([[0.0, 1.0], [0.0, 0.0]]))
    v = sample_tangent(2, 2, seed=0)
    assert v.dfiber.shape == (2, 2)
    again = sample_tangent(2, 2, seed=0)
    np.testing.assert_array_equal(v.dbase, again.dbase)


def test_tangent_vector_keeps_read_only_copies_of_the_caller_arrays():
    a = np.array([[1 + 0j, 2], [2, 1]])
    f = np.array([[0.5j, 1]])
    v = TangentVector(a, f)
    p = SiegelJacobiPoint(SiegelPoint(1j * np.eye(2)), np.zeros((1, 2)))
    want = (metric_siegel(p.base, v), metric_sj(MetricParams(), p, v))
    assert want[0] == 10.0
    for arr, stored in ((a, v.dbase), (f, v.dfiber)):
        assert arr.flags.writeable and not stored.flags.writeable
        assert not np.may_share_memory(arr, stored)
        arr[0, 1] = 99
    assert (metric_siegel(p.base, v), metric_sj(MetricParams(), p, v)) == want


@pytest.mark.parametrize("call, match", [
    (lambda p, pd, pj, pdj, v: metric_siegel(p, np.eye(2)), "takes a TangentVector, not a ndarray"),
    (lambda p, pd, pj, pdj, v: metric_disk(pd, np.eye(2)), "takes a TangentVector, not a ndarray"),
    (lambda p, pd, pj, pdj, v: metric_sj(MetricParams(), pj, np.eye(2)),
     "takes a TangentVector, not a ndarray"),
    (lambda p, pd, pj, pdj, v: act_siegel(sample_element("sp", 2), p, dirs=[np.eye(2)]),
     "takes a TangentVector, not a ndarray"),
    (lambda p, pd, pj, pdj, v: pullback_metric_disk(MetricParams(), pdj, None),
     "takes a TangentVector, not a NoneType"),
    (lambda p, pd, pj, pdj, v: metric_sj(None, pj, v),
     "metric_sj takes a MetricParams, not a NoneType"),
    (lambda p, pd, pj, pdj, v: pullback_metric_disk((1, 1), pdj, v),
     "metric_sj takes a MetricParams, not a tuple"),
    (lambda p, pd, pj, pdj, v: laplacian_sj(None, FIELDS["re-trace-z"], pj),
     "laplacian_sj takes a MetricParams, not a NoneType"),
], ids=["metric_siegel", "metric_disk", "metric_sj", "act_siegel-dirs", "pullback-tangent",
        "metric_sj-params", "pullback-params", "laplacian_sj-params"])
def test_a_tangent_or_metric_weight_of_the_wrong_class_is_a_dimension_error(call, match):
    points = [sample_point(kind, 2, 1, seed=1) for kind in ("siegel", "disk", "siegel_jacobi",
                                                            "disk_jacobi")]
    with pytest.raises(DimensionError, match=match):
        call(*points, sample_tangent(2, 1, seed=2))


def _tangent_cases(g, h, seed):
    """A fitting tangent, a wrong base (of degree g + 1, with a fiber of its
    width), a wrong fiber and a missing fiber at a (g, h) point."""
    v = sample_tangent(g, h, seed=seed)
    return v, sample_tangent(g + 1, h, seed=seed), \
        TangentVector(v.dbase, np.ones((h + 1, g))), TangentVector(v.dbase)


@pytest.mark.parametrize("name", ["metric_siegel", "metric_disk", "metric_sj", "pushforward"])
def test_tangent_shapes_are_checked_against_the_point(name):
    g, h = 2, 2
    p_sj = sample_point("siegel_jacobi", g, h, seed=1)
    evaluate = {
        "metric_siegel": lambda v: metric_siegel(p_sj.base, v),
        "metric_disk": lambda v: metric_disk(sample_point("disk", g, h, seed=2), v),
        "metric_sj": lambda v: metric_sj(MetricParams(2.0, 0.5), p_sj, v),
        "pushforward": lambda v: act_jacobi(sample_element("jacobi", g, h, 3), p_sj,
                                            dirs=[v])[1][0],
    }[name]
    fits, wrong_base, wrong_fiber, no_fiber = _tangent_cases(g, h, seed=4)
    evaluate(fits)
    with pytest.raises(DimensionError):
        evaluate(wrong_base)
    if name in ("metric_sj", "pushforward"):
        with pytest.raises(DimensionError):
            evaluate(wrong_fiber)
    else:  # a point without a fiber reads only the base part of a tangent
        assert evaluate(wrong_fiber) == evaluate(fits)
    if name == "metric_sj":
        with pytest.raises(DimensionError):
            evaluate(no_fiber)
    elif name == "pushforward":  # no fiber part: the fiber stays put
        zero = TangentVector(fits.dbase, np.zeros((h, g)))
        got, want = evaluate(no_fiber), evaluate(zero)
        np.testing.assert_array_equal(got.dbase, want.dbase)
        np.testing.assert_array_equal(got.dfiber, want.dfiber)
    else:
        assert evaluate(no_fiber) == evaluate(fits)


@pytest.mark.parametrize("g, h", [(1, 1), (2, 2), (4, 3)])
def test_coordinate_dirs_are_built_once_per_shape_and_read_only(g, h):
    base = [(i, j) for i in range(g) for j in range(i, g)]
    batched = [sample_point("siegel_jacobi", g, h, [s, s + 1, s + 2]) for s in (1, 7)]
    cases = [(sample_point("siegel", g, h, 1), sample_point("siegel", g, h, 2), None),
             (sample_point("disk_jacobi", g, h, 1), sample_point("disk_jacobi", g, h, 2), h),
             (*batched, h), (_stack_holders(*batched), _stack_holders(*batched[::-1]), h)]
    for p, q, fiber in cases:
        frame = _coordinate_dirs(p)
        assert _coordinate_dirs(q) is frame  # one per (g, h, batch ndim)
        # the directions on a leading axis, before an axis of length 1 per batch axis of p
        n_dirs = len(base) + (0 if fiber is None else h * g)
        lead = (n_dirs,) + (1,) * (_point_parts(p)[0].ndim - 2)
        assert frame.dbase.shape == lead + (g, g)
        assert frame.dfiber is None if fiber is None else frame.dfiber.shape == lead + (h, g)
        dbase = frame.dbase.reshape(n_dirs, g, g)
        for k, (i, j) in enumerate(base):
            want = np.zeros((g, g))
            want[i, j] = want[j, i] = 1.0
            np.testing.assert_array_equal(dbase[k], want)
        if fiber is not None:
            # a base direction has a zero fiber part, a fiber direction a zero base part
            dfiber = frame.dfiber.reshape(n_dirs, h * g)
            np.testing.assert_array_equal(dfiber[:len(base)], 0.0)
            np.testing.assert_array_equal(dfiber[len(base):], np.eye(h * g))
            np.testing.assert_array_equal(dbase[len(base):], 0.0)
        for x in (frame.dbase, frame.dfiber):
            if x is not None:
                assert x.dtype == complex and not x.flags.writeable
                with pytest.raises(ValueError):
                    x[(0,) * x.ndim] = 2.0
    iu = _triu(g)
    np.testing.assert_array_equal(iu, np.triu_indices(g))
    assert _triu(g) is iu and not iu.flags.writeable


def _two_inverse_metric_disk(w, dw) -> float:
    """metric_disk with a second inverse, of I - conj(W) W, in place of the conjugate of the first."""
    i = np.eye(len(w))
    s, sb = np.linalg.inv(i - w @ w.conj()), np.linalg.inv(i - w.conj() @ w)
    return float((4.0 * np.trace(s @ dw @ sb @ dw.conj())).real)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_metric_disk_has_the_bits_of_its_two_inverse_formula(g):
    # I - conj(W) W = conj(I - W conj(W)), so the conjugate of one inverse is the other
    points = list(sample_point("disk", g, 1, seed=list(range(300))).w)
    points += [_near_boundary_disk(g, 1e-3, seed) for seed in (50, 51, 52)]
    tangents = sample_tangent(g, seed=list(range(len(points)))).dbase
    for w, dw in zip(points, tangents, strict=True):
        assert metric_disk(DiskPoint(w), TangentVector(dw)) == _two_inverse_metric_disk(w, dw)


def test_metric_disk_refuses_a_near_singular_point_naming_its_guard():
    # an unvalidated point with cond(I - W conj(W)) about 1e13, alone and as the image of a pair
    w = np.diag([0.0, np.sqrt(1 - 1e-13)])
    v = TangentVector(np.eye(2))
    with pytest.raises(ConditioningError, match=re.escape("I - W conj(W): condition number")):
        metric_disk(DiskPoint(w, validate=False), v)
    pair = DiskPoint(np.stack([0.5 * np.eye(2), w]), validate=False)
    with pytest.raises(ConditioningError, match=r"I - W conj\(W\): .* \(slice 1\)$"):
        metric_disk(pair, v)


@pytest.mark.parametrize("g,h", [(1, 1), (2, 1), (3, 2)])
def test_metric_sj_weighs_the_terms_it_shares_between_metric_params(g, h):
    p = sample_point("siegel_jacobi", g, h, seed=60)
    v = sample_tangent(g, h, seed=61)
    ta, tb = _metric_sj_terms(p, v)
    for a, b in ((1.0, 1.0), (2.0, 0.5), (0.3, 7.0)):
        assert metric_sj(MetricParams(a, b), p, v) == float((a * ta + b * tb).real)


@pytest.mark.parametrize("laplacian, kind, frame", [
    (laplacian_siegel, "siegel", "_siegel_frame"), (laplacian_disk, "disk", "_disk_frame"),
    (partial(laplacian_sj, MetricParams()), "siegel_jacobi", "_sj_frame"),
], ids=["siegel", "disk", "sj"])
def test_a_field_that_is_not_callable_is_a_dimension_error_before_any_frame(count_calls,
                                                                          laplacian, kind, frame):
    frames = count_calls(f"geometry.{frame}")
    with pytest.raises(DimensionError, match=r" laplacian takes a callable field, not a int$"):
        laplacian(5, sample_point(kind, 2, 1, seed=1))
    assert frames == []
