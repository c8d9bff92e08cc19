"""The exact differentials of the actions and Cayley maps, against the
finite-difference oracle of fd_oracle and the closed-form Jacobian."""

from functools import partial

import numpy as np
import pytest

from fd_oracle import FD_FIRST_REL, fd_jacobian_det, fd_pushforward
from sjkit.geometry import _abs_det2, _coordinate_dirs, sample_tangent
from sjkit.groups import sample_element
from sjkit.numkit import DimensionError, rel_error
from sjkit.spaces import (
    DiskJacobiPoint,
    DiskPoint,
    TangentVector,
    act_disk,
    act_jacobi,
    act_jacobi_disk,
    act_siegel,
    cayley,
    partial_cayley,
    sample_point,
)

SHAPES = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)]
SEEDS = range(10)


def _case(name, g, h, seed):
    """(map taking dirs=..., point, tangent vector) for one of the six maps."""
    s = 3 * seed
    if name == "act_siegel":
        return (partial(act_siegel, sample_element("sp", g, h, s)),
                sample_point("siegel", g, h, s + 1), sample_tangent(g, None, s + 2))
    if name == "act_disk":
        return (partial(act_disk, sample_element("gstar", g, h, s)),
                sample_point("disk", g, h, s + 1), sample_tangent(g, None, s + 2))
    if name == "act_jacobi":
        return (partial(act_jacobi, sample_element("jacobi", g, h, s)),
                sample_point("siegel_jacobi", g, h, s + 1), sample_tangent(g, h, s + 2))
    if name == "act_jacobi_disk":
        return (partial(act_jacobi_disk, sample_element("gstarj", g, h, s)),
                sample_point("disk_jacobi", g, h, s + 1), sample_tangent(g, h, s + 2))
    if name == "cayley":
        return cayley, sample_point("disk", g, h, s + 1), sample_tangent(g, None, s + 2)
    return partial_cayley, sample_point("disk_jacobi", g, h, s + 1), sample_tangent(g, h, s + 2)


MAPS = ["act_siegel", "act_disk", "act_jacobi", "act_jacobi_disk", "cayley", "partial_cayley"]


@pytest.mark.parametrize("g,h", SHAPES)
@pytest.mark.parametrize("name", MAPS)
def test_exact_differential_matches_fd_pushforward(name, g, h):
    for seed in SEEDS:
        fn, p, v = _case(name, g, h, seed)
        _, (exact,) = fn(p, dirs=[v])
        fd = fd_pushforward(fn, p, v)
        assert rel_error(exact.dbase, fd.dbase) <= FD_FIRST_REL
        assert (exact.dfiber is None) == (fd.dfiber is None)
        if fd.dfiber is not None:
            assert rel_error(exact.dfiber, fd.dfiber) <= FD_FIRST_REL


@pytest.mark.parametrize("g,h", SHAPES)
@pytest.mark.parametrize("name", MAPS)
def test_image_with_directions_is_bit_identical(name, g, h):
    for seed in SEEDS:
        fn, p, v = _case(name, g, h, seed)
        plain = fn(p)
        twice = TangentVector(2.0 * v.dbase, None if v.dfiber is None else 2.0 * v.dfiber)
        moved, pushed = fn(p, dirs=[v, twice, v])
        assert len(pushed) == 3
        for a, b in zip(_parts(plain), _parts(moved), strict=True):
            assert np.array_equal(a, b)
        _, none = fn(p, dirs=[])
        assert none == []


# a map, its element kind (None for a Cayley map) and its point kind
_FRAMED = {"act_jacobi": (act_jacobi, "jacobi", "siegel_jacobi"),
           "act_jacobi_disk": (act_jacobi_disk, "gstarj", "disk_jacobi"),
           "cayley": (cayley, None, "disk")}


@pytest.mark.parametrize("g,h", [(1, 3), (2, 2), (4, 3)])
@pytest.mark.parametrize("name", sorted(_FRAMED))
def test_a_frame_of_directions_pushes_each_direction_with_the_bits_of_its_own_push(name, g, h):
    fn, element, kind = _FRAMED[name]
    seeds = [11, 12, 13]
    at = (lambda s: (sample_element(element, g, h, s),)) if element else (lambda s: ())
    p = sample_point(kind, g, h, [s + 1 for s in seeds])
    frame = _coordinate_dirs(p)  # its directions on a leading axis, before an axis of length 1
    moved, (pushed,) = fn(*at(seeds), p, dirs=[frame])
    assert pushed.dbase.shape == (len(frame.dbase), 3, g, g)
    for i, s in enumerate(seeds):
        q = sample_point(kind, g, h, s + 1)
        dirs = [TangentVector(frame.dbase[k, 0], None if frame.dfiber is None else frame.dfiber[k, 0])
                for k in range(len(frame.dbase))]
        _, alone = fn(*at(s), q, dirs=dirs)
        for k, v in enumerate(alone):
            assert pushed.dbase[k, i].tobytes() == v.dbase.tobytes()
            assert (v.dfiber is None) == (pushed.dfiber is None)
            assert v.dfiber is None or pushed.dfiber[k, i].tobytes() == v.dfiber.tobytes()
    # a batch of directions that does not broadcast against the points' is refused
    v = sample_tangent(g, None if frame.dfiber is None else h, [1, 2])
    with pytest.raises(DimensionError, match=r"batch \(2,\) does not broadcast with batch \(3,\)"):
        fn(*at(seeds), p, dirs=[v])
    if frame.dfiber is not None:  # nor does a fiber part's
        with pytest.raises(DimensionError, match=r"batch \(2,\) does not broadcast"):
            fn(*at(seeds), p, dirs=[TangentVector(frame.dbase, v.dfiber)])


@pytest.mark.parametrize("name", MAPS)
def test_pushed_tangent_vectors_are_read_only(name):
    fn, p, v = _case(name, 2, 1, 0)
    _, pushed = fn(p, dirs=[v, TangentVector(v.dbase)])
    fibered = name in ("act_jacobi", "act_jacobi_disk", "partial_cayley")
    for u in pushed:
        assert (u.dfiber is not None) == fibered
        assert not u.dbase.flags.writeable
        assert not fibered or not u.dfiber.flags.writeable


def _parts(p):
    return [getattr(p, n) for n in ("omega", "w", "z", "eta") if hasattr(p, n)]


def test_exact_differential_is_linear_and_fiber_free_for_base_maps():
    fn, p, v = _case("act_jacobi", 2, 2, 0)
    _, (a, b, c) = fn(p, dirs=[v, TangentVector(-3.0 * v.dbase, -3.0 * v.dfiber),
                               TangentVector(v.dbase)])
    assert rel_error(b.dbase, -3.0 * a.dbase) < 1e-14
    assert rel_error(b.dfiber, -3.0 * a.dfiber) < 1e-14
    assert c.dfiber.shape == a.dfiber.shape  # a missing fiber part moves as zero
    for name in ("act_siegel", "act_disk", "cayley"):
        fn, p, v = _case(name, 2, 1, 0)
        _, (out,) = fn(p, dirs=[TangentVector(v.dbase, np.ones((1, 2)))])
        assert out.dfiber is None


def test_exact_differential_hand_values():
    # Cayley at the origin: dOmega = 2i dW; partial Cayley adds dZ = 2i deta
    origin = DiskJacobiPoint(DiskPoint(np.zeros((2, 2))), np.zeros((1, 2)))
    v = sample_tangent(2, 1, seed=4)
    _, (out,) = partial_cayley(origin, dirs=[v])
    assert rel_error(out.dbase, 2j * v.dbase) < 1e-15
    assert rel_error(out.dfiber, 2j * v.dfiber) < 1e-15


@pytest.mark.parametrize("name", MAPS)
def test_tangent_vector_of_the_wrong_shape_is_rejected(name):
    fn, p, _ = _case(name, 2, 2, 0)
    with pytest.raises(DimensionError):
        fn(p, dirs=[sample_tangent(3, 2, seed=1)])
    if name in ("act_jacobi", "act_jacobi_disk", "partial_cayley"):
        with pytest.raises(DimensionError):
            fn(p, dirs=[sample_tangent(2, 1, seed=1)])


@pytest.mark.parametrize("g,h", SHAPES)
def test_exact_jacobian_det_closed_form_and_fd_oracle(g, h):
    # J-H. Yang, J. Number Theory 127 (2007): |det(C Omega + D)|^-2(g+h+1)
    for seed in SEEDS:
        a = sample_element("jacobi", g, h, seed)
        p = sample_point("siegel_jacobi", g, h, seed + 1)
        _, (pushed,) = act_jacobi(a, p, dirs=[_coordinate_dirs(p)])
        exact = _abs_det2(pushed)
        want = abs(np.linalg.det(a.m.c @ p.omega + a.m.d)) ** (-2 * (g + h + 1))
        assert abs(exact - want) <= 1e-12 * want
        fd = fd_jacobian_det(partial(act_jacobi, a), p)
        assert abs(exact - fd) <= FD_FIRST_REL * exact
