import json

import numpy as np
import pytest

from sjkit.cli import main
from sjkit.groups import sample_element
from sjkit.numkit import DimensionError, DomainError, rel_error
from sjkit.serialize import (
    decode_element,
    decode_matrix,
    decode_point,
    decode_real_matrix,
    decode_tangent,
    encode_element,
    encode_matrix,
    encode_point,
)
from sjkit.spaces import sample_point


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    np.testing.assert_array_equal(decode_matrix(encode_matrix(a)), a)


def test_decode_matrix_rejects_garbage():
    with pytest.raises(DimensionError):
        decode_matrix([[1, 2], [3, 4]])  # entries must be pairs
    with pytest.raises(DimensionError):
        decode_matrix([[[1, 0]], [[1, 0], [2, 0]]])  # ragged
    with pytest.raises(DimensionError):
        decode_matrix([])
    with pytest.raises(DimensionError):
        decode_matrix([[[1, 0, 0]]])
    with pytest.raises(DimensionError):
        decode_matrix([[[True, False]]])
    with pytest.raises(DimensionError):
        decode_matrix([[(1, 0)]])  # a tuple, which JSON cannot write, is no entry either


def test_decode_real_matrix_both_encodings():
    np.testing.assert_array_equal(decode_real_matrix([[1.5, 2.0]]), [[1.5, 2.0]])
    np.testing.assert_array_equal(decode_real_matrix([[[1.5, 0.0], [2.0, 0.0]]]), [[1.5, 2.0]])
    with pytest.raises(DomainError):
        decode_real_matrix([[[1.5, 0.3]]])


def test_point_roundtrips():
    for kind in ("siegel", "disk", "siegel_jacobi", "disk_jacobi"):
        p = sample_point(kind, 2, 2, seed=3)
        q = decode_point(encode_point(p))
        assert type(q) is type(p)
        if hasattr(p, "omega"):
            assert rel_error(p.omega, q.omega) < 1e-15
        else:
            assert rel_error(p.w, q.w) < 1e-15


def test_element_roundtrips():
    for kind in ("sp", "heisenberg", "jacobi", "gstar", "gstarj", "kstarj"):
        el = sample_element(kind, 2, 2, seed=4)
        back = decode_element(encode_element(el))
        assert type(back) is type(el)
    el = sample_element("gstarj", 2, 2, seed=5)
    back = decode_element(encode_element(el))
    assert rel_error(el.gs.p, back.gs.p) < 1e-15
    assert rel_error(el.hc.zeta, back.hc.zeta) < 1e-15


def test_decode_point_rejects_unknown_keys():
    with pytest.raises(DimensionError):
        decode_point({"nope": []})
    with pytest.raises(DimensionError):
        decode_point([1, 2, 3])


def test_decode_tangent():
    v = decode_tangent({"dbase": encode_matrix(np.eye(2)), "dfiber": encode_matrix(np.ones((1, 2)))})
    assert v.dfiber.shape == (1, 2)
    with pytest.raises(DimensionError):
        decode_tangent({"dfiber": encode_matrix(np.eye(2))})


NAN, INF = float("nan"), float("inf")

# (id, matrix of [re, im] pairs, its error): every way such a matrix can be malformed
MALFORMED = [
    ("not-a-list", {"re": 1, "im": 0}, DimensionError),
    ("empty", [], DimensionError),
    ("empty-row", [[]], DimensionError),
    ("ragged", [[[1, 0]], [[1, 0], [2, 0]]], DimensionError),
    ("one-number", [[[1]]], DimensionError),
    ("three-numbers", [[[1, 2, 3]]], DimensionError),
    ("bool", [[[True, 0]]], DimensionError),
    ("string", [[["1", 0]]], DimensionError),
    ("none", [[[None, 0]]], DimensionError),
    ("deeper", [[[[1, 0]]]], DimensionError),
    ("nan", [[[NAN, 0]]], DomainError),
    ("inf", [[[0, -INF]]], DomainError),
    ("400-digit-int", [[[10**399, 0]]], DomainError),
]
# the same for a real matrix of plain numbers
PLAIN_MALFORMED = [
    ("string", [[1, "0"], ["0", 1]], DimensionError),
    ("bool", [[True, 0], [0, True]], DimensionError),
    ("ragged", [[1, 2], [3]], DimensionError),
    ("none", [[1, None]], DimensionError),
    ("pair-among-numbers", [[1, [2, 0]]], DimensionError),
    ("nan", [[NAN]], DomainError),
    ("400-digit-int", [[-(10**399)]], DomainError),
]
EXIT_CODE = {DimensionError: 2, DomainError: 3}


def _cases(table):
    return pytest.mark.parametrize("matrix, error", [c[1:] for c in table], ids=[c[0] for c in table])


@_cases(MALFORMED)
def test_a_malformed_matrix_is_an_input_error(capsys, matrix, error):
    with pytest.raises(error):
        decode_matrix(matrix)
    with pytest.raises(error):
        decode_real_matrix(matrix)
    code = main(["transform", "--map", "cayley", "--input", json.dumps({"w": matrix})])
    assert code == EXIT_CODE[error], capsys.readouterr().err


@_cases(PLAIN_MALFORMED)
def test_a_malformed_plain_matrix_is_an_input_error(capsys, matrix, error):
    with pytest.raises(error):
        decode_real_matrix(matrix, "index matrix")
    el, p = sample_element("gstarj", 2, 2, seed=1), sample_point("disk_jacobi", 2, 2, seed=2)
    payload = json.dumps({"element": encode_element(el), "point": encode_point(p)})
    code = main(["jfactor", "--index-matrix", json.dumps(matrix), "--input", payload])
    assert code == EXIT_CODE[error], capsys.readouterr().err


def test_special_values_round_trip_bit_for_bit():
    xs = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
          1.7976931348623157e308, 0.1]
    a = np.array([[complex(x, y) for y in xs] for x in xs])
    text = json.dumps(encode_matrix(a))
    assert decode_matrix(json.loads(text)).tobytes() == a.tobytes()
    re = decode_real_matrix(json.loads(json.dumps(a.real.tolist())))
    assert re.tobytes() == np.ascontiguousarray(a.real).tobytes()


def test_integers_past_two_to_the_53_decode_as_complex_does():
    ints = [2**53 + 1, 2**53 + 3, -(2**63) - 1, 2**63 + 2**10 + 1, 2**64 + 1, 3**100, 10**308 - 1]
    for n in ints:
        for entry in ([n, -n], [n, 0.5], [-0.0, n]):
            want = np.array([[complex(*entry)]])
            assert decode_matrix([[entry]]).tobytes() == want.tobytes()
            assert decode_matrix(json.loads(json.dumps([[entry]]))).tobytes() == want.tobytes()
        assert decode_real_matrix([[n, 1]]).tolist() == [[float(n), 1.0]]


def _encode_per_entry(a) -> list:
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in np.asarray(a, complex)]


@pytest.mark.parametrize("g, h", [(1, 1), (2, 2), (4, 3)])
def test_encode_matrix_matches_the_per_entry_form(g, h):
    rng = np.random.default_rng(10 * g + h)
    for shape in ((g, g), (h, g), (h, h), (2 * g, 2 * g)):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a[0, 0] = complex(-0.0, 5e-324)
        for m in (a, a.T, a[:, ::-1], a.real, -np.abs(a.imag)):
            assert json.dumps(encode_matrix(m)) == json.dumps(_encode_per_entry(m))


def test_subclasses_of_list_and_float_decode_like_their_bases():
    class Rows(list):
        pass

    a = decode_matrix(Rows([Rows([[np.float64(1.5), 2], [0.25, np.float64(-0.0)]])]))
    assert a.tobytes() == np.array([[1.5 + 2j, complex(0.25, -0.0)]]).tobytes()
    assert decode_real_matrix([[np.float64(2.0), 1]]).tolist() == [[2.0, 1.0]]
    with pytest.raises(DimensionError):  # not an int: numpy's integers are no Python int
        decode_matrix([[[np.int64(1), 0]]])
