import json

import numpy as np
import pytest

from sjkit.automorphy import IndexMatrix, Representation, j_factor
from sjkit.cli import main
from sjkit.decomp import decompose_full
from sjkit.geometry import MetricParams, metric_sj, sample_tangent
from sjkit.groups import GStarJacobiElement, sample_element
from sjkit.numkit import DimensionError, DomainError, Holder, rel_error
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
from sjkit.spaces import (
    act_jacobi,
    act_jacobi_disk,
    cayley,
    partial_cayley,
    partial_cayley_inv,
    sample_point,
)


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
    # a fiber part of another width than the base part is refused when it is built
    with pytest.raises(DimensionError, match=r"^dfiber must be a matrix with 2 columns, "
                                             r"got shape \(1, 3\)$"):
        decode_tangent({"dbase": encode_matrix(np.eye(2)), "dfiber": encode_matrix(np.ones((1, 3)))})


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


SHAPES = [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (4, 3)]
POINT_KINDS = ("siegel", "disk", "siegel_jacobi", "disk_jacobi")
ELEMENT_KINDS = ("sp", "heisenberg", "jacobi", "gstar", "gstarj")


def _arrays(x) -> list:
    """Every array a holder stores, nested holders included, in slot order."""
    out = []
    for name in type(x).__slots__:
        v = getattr(x, name)
        out += [v] if isinstance(v, np.ndarray) else _arrays(v) if isinstance(v, Holder) else []
    return out


def _encoded_arrays(x) -> list:
    """The arrays of x that its encoding holds: all it stores, but kappa in
    place of a gstarj element's zeta = i kappa, whose real part is a zero of
    either sign, which the encoding does not hold."""
    if isinstance(x, GStarJacobiElement):
        return [x.gs.p, x.gs.q, x.hc.xi, x.hc.eta, x.kappa]
    return _arrays(x)


def _samples(g: int, h: int, seed: int) -> list:
    points = [(decode_point, encode_point, sample_point(k, g, h, seed)) for k in POINT_KINDS]
    return points + [(decode_element, encode_element, sample_element(k, g, h, seed))
                     for k in ELEMENT_KINDS]


@pytest.mark.parametrize("g, h", SHAPES)
def test_each_kind_decodes_to_the_bytes_it_was_encoded_from(g, h):
    for seed in range(3):
        for decode, encode, x in _samples(g, h, seed):
            obj = json.loads(json.dumps(encode(x)))
            got = decode(obj)
            assert type(got) is type(x) and (got.g, getattr(got, "h", None)) == \
                (x.g, getattr(x, "h", None))
            for a, b in zip(_encoded_arrays(got), _encoded_arrays(x), strict=True):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            if isinstance(got, GStarJacobiElement):
                assert not np.real(got.hc.zeta).any()
            assert encode(got) == obj


@pytest.mark.parametrize("g, h", [(1, 1), (4, 3)])
def test_a_decoded_holder_is_read_only_c_contiguous_and_its_own(g, h):
    for decode, encode, x in _samples(g, h, seed=1):
        obj = encode(x)
        first, second = decode(obj), decode(obj)
        for a, b in zip(_arrays(first), _arrays(second), strict=True):
            assert not a.flags.writeable and a.flags.c_contiguous
            # nothing writeable lies under it, and no other decode shares its memory
            assert a.base is None or not a.base.flags.writeable
            assert not np.shares_memory(a, b)
    # the public matrix decoders still give the caller writeable arrays
    for m in ([[[1.0, 0.0], [2.0, -0.0]]], [[1.0, 2.0]]):
        assert decode_real_matrix(m).flags.writeable and decode_real_matrix(m).flags.c_contiguous
    assert decode_matrix([[[1.0, 2.0]]]).flags.writeable


_I2 = np.eye(2)
_GS = {"p": encode_matrix(sample_element("gstar", 2, 1, seed=1).p),
       "q": encode_matrix(sample_element("gstar", 2, 1, seed=1).q)}


def _heisenberg(lam, mu, kappa) -> dict:
    return {"lambda": encode_matrix(lam), "mu": encode_matrix(mu), "kappa": encode_matrix(kappa)}


# (id, decoder, object, error class, message): each as the constructors gave it
BAD_INPUTS = [
    ("omega-not-symmetric", decode_point, {"omega": encode_matrix([[1j, 0.5], [0, 1j]])},
     DomainError, "omega is not symmetric within tolerance"),
    ("y-not-pd", decode_point, {"omega": encode_matrix(-1j * _I2),
                                "z": encode_matrix(np.ones((1, 2)))},
     DomainError, "Im(omega) is not positive definite"),
    ("disk-not-pd", decode_point, {"w": encode_matrix(1.5 * _I2)},
     DomainError, "I - W conj(W) is not positive definite"),
    ("disk-jacobi-not-pd", decode_point, {"w": encode_matrix(1.5 * _I2),
                                          "eta": encode_matrix(np.ones((1, 2)))},
     DomainError, "I - W conj(W) is not positive definite"),
    ("z-wrong-width", decode_point, {"omega": encode_matrix(1j * _I2),
                                     "z": encode_matrix(np.ones((1, 3)))},
     DimensionError, "z must be a batch () of matrices with 2 columns, got (1, 3)"),
    ("eta-wrong-width", decode_point, {"w": encode_matrix(0.5 * _I2),
                                       "eta": encode_matrix(np.ones((2, 1)))},
     DimensionError, "eta must be a batch () of matrices with 2 columns, got (2, 1)"),
    ("omega-not-square", decode_point, {"omega": encode_matrix(np.ones((2, 3)))},
     DimensionError, "omega must be square, got (2, 3)"),
    ("omega-nan", decode_point, {"omega": [[[NAN, 1.0]]]},
     DomainError, "omega: entries must be finite"),
    ("z-infinity", decode_point, {"omega": encode_matrix([[1j]]), "z": [[[0.0, INF]]]},
     DomainError, "z: entries must be finite"),
    ("w-bool", decode_point, {"w": [[[True, 0.0]]]},
     DimensionError, "w: entries must be [re, im] number pairs"),
    ("eta-string", decode_point, {"w": encode_matrix([[0.5]]), "eta": [[["1", 0.0]]]},
     DimensionError, "eta: entries must be [re, im] number pairs"),
    ("sp-not-symplectic", decode_element, {"kind": "sp", "m": encode_matrix(2 * _I2)},
     DomainError, "matrix is not symplectic within tolerance"),
    ("sp-odd", decode_element, {"kind": "sp", "m": encode_matrix(np.eye(3))},
     DimensionError, "expected a 2g x 2g matrix, got (3, 3)"),
    ("sp-imaginary", decode_element, {"kind": "sp", "m": encode_matrix(_I2 + 1e-6j)},
     DomainError, "m: expected a real matrix"),
    ("sp-nan-plain", decode_element, {"kind": "sp", "m": [[NAN, 0.0], [0.0, 1.0]]},
     DomainError, "m: entries must be finite"),
    ("heisenberg-not-symmetric", decode_element,
     {"kind": "heisenberg", **_heisenberg(np.zeros((2, 1)), np.zeros((2, 1)), [[0, 1], [0, 0]])},
     DomainError, "kappa + mu t(lam) is not symmetric"),
    ("heisenberg-shapes", decode_element,
     {"kind": "heisenberg", **_heisenberg(np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((2, 2)))},
     DimensionError, "lam and mu must be h x g matrices of equal shape"),
    ("heisenberg-kappa-shape", decode_element,
     {"kind": "heisenberg", **_heisenberg(np.zeros((2, 1)), np.zeros((2, 1)), [[0.0]])},
     DimensionError, "kappa must be 2 x 2, got (1, 1)"),
    ("heisenberg-imaginary", decode_element,
     {"kind": "heisenberg", **_heisenberg([[0.0]], [[1e-3j]], [[0.0]])},
     DomainError, "mu: expected a real matrix"),
    ("jacobi-degrees", decode_element,
     {"kind": "jacobi", "m": encode_matrix(_I2), **_heisenberg(np.zeros((1, 2)),
                                                               np.zeros((1, 2)), [[0.0]])},
     DimensionError, "degree mismatch: symplectic g=1, Heisenberg g=2"),
    ("jacobi-not-symplectic-first", decode_element,
     {"kind": "jacobi", "m": encode_matrix(2 * _I2), **_heisenberg([[0.0]], [[0.0]], [[0.0]]),
      "lambda": [[NAN]]},
     DomainError, "matrix is not symplectic within tolerance"),
    ("jacobi-missing-mu", decode_element,
     {"kind": "jacobi", "m": encode_matrix(_I2), "lambda": [[0.0]], "kappa": [[0.0]]},
     DimensionError, "element: kind 'jacobi' needs the key 'mu'"),
    ("gstar-not-in-group", decode_element,
     {"kind": "gstar", "p": encode_matrix(2 * _I2), "q": encode_matrix(np.zeros((2, 2)))},
     DomainError, "t(P) conj(P) - t(conj Q) Q != I"),
    ("gstar-shapes", decode_element,
     {"kind": "gstar", "p": encode_matrix(_I2), "q": encode_matrix([[0.0]])},
     DimensionError, "P and Q must be square matrices of equal size"),
    ("gstarj-kappa-shape", decode_element,
     {"kind": "gstarj", **_GS, "xi": encode_matrix(np.zeros((1, 2))),
      "kappa": encode_matrix(np.zeros((2, 2)))},
     DimensionError, "zeta must be 1 x 1, got (2, 2)"),
    ("gstarj-not-symmetric", decode_element,
     {"kind": "gstarj", **_GS, "xi": encode_matrix(np.zeros((2, 2))),
      "kappa": encode_matrix([[0.0, 1.0], [0.0, 0.0]])},
     DomainError, "zeta + eta t(xi) is not symmetric"),
    ("gstarj-degrees", decode_element,
     {"kind": "gstarj", **_GS, "xi": encode_matrix(np.zeros((1, 3))), "kappa": [[0.0]]},
     DimensionError, "degree mismatch: blocks g=2, Heisenberg g=3"),
    ("gstarj-imaginary-kappa", decode_element,
     {"kind": "gstarj", **_GS, "xi": encode_matrix(np.zeros((1, 2))), "kappa": [[[0.0, 1.0]]]},
     DomainError, "kappa: expected a real matrix"),
    ("gstarj-missing-kappa", decode_element,
     {"kind": "gstarj", **_GS, "xi": encode_matrix(np.zeros((1, 2)))},
     DimensionError, "element: kind 'gstarj' needs the key 'kappa'"),
    ("gstarj-not-in-group", decode_element,
     {"kind": "gstarj", "p": encode_matrix(2 * _I2), "q": encode_matrix(np.zeros((2, 2))),
      "xi": encode_matrix(np.zeros((1, 2))), "kappa": [[0.0]]},
     DomainError, "t(P) conj(P) - t(conj Q) Q != I"),
    ("unknown-kind", decode_element, {"kind": "kstarj", "m": encode_matrix(_I2)},
     DimensionError, "element: unknown kind 'kstarj'"),
    ("list-kind", decode_element, {"kind": ["sp"], "m": encode_matrix(_I2)},
     DimensionError, "element: unknown kind ['sp']"),
]


@pytest.mark.parametrize("decode, obj, error, message", [c[1:] for c in BAD_INPUTS],
                         ids=[c[0] for c in BAD_INPUTS])
def test_a_bad_input_keeps_its_error_class_and_message(decode, obj, error, message):
    with pytest.raises(error) as err:
        decode(json.loads(json.dumps(obj)))
    assert type(err.value) is error and str(err.value) == message


def _operations(g: int, h: int, seed: int, decoded: bool) -> dict:
    """Each single-call operation on sampled inputs, or on the same inputs
    encoded and decoded, by name."""
    sj, dj = sample_point("siegel_jacobi", g, h, seed), sample_point("disk_jacobi", g, h, seed)
    disk = sample_point("disk", g, h, seed)
    jacobi, gstarj = (sample_element(kind, g, h, seed + 1) for kind in ("jacobi", "gstarj"))
    v = sample_tangent(g, h, seed + 2)
    if decoded:
        sj, dj, disk = (decode_point(encode_point(p)) for p in (sj, dj, disk))
        jacobi, gstarj = (decode_element(encode_element(a)) for a in (jacobi, gstarj))
        v = decode_tangent({"dbase": encode_matrix(v.dbase), "dfiber": encode_matrix(v.dfiber)})
    index = IndexMatrix(np.eye(h) * (1 + seed % 3))
    f = decompose_full(gstarj, dj)
    return {
        "act_jacobi": act_jacobi(jacobi, sj),
        "act_jacobi_disk": act_jacobi_disk(gstarj, dj),
        "partial_cayley": partial_cayley(dj),
        "partial_cayley_inv": partial_cayley_inv(sj),
        "cayley": cayley(disk),
        "decompose_full": [f.hc.pplus_w, f.hc.k_p, f.hc.k_lower, f.hc.pminus_w, f.pplus_eta,
                           f.pminus_xi, f.kappa_star],
        "j_factor": [j_factor(index, rep, gstarj, dj) for rep in (
            Representation("standard"), Representation("det_power", 2))],
        "metric_sj": np.array(metric_sj(MetricParams(2.0, 0.5), sj, v)),
    }


def _bytes(x) -> bytes:
    if isinstance(x, Holder):
        return b"".join(a.dtype.str.encode() + a.tobytes() for a in _arrays(x))
    if isinstance(x, list):
        return b"".join(map(_bytes, x))
    return x.dtype.str.encode() + x.tobytes()


@pytest.mark.parametrize("g, h", SHAPES)
def test_each_operation_gives_the_same_bytes_on_decoded_holders(g, h):
    for seed in range(3):
        sampled, decoded = _operations(g, h, seed, False), _operations(g, h, seed, True)
        assert list(sampled) == list(decoded)
        for name in sampled:
            assert _bytes(decoded[name]) == _bytes(sampled[name]), name
