"""The counter-based sample streams: number i of the (seed, kind tag) stream
is the SplitMix64 mix of key(seed, tag) + (i + 1) * gamma, a 53-bit float in
[0, 1), and every sampler reads its parts at fixed offsets of one draw."""

import warnings

import numpy as np
import pytest

from sjkit import suites
from sjkit.cli import main
from sjkit.geometry import sample_tangent
from sjkit.groups import _KIND_TAG, _uniforms, sample_element
from sjkit.numkit import DomainError
from sjkit.spaces import sample_point
from sjkit.suites import run_suite

_M = 2 ** 64
_GAMMA = 0x9E3779B97F4A7C15
TAGS = sorted(set(_KIND_TAG.values()) | {10, 11, 12, 13, 20})


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % _M
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % _M
    return z ^ (z >> 31)


def _reference(seed: int, tag: int, n: int, start: int = 0) -> list[float]:
    """The stream written out number by number in Python ints."""
    salt, high = _mix(tag * _GAMMA % _M), seed >> 64
    while high:
        salt, high = _mix(salt ^ (high % _M)), high >> 64
    key = _mix((seed % _M + salt) % _M)
    return [(_mix((key + (i + 1) * _GAMMA) % _M) >> 11) / 2 ** 53
            for i in range(start, start + n)]


def test_seed_zero_tag_zero_is_splitmix64_from_state_zero():
    # the first outputs of SplitMix64 started at state 0 (Steele, Lea & Flood)
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert _uniforms(0, 0, 3).tolist() == [(x >> 11) / 2 ** 53 for x in want]


# the first three numbers of seed 7 in each tag's stream
PINNED = {
    0: ["0x1.0c77123e98157p-1", "0x1.3563ef4a0babcp-2", "0x1.e1ca420e19806p-1"],
    1: ["0x1.ad4552b0971fdp-1", "0x1.f624acf541ba0p-5", "0x1.fa36f65d660fep-1"],
    2: ["0x1.4bfdc5738f11cp-1", "0x1.764287db232b4p-2", "0x1.e24f8bf6093c8p-1"],
    3: ["0x1.662f03fbdd67ap-2", "0x1.b5c3e28a02620p-5", "0x1.10dc714fb070cp-1"],
    4: ["0x1.7de4f2b8f1f80p-2", "0x1.3a27a1a10b00ep-1", "0x1.3f391ff189ba0p-2"],
    5: ["0x1.b5d9986d79c00p-7", "0x1.eedc488761909p-1", "0x1.7e2c92bced92cp-3"],
    10: ["0x1.fe3e907d17bb4p-3", "0x1.230439026cdd8p-2", "0x1.9926f3f0175f0p-5"],
    11: ["0x1.a6843df5355c2p-2", "0x1.798b560917dd2p-1", "0x1.d541c42dce3e6p-2"],
    12: ["0x1.d2e13c76b7852p-2", "0x1.f8ecb19852610p-1", "0x1.4291afd99d490p-2"],
    13: ["0x1.1c373ed93ca34p-3", "0x1.9a7681731e719p-1", "0x1.cc5e549df1b75p-1"],
    20: ["0x1.5cc6d88ea6814p-3", "0x1.bca68541bfa86p-1", "0x1.c65b07939b101p-1"],
}


@pytest.mark.parametrize("tag", TAGS)
def test_pinned_numbers_per_tag(tag):
    assert [x.hex() for x in _uniforms(7, tag, 3)] == PINNED[tag]
    assert [x.hex() for x in _uniforms([3, 7], tag, 3)[1]] == PINNED[tag]


SEEDS = [0, 1, 7, 2 ** 63, _M - 1, _M, _M + 3, _M + 13, 2 ** 130 + 5]


@pytest.mark.parametrize("tag", [0, 4, 20])
def test_numbers_match_the_written_out_stream(tag):
    for seed in SEEDS:
        for start in (0, 5, 10 ** 6):
            want = _reference(seed, tag, 7, start)
            assert _uniforms(seed, tag, 7, start).tolist() == want
            assert _uniforms(np.uint64(seed) if seed < _M else seed, tag, 7, start).tolist() == want
    # a batch is its seeds' rows, whether or not some seed has words above 64 bits
    for seeds in (SEEDS[:5], SEEDS):
        assert _uniforms(seeds, tag, 7, 2).tolist() == [_reference(s, tag, 7, 2) for s in seeds]


def test_high_words_of_a_seed_give_another_stream():
    for s in (0, 3, 13):
        draws = {_uniforms(s + k * _M, 0, 4).tobytes() for k in range(4)}
        assert len(draws) == 4
    far, near = (sample_element("sp", 2, 1, s).m for s in (_M + 3, 3))
    assert far.tobytes() != near.tobytes()


def _within(count, n, p) -> bool:
    """count of n Bernoulli(p) trials within 4 standard deviations of n p."""
    return abs(count - n * p) <= 4 * np.sqrt(n * p * (1 - p))


@pytest.mark.parametrize("tag", [0, 2, 13])
def test_mean_and_variance_of_a_hundred_thousand_numbers(tag):
    n = 10 ** 5
    for u in (_uniforms(11, tag, n), _uniforms(list(range(1000)), tag, n // 1000).ravel()):
        assert u.size == n and 0 <= u.min() and u.max() < 1
        # U(0, 1): mean 1/2, variance 1/12; the sample variance has variance
        # (mu4 - sigma^4) / n = (1/80 - 1/144) / n = 1 / (180 n)
        assert abs(u.mean() - 0.5) <= 4 * np.sqrt(1 / (12 * n))
        assert abs(u.var() - 1 / 12) <= 4 * np.sqrt(1 / (180 * n))


@pytest.mark.parametrize("kind", ["sp", "jacobi", "gstar", "gstarj"])
def test_word_lengths_and_generator_kinds_are_uniform(kind):
    n = 20000
    u = _uniforms(list(range(n)), _KIND_TAG[kind], 9)
    lengths = 4 + (5 * u[:, 0]).astype(int)
    for length in range(4, 9):
        assert _within((lengths == length).sum(), n, 1 / 5)
    kinds = (4 * u[:, 1:9]).astype(int)[np.arange(8) < lengths[:, None]]
    for k in range(4):
        assert _within((kinds == k).sum(), kinds.size, 1 / 4)


def _box_muller(r, t):
    """The complex standard Gaussian of each pair of numbers (r, t)."""
    return np.sqrt(-2 * np.log1p(-r)) * np.exp(2j * np.pi * t)


def test_kstarj_normals_have_mean_zero_and_variance_one():
    u = _uniforms(list(range(20000)), _KIND_TAG["kstarj"], 2)
    z = _box_muller(u[:, 0], u[:, 1])
    for x in (z.real, z.imag):
        assert abs(x.mean()) <= 4 * np.sqrt(1 / x.size)
        assert abs(x.var() - 1) <= 4 * np.sqrt(2 / x.size)  # var(x^2) = 2
    assert abs(np.mean(z.real * z.imag)) <= 4 * np.sqrt(1 / z.size)  # uncorrelated


def test_kstarj_reads_its_gaussian_then_kappa():
    g, h, seed = 3, 2, 4
    u = _uniforms(seed, _KIND_TAG["kstarj"], 2 * g * g + h * h)
    q, r = np.linalg.qr(_box_muller(u[:g * g], u[g * g:2 * g * g]).reshape(g, g))
    d = np.diagonal(r)[None, :]
    got = sample_element("kstarj", g, h, seed, scale=0.5)
    assert got.gs.p.tobytes() == (q * (d / np.abs(d))).tobytes()
    s = (-0.5 + u[2 * g * g:]).reshape(h, h)
    assert got.kappa.tobytes() == ((s + s.T) / 2).tobytes()


def test_no_runtime_warning_from_the_wrapping_arithmetic():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tag in TAGS:
            for seed in (SEEDS, _M - 1, _M + 13, 2 ** 130 + 5):
                _uniforms(seed, tag, 50, start=10 ** 6)
        for kind in _KIND_TAG:
            sample_element(kind, 2, 2, [_M - 1, _M + 13, 0])
        sample_point("disk_jacobi", 2, 2, [_M - 1, _M + 13, 0])


BAD_SEEDS = [-3, -1, 1.5, 2.0, True, False, np.bool_(True), "3", None]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_a_bad_seed_is_a_domain_error(seed):
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        sample_element("sp", 1, 1, seed)
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        sample_point("disk", 1, 1, [2, seed])
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        sample_tangent(1, None, seed)
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        run_suite("compat-29", 1, 1, trials=2, seed=seed)


def test_a_ragged_seed_list_is_a_domain_error():
    for seeds in ([[1], [2, 3]], [1, [2]]):
        with pytest.raises(DomainError, match="seed must be a non-negative integer, got \\["):
            sample_element("sp", 1, 1, seeds)


def test_seeds_past_two_to_the_64_keep_working():
    # a trial seed below 2**64 plus its kind offset (up to 13) can pass it
    seeds = [_M - 1, _M + 13]
    assert run_suite("compat-29", 1, 1, trials=1, seed=_M + 13).passed
    residuals = suites.SUITES["metric-invariance"][0](1, 1, seeds)  # seeds up to 2**64 + 26
    assert len(residuals) == 2 and max(residuals) <= 1e-9
    alone = [sample_element("gstarj", 2, 1, s).gs.p for s in seeds]
    assert sample_element("gstarj", 2, 1, seeds).gs.p.tobytes() == np.stack(alone).tobytes()


@pytest.mark.parametrize("argv", [["sample", "--kind", "sp", "--g", "1", "--seed", "-3"],
                                  ["verify", "--suite", "compat-29", "--seed", "-3"]])
def test_the_cli_exits_3_on_a_negative_seed(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "domain error: seed must be a non-negative integer, got -3" in err


def test_a_jacobi_element_reads_its_heisenberg_part_after_the_word():
    g, h, seed = 2, 3, 9
    word = 1 + 8 + 8 * g * g
    u = _uniforms(seed, _KIND_TAG["jacobi"], word + 2 * h * g + h * h)
    lam = sample_element("jacobi", g, h, seed).hs.lam  # uniforms -scale + 2 scale u, scale 0.8
    assert lam.tobytes() == (-0.8 + 1.6 * u[word:word + h * g]).reshape(h, g).tobytes()
