"""Determinism and splitting behaviour of the random streams."""

import hashlib

import numpy as np
import pytest

from logshift import DomainError, RngStream


def test_same_seed_same_draws():
    a = RngStream(42).uniform(1000)
    b = RngStream(42).uniform(1000)
    assert np.array_equal(a, b)


def test_substream_reconstructible_from_path():
    a = RngStream(7).substream(3).substream(1).uniform(100)
    b = RngStream(7, path=(3, 1)).uniform(100)
    assert np.array_equal(a, b)


def test_substreams_differ_from_parent_and_each_other():
    root = RngStream(0)
    draws = {tuple(np.round(root.substream(i).uniform(8), 12)) for i in range(20)}
    assert len(draws) == 20


def test_uniform_open_stays_inside_interval():
    u = RngStream(123).uniform_open(200_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_substreams_look_independent():
    a = RngStream(5).substream(0).uniform(50_000)
    b = RngStream(5).substream(1).uniform(50_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_permutation_deterministic():
    assert np.array_equal(RngStream(9).permutation(50), RngStream(9).permutation(50))


def test_seed_validation():
    with pytest.raises(DomainError):
        RngStream(-1)
    with pytest.raises(DomainError):
        RngStream(2**64)
    with pytest.raises(DomainError):
        RngStream(1).substream(-2)
    with pytest.raises(DomainError):
        RngStream(1, (3, -1))


def _eager_generator(seed, path=()):
    """The generator RngStream is documented to wrap, built up front."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def test_lazily_built_stream_draws_what_an_eager_one_draws():
    stream = RngStream(11, (2, 5))
    eager = _eager_generator(11, (2, 5))
    assert np.array_equal(stream.uniform_open(500), eager.integers(1, 1 << 53, size=500) / 2.0**53)
    assert np.array_equal(stream.permutation(300), eager.permutation(300))
    assert stream.beta(2.0, 3.0, 400).tobytes() == eager.beta(2.0, 3.0, 400).tobytes()


def test_streams_that_only_split_build_no_generator():
    root = RngStream(3)
    child = root.substream(1).substream(4)
    assert root._generator is None
    assert child._generator is None
    child.uniform(1)
    assert child._generator is not None


@pytest.mark.parametrize("seed", [1, 4, 6, 9, 15])
def test_uniform_beta_matches_numpy_bit_for_bit(seed):
    # RngStream draws Beta(1, 1) in bulk; the values must equal numpy's Johnk loop
    for count in (1, 2, 7, 1_000, 100_000):
        mine = RngStream(seed, (0, 0)).beta(1.0, 1.0, count)
        ref = _eager_generator(seed, (0, 0)).beta(1.0, 1.0, count)
        assert mine.tobytes() == ref.tobytes(), count


def test_uniform_beta_continues_from_earlier_draws():
    stream, eager = RngStream(8, (1,)), _eager_generator(8, (1,))
    assert np.array_equal(stream.uniform(3), eager.random(3))
    assert stream.beta(1.0, 1.0, 5_000).tobytes() == eager.beta(1.0, 1.0, 5_000).tobytes()


# SHA-256 of integer draws, which pass through no floating-point kernel and so
# match on every CPU: a change here means the draw layout changed.
INTEGER_PINS = [
    (
        0,
        (),
        "f5ad5b2102da68f22565a7c1eb588857e24b503451d3e843b9666d522544ae49",
        "cc0ae54b04acca841047ce123e8dd89cf4cafe73d5d58f4c1ef192f362ef2117",
    ),
    (
        1,
        (0, 0),
        "b3e90d69bd6e8a72d08985aa79e23afecbda3b687c14551ce795a3fb659925db",
        "56ea1cd82e98cb55a8b77cc0869e4903cf560611d25e322877f64bdf2c05712c",
    ),
    (
        2026,
        (7, 1, 3),
        "ca23beb4726e5e2dc59fd8a0a3652538d327e5ec336d9912816ee10cabd13b33",
        "7ef68076138f770035bd7360811a060f0e00310485ad3c66b52c2d6b5c9a595c",
    ),
]


@pytest.mark.parametrize("seed,path,permutation_sha,uniform_open_sha", INTEGER_PINS)
def test_integer_draws_match_pins(seed, path, permutation_sha, uniform_open_sha):
    perm = RngStream(seed, path).permutation(10_000).astype("<i8")
    assert hashlib.sha256(perm.tobytes()).hexdigest() == permutation_sha
    u = RngStream(seed, path).uniform_open(10_000)
    ints = (u * 2.0**53).astype("<i8")  # exact: uniform_open is ints / 2**53
    assert np.array_equal(ints / 2.0**53, u)
    assert hashlib.sha256(ints.tobytes()).hexdigest() == uniform_open_sha
