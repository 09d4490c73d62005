"""Stream derivation: keyed, order-sensitive, stable across processes.

numpy's own SeedSequence and PCG64 seeding are the oracle for the batched
derive_streams, and numpy's PCG64 draws for stream_uniforms.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl.rng import (
    SEED_MAX,
    SEED_MIN,
    SHORT_STREAM_DRAWS,
    _pcg64_seeds,
    derive_key,
    derive_rng,
    derive_streams,
    stream_log,
    stream_uniforms,
)

# Frozen on first implementation; a change here means every published seed
# stops reproducing, so treat any diff as a breaking change.
_KNOWN_KEY = derive_key(0, "graph:0")


def test_same_parts_same_stream():
    a = derive_rng(7, "graph", 3).random(8)
    b = derive_rng(7, "graph", 3).random(8)
    assert (a == b).all()


def test_order_and_value_sensitivity():
    keys = {
        derive_key(7, "graph", 3),
        derive_key(7, 3, "graph"),
        derive_key(7, "graph", 4),
        derive_key(8, "graph", 3),
        derive_key(7, "graph:3"),
    }
    assert len(keys) == 5


def test_string_parts_are_length_prefixed():
    # "ab" + "c" must not collide with "a" + "bc".
    assert derive_key(1, "ab", "c") != derive_key(1, "a", "bc")


def test_key_is_128_bits():
    assert 0 <= _KNOWN_KEY < 2**128


def test_key_stable_across_calls():
    assert derive_key(0, "graph:0") == _KNOWN_KEY


def test_negative_and_large_seeds_accepted():
    assert derive_key(-1, "x") != derive_key(1, "x")
    derive_rng(2**100, "x")


@pytest.mark.parametrize("bad", [True, 1.5, None, b"graph"])
def test_rejects_non_int_non_str_parts(bad):
    with pytest.raises(TypeError):
        derive_key(0, bad)


def test_bool_seed_rejected():
    with pytest.raises(TypeError):
        derive_key(True, "x")


def test_distinct_roles_give_distinct_draws():
    graph = derive_rng(5, "graph:0").random(4)
    color = derive_rng(5, "color:0").random(4)
    assert not (graph == color).all()


@pytest.mark.parametrize("seed", [2**127, -(2**127) - 1, 2**128])
def test_out_of_range_seed_names_the_range(seed):
    with pytest.raises(ValueError, match=r"signed 128-bit range \[-2\*\*127, 2\*\*127 - 1\]"):
        derive_key(seed, "x")
    with pytest.raises(ValueError, match="signed 128-bit range"):
        next(derive_streams(seed, "x", 0, 1))
    with pytest.raises(ValueError, match="signed 128-bit range"):
        stream_uniforms(seed, "x", 0, 1, 1)


def test_seed_range_endpoints_accepted():
    assert derive_key(SEED_MIN, "x") != derive_key(SEED_MAX, "x")


@pytest.mark.parametrize("part", [2**127, -(2**127) - 1])
def test_out_of_range_int_part_names_the_range(part):
    with pytest.raises(ValueError, match=r"stream part must lie in the signed 128-bit range \[-2\*\*127, 2\*\*127 - 1\]"):
        derive_key(0, "x", part)


def test_int_part_range_endpoints_keep_their_keys():
    # Frozen before int parts were range-checked: the check must not move them.
    assert derive_key(0, "x", SEED_MAX) == 243809239315455078979761007303596331857
    assert derive_key(0, "x", SEED_MIN) == 150581149665717947314296514947393556889


def _drawn(rng: np.random.Generator) -> tuple:
    # An odd number of 32-bit integers leaves half a 64-bit word buffered in
    # the bit generator, which reseating must drop.
    return (rng.random(3).tolist(), rng.integers(0, 2**31, 3, dtype=np.int32).tolist())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.integers(SEED_MIN, SEED_MAX), st.sampled_from([SEED_MIN, SEED_MAX, -1, 0])),
    role=st.text(max_size=12),
    start=st.integers(0, 2**40),
    # 1900 copies is more than one stack of a 3x3 box (1820).
    count=st.sampled_from([0, 1, 2, 5, 1900]),
)
def test_derive_streams_matches_numpy_seeding(seed, role, start, count):
    seen = 0
    for i, rng in enumerate(derive_streams(seed, role, start, count)):
        key = derive_key(seed, f"{role}:{start + i}")
        assert rng.bit_generator.state == np.random.PCG64(key).state
        assert _drawn(rng) == _drawn(np.random.Generator(np.random.PCG64(key)))
        seen += 1
    assert seen == count


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(SEED_MIN, SEED_MAX), st.sampled_from([SEED_MIN, SEED_MAX, -1, 0])),
    # Empty and non-ASCII roles: the part's length prefix counts UTF-8 bytes.
    role=st.one_of(st.sampled_from(["", "graph", "é☃", "\U0001f600:x"]), st.text(max_size=6)),
    # Runs that cross 9 -> 10 and 99 -> 100 digits, and starts near 2**40.
    start=st.one_of(st.sampled_from([0, 7, 95, 995, 2**40 - 3]), st.integers(0, 2**40)),
    count=st.sampled_from([0, 1, 5, 13]),
    # Both paths, and the edge between them.
    k=st.sampled_from([0, 1, 12, SHORT_STREAM_DRAWS, SHORT_STREAM_DRAWS + 1]),
)
def test_stream_uniforms_match_numpy_draws(seed, role, start, count, k):
    with stream_log() as log:
        got = stream_uniforms(seed, role, start, count, k)
    assert got.shape == (count, k) and got.dtype == np.float64
    for i in range(count):
        assert got[i].tobytes() == derive_rng(seed, f"{role}:{start + i}").random(k).tobytes()
    assert log == {(seed, role): count}


@pytest.mark.parametrize("role", [None, 3, b"graph"])
def test_stream_role_must_be_str(role):
    with pytest.raises(TypeError, match="stream role must be str"):
        stream_uniforms(0, role, 0, 1, 1)
    with pytest.raises(TypeError, match="stream role must be str"):
        next(derive_streams(0, role, 0, 1))


def test_derive_streams_calls_do_not_share_a_generator():
    pairs = zip(derive_streams(7, "a", 0, 4), derive_streams(7, "b", 10, 4))
    for i, (a, b) in enumerate(pairs):
        assert a is not b
        assert _drawn(a) == _drawn(derive_rng(7, f"a:{i}"))
        assert _drawn(b) == _drawn(derive_rng(7, f"b:{10 + i}"))


def _words(key: int) -> np.ndarray:
    return np.array([[(key >> (32 * j)) & 0xFFFFFFFF for j in range(4)]], dtype=np.uint32)


@pytest.mark.parametrize("zero_top_words", [0, 1, 2, 3, 4])
def test_pcg64_seeds_match_seed_sequence(zero_top_words):
    # SeedSequence takes a key with zero top words as shorter entropy; the
    # batched mixing must still give the same state words.
    rng = np.random.default_rng(zero_top_words)
    keep = 2 ** (32 * (4 - zero_top_words)) - 1
    keys = [int.from_bytes(rng.bytes(16), "little") & keep for _ in range(30)]
    keys += [0, 1, keep]
    got = _pcg64_seeds(np.concatenate([_words(k) for k in keys]))
    assert got.dtype.itemsize == 8
    for key, row in zip(keys, got):
        assert row.tolist() == np.random.SeedSequence(key).generate_state(4, np.uint64).tolist()


def test_stream_log_counts_roles_in_first_derivation_order():
    # Runs of indexed streams count under their role; derive_rng counts its
    # tag exactly as given, so an indexed tag is a role of its own.
    derive_rng(1, "before")
    with stream_log() as log:
        stream_uniforms(7, "graph", 0, 2, 4)
        list(derive_streams(7, "color", 0, 5))
        derive_rng(7, "gamma-sampler")
        list(derive_streams(7, "graph", 2, 3))
        derive_rng(7, "graph", 4)
        derive_rng(8, "color:2")
        derive_rng(7, "gamma-sampler")
    derive_rng(7, "after")
    assert list(log.items()) == [
        ((7, "graph"), 5), ((7, "color"), 5), ((7, "gamma-sampler"), 2), ((7, "graph:4"), 1), ((8, "color:2"), 1),
    ]


def test_stream_log_sees_threads_only_through_a_context_copy():
    with stream_log() as log, ThreadPoolExecutor(max_workers=2) as pool:
        for i in range(4):
            pool.submit(contextvars.copy_context().run, derive_rng, 3, "copied").result()
            pool.submit(derive_rng, 3, "bare").result()
    assert log == {(3, "copied"): 4}
