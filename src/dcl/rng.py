"""Deterministic stream derivation for reproducible, schedulable sampling.

Every random draw in the package comes from a generator keyed by a master
seed plus a role tag (and usually a replicate index). Streams depend only on
that key, never on scheduling order, so replicates can run in any order or
in parallel without changing a single bit of output.

A stream is numpy's Generator(PCG64(key)) on the SHA-256 key of derive_key.
derive_rng builds one such generator. derive_streams yields the streams
f"{role}:{start}" .. f"{role}:{start + count - 1}" bit-identical to
derive_rng, but seeds them in bulk: numpy's SeedSequence mixing (NEP 19)
runs for all keys at once in uint32 array arithmetic, and one PCG64 is
reseated per stream with the state that PCG64(key) would start from.
While a stream_log block is open both count what they derive, which is how
a run reports the streams it drew.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import re
import threading
from contextvars import ContextVar
from typing import Iterator

import numpy as np

# A master seed is encoded as 16 signed little-endian bytes.
SEED_MIN = -(2**127)
SEED_MAX = 2**127 - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool of
# four uint32 words, hashmix(v) = (v ^ c) * c' with c' = c * MULT, folded as
# v ^ (v >> 16), and mix(x, y) = L x - R y folded the same way.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's 128-bit LCG multiplier (O'Neill 2014, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# The hash constants advance once per hashmix call whatever the data, so
# each call's (xor, multiplier) pair is fixed. Four calls fill the pool;
# then each source slot in turn is hashed three times, once into each other
# slot. generate_state(4, uint64) cycles the pool twice on its own constants.
# The pool is held slot by slot, (4, count), so every table is a column.
_A = _constants(_INIT_A, _MULT_A, _POOL * _POOL)[:, None]
_FILL = (_A[:_POOL], _A[1 : _POOL + 1])


def _source_constants(src: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, mult) of the hashmix calls of source slot src, by destination slot.

    The entry at src itself is never used; it repeats a neighbouring call.
    """
    calls = [_POOL + (_POOL - 1) * src + dst - (dst >= src) for dst in range(_POOL)]
    return _A[calls], _A[[k + 1 for k in calls]]


_MIX = [_source_constants(src) for src in range(_POOL)]
_B = _constants(_INIT_B, _MULT_B, 2 * _POOL)
_OUT = (_B[:-1].reshape(2, _POOL, 1), _B[1:].reshape(2, _POOL, 1))
# 0-d arrays: numpy applies them faster than scalars.
_L, _R, _SHIFT = (np.array(c, dtype=np.uint32) for c in (_MIX_MULT_L, _MIX_MULT_R, 16))


@functools.cache
def _unseeded():
    """A seed sequence of zero state words: a PCG64 built on it skips the mixing.

    Built on first use, so that importing the package does not import
    numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Unseeded(ISeedSequence):
        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return np.zeros(n_words, dtype=dtype)

    return Unseeded()


# {(master_seed, role): streams derived} in first-derivation order, while a
# stream_log block is open in this context; None outside one.
_STREAM_LOG: ContextVar[dict | None] = ContextVar("stream_log", default=None)
_STREAM_LOG_LOCK = threading.Lock()
_INDEX_SUFFIX = re.compile(r":\d+$")


@contextlib.contextmanager
def stream_log() -> Iterator[dict[tuple[int, str], int]]:
    """Count the streams derived in this context, and in copies of it, until the block exits.

    derive_rng counts 1 under its tag less a trailing ":<index>", so
    "graph:0" counts as graph; derive_streams counts its whole run under its role.
    """
    log: dict[tuple[int, str], int] = {}
    token = _STREAM_LOG.set(log)
    try:
        yield log
    finally:
        _STREAM_LOG.reset(token)


def _count(master_seed: int, role: str, count: int) -> None:
    log = _STREAM_LOG.get()
    if log is not None:
        with _STREAM_LOG_LOCK:
            log[master_seed, role] = log.get((master_seed, role), 0) + count


def check_seed(master_seed: int) -> int:
    """The seed itself, if the key encoding can hold it; ValueError otherwise."""
    if not SEED_MIN <= master_seed <= SEED_MAX:
        raise ValueError(
            f"master seed must lie in the signed 128-bit range [-2**127, 2**127 - 1], "
            f"got {master_seed}"
        )
    return master_seed


def _seeded_hash(master_seed: int):
    if isinstance(master_seed, bool) or not isinstance(master_seed, int):
        raise TypeError(f"master seed must be int, got {type(master_seed).__name__}")
    return hashlib.sha256(_int_bytes(check_seed(master_seed)))


def _update_part(h, part: int | str) -> None:
    if isinstance(part, bool) or not isinstance(part, (int, str)):
        raise TypeError(f"stream part must be int or str, got {type(part).__name__}")
    if isinstance(part, int):
        if not SEED_MIN <= part <= SEED_MAX:
            raise ValueError(f"stream part must lie in the signed 128-bit range [-2**127, 2**127 - 1], got {part}")
        h.update(b"i" + _int_bytes(part))
    else:
        raw = part.encode("utf-8")
        h.update(b"s" + len(raw).to_bytes(4, "little") + raw)


def derive_key(master_seed: int, *parts: int | str) -> int:
    """Derive a 128-bit stream key from a master seed and role parts.

    The key is a SHA-256 hash over a length-prefixed encoding of the parts,
    so distinct (master_seed, parts) tuples give independent streams and the
    value is identical on every platform. The master seed and every int
    part must lie in [SEED_MIN, SEED_MAX]; ValueError otherwise.
    """
    h = _seeded_hash(master_seed)
    for part in parts:
        _update_part(h, part)
    return int.from_bytes(h.digest()[:16], "little")


def derive_rng(master_seed: int, *parts: int | str) -> np.random.Generator:
    """PCG64 generator on the stream keyed by (master_seed, *parts)."""
    generator = np.random.Generator(np.random.PCG64(derive_key(master_seed, *parts)))
    _count(master_seed, _INDEX_SUFFIX.sub("", ":".join(map(str, parts))), 1)
    return generator


def derive_streams(master_seed: int, role: str, start: int, count: int) -> Iterator[np.random.Generator]:
    """Generators on the streams f"{role}:{start + i}" for i = 0..count-1.

    Stream i is bit-identical to derive_rng(master_seed, f"{role}:{start + i}").
    Every yielded generator is one PCG64 reseated in place, so it is valid
    only until the next one is requested. Each call owns its PCG64, so calls
    on different threads do not interfere.
    """
    base = _seeded_hash(master_seed)
    _count(master_seed, role, count)
    digests = []
    for i in range(count):
        h = base.copy()
        _update_part(h, f"{role}:{start + i}")
        digests.append(h.digest()[:16])
    words = np.frombuffer(b"".join(digests), dtype="<u4").reshape(count, _POOL)
    # Reseated before every draw, so its own seeding can skip the mixing.
    bit_generator = np.random.PCG64(_unseeded())
    rng = np.random.Generator(bit_generator)
    for s0, s1, i0, i1 in _pcg64_seeds(words).tolist():
        inc = ((i0 << 65 | i1 << 1) | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = values ^ xor
    values *= mult
    values ^= values >> _SHIFT
    return values


def _pcg64_seeds(keys: np.ndarray) -> np.ndarray:
    """SeedSequence(key).generate_state(4, np.uint64) for each row of uint32 key words.

    keys is (count, 4), least significant word first. A key whose top words
    are zero mixes as SeedSequence mixes its shorter entropy, since both
    feed zeros to the same hash constants. For a fixed source slot the three
    destination updates are independent, so each source is one update of the
    whole pool that then restores the source slot.
    """
    pool = _hashmix(keys.T, *_FILL)
    for src, (xor, mult) in enumerate(_MIX):
        hashed = _hashmix(pool[src], xor, mult)
        hashed *= _R
        mixed = pool * _L
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        mixed[src] = pool[src]
        pool = mixed
    state = _hashmix(pool, *_OUT).transpose(2, 0, 1)
    return np.ascontiguousarray(state).reshape(-1, 2 * _POOL).view("<u8")


def _int_bytes(value: int) -> bytes:
    # 16 signed bytes: check_seed and _update_part bound the value to this range first.
    return value.to_bytes(16, "little", signed=True)
