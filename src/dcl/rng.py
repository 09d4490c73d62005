"""Deterministic stream derivation for reproducible, schedulable sampling.

Every random draw in the package comes from a generator keyed by a master
seed plus a role tag (and usually a replicate index). Streams depend only on
that key, never on scheduling order, so replicates can run in any order or
in parallel without changing a single bit of output.

A stream is numpy's Generator(PCG64(key)) on the SHA-256 key of derive_key.
derive_rng builds one such generator on a tag given whole, such as the
CLI's "gamma-sample". The indexed streams of a role, such as "graph:0" or
"color:17", come from derive_streams and stream_uniforms. derive_streams
yields the streams f"{role}:{start}" .. f"{role}:{start + count - 1}"
bit-identical to derive_rng on those tags, but seeds them in bulk: one
SHA-256 key loop hashes the role prefix once per digit count, numpy's
SeedSequence mixing (NEP 19) runs for all keys at once in uint32 array
arithmetic, and one PCG64 is reseated per stream with the state that
PCG64(key) starts in.

stream_uniforms returns the first k doubles of each such stream, as
sample_config draws them. The PCG64 state setter costs a few
microseconds per stream whatever k, so streams of at most
SHORT_STREAM_DRAWS (64) draws skip it: PCG64 (XSL-RR 128/64) runs in
uint64 arrays, each draw's state a jump-ahead M**j t + S_j inc from the
seeded one, bit-identical to numpy's. A 3x3 box at d=2 (12 draws), a 5x5
one (40) and a 3x3x3 one (54) take that path; longer streams reseat.
While a stream_log block is open all three count what they derive,
derive_rng under its tag and the other two under their role, which is how
a run reports the streams it drew.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
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
_MASK64 = 2**64 - 1

# stream_uniforms runs streams of at most this many draws in numpy arrays,
# whose cost grows with the draws, and reseats one PCG64 per longer stream,
# whose cost is mostly fixed. On stacks of 2**15 and 3 * 2**14 draws (2-CPU
# x86 VM, numpy 2.4), the numpy path took 0.35-0.37x the reseated time at 12
# draws per stream, 0.80-0.82x at 54, 0.83-0.86x at 64, 0.98-1.10x at 84
# and 1.24-1.26x at 100.
SHORT_STREAM_DRAWS = 64


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
# The same for the uint64 words of the numpy PCG64; numpy 1.x would turn a
# uint64 array combined with a Python int into float64.
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.array(c, dtype=np.uint64) for c in (1, 11, 32, 58, 63, 64))


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


def _new_stream_log_lock() -> None:
    global _STREAM_LOG_LOCK
    _STREAM_LOG_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    # A forked child has only the forking thread, so a lock that another
    # thread held at the fork would never be released there.
    os.register_at_fork(after_in_child=_new_stream_log_lock)


@contextlib.contextmanager
def stream_log() -> Iterator[dict[tuple[int, str], int]]:
    """Count the streams derived in this context, and in copies of it, until the block exits.

    derive_rng counts 1 under its tag, its parts joined by ":", exactly as
    given; derive_streams and stream_uniforms count their whole run under
    its role.
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
    _count(master_seed, ":".join(map(str, parts)), 1)
    return generator


def _stream_words(master_seed: int, role: str, start: int, count: int) -> np.ndarray:
    """Key words of the streams f"{role}:{start + i}": (count, 4) uint32, least significant first.

    Each key is derive_key(master_seed, f"{role}:{start + i}"). The hash of
    the seed, the part's tag and length and the role prefix is taken once
    per digit count, so each stream hashes only its index.
    """
    if not isinstance(role, str):
        raise TypeError(f"stream role must be str, got {type(role).__name__}")
    base = _seeded_hash(master_seed)
    prefix = f"{role}:".encode("utf-8")
    heads = {}
    digests = []
    for index in range(start, start + count):
        digits = str(index).encode()
        head = heads.get(len(digits))
        if head is None:
            head = heads[len(digits)] = base.copy()
            head.update(b"s" + (len(prefix) + len(digits)).to_bytes(4, "little") + prefix)
        h = head.copy()
        h.update(digits)
        digests.append(h.digest()[:16])
    return np.frombuffer(b"".join(digests), dtype="<u4").reshape(count, _POOL)


def _reseated(words: np.ndarray) -> Iterator[np.random.Generator]:
    """One generator per row of key words, each the PCG64 of that key.

    All of them are one PCG64, reseated in place.
    """
    # Reseated before every draw, so its own seeding can skip the mixing.
    bit_generator = np.random.PCG64(_unseeded())
    rng = np.random.Generator(bit_generator)
    # The setter copies the numbers out, so one dict serves every stream.
    seat = {"state": 0, "inc": 1}
    value = {"bit_generator": "PCG64", "state": seat, "has_uint32": 0, "uinteger": 0}
    for s0, s1, i0, i1 in _pcg64_seeds(words).tolist():
        seat["inc"] = inc = ((i0 << 65 | i1 << 1) | 1) & _MASK128
        # PCG64(key) steps once from t = inc + initstate.
        seat["state"] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = value
        yield rng


def derive_streams(master_seed: int, role: str, start: int, count: int) -> Iterator[np.random.Generator]:
    """Generators on the streams f"{role}:{start + i}" for i = 0..count-1.

    Stream i is bit-identical to derive_rng(master_seed, f"{role}:{start + i}").
    Every yielded generator is one PCG64 reseated in place, so it is valid
    only until the next one is requested. Each call owns its PCG64, so calls
    on different threads do not interfere.
    """
    words = _stream_words(master_seed, role, start, count)
    _count(master_seed, role, count)
    yield from _reseated(words)


def stream_uniforms(master_seed: int, role: str, start: int, count: int, k: int) -> np.ndarray:
    """The first k doubles of each stream f"{role}:{start + i}", as a (count, k) float64 array.

    Row i equals derive_rng(master_seed, f"{role}:{start + i}").random(k) bit
    for bit, and the streams count under role as derive_streams counts them.
    Streams of at most SHORT_STREAM_DRAWS draws run PCG64 in uint64 arrays,
    with five scratch arrays of the output's size; longer ones reseat one
    PCG64 per stream.
    """
    words = _stream_words(master_seed, role, start, count)
    _count(master_seed, role, count)
    out = np.empty((count, k))
    if k <= SHORT_STREAM_DRAWS:
        _short_uniforms(_pcg64_seeds(words), out)
    else:
        for row, rng in zip(out, _reseated(words)):
            rng.random(out=row)
    return out


@functools.cache
def _jumps() -> tuple[np.ndarray, ...]:
    """Jump-ahead constants M**j and S_j = M**0 + ... + M**(j-1) mod 2**128, for j = 2..SHORT_STREAM_DRAWS+1.

    Each comes as four uint64 arrays: its high word, its low word, and the
    low word's low and high 32 bits. Built on first use, not at import.
    """
    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(SHORT_STREAM_DRAWS):
        power, total = power * _PCG_MULT & _MASK128, (total + power) & _MASK128
        powers.append(power)
        sums.append(total)
    out = []
    for values in (powers, sums):
        high = np.array([v >> 64 for v in values], dtype=np.uint64)
        low = np.array([v & _MASK64 for v in values], dtype=np.uint64)
        out += [high, low, low & _LOW32, low >> _U32]
    return tuple(out)


def _add_products(buffers: tuple[np.ndarray, ...], u: np.ndarray, v_low32: np.ndarray, v_high32: np.ndarray) -> None:
    """Add the exact products u * v of uint64 words into buffers = (low, mid, high, part, spare).

    low + mid * 2**32 + high * 2**64 is the running sum: low and mid gather
    32-bit limbs, which cannot overflow for a few products, and high wraps
    as a 128-bit value does. v comes as its 32-bit halves. part and spare
    are scratch; every step writes into a buffer, as fresh temporaries of
    this size would cost as much as the arithmetic.
    """
    low, mid, high, part, spare = buffers
    u_low32, u_high32 = u & _LOW32, u >> _U32
    limbs = ((u_low32, v_low32, low, mid), (u_low32, v_high32, mid, high), (u_high32, v_low32, mid, high))
    for a, b, lower, upper in limbs:
        np.multiply(a, b, out=part)
        np.right_shift(part, _U32, out=spare)
        upper += spare
        part &= _LOW32
        lower += part
    np.multiply(u_high32, v_high32, out=part)
    high += part


def _short_uniforms(seeds: np.ndarray, out: np.ndarray) -> None:
    """Fill row i of out with the first doubles of the PCG64 seeded with row i of seeds.

    seeds holds SeedSequence(key).generate_state(4, uint64) per stream. As
    PCG64 seeds it, inc = seq << 1 | 1 and the state starts at M t + inc,
    with t = inc + initstate. Draw j steps first, to state_j = M**(j+1) t +
    S_(j+1) inc, then outputs XSL-RR: hi ^ lo rotated right by the state's
    top six bits, and (x >> 11) * 2**-53 as a double (O'Neill 2014). The
    128-bit arithmetic runs in 64-bit words over (streams, draws) arrays.
    """
    a_high, a_low, a_low32, a_high32, s_high, s_low, s_low32, s_high32 = (c[: out.shape[1]] for c in _jumps())
    init_high, init_low, seq_high, seq_low = (np.ascontiguousarray(c)[:, None] for c in seeds.T)
    inc_high = (seq_high << _U1) | (seq_low >> _U63)
    inc_low = (seq_low << _U1) | _U1
    t_low = inc_low + init_low
    t_high = inc_high + init_high + (t_low < init_low)
    # The products of the low words, exactly; those of a high word reach only the high word.
    buffers = tuple(np.zeros(out.shape, dtype=np.uint64) for _ in range(5))
    low, mid, high, part, _ = buffers
    _add_products(buffers, t_low, a_low32, a_high32)
    _add_products(buffers, inc_low, s_low32, s_high32)
    np.right_shift(low, _U32, out=part)
    mid += part
    low &= _LOW32
    np.left_shift(mid, _U32, out=part)
    low |= part
    np.right_shift(mid, _U32, out=part)
    high += part
    for u, v in ((t_high, a_low), (t_low, a_high), (inc_high, s_low), (inc_low, s_high)):
        np.multiply(u, v, out=part)
        high += part
    # XSL-RR, with x = high ^ low in low, the rotation in high and the output in mid.
    low ^= high
    high >>= _U58
    np.right_shift(low, high, out=mid)
    np.subtract(_U64, high, out=high)
    high &= _U63
    low <<= high
    mid |= low
    mid >>= _U11
    np.multiply(mid, 2.0**-53, out=out)


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
