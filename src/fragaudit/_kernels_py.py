"""Pure-python/numpy fallback for the xoshiro256** stream kernels.

Both backends must produce bit-identical uint64 streams; everything here is
integer arithmetic mod 2**64, so equivalence with the compiled kernels is
exact by construction.

A long single stream is generated in lockstep lanes. The xoshiro256** state
step is linear over GF(2), so it is a 256x256 bit matrix T, and the state
j*B steps ahead of s is T^(jB) s (Haramoto et al. 2008, "Efficient jump ahead
for F2-linear random number generators"). Lane j starts there and writes
words jB .. jB+B-1 of the request, which are exactly the words the serial
loop would write. The powers T^(2^i) are built once per process by squaring.
"""

import threading

import numpy as np

_MASK = (1 << 64) - 1

BACKEND = "python"

# Requests of at least this many words run in lanes; shorter ones run the
# serial loop. The lane path costs about 0.5 ms however short the request and
# the loop about 1 us/word; they broke even between 768 and 1,024 words on a
# 2-core x86-64 host with single-threaded OpenBLAS.
LANE_CUTOFF = 1024

# States per GF(2) matrix product; bounds each temporary bit-plane array to
# 128 KiB, which keeps the lane path's peak memory near 1.5 MiB.
_APPLY_CHUNK = 128

# _POWERS[i] is T^(2^i), bit-packed: row c holds the image of the basis state
# with only bit c set (bit c is bit c % 64 of state word c // 64). 8 KiB each.
_POWERS = []
_POWERS_LOCK = threading.Lock()


def fill_u64(state, out):
    """Advance one xoshiro256** stream len(out) steps, writing outputs.

    state: uint64 array of shape (4,), mutated in place.
    """
    n = out.shape[0]
    if n < LANE_CUTOFF or not out.flags.c_contiguous:
        fill_u64_serial(state, out)
        return
    log2_len = lane_log2_len(n)
    lanes = n >> log2_len
    starts = lane_starts(state, lanes, log2_len)
    fill_u64_multi(starts, out[: lanes << log2_len].reshape(lanes, 1 << log2_len))
    state[:] = starts[-1]
    fill_u64_serial(state, out[lanes << log2_len:])


def lane_log2_len(n: int) -> int:
    """log2 of the lane length for an n-word request.

    The lockstep loop costs per word of lane length, the jumps per lane, so
    the best length grows as sqrt(n); the offset is the fastest measured at
    1k, 26k and 301k words.
    """
    return max(1, (n.bit_length() - 2) // 2)


def fill_u64_serial(state, out):
    """The per-word reference loop: the short-request path and the lane tail."""
    s0, s1, s2, s3 = (int(x) for x in state)
    n = out.shape[0]
    buf = out
    for i in range(n):
        r = (s1 * 5) & _MASK
        r = (((r << 7) | (r >> 57)) & _MASK) * 9 & _MASK
        buf[i] = r
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
    state[0] = s0
    state[1] = s1
    state[2] = s2
    state[3] = s3


def fill_u64_multi(states, out):
    """Advance K parallel streams in lockstep; out has shape (K, m).

    states: uint64 array of shape (K, 4), mutated in place. Each step runs in
    place on the four state columns and two scratch arrays.
    """
    s0, s1, s2, s3 = (states[:, j].copy() for j in range(4))
    r = np.empty_like(s0)
    t = np.empty_like(s0)
    five, nine = np.uint64(5), np.uint64(9)
    u7, u17, u19, u45, u57 = (np.uint64(k) for k in (7, 17, 19, 45, 57))
    for j in range(out.shape[1]):
        np.multiply(s1, five, out=r)
        np.left_shift(r, u7, out=t)
        np.right_shift(r, u57, out=r)
        np.bitwise_or(r, t, out=r)
        np.multiply(r, nine, out=out[:, j])
        np.left_shift(s1, u17, out=t)
        np.bitwise_xor(s2, s0, out=s2)
        np.bitwise_xor(s3, s1, out=s3)
        np.bitwise_xor(s1, s2, out=s1)
        np.bitwise_xor(s0, s3, out=s0)
        np.bitwise_xor(s2, t, out=s2)
        np.left_shift(s3, u45, out=r)
        np.right_shift(s3, u19, out=s3)
        np.bitwise_or(s3, r, out=s3)
    states[:, 0] = s0
    states[:, 1] = s1
    states[:, 2] = s2
    states[:, 3] = s3


def lane_starts(state, lanes: int, log2_len: int) -> np.ndarray:
    """States T^(j * 2**log2_len) state for j < lanes, shape (lanes, 4).

    Doubling: the first m starts jumped m lanes ahead give the next m.
    """
    powers = jump_powers(log2_len + (lanes - 1).bit_length())
    starts = np.empty((lanes, 4), dtype=np.uint64)
    starts[0] = state
    have = 1
    for power in powers[log2_len:]:
        take = min(have, lanes - have)
        starts[have:have + take] = gf2_apply(power, starts[:take])
        have += take
    return starts


def jump_powers(count: int) -> list:
    """[T^(2^i) for i < count], extending the per-process table as needed.

    The table is built under a lock, so threads filling at once from a cold
    table all see complete entries.
    """
    with _POWERS_LOCK:
        if not _POWERS:
            step = _pack_bits(np.eye(256, dtype=np.float32))
            fill_u64_multi(step, np.empty((256, 1), dtype=np.uint64))
            _POWERS.append(step)
        while len(_POWERS) < count:
            _POWERS.append(gf2_apply(_POWERS[-1], _POWERS[-1]))
        return _POWERS[:count]


def gf2_apply(matrix, states) -> np.ndarray:
    """Images of bit-packed states (m, 4) under a bit-packed GF(2) matrix.

    The product of 0/1 float32 bit planes sums at most 256 ones, so it is
    exact, and its low bit is the GF(2) sum.
    """
    rows = _unpack_bits(matrix)
    out = np.empty_like(states)
    for lo in range(0, states.shape[0], _APPLY_CHUNK):
        chunk = states[lo:lo + _APPLY_CHUNK]
        out[lo:lo + _APPLY_CHUNK] = _pack_bits(_unpack_bits(chunk) @ rows)
    return out


def _unpack_bits(words) -> np.ndarray:
    """(m, 4) uint64 -> (m, 256) float32 0/1, column c = bit c % 64 of word c // 64."""
    planes = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(planes, axis=1, bitorder="little").astype(np.float32)


def _pack_bits(sums) -> np.ndarray:
    """(m, 256) whole-number float32 -> (m, 4) uint64 of their low bits."""
    bits = sums.astype(np.int32)
    bits &= 1
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)
