"""Pure-python/numpy fallback for the xoshiro256** stream kernels.

Both backends must produce bit-identical uint64 streams; everything here is
integer arithmetic mod 2**64, so equivalence with the compiled kernels is
exact by construction.

A long stream request, single or one row of a multi-stream fill, is generated
in lockstep lanes. The xoshiro256** state step is linear over GF(2), so it is
a 256x256 bit matrix T, and the state j*B steps ahead of s is T^(jB) s
(Haramoto et al. 2008, "Efficient jump ahead for F2-linear random number
generators"). Lane j starts there and writes words jB .. jB+B-1 of the row,
which are exactly the words the serial loop would write. The powers T^(2^i)
are built once per process by squaring.
"""

import threading

import numpy as np

_MASK = (1 << 64) - 1

BACKEND = "python"

# Requests of at least this many words, over all their rows, run in lanes;
# shorter ones run the serial loop. The lane path costs about 0.5 ms however
# short the request and the loop about 1 us/word; they broke even between 768
# and 1,024 words on a 2-core x86-64 host with single-threaded OpenBLAS.
LANE_CUTOFF = 1024

# Fewer short rows than this run the serial loop one row at a time. A lockstep
# step costs about as much as 12 serial words however few streams it advances
# (same host), so narrower requests lose to the loop.
_SERIAL_ROWS = 8

# States per GF(2) matrix product; bounds each temporary bit-plane array to
# 128 KiB, which keeps the lane path's peak memory near 1.5 MiB.
_APPLY_CHUNK = 128

# _POWERS[i] is T^(2^i), bit-packed: row c holds the image of the basis state
# with only bit c set (bit c is bit c % 64 of state word c // 64). 8 KiB each.
_POWERS = []
_POWERS_LOCK = threading.Lock()


def fill_u64(state, out):
    """Advance one xoshiro256** stream len(out) steps, writing outputs.

    state: uint64 array of shape (4,), mutated in place. This is the K = 1
    case of fill_u64_multi; it calls the shared path directly, so a wrapper
    on either public name sees each request once.
    """
    _fill_rows(state[None], out[None])


def fill_u64_multi(states, out):
    """Advance K xoshiro256** streams; out has shape (K, m), row k from stream k.

    states: uint64 array of shape (K, 4), mutated in place.
    """
    _fill_rows(states, out)


def _fill_rows(states, out):
    """Each row of out is one contiguous run of its stream, however it is split.

    A request of at least LANE_CUTOFF words runs in lanes while it has fewer
    rows than a lane is long (then every row holds at least two lanes); more
    rows already fill the lockstep width, and the jumps would cost more than
    the steps they save. The lanes of all K rows take one lockstep pass, and
    each row's tail (shorter than a lane) then continues from its last lane's
    end state. Other requests and the tails run the serial loop row by row
    when there are fewer than _SERIAL_ROWS rows, and the lockstep loop
    otherwise.
    """
    K, m = out.shape
    log2_len = lane_log2_len(K * m)
    if K * m >= LANE_CUTOFF and K < 1 << log2_len:
        lanes = m >> log2_len
        body = lanes << log2_len
        starts = lane_starts(states, lanes, log2_len)
        _lockstep(starts, out[:, :body].reshape(K, lanes, 1 << log2_len))
        states[:] = starts[:, -1]
        out = out[:, body:]
    if K < _SERIAL_ROWS:
        for k in range(K):
            fill_u64_serial(states[k], out[k])
    else:
        _lockstep(states, out)


def lane_log2_len(n: int) -> int:
    """log2 of the lane length for a request of n words over all its rows.

    The lockstep loop costs per word of lane length, the jumps per lane, so
    the best length grows as sqrt(n); the offset is the fastest measured at
    1k, 26k and 301k words in one row. For K rows of m words, n = K * m was
    within 10% of the fastest length at 4 x 26,432, 15 x 1,024 and 15 x 4,096,
    and beat plain lockstep 2.9x at 15 x 178.
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


def _lockstep(states, out):
    """The per-word step on every stream at once: states (..., 4), out (..., m).

    states is mutated in place. Each step runs in place on the four state
    columns and two scratch arrays.
    """
    s0, s1, s2, s3 = (states[..., j].copy() for j in range(4))
    r = np.empty_like(s0)
    t = np.empty_like(s0)
    five, nine = np.uint64(5), np.uint64(9)
    u7, u17, u19, u45, u57 = (np.uint64(k) for k in (7, 17, 19, 45, 57))
    for j in range(out.shape[-1]):
        np.multiply(s1, five, out=r)
        np.left_shift(r, u7, out=t)
        np.right_shift(r, u57, out=r)
        np.bitwise_or(r, t, out=r)
        np.multiply(r, nine, out=out[..., j])
        np.left_shift(s1, u17, out=t)
        np.bitwise_xor(s2, s0, out=s2)
        np.bitwise_xor(s3, s1, out=s3)
        np.bitwise_xor(s1, s2, out=s1)
        np.bitwise_xor(s0, s3, out=s0)
        np.bitwise_xor(s2, t, out=s2)
        np.left_shift(s3, u45, out=r)
        np.right_shift(s3, u19, out=s3)
        np.bitwise_or(s3, r, out=s3)
    states[..., 0] = s0
    states[..., 1] = s1
    states[..., 2] = s2
    states[..., 3] = s3


def lane_starts(states, lanes: int, log2_len: int) -> np.ndarray:
    """States T^(j * 2**log2_len) s for each of the K states s and j < lanes.

    states has shape (K, 4), the result (K, lanes, 4). Doubling: the first m
    starts of every row jumped m lanes ahead give the next m.
    """
    K = states.shape[0]
    powers = jump_powers(log2_len + (lanes - 1).bit_length())
    starts = np.empty((K, lanes, 4), dtype=np.uint64)
    starts[:, 0] = states
    have = 1
    for power in powers[log2_len:]:
        take = min(have, lanes - have)
        jumped = gf2_apply(power, starts[:, :take].reshape(K * take, 4))
        starts[:, have:have + take] = jumped.reshape(K, take, 4)
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
            _lockstep(step, np.empty((256, 1), dtype=np.uint64))
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
