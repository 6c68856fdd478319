"""Deterministic randomness for every stochastic operation in the toolkit.

The generator is pinned: a splitmix64 chain seeds xoshiro256** streams, so any
two runs (and any two backends) reproduce every random choice bit-exactly.
Floating-point conversion and Box-Muller live here, shared by both kernel
backends; the backends only produce raw uint64 streams.

Stream derivation rules (documented so audits can be replayed elsewhere):
- root state word j (j=0..3) of a stream with seed s is mix64(s + (j+1)*GOLDEN)
- spawn_key(name) derives a child seed from sha256(seed || '/' || name)
- spawn_index(i) derives child seed mix64(s + (i+1)*GOLDEN) (counter chain,
  vectorizable; used for per-draw Monte Carlo streams)
- bounded integers use the 128-bit multiply-shift reduction of one uint64;
  shuffle/permutation/choose draw all their words in one block, in the order
  the per-index loop consumes them. choose_rows resolves the swaps of many
  streams' partial Fisher-Yates at once as arrays; Rng.choose is its one-row
  case.
- gaussians use Box-Muller on consecutive uint64 pairs; each call consumes
  2*ceil(n/2) words (odd tails discard the trailing partner variate). The
  transform runs over the words in fixed blocks of whole pairs; a variate
  depends on its own pair only, so the blocks never change a bit.
- a single-stream request is one contiguous run of the stream however it is
  computed: the numpy backend splits a long request into lockstep lanes of B
  words, lane j starting from the state jB steps ahead (reached by GF(2)
  jump-ahead), and writes the tail of fewer than B words serially from the
  last lane's end state. The lane count and length never change a word.
- a multi-stream request (gaussian_matrix, K rows) is K such runs, row k from
  stream k. One of at least LANE_CUTOFF words in all, with fewer rows than a
  lane is long, runs in lanes too: every row's lanes in one lockstep pass,
  then each row's tail from its last lane's end state. A row's words never
  depend on K or on which route filled it; `measure` relies on this when it
  draws the sigma-search rows of several runs in one request.
"""

import hashlib

import numpy as np

try:
    from . import _kernels  # type: ignore[attr-defined]
except ImportError:
    from . import _kernels_py as _kernels

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


def backend_name() -> str:
    """Which kernel backend was selected at import ('cython' or 'python')."""
    return _kernels.BACKEND


def mix64(z: int) -> int:
    """splitmix64 output mix of a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def states_from_seeds(seeds: np.ndarray) -> np.ndarray:
    """xoshiro256** init states, shape (K, 4), from uint64 seeds (K,)."""
    seeds = seeds.astype(np.uint64, copy=False)
    counters = (np.arange(1, 5, dtype=np.uint64) * np.uint64(GOLDEN))[None, :]
    states = _mix64_np(seeds[:, None] + counters)
    dead = ~states.any(axis=1)  # an all-zero state is invalid for xoshiro; unreachable
    if np.count_nonzero(dead):  # dead.any() on many rows maps 64 KiB more numpy code
        states[dead, 0] = np.uint64(GOLDEN)
    return np.ascontiguousarray(states)


def child_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """Counter-derived child seeds for spawn_index(start..stop-1), vectorized."""
    idx = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _mix64_np(np.uint64(seed & _MASK) + idx * np.uint64(GOLDEN))


# _box_muller works through its buffer in blocks of this many words, an even
# count, so no pair straddles two blocks. A block's half-size temporaries
# (64 KiB each) stay in cache, where one pass over a large buffer streams
# every step through memory: a 301,056-word image draw took 13.1-13.4 ms in
# one pass and 10.2-12.2 ms in blocks, a (4096, 30) prior shard 4.6-5.2 and
# 3.9-5.0 ms (2-core x86-64 host).
_BOX_MULLER_BLOCK = 1 << 14


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Gaussian variates from uint64 pairs; u has shape (K, 2m), output (K, 2m).

    u must be C-contiguous. The output reuses u's buffer (u is consumed). Its
    rows are one stream of pairs, transformed block by block; every variate
    depends on its own pair only, so the blocks change no bit.
    """
    if not u.flags.c_contiguous:
        raise ValueError("_box_muller needs a C-contiguous buffer")
    words = u.reshape(-1)
    z = words.view(np.float64)
    for lo in range(0, words.size, _BOX_MULLER_BLOCK):
        w = words[lo : lo + _BOX_MULLER_BLOCK]
        a = ((w[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53  # (0,1]
        r = np.sqrt(-2.0 * np.log(a))
        del a
        b = (w[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53  # [0,1)
        theta = (2.0 * np.pi) * b
        del b
        zb = z[lo : lo + _BOX_MULLER_BLOCK]
        zb[0::2] = r * np.cos(theta)
        zb[1::2] = r * np.sin(theta)
    return u.view(np.float64)


def gaussian_rows(states: np.ndarray, m: int) -> np.ndarray:
    """m gaussian variates from each stream of states (K, 4), which advance in place.

    Row k takes the next 2*ceil(m/2) words of stream k, so successive calls on
    the same states continue every stream as the scalar path would.
    """
    u = np.empty((len(states), 2 * ((m + 1) // 2)), dtype=np.uint64)
    _kernels.fill_u64_multi(states, u)
    return _box_muller(u)[:, :m]


def gaussian_matrix(seeds: np.ndarray, m: int) -> np.ndarray:
    """One gaussian row per seed, m variates each; bit-equal to the scalar path."""
    return gaussian_rows(states_from_seeds(seeds), m)


_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhi(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(w * m) >> 64 of uint64 arrays, exactly, from products of 32-bit halves."""
    wl, wh, ml, mh = w & _LOW32, w >> _32, m & _LOW32, m >> _32
    lh, hl = wl * mh, wh * ml
    wl *= ml
    wl >>= _32
    wl += lh & _LOW32
    wl += hl & _LOW32
    wl >>= _32  # the carry out of the low 64 bits
    wh *= mh
    wh += lh >> _32
    wh += hl >> _32
    wh += wl
    return wh


def choose_rows(words: np.ndarray, ns) -> np.ndarray:
    """Rng.choose(ns[r], k) for each row r of words (R, k), the stream's next
    k words, as an (R, k) int64 array.

    Step i swaps positions i and j_i = i + ((w_i * (n - i)) >> 64), so out[i]
    is j_i unless an earlier step targeted j_i; then it is what position t,
    the last such step, held before step t, and so on down a chain that
    pointer jumping resolves in log2(k) passes. Targets are compared as
    float64, exact below 2^53. Python's stable sort groups the steps by
    target: a numpy sort maps 128-192 KiB of code the earlier stages never
    run, more than the arrays of a pair-budget row.
    """
    R, k = words.shape
    if k == 0:
        return np.empty((R, 0), dtype=np.int64)
    if any(n > 1 << 53 for n in ns):
        raise ValueError("choose needs n <= 2**53")
    steps = np.arange(k, dtype=np.uint64)
    j = _mulhi(words, np.asarray(ns, dtype=np.uint64).reshape(R, 1) - steps)
    j += steps
    jf = j.astype(np.float64)
    j = j.view(np.int64)
    # steps by flat id r * k + i, each row's grouped by target in step order
    ids = np.arange(R * k, dtype=np.int64)
    base = ids[::k, None]
    order = np.array([sorted(range(k), key=row.__getitem__) for row in j.tolist()],
                     dtype=np.int64).reshape(R, k)
    order += base
    targets = jf.take(order)
    same = targets[:, 1:] == targets[:, :-1]
    later = order[:, 1:][same]  # each step that an earlier step shares a target with
    prev = ids.copy()  # that earlier step, else the step itself
    prev[later] = order[:, :-1][same]
    alone = np.ones(R * k, dtype=bool)
    alone[later] = False
    # position t < k links to the last step that targeted it, else to itself
    last = np.ones((R, k), dtype=bool)
    last[:, :-1] = ~same
    last &= targets < k
    root = ids.copy()
    root[(j.take(order) + base)[last]] = order[last]
    for _ in range(k.bit_length()):  # every chain is shorter than k
        root = root[root]
    out = (root - base.repeat(k)).take(prev)  # the value at position t before step t
    out[alone] = j.reshape(-1)[alone]
    return out.reshape(R, k)


def stream_words(seeds, m: int) -> np.ndarray:
    """The next m words of each stream Rng(seed), as the rows of one
    (len(seeds), m) array filled in one call."""
    out = np.empty((len(seeds), m), dtype=np.uint64)
    _kernels.fill_u64_multi(states_from_seeds(np.array(seeds, dtype=np.uint64)), out)
    return out


def key_seed(seed: int, key: str) -> int:
    """The seed of Rng(seed).spawn_key(key)."""
    digest = hashlib.sha256(
        (seed & _MASK).to_bytes(8, "little") + b"/" + key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """One xoshiro256** stream with deterministic spawning."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = states_from_seeds(np.array([self.seed], dtype=np.uint64))[0].copy()

    def u64_block(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.uint64)
        _kernels.fill_u64(self._state, out)
        return out

    def next_u64(self) -> int:
        return int(self.u64_block(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return (self.u64_block(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def stack(self) -> np.ndarray:
        """This stream as a (1, 4) stack of states for the multi-stream
        functions; what they draw from it advances this stream."""
        return self._state[None]

    def gaussians(self, n: int) -> np.ndarray:
        return gaussian_rows(self.stack(), n)[0]

    def gaussian(self) -> float:
        return float(self.gaussians(1)[0])

    def below(self, m: int) -> int:
        """Uniform integer in [0, m) via multiply-shift reduction."""
        if m <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * m) >> 64

    def shuffle(self, seq: list) -> None:
        """Fisher-Yates from the back; index i takes below(i + 1)."""
        n = len(seq)
        words = self.u64_block(max(n - 1, 0)).tolist()
        for i, w in zip(range(n - 1, 0, -1), words):
            j = (w * (i + 1)) >> 64
            seq[i], seq[j] = seq[j], seq[i]

    def permutation(self, n: int) -> np.ndarray:
        arr = list(range(n))
        self.shuffle(arr)
        return np.array(arr, dtype=np.int64)

    def choose(self, n: int, k: int) -> list:
        """k distinct indices from range(n), in selection order."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        return choose_rows(self.u64_block(k)[None], [n])[0].tolist()

    def spawn_key(self, key: str) -> "Rng":
        return Rng(key_seed(self.seed, key))

    def spawn_index(self, i: int) -> "Rng":
        return Rng(mix64(self.seed + (i + 1) * GOLDEN))
