"""Stream generator tests: reference vectors, backend equivalence, spawning."""

import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragaudit import _kernels_py
from fragaudit import rng as rng_mod
from fragaudit.rng import Rng, child_seeds, gaussian_matrix, mix64, states_from_seeds

# First outputs for seed 42 (splitmix64-seeded state), from the published
# reference implementation compiled independently.
SEED42_REFERENCE = [
    1546998764402558742,
    6990951692964543102,
    12544586762248559009,
    17057574109182124193,
    18295552978065317476,
    14199186830065750584,
]


def test_reference_vector_seed42():
    assert [Rng(42).next_u64() for _ in range(0)] == []
    assert list(Rng(42).u64_block(6)) == SEED42_REFERENCE


def test_block_splitting_matches_single_calls():
    a = Rng(7)
    b = Rng(7)
    assert list(a.u64_block(10)) == [b.next_u64() for _ in range(10)]


def test_backends_agree_single_stream():
    # the active backend (compiled if built) against the per-word reference loop
    state = states_from_seeds(np.array([123456789], dtype=np.uint64))[0].copy()
    state_ref = state.copy()
    out = np.empty(257, dtype=np.uint64)
    out_ref = np.empty(257, dtype=np.uint64)
    rng_mod._kernels.fill_u64(state, out)
    _kernels_py.fill_u64_serial(state_ref, out_ref)
    assert np.array_equal(out, out_ref)
    assert np.array_equal(state, state_ref)


def test_backends_agree_multi_stream():
    # each row of the lockstep fill is the serial stream from that row's state
    states = states_from_seeds(child_seeds(99, 0, 33))
    states_ref = states.copy()
    out = np.empty((33, 17), dtype=np.uint64)
    rng_mod._kernels.fill_u64_multi(states, out)
    for k in range(33):
        row = np.empty(17, dtype=np.uint64)
        _kernels_py.fill_u64_serial(states_ref[k], row)
        assert np.array_equal(out[k], row)
    assert np.array_equal(states, states_ref)


def test_multi_stream_rows_match_scalar_streams():
    root = Rng(555)
    seeds = child_seeds(root.seed, 0, 8)
    mat = gaussian_matrix(seeds, 11)
    for k in range(8):
        scalar = root.spawn_index(k).gaussians(11)
        assert np.array_equal(mat[k], scalar)


def test_uniforms_in_unit_interval():
    u = Rng(3).uniforms(10000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_gaussian_moments_sane():
    z = Rng(11).gaussians(200001)  # odd count exercises the tail discard
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_gaussians_deterministic():
    assert np.array_equal(Rng(5).gaussians(9), Rng(5).gaussians(9))


def test_below_bounds_and_determinism():
    r = Rng(1)
    vals = [r.below(10) for _ in range(1000)]
    assert min(vals) >= 0 and max(vals) <= 9
    r2 = Rng(1)
    assert vals == [r2.below(10) for _ in range(1000)]


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(1).below(0)


def test_choose_is_distinct_subset():
    sel = Rng(2).choose(50, 20)
    assert len(set(sel)) == 20
    assert all(0 <= i < 50 for i in sel)


def test_permutation_is_bijection():
    p = Rng(9).permutation(64)
    assert sorted(p.tolist()) == list(range(64))


def test_spawn_key_independent_streams():
    root = Rng(77)
    a = root.spawn_key("alpha").u64_block(4)
    b = root.spawn_key("beta").u64_block(4)
    a2 = Rng(77).spawn_key("alpha").u64_block(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, a2)


def test_spawn_index_matches_child_seeds():
    root = Rng(31337)
    seeds = child_seeds(root.seed, 5, 9)
    for off, k in enumerate(range(5, 9)):
        assert root.spawn_index(k).seed == int(seeds[off])


def test_mix64_matches_numpy_path():
    xs = np.array([0, 1, 42, 2**63, 2**64 - 1], dtype=np.uint64)
    mixed = rng_mod._mix64_np(xs.copy())
    for x, m in zip(xs, mixed):
        assert mix64(int(x)) == int(m)


CUTOFF = _kernels_py.LANE_CUTOFF


def _serial(seed, n):
    state = states_from_seeds(np.array([seed], dtype=np.uint64))[0].copy()
    out = np.empty(n, dtype=np.uint64)
    _kernels_py.fill_u64_serial(state, out)
    return out, state


def _lane_edge_sizes():
    """Request sizes at the edges of the lane split, including whole-lane tails."""
    sizes = {0, 1, CUTOFF - 1, CUTOFF, CUTOFF + 1, 301056}
    for n0 in (CUTOFF, 5000, 26112):
        log2_len = _kernels_py.lane_log2_len(n0)
        lane = 1 << log2_len
        whole = (n0 >> log2_len) << log2_len  # L * B
        sizes |= {lane - 1, lane, lane + 1, whole - 1, whole, whole + 1,
                  whole + lane - 1}
    for k in range(10, 19):  # the lane length changes where n.bit_length() does
        sizes |= {(1 << k) - 1, 1 << k}
    return sorted(sizes)


@pytest.mark.parametrize("n", _lane_edge_sizes())
def test_lane_fill_matches_serial_reference(n):
    expect, expect_state = _serial(2024, n)
    state = states_from_seeds(np.array([2024], dtype=np.uint64))[0].copy()
    out = np.empty(n, dtype=np.uint64)
    _kernels_py.fill_u64(state, out)
    assert np.array_equal(out, expect)
    assert np.array_equal(state, expect_state)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 3 * CUTOFF))
def test_backend_equivalence_property(seed, n):
    expect, expect_state = _serial(seed, n)
    for kernels in {rng_mod._kernels, _kernels_py}:
        state = states_from_seeds(np.array([seed], dtype=np.uint64))[0].copy()
        out = np.empty(n, dtype=np.uint64)
        kernels.fill_u64(state, out)
        assert np.array_equal(out, expect)
        assert np.array_equal(state, expect_state)


@pytest.mark.parametrize("i", range(13))
def test_jump_power_equals_serial_steps(i):
    state = states_from_seeds(np.array([77], dtype=np.uint64))
    power = _kernels_py.jump_powers(i + 1)[i]
    jumped = _kernels_py.gf2_apply(power, state)[0]
    _, stepped = _serial(77, 1 << i)
    assert np.array_equal(jumped, stepped)


@pytest.mark.parametrize("a,b", [(CUTOFF - 1, 5 * CUTOFF + 3), (5 * CUTOFF + 3, 7),
                                 (3, CUTOFF), (CUTOFF, CUTOFF - 1)])
def test_blocks_across_cutoff_continue_the_stream(monkeypatch, a, b):
    monkeypatch.setattr(rng_mod, "_kernels", _kernels_py)
    split = Rng(8)
    joined = np.concatenate([split.u64_block(a), split.u64_block(b)])
    whole = Rng(8)
    assert np.array_equal(joined, whole.u64_block(a + b))
    assert split.next_u64() == whole.next_u64()


def test_threads_filling_from_cold_power_table_match_serial(monkeypatch):
    monkeypatch.setattr(_kernels_py, "_POWERS", [])
    seeds = [101, 202, 303, 404]  # more threads than cores
    n = 50_000
    expected = [_serial(seed, n)[0] for seed in seeds]
    results = [None] * len(seeds)
    barrier = threading.Barrier(len(seeds))

    def fill(k):
        state = states_from_seeds(np.array([seeds[k]], dtype=np.uint64))[0].copy()
        out = np.empty(n, dtype=np.uint64)
        barrier.wait(timeout=30)
        _kernels_py.fill_u64(state, out)
        results[k] = out

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(k,)) for k in range(len(seeds))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert got is not None and np.array_equal(got, want)


def _below_loop_choose(rng, n, k):
    """The scalar partial Fisher-Yates, one below() per step; the positions it
    has swapped are kept in a dict, so n may be near 2**32 or beyond."""
    arr = {}
    for i in range(k):
        j = i + rng.below(n - i)
        arr[i], arr[j] = arr.get(j, j), arr.get(i, i)
    return [arr[i] for i in range(k)]


def _below_loop_permutation(rng, n):
    arr = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        arr[i], arr[j] = arr[j], arr[i]
    return arr


@pytest.mark.parametrize("n,k", [(784, 392), (50, 50), (10, 0), (0, 0), (5000, 3)])
def test_choose_matches_per_word_below_loop(n, k):
    got, ref = Rng(21), Rng(21)
    assert got.choose(n, k) == _below_loop_choose(ref, n, k)
    assert got.next_u64() == ref.next_u64()


def _random_choose_cases(count):
    gen = np.random.default_rng(26)
    cases = [(0, 0), (1, 0), (1, 1), (2, 2), (7, 7), (5000, 0), (2 ** 32 - 1, 5),
             (2 ** 32, 3), (2 ** 32 + 1, 40), (2 ** 40 + 17, 9), (2 ** 53, 4)]
    while len(cases) < count:
        kind = gen.integers(4)
        n = (int(gen.integers(1, 5)) if kind == 0 else
             int(gen.integers(2 ** 32 - 300, 2 ** 32 + 300)) if kind == 1 else
             int(gen.integers(1, 3000)))
        k = (n if n <= 64 and gen.integers(4) == 0 else
             int(gen.integers(0, min(n, 64) + 1)))
        cases.append((n, k))
    return cases


def test_choose_matches_the_scalar_loop_on_random_cases():
    for case, (n, k) in enumerate(_random_choose_cases(3000)):
        got, ref = Rng(case), Rng(case)
        assert got.choose(n, k) == _below_loop_choose(ref, n, k), (n, k)
        assert got.next_u64() == ref.next_u64(), (n, k)


def test_choose_rows_of_one_fill_match_one_rng_per_row():
    seeds = [int(s) for s in child_seeds(77, 0, 40)]
    ns = [int(n) for n in np.random.default_rng(3).integers(24, 5000, len(seeds))]
    words = rng_mod.stream_words(seeds, 24)
    rows = rng_mod.choose_rows(words, ns)
    assert rows.dtype == np.int64 and rows.shape == (40, 24)
    assert rows.tolist() == [Rng(s).choose(n, 24) for s, n in zip(seeds, ns)]
    for start in (0, 13, 39):  # a row's picks do not depend on the rows beside it
        assert rng_mod.choose_rows(words[start:start + 1], ns[start:start + 1]).tolist() \
            == rows[start:start + 1].tolist()


def test_choose_past_2_53_is_refused():
    with pytest.raises(ValueError, match="2\\*\\*53"):
        Rng(1).choose(2 ** 53 + 1, 3)


@pytest.mark.parametrize("n", [0, 1, 2, 64, 5000])
def test_permutation_and_shuffle_match_per_word_below_loop(n):
    got, ref = Rng(22), Rng(22)
    assert got.permutation(n).tolist() == _below_loop_permutation(ref, n)
    assert got.next_u64() == ref.next_u64()
    seq = list("abcdefghij")[: min(n, 10)]
    expect = [seq[i] for i in _below_loop_permutation(Rng(23), len(seq))]
    Rng(23).shuffle(seq)
    assert seq == expect


@pytest.mark.parametrize("K", [1, 4, 15])
@pytest.mark.parametrize("m", [1, 11, CUTOFF - 1, CUTOFF, CUTOFF + 1, 26432])
def test_gaussian_matrix_rows_match_spawned_streams(K, m):
    root = Rng(4242)
    mat = gaussian_matrix(child_seeds(root.seed, 0, K), m)
    for k in range(K):
        assert np.array_equal(mat[k], root.spawn_index(k).gaussians(m)), k


def _lane_len(K, m):
    return 1 << _kernels_py.lane_log2_len(K * m)


def _multi_lane_cases():
    """(K, m) at the edges of the multi-row routes: the serial-row count, the
    lane cutoff on all K * m words, tails of 0, 1 and B - 1 words, and the
    row count at which lanes give way to plain lockstep."""
    cases = {(0, CUTOFF), (2, 5), (7, 40), (8, 40), (15, 178)}
    cases |= {(K, CUTOFF - 1) for K in (1, 3, 16)}
    cases |= {(2, 511), (2, 512), (3, 341), (3, 342), (15, 68), (15, 69)}
    for K in (1, 3, 9):
        for m0 in (CUTOFF, 5000, 26432):
            lane = _lane_len(K, m0)
            whole = m0 // lane * lane
            cases |= {(K, m) for m in (whole, whole + 1, whole + lane - 1)}
    edge = next(K for K in range(1, 1024) if K >= _lane_len(K, CUTOFF))
    cases |= {(edge - 1, CUTOFF + 7), (edge, CUTOFF + 7)}
    return sorted(cases)


@pytest.mark.parametrize("K,m", _multi_lane_cases())
def test_multi_fill_matches_serial_rows(K, m):
    states = states_from_seeds(child_seeds(77, 0, K))
    expect_states = states.copy()
    expect = np.empty((K, m), dtype=np.uint64)
    for k in range(K):
        _kernels_py.fill_u64_serial(expect_states[k], expect[k])
    out = np.empty((K, m), dtype=np.uint64)
    _kernels_py.fill_u64_multi(states, out)
    assert np.array_equal(out, expect)
    assert np.array_equal(states, expect_states)


def test_multi_fill_into_strided_rows():
    K, m = 3, 5000
    states = states_from_seeds(child_seeds(78, 0, K))
    expect = np.empty((K, m), dtype=np.uint64)
    expect_states = states.copy()
    for k in range(K):
        _kernels_py.fill_u64_serial(expect_states[k], expect[k])
    buf = np.zeros((K, 2 * m), dtype=np.uint64)
    _kernels_py.fill_u64_multi(states, buf[:, 1::2])
    assert np.array_equal(buf[:, 1::2], expect) and not buf[:, 0::2].any()
    assert np.array_equal(states, expect_states)


def _box_muller_reference(u):
    """The variates as fresh arrays, u left intact."""
    a = ((u[:, 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    b = (u[:, 1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(a))
    theta = (2.0 * np.pi) * b
    z = np.empty(u.shape, dtype=np.float64)
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r * np.sin(theta)
    return z


_BLOCK = rng_mod._BOX_MULLER_BLOCK


# single rows ending just before, at and after a block boundary, then the
# prior-shard, sigma-noise and image-draw shapes; block ends fall mid-row
@pytest.mark.parametrize("K,cols", [
    (1, 2), (1, _BLOCK - 2), (1, _BLOCK), (1, _BLOCK + 2), (2, _BLOCK - 2),
    (3, _BLOCK + 2), (1, 301056), (4, 26112), (4, 26432), (4096, 18), (4096, 30),
    (15, 178)])
def test_box_muller_in_u_buffer_matches_fresh_arrays(K, cols):
    u = np.empty((K, cols), dtype=np.uint64)
    _kernels_py.fill_u64_multi(states_from_seeds(child_seeds(5, 0, K)), u)
    u[0, :2] = [0, 2**64 - 1]  # the extreme words of both halves of a pair
    expect = _box_muller_reference(u)
    got = rng_mod._box_muller(u)
    assert np.shares_memory(got, u)
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


def test_box_muller_rejects_a_strided_buffer():
    u = np.zeros((2, 8), dtype=np.uint64)
    with pytest.raises(ValueError):
        rng_mod._box_muller(u[:, :4])


# --- the compiled backend, built here from the committed _kernels.c ------------

@pytest.fixture(scope="module")
def compiled_kernels(tmp_path_factory):
    """The committed _kernels.c compiled with the host C compiler and loaded
    without entering sys.modules, so the backend chosen at import stays active.
    Skips only where there is no C compiler or no Python.h."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    include = sysconfig.get_paths()["include"]
    if shutil.which(cc[0]) is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or no Python.h to build the compiled backend")
    path = tmp_path_factory.mktemp("kernels") / (
        "_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run(
        cc + ["-shared", "-fPIC", "-O1", "-I", include, "-I", np.get_include(),
              "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION",
              os.path.join(os.path.dirname(rng_mod.__file__), "_kernels.c"),
              "-o", str(path)],
        capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stderr
    loader = importlib.machinery.ExtensionFileLoader("fragaudit._kernels", str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name,
                                                                            loader))
    loader.exec_module(module)
    assert module.BACKEND == "cython"
    return module


def test_compiled_reference_vector_seed42(compiled_kernels, monkeypatch):
    monkeypatch.setattr(rng_mod, "_kernels", compiled_kernels)
    assert list(Rng(42).u64_block(6)) == SEED42_REFERENCE


@pytest.mark.parametrize("n", [0, 1, 257, CUTOFF, 5000])
def test_compiled_fill_matches_serial_reference(compiled_kernels, n):
    expect, expect_state = _serial(2024, n)
    state = states_from_seeds(np.array([2024], dtype=np.uint64))[0].copy()
    out = np.empty(n, dtype=np.uint64)
    compiled_kernels.fill_u64(state, out)
    assert np.array_equal(out, expect)
    assert np.array_equal(state, expect_state)


# (K, m) on each route of _kernels_py._fill_rows: serial rows, lockstep, lanes
@pytest.mark.parametrize("shape", [(3, 17), (3, 0), (33, 17), (33, 1500), (1, 5000),
                                   (5, 400)])
def test_compiled_multi_fill_matches_numpy_backend(compiled_kernels, shape):
    states = states_from_seeds(child_seeds(99, 0, shape[0]))
    states_ref = states.copy()
    out = np.empty(shape, dtype=np.uint64)
    out_ref = np.empty(shape, dtype=np.uint64)
    compiled_kernels.fill_u64_multi(states, out)
    _kernels_py.fill_u64_multi(states_ref, out_ref)
    assert np.array_equal(out, out_ref)
    assert np.array_equal(states, states_ref)
