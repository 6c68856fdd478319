"""Dataset ingestion and transform tests, IDX fixture bytes written by hand."""

import re
from dataclasses import replace

import numpy as np
import pytest

from fragaudit.data import Dataset, binarize, corrupt_labels, load_cache, load_idx, \
    make_permutation, permutation_pair, permute_pixels, save_cache, split_train_test, \
    subsample, synth_blobs, synth_images
from fragaudit.errors import FormatError, InvalidPermutation, InvalidSize, InvalidSplit
from fragaudit.net import NetSpec, forward_batch, init_checkpoint, save_checkpoint
from fragaudit.rng import Rng


def _idx_fixture(tmp_path):
    """Two 28x28 images, labels (0, 7), bytes laid out per the IDX format."""
    pix = bytes(range(256)) * 7  # 1792 bytes = 2 * 784 + 224
    img = (0x00000803).to_bytes(4, "big") + (2).to_bytes(4, "big") \
        + (28).to_bytes(4, "big") + (28).to_bytes(4, "big") + pix[: 2 * 784]
    lab = (0x00000801).to_bytes(4, "big") + (2).to_bytes(4, "big") + bytes([0, 7])
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    return ip, lp


def test_load_idx_fixture(tmp_path):
    ip, lp = _idx_fixture(tmp_path)
    ds = load_idx(ip, lp)
    assert ds.features.shape == (2, 784)
    assert ds.labels.tolist() == [0, 7]
    assert ds.features[0, 1] == 1.0 / 255.0
    assert ds.features.max() <= 1.0


def test_load_idx_wrong_magic(tmp_path):
    ip, lp = _idx_fixture(tmp_path)
    bad = tmp_path / "bad.idx"
    bad.write_bytes((0x00000803).to_bytes(4, "big") + (2).to_bytes(4, "big") + bytes(2))
    with pytest.raises(FormatError):
        load_idx(ip, bad)  # labels file carrying the images magic


def test_load_idx_empty_file(tmp_path):
    ip, lp = _idx_fixture(tmp_path)
    empty = tmp_path / "empty.idx"
    empty.write_bytes(b"")
    with pytest.raises(FormatError):
        load_idx(empty, lp)


def test_load_idx_truncated_payload(tmp_path):
    ip, lp = _idx_fixture(tmp_path)
    blob = ip.read_bytes()
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(blob[:-10])
    with pytest.raises(FormatError) as err:
        load_idx(trunc, lp)
    assert err.value.offset is not None


def test_load_idx_count_mismatch(tmp_path):
    ip, _ = _idx_fixture(tmp_path)
    lab3 = tmp_path / "lab3.idx"
    lab3.write_bytes((0x00000801).to_bytes(4, "big") + (3).to_bytes(4, "big")
                     + bytes([0, 1, 2]))
    with pytest.raises(FormatError):
        load_idx(ip, lab3)


def test_write_idx_roundtrip(tmp_path, write_idx):
    ds = synth_images(6, 3, seed=4, side=8, active_pixels=5, noise=0.3)
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx(ip, lp, ds.features, ds.labels, 8, 8)
    back = load_idx(ip, lp)
    assert back.labels.tolist() == ds.labels.tolist()
    assert np.max(np.abs(back.features - ds.features)) <= 0.5 / 255.0


def test_binarize_default_split_balanced():
    labels = np.arange(10, dtype=np.int64)
    ds = Dataset(np.zeros((10, 2)), labels, 10)
    out = binarize(ds)
    assert out.num_classes == 2
    assert out.labels.tolist() == [1] * 5 + [0] * 5
    assert out.labels.sum() == 5


def test_binarize_rejects_full_or_empty_positive():
    ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 3]), 4)
    with pytest.raises(InvalidSplit):
        binarize(ds, set(range(4)))
    with pytest.raises(InvalidSplit):
        binarize(ds, set())


def test_binarize_twice():
    ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 3]), 4)
    once = binarize(ds, {1})
    again = binarize(once, {1})  # {1} is valid under 2 classes
    assert again.labels.tolist() == once.labels.tolist()


def test_corrupt_labels_p0_is_identity():
    ds = synth_blobs(20, 2, 4, 1.0, seed=1)
    out = corrupt_labels(ds, 0.0, seed=2)
    assert np.array_equal(out.labels, ds.labels)


def test_corrupt_labels_p1_changes_everything():
    ds = synth_blobs(30, 2, 4, 1.0, seed=1)
    out = corrupt_labels(ds, 1.0, seed=2)
    assert np.all(out.labels != ds.labels)
    assert out.labels.max() < 4


@pytest.mark.parametrize("n,p,C,seed", [(10, 0.5, 2, 1), (57, 0.3, 3, 2),
                                         (200, 0.25, 10, 3), (3000, 0.6, 4, 4)])
def test_corrupt_labels_block_matches_below_loop(n, p, C, seed):
    ds = synth_blobs(n, 2, C, 1.0, seed=seed + 10)
    k = int(round(p * n))
    rng = Rng(seed)
    want = ds.labels.copy()
    for i in sorted(rng.choose(n, k)):
        new = rng.below(C - 1)
        want[i] = new + 1 if new >= want[i] else new
    assert np.array_equal(corrupt_labels(ds, p, seed).labels, want)


def test_corrupt_labels_exact_count():
    ds = synth_blobs(10, 2, 3, 1.0, seed=3)
    out = corrupt_labels(ds, 0.5, seed=4)
    assert int((out.labels != ds.labels).sum()) == 5


def test_corrupt_labels_round_half_even():
    ds = synth_blobs(10, 2, 3, 1.0, seed=3)
    # 0.25 * 10 = 2.5 -> rounds to 2 under round-half-to-even
    out = corrupt_labels(ds, 0.25, seed=4)
    assert int((out.labels != ds.labels).sum()) == 2
    # 0.35 * 10 = 3.5 -> rounds to 4
    out = corrupt_labels(ds, 0.35, seed=4)
    assert int((out.labels != ds.labels).sum()) == 4


def test_permutation_identity_and_inverse():
    ds = synth_blobs(12, 6, 2, 2.0, seed=5)
    ident = np.arange(6)
    assert np.array_equal(permute_pixels(ds, ident).features, ds.features)
    perm = make_permutation(6, seed=6)
    inv = np.empty(6, dtype=np.int64)
    inv[perm] = np.arange(6)
    back = permute_pixels(permute_pixels(ds, perm), inv)
    assert np.array_equal(back.features, ds.features)


def test_permute_rejects_non_bijection():
    ds = synth_blobs(5, 3, 2, 2.0, seed=5)
    with pytest.raises(InvalidPermutation):
        permute_pixels(ds, np.array([0, 0, 2]))


def test_permute_preserves_row_multisets():
    ds = synth_blobs(8, 5, 2, 2.0, seed=7)
    perm = make_permutation(5, seed=8)
    out = permute_pixels(ds, perm)
    for r in range(8):
        assert sorted(out.features[r]) == sorted(ds.features[r])


def test_fcn_permutation_symmetry():
    # permuting inputs and first-layer columns together leaves logits unchanged
    spec = NetSpec((6, 4, 2))
    ck = init_checkpoint(spec, Rng(1).spawn_key("init"))
    ds = synth_blobs(10, 6, 2, 2.0, seed=9)
    perm = make_permutation(6, seed=10)
    permuted = permute_pixels(ds, perm)
    ck2 = ck.copy()
    W1 = np.empty_like(ck.weights[0])
    W1[:, perm] = ck.weights[0]
    ck2.weights[0] = W1
    base = forward_batch(spec, ck.weights, ck.biases, ds.features)
    moved = forward_batch(spec, ck2.weights, ck2.biases, permuted.features)
    assert np.max(np.abs(base - moved)) <= 1e-12


def test_permutation_pair_modes():
    same_a, same_b = permutation_pair(16, seed=3, independent=False)
    assert np.array_equal(same_a, same_b)
    ind_a, ind_b = permutation_pair(16, seed=3, independent=True)
    assert np.array_equal(ind_a, same_a)  # train perm shared across modes
    assert not np.array_equal(ind_a, ind_b)


def _perceptron_separable(X, y, iters=5000):
    Xa = np.hstack([X, np.ones((len(y), 1))])
    w = np.zeros(Xa.shape[1])
    t = np.where(y == 1, 1.0, -1.0)
    for _ in range(iters):
        scores = Xa @ w
        wrong = np.flatnonzero(t * scores <= 0)
        if len(wrong) == 0:
            return True
        i = wrong[0]
        w += t[i] * Xa[i]
    return False


def test_blobs_separable_at_high_separation():
    ds = synth_blobs(100, 2, 2, 6.0, seed=11)
    assert _perceptron_separable(ds.features, ds.labels)


def test_blobs_deterministic_and_in_unit_box():
    a = synth_blobs(50, 3, 3, 4.0, seed=12)
    b = synth_blobs(50, 3, 3, 4.0, seed=12)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.features.min() >= 0.0 and a.features.max() <= 1.0


def test_blobs_zero_separation_uninformative():
    ds = synth_blobs(400, 2, 2, 0.0, seed=13)
    # class-conditional means coincide: no usable signal
    mu0 = ds.features[ds.labels == 0].mean(axis=0)
    mu1 = ds.features[ds.labels == 1].mean(axis=0)
    assert np.linalg.norm(mu0 - mu1) < 0.1


def test_subsample_identity_and_bounds():
    ds = synth_blobs(20, 2, 2, 2.0, seed=14)
    same = subsample(ds, 20, seed=15)
    assert np.array_equal(same.features, ds.features)
    one = subsample(ds, 1, seed=15)
    assert any(np.array_equal(one.features[0], row) for row in ds.features)
    with pytest.raises(InvalidSize):
        subsample(ds, 21, seed=15)


def test_subsample_nesting_property():
    ds = synth_blobs(200, 2, 2, 2.0, seed=16)
    big = subsample(ds, 50, seed=17)
    small = subsample(big, 10, seed=18)
    big_rows = {tuple(r) for r in big.features}
    assert all(tuple(r) in big_rows for r in small.features)


def test_subsample_preserves_order():
    ds = synth_blobs(50, 2, 2, 2.0, seed=19)
    sub = subsample(ds, 20, seed=20)
    pos = [int(np.flatnonzero((ds.features == row).all(axis=1))[0])
           for row in sub.features]
    assert pos == sorted(pos)


def test_split_train_test_disjoint_cover():
    ds = synth_blobs(30, 2, 2, 2.0, seed=21)
    tr, te = split_train_test(ds, 10, seed=22)
    assert tr.n == 10 and te.n == 20
    rows = {tuple(r) for r in ds.features}
    got = {tuple(r) for r in tr.features} | {tuple(r) for r in te.features}
    assert rows == got


def test_provenance_replay_reproduces_dataset():
    ds = corrupt_labels(synth_blobs(40, 2, 3, 2.0, seed=23), 0.3, seed=24)
    chain = ds.provenance["chain"]
    assert chain[0]["op"] == "synth_blobs"
    assert chain[1] == {"op": "corrupt_labels", "p": 0.3, "seed": 24, "changed": 12}
    replay = corrupt_labels(
        synth_blobs(**{k: v for k, v in chain[0].items() if k != "op"}),
        chain[1]["p"], chain[1]["seed"])
    assert np.array_equal(replay.features, ds.features)
    assert np.array_equal(replay.labels, ds.labels)


def test_synth_images_equal_active_pixel_count():
    ds = synth_images(40, 4, seed=25, side=8, active_pixels=10, noise=0.0)
    on_counts = (ds.features > 0.5).sum(axis=1)
    assert set(on_counts.tolist()) == {10}


@pytest.mark.parametrize("n, side", [(7, 5), (6, 5), (9, 4)])  # n*d odd, even, even
def test_synth_images_match_the_fresh_array_expression(n, side):
    amplitude, noise = 0.3, 0.08
    ds = synth_images(n, 3, seed=31, side=side, active_pixels=6, noise=noise,
                      amplitude=amplitude)
    d = side * side
    rng = Rng(31)
    masks = np.zeros((3, d))
    for c in range(3):
        masks[c, rng.choose(d, 6)] = 1.0
    base = 0.5 - amplitude / 2.0 + amplitude * masks[np.arange(n) % 3]
    expected = np.clip(base + noise * rng.gaussians(n * d).reshape(n, d), 0.0, 1.0)
    assert ds.features.tobytes() == expected.tobytes()


@pytest.mark.parametrize("edit", [
    lambda h: {k: v for k, v in h.items() if k != "n"},
    lambda h: {k: v for k, v in h.items() if k != "labels"},
    lambda h: dict(h, labels=h["labels"][:1]),  # n 2, one label, payload of n 2
    lambda h: dict(h, dim="3"),
    lambda h: [1, 2],
    lambda h: dict(h, labels=[0.5, 1.7]),  # np.asarray(..., int64) reads [0, 1]
    lambda h: dict(h, labels=[True, 0]),  # and [1, 0]
    lambda h: dict(h, provenance=[]),  # Dataset.with_chain needs a dict
    lambda h: {k: v for k, v in h.items() if k != "key"},
], ids=["no-n", "no-labels", "n-2-one-label", "dim-not-int", "not-an-object",
        "float-labels", "bool-label", "provenance-list", "no-key"])
def test_cache_malformed_header_is_format_error(tmp_path, edit):
    import json

    path = tmp_path / "ds.dsc"
    save_cache(path, synth_blobs(2, 3, 2, 2.0, seed=26), "k")
    head, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(head))).encode() + b"\n" + payload)
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_cache(path, "k")


@pytest.mark.parametrize("saved_key, cut", [("k", 8), ("k", 1), ("other", 0), (None, 0)],
                         ids=["8-bytes-short", "1-byte-short", "other-key", "no-key"])
def test_cache_truncated_or_of_another_key_is_format_error(tmp_path, saved_key, cut):
    path = tmp_path / "ds.dsc"
    save_cache(path, synth_blobs(4, 3, 2, 2.0, seed=26), saved_key)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - cut])
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_cache(path, "k")


def _cache_saves(path):
    """(a save_cache of path, one that fails in its payload)."""
    ds = synth_blobs(4, 3, 2, 2.0, seed=26)
    unwritable = Dataset(np.full((4, 3), "x", dtype=object), ds.labels, 2)
    return lambda: save_cache(path, ds, "k"), lambda: save_cache(path, unwritable, "k")


def _checkpoint_saves(path):
    """(a save_checkpoint of path, one that fails in its payload's last arrays)."""
    spec = NetSpec((3, 4, 2))
    ck = init_checkpoint(spec, Rng(1).spawn_key("init"))
    unwritable = replace(ck, init_weights=[np.full(w.shape, "x", dtype=object)
                                           for w in ck.init_weights])
    return lambda: save_checkpoint(path, spec, ck), \
        lambda: save_checkpoint(path, spec, unwritable)


@pytest.mark.parametrize("saves", [_cache_saves, _checkpoint_saves],
                         ids=["save_cache", "save_checkpoint"])
def test_save_cache_replaces_the_file_whole_or_not_at_all(tmp_path, saves):
    path = tmp_path / "saved.bin"
    save, fail = saves(path)
    save()
    before = path.read_bytes()
    with pytest.raises(ValueError):  # raised by the payload, after the header
        fail()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["saved.bin"]


@pytest.mark.parametrize("n, dim", [(2, 0), (0, -1)])
def test_cache_dim_below_one_is_format_error(tmp_path, n, dim):
    import json

    header = {"format": "fragaudit-dataset-v1", "n": n, "dim": dim, "num_classes": 2,
              "labels": [0] * n, "provenance": {}, "key": "k"}
    path = tmp_path / "ds.dsc"
    path.write_bytes(json.dumps(header).encode() + b"\n")  # n * dim * 8 == 0 bytes
    with pytest.raises(FormatError, match=f"dim {dim} < 1"):
        load_cache(path, "k")


def test_cache_roundtrip(tmp_path):
    ds = corrupt_labels(synth_blobs(15, 3, 2, 2.0, seed=26), 0.2, seed=27)
    path = tmp_path / "ds.dsc"
    save_cache(path, ds, "k")
    back = load_cache(path, "k")
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes
    assert back.provenance == ds.provenance
