"""Network core: forward/backward oracles, scale invariance, margins, files."""

import functools
import re

import numpy as np
import pytest

from fragaudit.errors import ConfigError, FormatError, InvalidDataset, \
    NormalizationSingularity
from fragaudit.net import _COLUMN_CLASSES, Checkpoint, NetSpec, _class_argmax, _class_max, \
    _class_sum, accuracy_wb, backward_batch, evaluate_wb, flatten_params, forward, \
    forward_batch, init_checkpoint, load_checkpoint, margins, param_views, \
    save_checkpoint, scale_checkpoint, unflatten_params
from fragaudit.rng import Rng


def make_ckpt(spec, seed=0):
    return init_checkpoint(spec, Rng(seed).spawn_key("init"))


def scale_invariant_spec(dims=(2, 8, 8, 2)):
    return NetSpec(dims, normalize_hidden=True, frozen_readout=True,
                   bias_enabled=False)


def test_identity_net_passes_input_through():
    spec = NetSpec((2, 2, 2))
    eye = np.eye(2)
    ck = Checkpoint([eye.copy(), eye.copy()], [eye.copy(), eye.copy()])
    assert np.allclose(forward(spec, ck, np.array([1.0, 1.0])), [1.0, 1.0])


def test_forward_matches_hand_evaluation():
    # oracle: scalar re-evaluation of the affine/relu chain, element by element
    spec = NetSpec((2, 3, 2))
    ck = make_ckpt(spec, seed=5)
    x = np.array([0.3, -1.2])
    got = forward(spec, ck, x)
    W1, W2 = ck.weights
    hidden = []
    for i in range(3):
        z = sum(W1[i][j] * x[j] for j in range(2))
        hidden.append(z if z > 0 else 0.0)
    expected = [sum(W2[o][i] * hidden[i] for i in range(3)) for o in range(2)]
    assert np.all(np.abs(got - np.array(expected)) <= 1e-12)


def test_forward_batch_matches_single():
    spec = NetSpec((3, 5, 4))
    ck = make_ckpt(spec, seed=2)
    X = Rng(9).gaussians(12).reshape(4, 3)
    batch = forward_batch(spec, ck.weights, ck.biases, X)
    for i in range(4):
        assert np.allclose(batch[i], forward(spec, ck, X[i]), atol=1e-14)


def test_scale_invariance_of_normalized_net():
    spec = scale_invariant_spec()
    ck = make_ckpt(spec, seed=1)
    X = Rng(4).gaussians(20).reshape(10, 2)
    base = forward_batch(spec, ck.weights, ck.biases, X)
    for c in (0.5, 2.0, 10.0, 7.0):
        scaled = scale_checkpoint(ck, spec, c)
        out = forward_batch(spec, scaled.weights, scaled.biases, X)
        assert np.max(np.abs(out - base)) <= 1e-10 * max(1.0, np.max(np.abs(base)))


def test_normalization_singularity_is_an_error():
    spec = scale_invariant_spec((2, 4, 2))
    ck = make_ckpt(spec, seed=3)
    ck.weights[0][:] = 1.0
    x = np.array([1.0, -1.0])  # first-layer preactivation is exactly zero
    with pytest.raises(NormalizationSingularity):
        forward(spec, ck, x)


def _per_slice_logits(spec, weights, biases, X, K):
    """Oracle: one forward_batch per stack slice, shared layers reused as-is."""
    def pick(a, k, stacked_ndim):
        return a[k] if a.ndim == stacked_ndim else a
    return np.stack([
        forward_batch(spec, [pick(W, k, 3) for W in weights],
                      [pick(b, k, 2) for b in biases], X)
        for k in range(K)])


# The three perfbench workload nets; the scale-invariant one on fewer images.
STACK_NETS = [
    (NetSpec((8, 16, 2), bias_enabled=True), 40),
    (scale_invariant_spec((784, 32, 32, 10)), 24),
    (NetSpec((3, 6, 2)), 16),
]


@pytest.mark.parametrize("spec,n", STACK_NETS)
def test_stacked_forward_equals_per_slice_bit_for_bit(spec, n):
    K = 6
    gen = np.random.default_rng(spec.layer_dims[0])
    X = gen.standard_normal((n, spec.layer_dims[0]))
    L = spec.num_layers
    # every mix of shared and stacked layers, the all-shared one excepted
    for mask in range(1, 1 << L):
        weights, biases = [], []
        for i in range(L):
            lead = (K,) if mask >> i & 1 else ()
            shape = (spec.layer_dims[i + 1], spec.layer_dims[i])
            weights.append(gen.standard_normal(lead + shape))
            if spec.bias_enabled:
                biases.append(gen.standard_normal(lead + shape[:1]))
        got = forward_batch(spec, weights, biases, X)
        assert got.shape == (K, n, spec.layer_dims[-1])
        assert np.array_equal(got, _per_slice_logits(spec, weights, biases, X, K))


def test_stacked_forward_mixes_shared_weights_with_stacked_biases():
    spec, K = NetSpec((8, 16, 2), bias_enabled=True), 4
    gen = np.random.default_rng(3)
    X = gen.standard_normal((10, 8))
    weights = [gen.standard_normal((16, 8)), gen.standard_normal((2, 16))]
    biases = [gen.standard_normal((K, 16)), gen.standard_normal(2)]
    before = [a.copy() for a in (X, *weights, *biases)]
    got = forward_batch(spec, weights, biases, X)
    assert all(np.array_equal(a, b) for a, b in zip((X, *weights, *biases), before))
    assert np.array_equal(got, _per_slice_logits(spec, weights, biases, X, K))


def _reference_forward(spec, weights, biases, X):
    """Oracle: each layer as fresh out-of-place arrays, one net per stack slice."""
    A = X
    for i in range(spec.num_layers):
        Z = A @ weights[i].T
        if biases:
            Z = Z + biases[i]
        if i < spec.num_layers - 1:
            if spec.normalize_hidden:
                Z = Z / np.linalg.norm(Z, axis=-1, keepdims=True)
            if spec.activation == "relu":
                Z = np.maximum(Z, 0.0)
        A = Z
    return A


@pytest.mark.parametrize("stacked_data", [False, True])
@pytest.mark.parametrize("spec,n", STACK_NETS)
def test_forward_leaves_inputs_unchanged_and_matches_reference(spec, n, stacked_data):
    # in-place bias adds and divides must give the out-of-place bits and write
    # only to the fresh layer products, never to W, b or X
    K = 3
    gen = np.random.default_rng(spec.layer_dims[-1])
    X = gen.standard_normal(((K,) if stacked_data else ()) + (n, spec.layer_dims[0]))
    for mask in range(1 << spec.num_layers):
        weights, biases = _random_layers(spec, gen, K, mask)
        before = [a.copy() for a in (X, *weights, *biases)]
        got = forward_batch(spec, weights, biases, X)
        assert all(np.array_equal(a, b) for a, b in zip((X, *weights, *biases), before))
        if not mask and not stacked_data:
            assert np.array_equal(got, _reference_forward(spec, weights, biases, X))
            continue
        for k in range(K):
            w = [_pick(W, k, 3) for W in weights]
            b = [_pick(v, k, 2) for v in biases]
            assert np.array_equal(got[k], _reference_forward(spec, w, b, _pick(X, k, 3)))


def test_stacked_normalization_singularity_in_one_slice():
    spec = scale_invariant_spec((3, 4, 2))
    gen = np.random.default_rng(8)
    X = gen.standard_normal((5, 3))
    X[2] = [1.0, 0.0, 0.0]
    W0 = gen.standard_normal((6, 4, 3))
    readout = gen.standard_normal((2, 4))
    forward_batch(spec, [W0, readout], [], X)  # no zero norm yet
    W0[4][:, 0] = 0.0  # slice 4 maps example 2 to the zero pre-activation
    with pytest.raises(NormalizationSingularity):
        forward_batch(spec, [W0, readout], [], X)


def _pick(a, k, stacked_ndim):
    return a[k] if a.ndim == stacked_ndim else a


def _random_layers(spec, gen, K, mask):
    """Layer i stacked over K nets when bit i of mask is set, shared otherwise."""
    weights, biases = [], []
    for i in range(spec.num_layers):
        lead = (K,) if mask >> i & 1 else ()
        shape = (spec.layer_dims[i + 1], spec.layer_dims[i])
        weights.append(gen.standard_normal(lead + shape))
        if spec.bias_enabled:
            biases.append(gen.standard_normal(lead + shape[:1]))
    return weights, biases


@pytest.mark.parametrize("stacked_data", [False, True])
@pytest.mark.parametrize("spec,n", STACK_NETS)
def test_stacked_backward_equals_per_slice_bit_for_bit(spec, n, stacked_data):
    # Stacked @, sum over rows and columns, mean and norm along the last axis
    # must give each slice the bits of the one-net call; checked, not assumed.
    K = 5
    gen = np.random.default_rng(spec.layer_dims[1])
    lead = (K,) if stacked_data else ()
    X = gen.standard_normal(lead + (n, spec.layer_dims[0]))
    y = gen.integers(0, spec.layer_dims[-1], lead + (n,))
    P = flatten_params(spec, *_random_layers(spec, gen, 1, 0)).size
    for mask in range(0 if stacked_data else 1, 1 << spec.num_layers):
        weights, biases = _random_layers(spec, gen, K, mask)
        record = []
        grad, loss = backward_batch(spec, weights, biases, X, y, record)
        assert grad.shape == (K, P) and loss.shape == (K,)
        assert np.array_equal(record[-1][0], forward_batch(spec, weights, biases, X))
        acc, ce = evaluate_wb(spec, weights, biases, X, y)
        assert np.array_equal(accuracy_wb(spec, weights, biases, X, y), acc)
        for k in range(K):
            w = [_pick(W, k, 3) for W in weights]
            b = [_pick(v, k, 2) for v in biases]
            Xk, yk = _pick(X, k, 3), _pick(y, k, 2)
            g1, l1 = backward_batch(spec, w, b, Xk, yk)
            assert np.array_equal(grad[k], g1) and loss[k] == l1
            assert (acc[k], ce[k]) == evaluate_wb(spec, w, b, Xk, yk)
            assert type(accuracy_wb(spec, w, b, Xk, yk)) is float


_SPECIALS = np.array([-np.inf, -1.5, -0.0, 0.0, 1.5, np.inf])


def _class_inputs(C):
    """2-D and 3-D inputs with C classes: wide magnitudes (so a reordered sum
    rounds differently), ties, signed zeros, infinities and NaNs."""
    gen = np.random.default_rng(C)
    yield gen.standard_normal((64, C)) * 10.0 ** gen.integers(-8, 9, (64, C))
    yield gen.standard_normal((3, 40, C)) * 10.0 ** gen.integers(-8, 9, (3, 40, C))
    yield gen.choice(_SPECIALS, (5, 30, C))
    yield np.full((2, 3, C), -0.0)
    yield np.full((4, C), 0.0)
    # a NaN in each column in turn, with and without a second NaN later
    nan = gen.choice(_SPECIALS, (2, C, C))
    nan[:, np.arange(C), np.arange(C)] = np.nan
    nan[1, :, -1] = np.nan
    yield nan
    yield nan[0]


def _max_step(r, v):
    """np.maximum(r, v) of two floats: a NaN wins, then the larger; a tie, such
    as 0.0 against -0.0, gives v."""
    if r != r or v != v:
        return r if r != r else v
    return r if r > v else v


def _scalar_max(E):
    """Each row's max as a left-to-right pass of _max_step, in Python floats."""
    rows = E.reshape(-1, E.shape[-1]).tolist()
    return np.array([functools.reduce(_max_step, row) for row in rows],
                    dtype=E.dtype).reshape(E.shape[:-1])


@pytest.mark.parametrize("C", [1, 2, 3, 4, 5, 6, 7, 8, 10, 129])
def test_class_axis_helpers_match_numpy_bit_for_bit(C):
    """Below _COLUMN_CLASSES the max oracle is a scalar left-to-right pass:
    numpy's own max of a row holding both 0.0 and -0.0 returns either zero,
    depending on the SIMD loops it dispatches on the host."""
    for E in _class_inputs(C):
        before = E.copy()
        for helper, name in ((_class_max, "max"), (_class_sum, "sum")):
            with np.errstate(invalid="ignore"):  # inf + -inf
                got = helper(E)
                want = _scalar_max(E) if name == "max" and C < _COLUMN_CLASSES else \
                    getattr(E, name)(axis=-1)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (name, E)
        got, want = _class_argmax(E), E.argmax(axis=-1)
        assert got.dtype == want.dtype and np.array_equal(got, want), E
        assert np.array_equal(E.view(np.uint64), before.view(np.uint64))


def test_backward_record_is_the_forward_pass():
    spec = scale_invariant_spec((4, 6, 5, 3))
    ck = make_ckpt(spec, seed=2)
    gen = np.random.default_rng(2)
    X, y = gen.standard_normal((9, 4)), gen.integers(0, 3, 9)
    record = []
    grad, _ = backward_batch(spec, ck.weights, ck.biases, X, y, record)
    assert [A.shape for A, _ in record] == [(9, 4), (9, 6), (9, 5), (9, 3)]
    assert record[0][0] is X and record[0][1] is None and record[-1][1] is None
    zhat, r = record[1][1]
    assert np.array_equal(record[1][0], np.maximum(zhat, 0.0))
    assert np.allclose(np.linalg.norm(zhat, axis=-1), 1.0) and r.shape == (9, 1)
    assert np.array_equal(record[-1][0], forward_batch(spec, ck.weights, ck.biases, X))
    assert np.array_equal(grad, backward_batch(spec, ck.weights, ck.biases, X, y)[0])


def test_param_views_slices_stacked_flat_vectors():
    spec = NetSpec((3, 4, 2), frozen_readout=True, bias_enabled=True)
    ck = make_ckpt(spec, seed=6)
    flats = Rng(2).gaussians(3 * 16).reshape(3, 16)
    weights, biases = param_views(spec, flats, ck)
    assert weights[0].shape == (3, 4, 3) and biases[0].shape == (3, 4)
    assert weights[1] is ck.weights[1] and biases[1] is ck.biases[1]
    assert np.shares_memory(weights[0], flats)
    for k in range(3):
        c = unflatten_params(spec, flats[k], ck)
        assert np.array_equal(weights[0][k], c.weights[0])
        assert np.array_equal(biases[0][k], c.biases[0])
    with pytest.raises(ConfigError):
        param_views(spec, flats[:, :-1], ck)


def _ce_loss(spec, ck, flat, X, y):
    c = unflatten_params(spec, flat, ck)
    logits = forward_batch(spec, c.weights, c.biases, X)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(logz - shifted[np.arange(len(y)), y]))


@pytest.mark.parametrize("spec", [
    NetSpec((2, 6, 3)),
    NetSpec((3, 4, 4, 2), bias_enabled=True),
    scale_invariant_spec((2, 5, 3)),
])
def test_gradient_matches_central_differences(spec):
    ck = make_ckpt(spec, seed=11)
    rng = Rng(21)
    X = rng.gaussians(8 * spec.layer_dims[0]).reshape(8, spec.layer_dims[0])
    y = np.array([rng.below(spec.layer_dims[-1]) for _ in range(8)])
    flat = flatten_params(spec, ck.weights, ck.biases)
    grad, _ = backward_batch(spec, ck.weights, ck.biases, X, y)
    h = 1e-5
    coords = [rng.below(flat.size) for _ in range(min(40, flat.size))]
    for idx in coords:
        fp, fm = flat.copy(), flat.copy()
        fp[idx] += h
        fm[idx] -= h
        fd = (_ce_loss(spec, ck, fp, X, y) - _ce_loss(spec, ck, fm, X, y)) / (2 * h)
        denom = max(abs(fd), abs(grad[idx]), 1e-8)
        assert abs(grad[idx] - fd) / denom <= 1e-5


def test_single_layer_gradient_fixture():
    # one linear layer, one example: d(CE)/dW checked against central differences
    spec = NetSpec((2, 2))
    ck = make_ckpt(spec, seed=7)
    X = np.array([[0.5, -0.25]])
    y = np.array([1])
    grad, _ = backward_batch(spec, ck.weights, ck.biases, X, y)
    flat = flatten_params(spec, ck.weights, ck.biases)
    h = 1e-5
    for idx in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[idx] += h
        fm[idx] -= h
        fd = (_ce_loss(spec, ck, fp, X, y) - _ce_loss(spec, ck, fm, X, y)) / (2 * h)
        assert abs(grad[idx] - fd) / max(abs(fd), 1e-8) <= 1e-5


def test_scale_invariant_gradient_orthogonal_to_weights():
    spec = scale_invariant_spec()
    ck = make_ckpt(spec, seed=13)
    rng = Rng(14)
    X = rng.gaussians(16).reshape(8, 2)
    y = np.array([rng.below(2) for _ in range(8)])
    grad, _ = backward_batch(spec, ck.weights, ck.biases, X, y)
    theta = flatten_params(spec, ck.weights, ck.biases)
    assert abs(grad @ theta) <= 1e-8 * np.linalg.norm(grad) * np.linalg.norm(theta)


def test_scale_invariant_gradient_homogeneity():
    spec = scale_invariant_spec()
    ck = make_ckpt(spec, seed=15)
    rng = Rng(16)
    X = rng.gaussians(16).reshape(8, 2)
    y = np.array([rng.below(2) for _ in range(8)])
    grad, _ = backward_batch(spec, ck.weights, ck.biases, X, y)
    for c in (0.5, 2.0, 3.0, 10.0):
        scaled = scale_checkpoint(ck, spec, c)
        grad_c, _ = backward_batch(spec, scaled.weights, scaled.biases, X, y)
        assert np.linalg.norm(c * grad_c - grad) <= 1e-8 * np.linalg.norm(grad)


def test_frozen_readout_gradient_excluded():
    spec = NetSpec((2, 4, 2), frozen_readout=True)
    ck = make_ckpt(spec, seed=1)
    X = np.array([[1.0, 2.0], [0.5, -1.0]])
    y = np.array([0, 1])
    grad, _ = backward_batch(spec, ck.weights, ck.biases, X, y)
    assert grad.size == 8  # only the 4x2 hidden layer is trainable


def test_margins_all_equal():
    spec = NetSpec((2, 2))
    eye = np.eye(2)
    ck = Checkpoint([eye.copy()], [eye.copy()])
    X = np.array([[2.0, 0.0]] * 4)
    y = np.zeros(4, dtype=np.int64)
    stats = margins(spec, ck, X, y)
    assert np.allclose(stats.margins, 2.0)
    assert stats.margin_gamma == 2.0


def test_margin_percentile_lower_convention():
    spec = NetSpec((2, 2))
    eye = np.eye(2)
    ck = Checkpoint([eye.copy()], [eye.copy()])
    vals = np.arange(-1.0, 9.0)  # margins -1..8
    X = np.stack([vals, np.zeros(10)], axis=1)
    y = np.zeros(10, dtype=np.int64)
    stats = margins(spec, ck, X, y)
    assert stats.margin_gamma == -1.0  # index floor(0.1 * 9) = 0


def test_interpolating_classifier_has_positive_margins():
    spec = NetSpec((2, 2))
    W = np.array([[1.0, 0.0], [0.0, 1.0]])
    ck = Checkpoint([W.copy()], [W.copy()])
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.5]])
    y = np.array([0, 1, 0])
    acc, _ = evaluate_wb(spec, ck.weights, ck.biases, X, y)
    assert acc == 1.0
    assert np.all(margins(spec, ck, X, y).margins > 0)


def test_margins_rejects_single_class():
    spec = NetSpec((2, 2))
    eye = np.eye(2)
    ck = Checkpoint([eye.copy()], [eye.copy()])
    with pytest.raises(InvalidDataset):
        margins(spec, ck, np.ones((3, 2)), np.zeros(3, dtype=np.int64), 0.1, 1)


def test_spec_invariant_enforced():
    with pytest.raises(ConfigError):
        NetSpec((2, 3, 2), normalize_hidden=True)  # needs frozen readout
    with pytest.raises(ConfigError):
        NetSpec((2, 3, 2), normalize_hidden=True, frozen_readout=True,
                bias_enabled=True)
    with pytest.raises(ConfigError):
        NetSpec((2,))


def test_flatten_unflatten_roundtrip():
    spec = NetSpec((3, 4, 2), bias_enabled=True)
    ck = make_ckpt(spec, seed=9)
    for i, b in enumerate(ck.biases):
        b[:] = Rng(i + 1).gaussians(b.size)
    flat = flatten_params(spec, ck.weights, ck.biases)
    back = unflatten_params(spec, flat, ck)
    for a, b in zip(back.weights, ck.weights):
        assert np.array_equal(a, b)
    for a, b in zip(back.biases, ck.biases):
        assert np.array_equal(a, b)


def test_checkpoint_roundtrip(tmp_path):
    spec = NetSpec((3, 4, 2), bias_enabled=True)
    ck = make_ckpt(spec, seed=9)
    ck.meta["run_id"] = "abc"
    ck.meta["epoch"] = 17
    path = tmp_path / "ck.bin"
    save_checkpoint(path, spec, ck)
    spec2, ck2 = load_checkpoint(path)
    assert spec2 == spec
    assert ck2.meta["run_id"] == "abc"
    assert ck2.meta["epoch"] == 17
    for a, b in zip(ck2.weights, ck.weights):
        assert np.array_equal(a, b)
    for a, b in zip(ck2.init_weights, ck.init_weights):
        assert np.array_equal(a, b)


def test_checkpoint_bad_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00\x01\x02 not a checkpoint")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
        load_checkpoint(path)


def _with_header(tmp_path, edit):
    """A saved checkpoint's file with its JSON header line replaced by edit(header)."""
    import json

    spec = NetSpec((3, 4, 2), bias_enabled=True)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, spec, make_ckpt(spec, seed=9))
    head, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(head))).encode() + b"\n" + payload)
    return path


@pytest.mark.parametrize("edit", [
    lambda h: {k: v for k, v in h.items() if k != "spec"},
    lambda h: {k: v for k, v in h.items() if k != "payload"},
    lambda h: {k: v for k, v in h.items() if k != "shapes"},
    lambda h: dict(h, spec=[3, 4, 2]),
    lambda h: dict(h, spec={"layer_dims": 3}),
    lambda h: dict(h, spec={"layer_dims": [3, 0, 2]}),
    lambda h: dict(h, shapes=[3, 4]),
    lambda h: dict(h, payload="inline"),
    lambda h: [1, 2],
], ids=["no-spec", "no-payload", "no-shapes", "spec-not-object", "dims-not-a-list",
        "dim-zero", "shapes-not-pairs", "inline-payload", "not-an-object"])
def test_checkpoint_malformed_header_is_format_error(tmp_path, edit):
    path = _with_header(tmp_path, edit)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
        load_checkpoint(path)


def test_checkpoint_header_not_utf8_is_format_error(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"\xff{}\n")  # json.loads raises UnicodeDecodeError
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
        load_checkpoint(path)
