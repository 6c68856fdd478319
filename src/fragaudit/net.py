"""Dense feed-forward nets: forward/backward, losses, margins, checkpoints.

Hidden pre-activations can be exactly normalized (divided by their Euclidean
norm, no epsilon) to make the network scale invariant in its trainable
weights; that mode requires a frozen readout and no biases.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, FormatError, InvalidDataset, NormalizationSingularity
from .persist import config_hash, read_payload, write_payload
from .rng import gaussian_rows

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class NetSpec:
    layer_dims: tuple
    activation: str = "relu"
    normalize_hidden: bool = False
    frozen_readout: bool = False
    bias_enabled: bool = False

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        if len(self.layer_dims) < 2:
            raise ConfigError("need at least one layer (two dims)")
        if any(d < 1 for d in self.layer_dims):
            raise ConfigError("all layer dims must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.normalize_hidden and (self.bias_enabled or not self.frozen_readout):
            raise ConfigError(
                "normalize_hidden requires bias_enabled=False and frozen_readout=True"
            )

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def trainable_layers(self) -> tuple:
        n = self.num_layers
        return tuple(range(n - 1)) if self.frozen_readout else tuple(range(n))

    def check_labels(self, labels) -> None:
        """ConfigError if a label does not fit the net's outputs."""
        if int(labels.max(initial=0)) >= self.layer_dims[-1]:
            raise ConfigError(f"label {int(labels.max())} does not fit the net's "
                              f"{self.layer_dims[-1]} outputs")

    def to_dict(self) -> dict:
        return {
            "layer_dims": list(self.layer_dims),
            "activation": self.activation,
            "normalize_hidden": self.normalize_hidden,
            "frozen_readout": self.frozen_readout,
            "bias_enabled": self.bias_enabled,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetSpec":
        """The spec of d's entries that are fields; a field left out takes its default."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    def hash(self) -> str:
        return config_hash(self.to_dict())


@dataclass
class Checkpoint:
    """Weights plus the matching initialization snapshot; immutable by convention."""

    weights: list
    init_weights: list
    biases: list = field(default_factory=list)
    init_biases: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def copy(self) -> "Checkpoint":
        return Checkpoint(
            [w.copy() for w in self.weights],
            [w.copy() for w in self.init_weights],
            [b.copy() for b in self.biases],
            [b.copy() for b in self.init_biases],
            dict(self.meta),
        )


@dataclass
class MarginStats:
    margins: np.ndarray
    margin_gamma: float
    n: int
    percentile: float = 0.10


def init_weights(spec: NetSpec, states: np.ndarray, layers) -> list:
    """The init distribution: fan-in-scaled Gaussian weights, std sqrt(2/fan_in).

    Draws the given layers, in order, from each stream of states (K, 4), which
    advance in place (see rng.gaussian_rows), and returns each layer as
    (K, out, in): row k is what stream k alone would draw.
    """
    out = []
    for i in layers:
        fan_in, fan_out = spec.layer_dims[i], spec.layer_dims[i + 1]
        w = gaussian_rows(states, fan_out * fan_in) * math.sqrt(2.0 / fan_in)
        out.append(w.reshape(len(states), fan_out, fan_in))
    return out


def init_checkpoint(spec: NetSpec, rng, meta=None) -> Checkpoint:
    """Every layer drawn by init_weights from the stream rng; zero biases."""
    weights = [w[0] for w in init_weights(spec, rng.stack(), range(spec.num_layers))]
    biases = (
        [np.zeros(spec.layer_dims[i + 1]) for i in range(spec.num_layers)]
        if spec.bias_enabled
        else []
    )
    return Checkpoint(
        weights=weights,
        init_weights=[w.copy() for w in weights],
        biases=biases,
        init_biases=[b.copy() for b in biases],
        meta=dict(meta or {}, spec_hash=spec.hash(), epoch=0),
    )


def _affine(W, b, A):
    Z = A @ W.swapaxes(-1, -2)
    if b is not None:
        if b.ndim < Z.ndim:  # Z is fresh; a second array page-faults on every call
            Z += b[..., None, :]
        else:  # shared W and A with stacked b: the sum broadcasts up
            Z = Z + b[..., None, :]
    return Z


def forward_batch(spec: NetSpec, weights, biases, X: np.ndarray, record=None) -> np.ndarray:
    """Logits for a batch X (n, d0). Raises NormalizationSingularity on zero norm.

    Each layer is either shared, W (out, in) and b (out,), or stacked over K
    nets, W (K, out, in) and b (K, out); the two kinds mix freely, and X may
    be stacked too, (K, n, d0). With only shared layers and X the logits are
    (n, out); otherwise they are (K, n, out), and slice k equals the logits of
    the net made of slice k of every stacked layer.

    If record is a list, the pass is appended to it for backward_batch: one
    (A, norm) entry per layer input A, from X to the logits, where norm is
    (normalized pre-activation, row norms) for an input made by a normalized
    hidden layer and None otherwise.
    """
    A = X
    if record is not None:
        record.append((A, None))
    for i in range(spec.num_layers):
        Z = _affine(weights[i], biases[i] if biases else None, A)
        norm = None
        if i < spec.num_layers - 1:
            if spec.normalize_hidden:
                r = np.linalg.norm(Z, axis=-1, keepdims=True)
                if np.any(r == 0.0):
                    raise NormalizationSingularity(
                        f"zero pre-activation norm at hidden layer {i}"
                    )
                Z /= r
                if record is not None:
                    norm = (Z, r)
            if spec.activation == "relu":
                # Z is a fresh array here; ReLU overwrites it unless it is recorded
                A = np.maximum(Z, 0.0, out=None if norm else Z)
            else:
                A = Z
        else:
            A = Z
        if record is not None:
            record.append((A, norm))
    return A


def forward(spec: NetSpec, ckpt: Checkpoint, x) -> np.ndarray:
    """Logits for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.layer_dims[0],):
        raise ConfigError(f"input length {x.shape} != {spec.layer_dims[0]}")
    return forward_batch(spec, ckpt.weights, ckpt.biases, x[None, :])[0]


# Reductions over the class (last) axis of fewer than this many classes run as
# column passes: one ufunc call per class over all rows. numpy reduces a short
# last axis row by row, at tens of ns per row: on (4096, 16, 2) logits `max`
# took 4.2-4.6 ms that way against 0.1 ms in columns, and `argmax` 1.4 against
# 0.3 ms (2-core x86-64 host, numpy 2.4). Below 8 elements numpy's pairwise
# sum is a plain left-to-right loop from +0.0, so each column pass gives
# numpy's bits; from 8 on numpy reduces itself.
_COLUMN_CLASSES = 8


def _class_max(E: np.ndarray) -> np.ndarray:
    """E.max(axis=-1), bit for bit."""
    C = E.shape[-1]
    if C >= _COLUMN_CLASSES:
        return E.max(axis=-1)
    out = E[..., 0].copy()
    for c in range(1, C):
        np.maximum(out, E[..., c], out=out)
    return out


def _class_sum(E: np.ndarray) -> np.ndarray:
    """E.sum(axis=-1), bit for bit."""
    C = E.shape[-1]
    if C >= _COLUMN_CLASSES:
        return E.sum(axis=-1)
    out = E[..., 0] + 0.0  # from +0.0 as numpy does: a row of -0.0 sums to +0.0
    for c in range(1, C):
        out += E[..., c]
    return out


def _class_argmax(E: np.ndarray) -> np.ndarray:
    """E.argmax(axis=-1), bit for bit: each row's first largest entry."""
    C = E.shape[-1]
    if C >= _COLUMN_CLASSES:
        return E.argmax(axis=-1)
    if C == 1:
        return np.zeros(E.shape[:-1], dtype=np.intp)
    best = E[..., 0]
    for c in range(1, C):
        col = E[..., c]
        more = col > best  # strict, so a tie keeps the earlier index
        if c == 1:
            idx = more.astype(np.intp)
        else:  # c exceeds every index taken so far
            np.maximum(idx, more * c, out=idx)
        best = np.maximum(best, col)
    if np.isnan(best).any():  # numpy takes a row's first NaN; `>` never does
        return E.argmax(axis=-1)
    return idx


def _softmax_ce(logits: np.ndarray, y: np.ndarray):
    """(per-example CE, shifted logits, log-partition, label index), stable.

    logits is (..., n, C) and y broadcasts to (..., n); shifted is logits
    minus each row's max, and the label index picks each row's label entry
    out of an array shaped like logits.
    """
    shifted = logits - _class_max(logits)[..., None]
    logz = np.log(_class_sum(np.exp(shifted)))
    at_y = (*np.indices(logits.shape[:-1], sparse=True), y)
    ce = logz - shifted[at_y]
    return ce, shifted, logz, at_y


def backward_batch(spec: NetSpec, weights, biases, X: np.ndarray, y: np.ndarray,
                   record=None):
    """Mean cross-entropy over the batch and its gradient in trainable params.

    Returns (flat gradient, loss). Frozen readout weights are excluded from the
    gradient, matching the trainable flatten order. Layers, X and y may be
    stacked as in forward_batch; then the gradient is (K, P) and the loss
    (K,), and slice k equals the one-net result. The forward pass is
    forward_batch's; an empty list passed as record receives that pass (the
    logits are record[-1][0]).
    """
    if record is None:
        record = []
    forward_batch(spec, weights, biases, X, record)
    logits = record[-1][0]
    ce, shifted, logz, at_y = _softmax_ce(logits, y)
    loss = ce.mean(axis=-1)

    dZ = shifted  # becomes the softmax probabilities, in place
    dZ -= logz[..., None]
    np.exp(dZ, out=dZ)
    dZ[at_y] -= 1.0
    dZ /= logits.shape[-2]
    grads_w = [None] * spec.num_layers
    grads_b = [None] * spec.num_layers
    for i in range(spec.num_layers - 1, -1, -1):
        A, norm = record[i]
        grads_w[i] = dZ.swapaxes(-1, -2) @ A
        if biases:
            grads_b[i] = dZ.sum(axis=-2)
        if i == 0:
            break
        dA = dZ @ weights[i]
        if spec.activation == "relu":  # dA is fresh: the mask applies in place
            dA *= (norm[0] if norm is not None else A) > 0.0
        if norm is not None:
            zhat, r = norm
            dA = (dA - zhat * (dA * zhat).sum(axis=-1, keepdims=True)) / r
        dZ = dA
    flat = flatten_params(spec, grads_w, grads_b if biases else [])
    return flat, (float(loss) if loss.ndim == 0 else loss)


def flatten_params(spec: NetSpec, weights, biases) -> np.ndarray:
    """Trainable parameter vector: matrices in layer order (row-major), then biases.

    Stacked layers, (K, out, in) and (K, out), give one vector per net, (K, P).
    """
    ws = [np.asarray(weights[i]) for i in spec.trainable_layers]
    lead = ws[0].shape[:-2] if ws else ()
    parts = [w.reshape(lead + (-1,)) for w in ws]
    if biases:
        parts += [np.asarray(biases[i]).reshape(lead + (-1,))
                  for i in spec.trainable_layers]
    return np.concatenate(parts, axis=-1) if parts else np.zeros(lead + (0,))


def param_views(spec: NetSpec, flat: np.ndarray, template: Checkpoint):
    """(weights, biases) with the trainable layers read from flat, as views.

    flat is one parameter vector (P,) in flatten_params order, or a stack of
    them (K, P); its layers come out shared, (out, in) and (out,), or stacked,
    (K, out, in) and (K, out), ready for forward_batch. Non-trainable layers
    are the template's own arrays. This is the one place the flat layout is
    sliced.
    """
    dims = spec.layer_dims
    lead = flat.shape[:-1]
    weights, biases = list(template.weights), list(template.biases)
    slots = [(weights, i, (dims[i + 1], dims[i])) for i in spec.trainable_layers]
    if biases:
        slots += [(biases, i, (dims[i + 1],)) for i in spec.trainable_layers]
    if sum(math.prod(shape) for _, _, shape in slots) != flat.shape[-1]:
        raise ConfigError("flat vector length does not match spec")
    pos = 0
    for layers, i, shape in slots:
        size = math.prod(shape)
        layers[i] = flat[..., pos : pos + size].reshape(lead + shape)
        pos += size
    return weights, biases


def unflatten_params(spec: NetSpec, flat: np.ndarray, template: Checkpoint) -> Checkpoint:
    """Inverse of flatten_params; non-trainable layers are copied from template."""
    weights, biases = param_views(spec, flat, template)
    return Checkpoint(
        weights=[w.copy() for w in weights],
        init_weights=[w.copy() for w in template.init_weights],
        biases=[b.copy() for b in biases],
        init_biases=[b.copy() for b in template.init_biases],
        meta=dict(template.meta),
    )


def scale_checkpoint(ckpt: Checkpoint, spec: NetSpec, c: float) -> Checkpoint:
    """Scale trainable weights by c (frozen readout untouched)."""
    out = ckpt.copy()
    for i in spec.trainable_layers:
        out.weights[i] = out.weights[i] * c
        if out.biases:
            out.biases[i] = out.biases[i] * c
    return out


def predict(spec: NetSpec, ckpt: Checkpoint, X: np.ndarray) -> np.ndarray:
    return _class_argmax(forward_batch(spec, ckpt.weights, ckpt.biases, X))


def accuracy(logits: np.ndarray, y: np.ndarray):
    """Share of rows whose largest logit is the label; (K,) for stacked logits."""
    return (_class_argmax(logits) == y).mean(axis=-1)


def accuracy_wb(spec: NetSpec, weights, biases, X: np.ndarray, y: np.ndarray):
    """Accuracy from raw parameter lists; a (K,) array with stacked layers."""
    acc = accuracy(forward_batch(spec, weights, biases, X), y)
    return float(acc) if acc.ndim == 0 else acc


def evaluate_wb(spec: NetSpec, weights, biases, X: np.ndarray, y: np.ndarray):
    """(accuracy, mean cross-entropy) from raw parameter lists.

    With stacked layers both are (K,) arrays, one entry per net.
    """
    logits = forward_batch(spec, weights, biases, X)
    ce = _softmax_ce(logits, y)[0].mean(axis=-1)
    acc = accuracy(logits, y)
    if logits.ndim == 2:
        return float(acc), float(ce)
    return acc, ce


def margins(spec: NetSpec, ckpt: Checkpoint, X: np.ndarray, y: np.ndarray,
            percentile: float = 0.10, num_classes=None) -> MarginStats:
    """Per-example margins f(x)[y] - max_{j!=y} f(x)[j] and their percentile gamma.

    Percentile convention: sort ascending, take index floor(p*(n-1)), no
    interpolation.
    """
    if len(y) == 0:
        raise InvalidDataset("empty dataset")
    if num_classes is not None and num_classes < 2:
        raise InvalidDataset("margins need >= 2 classes")
    logits = forward_batch(spec, ckpt.weights, ckpt.biases, X)
    if logits.shape[1] < 2:
        raise InvalidDataset("margins need >= 2 output classes")
    idx = np.arange(len(y))
    true_vals = logits[idx, y]
    masked = logits.copy()
    masked[idx, y] = -np.inf
    margin_vals = true_vals - _class_max(masked)
    order = np.sort(margin_vals)
    gamma = float(order[int(np.floor(percentile * (len(y) - 1)))])
    return MarginStats(margins=margin_vals, margin_gamma=gamma, n=len(y),
                       percentile=percentile)


# --- checkpoint files -------------------------------------------------------
#
# One JSON header line, then the little-endian float64 payload in flatten order
# (all layers: weights, biases, init_weights, init_biases).

_CKPT_FORMAT = "fragaudit-ckpt-v1"
_CKPT_PAYLOAD = "binary-le-f64"


def save_checkpoint(path, spec: NetSpec, ckpt: Checkpoint) -> None:
    """Write ckpt to path whole or not at all (persist.write_payload)."""
    header = {
        "format": _CKPT_FORMAT,
        "spec": spec.to_dict(),
        "shapes": [list(w.shape) for w in ckpt.weights],
        "meta": ckpt.meta,
        "payload": _CKPT_PAYLOAD,
    }
    write_payload(path, header, [*ckpt.weights, *ckpt.biases, *ckpt.init_weights,
                                 *ckpt.init_biases])


def _layout(header: dict):
    """(spec, shapes of the payload's arrays in order) of a checkpoint header;
    FormatError if the header is not a net's."""
    if header["payload"] != _CKPT_PAYLOAD:
        raise FormatError(f"unknown checkpoint payload {header['payload']!r}", offset=0)
    try:
        spec = NetSpec.from_dict(header["spec"])
    except (ConfigError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint spec is not a net: {exc}", offset=0)
    shapes = [(spec.layer_dims[i + 1], spec.layer_dims[i]) for i in range(spec.num_layers)]
    if header["shapes"] != [list(s) for s in shapes]:
        raise FormatError("checkpoint shapes do not match spec")
    bias_shapes = [(s[0],) for s in shapes] if spec.bias_enabled else []
    return spec, (shapes + bias_shapes) * 2


def load_checkpoint(path):
    """(spec, checkpoint) of a save_checkpoint file, every array a view of one
    payload buffer. A missing, unreadable or malformed file raises FormatError
    naming path."""
    try:
        header, flat = read_payload(
            path, _CKPT_FORMAT, "checkpoint",
            {"spec": dict, "shapes": list, "meta": dict, "payload": str},
            lambda h: sum(math.prod(s) for s in _layout(h)[1]))
    except OSError as exc:
        raise FormatError(f"{path}: cannot read checkpoint: {exc.strerror}") from None
    spec, layout = _layout(header)
    ends = np.cumsum([math.prod(s) for s in layout])
    arrays = [a.reshape(s) for a, s in zip(np.split(flat, ends[:-1]), layout)]
    now, init = arrays[: len(arrays) // 2], arrays[len(arrays) // 2 :]
    n = spec.num_layers
    return spec, Checkpoint(now[:n], init[:n], now[n:], init[n:], header["meta"])
