"""Dataset ingestion, synthesis, and data-complexity transforms.

Every transform is a pure function of (input, parameters, seed); the applied
chain is recorded in provenance so any dataset can be replayed bit-exactly.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, InvalidDataset, InvalidPermutation, \
    InvalidSize, InvalidSplit
from .persist import TOOL_VERSION, config_hash, read_payload, write_payload
from .rng import Rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64 in [0, 1]
    labels: np.ndarray  # (n,) int64
    num_classes: int
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def with_chain(self, entry: dict) -> dict:
        prov = json.loads(json.dumps(self.provenance)) if self.provenance else {}
        prov.setdefault("chain", []).append(entry)
        return prov


def _check(ds: Dataset) -> Dataset:
    if ds.n < 1:
        raise InvalidDataset("dataset must have n >= 1")
    if ds.labels.min(initial=0) < 0 or (ds.n and int(ds.labels.max()) >= ds.num_classes):
        raise InvalidDataset("labels out of range")
    return ds


# --- IDX ingestion ----------------------------------------------------------

def _read_idx(blob: bytes, path: str, magic: int, what: str) -> np.ndarray:
    """The uint8 payload of an IDX file of the given magic as (n, values per
    item); the magic's last byte is the number of dimension fields."""
    if len(blob) < 4:
        raise FormatError(f"{path}: truncated magic", offset=len(blob))
    found = int.from_bytes(blob[0:4], "big")
    if found != magic:
        raise FormatError(f"{path}: bad {what} magic 0x{found:08x}", offset=0)
    ndim = magic & 0xFF
    start = 4 + 4 * ndim
    if len(blob) < start:
        raise FormatError(f"{path}: truncated dimension field{'s' * (ndim > 1)}",
                          offset=len(blob))
    dims = [int.from_bytes(blob[o : o + 4], "big") for o in range(4, start, 4)]
    size = math.prod(dims)
    if len(blob) != start + size:
        raise FormatError(f"{path}: payload length {len(blob) - start} != {size}",
                          offset=min(len(blob), start + size))
    data = np.frombuffer(blob, dtype=np.uint8, offset=start)
    return data.reshape(dims[0], math.prod(dims[1:]))


def load_idx(images_path, labels_path, num_classes=None) -> Dataset:
    """Parse an IDX image/label pair; pixels are divided by 255."""
    with open(images_path, "rb") as fh:
        images = _read_idx(fh.read(), str(images_path), IDX_IMAGES_MAGIC, "images")
    with open(labels_path, "rb") as fh:
        labels = _read_idx(fh.read(), str(labels_path), IDX_LABELS_MAGIC, "labels")[:, 0]
    if images.shape[0] != labels.shape[0]:
        raise FormatError(f"count mismatch: {images.shape[0]} images vs "
                          f"{labels.shape[0]} labels", offset=0)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if len(labels) else 0
    return _check(Dataset(
        features=images.astype(np.float64) / 255.0,
        labels=labels.astype(np.int64),
        num_classes=num_classes,
        provenance={"chain": [{"op": "load_idx", "images": str(images_path),
                               "labels": str(labels_path)}]},
    ))


# --- transforms -------------------------------------------------------------

def binarize(ds: Dataset, positive_classes=None) -> Dataset:
    """Collapse labels to {0,1}; positive classes map to 1.

    Default split for a 10-class set is {0..4} vs {5..9}.
    """
    if positive_classes is None:
        positive_classes = set(range(ds.num_classes // 2))
    positive = {int(c) for c in positive_classes}
    all_classes = set(range(ds.num_classes))
    if not positive or not positive < all_classes:
        raise InvalidSplit(f"positive classes {sorted(positive)} must be a nonempty "
                           f"proper subset of {ds.num_classes} classes")
    labels = np.isin(ds.labels, sorted(positive)).astype(np.int64)
    return _check(Dataset(
        features=ds.features,
        labels=labels,
        num_classes=2,
        provenance=ds.with_chain({"op": "binarize", "positive": sorted(positive)}),
    ))


def corrupt_labels(ds: Dataset, p: float, seed: int) -> Dataset:
    """Resample exactly round(p*n) labels (round half to even) among the other classes."""
    if ds.num_classes < 2:
        raise InvalidDataset("label corruption needs >= 2 classes")
    if not 0.0 <= p <= 1.0:
        raise InvalidSize(f"corruption fraction {p} outside [0, 1]")
    k = int(round(p * ds.n))
    rng = Rng(seed)
    chosen = sorted(rng.choose(ds.n, k))
    labels = ds.labels.copy()
    # one block of k words: the same stream as k calls of rng.below(C - 1)
    for i, w in zip(chosen, rng.u64_block(k).tolist()):
        new = (w * (ds.num_classes - 1)) >> 64
        if new >= labels[i]:
            new += 1
        labels[i] = new
    return _check(Dataset(
        features=ds.features,
        labels=labels,
        num_classes=ds.num_classes,
        provenance=ds.with_chain({"op": "corrupt_labels", "p": p, "seed": seed,
                                  "changed": k}),
    ))


def make_permutation(dim: int, seed: int) -> np.ndarray:
    return Rng(seed).permutation(dim)


def permutation_pair(dim: int, seed: int, independent: bool):
    """(train_perm, test_perm); same permutation twice unless independent."""
    root = Rng(seed)
    train = root.spawn_key("perm-train").permutation(dim)
    if not independent:
        return train, train.copy()
    return train, root.spawn_key("perm-test").permutation(dim)


def permute_pixels(ds: Dataset, perm: np.ndarray) -> Dataset:
    """Move feature column j to position perm[j]; labels unchanged."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (ds.dim,) or not np.array_equal(np.sort(perm), np.arange(ds.dim)):
        raise InvalidPermutation(f"not a bijection on [0, {ds.dim})")
    features = np.empty_like(ds.features)
    features[:, perm] = ds.features
    return _check(Dataset(
        features=features,
        labels=ds.labels,
        num_classes=ds.num_classes,
        provenance=ds.with_chain({"op": "permute_pixels", "perm": perm.tolist()}),
    ))


def subsample(ds: Dataset, m: int, seed: int) -> Dataset:
    """m examples without replacement, original order preserved."""
    if not 1 <= m <= ds.n:
        raise InvalidSize(f"subsample size {m} outside [1, {ds.n}]")
    idx = sorted(Rng(seed).choose(ds.n, m))
    return _check(Dataset(
        features=ds.features[idx],
        labels=ds.labels[idx],
        num_classes=ds.num_classes,
        provenance=ds.with_chain({"op": "subsample", "m": m, "seed": seed}),
    ))


def split_train_test(ds: Dataset, n_train: int, seed: int):
    """Disjoint (train, test) split; train rows chosen by seeded subsample."""
    if not 1 <= n_train < ds.n:
        raise InvalidSize(f"train size {n_train} outside [1, {ds.n})")
    chosen = sorted(Rng(seed).choose(ds.n, n_train))
    mask = np.zeros(ds.n, dtype=bool)
    mask[chosen] = True
    train = Dataset(ds.features[mask], ds.labels[mask], ds.num_classes,
                    ds.with_chain({"op": "split", "part": "train",
                                   "n_train": n_train, "seed": seed}))
    test = Dataset(ds.features[~mask], ds.labels[~mask], ds.num_classes,
                   ds.with_chain({"op": "split", "part": "test",
                                  "n_train": n_train, "seed": seed}))
    return _check(train), _check(test)


# --- synthesis --------------------------------------------------------------

def _check_sizes(n: int, num_classes: int) -> None:
    if num_classes < 1:
        raise InvalidSize(f"num_classes {num_classes} < 1")
    if n < num_classes:
        raise InvalidSize("need n >= num_classes")


def synth_blobs(n: int, dim: int, num_classes: int, separation: float, seed: int) -> Dataset:
    """Gaussian clusters (unit noise) with minimum center distance = separation.

    Raw coordinates are affinely mapped to [0, 1] by the global min/max. The
    map preserves linear separability, but the clusters need not be separable
    in the first place: unit-noise Gaussians overlap at any finite separation,
    so a sample can hold points that no hyperplane splits by label.
    """
    _check_sizes(n, num_classes)
    if dim < 1:
        raise InvalidSize(f"dim {dim} < 1")
    rng = Rng(seed)
    centers = rng.gaussians(num_classes * dim).reshape(num_classes, dim)
    if num_classes > 1 and separation > 0:
        dmin = min(
            float(np.linalg.norm(centers[a] - centers[b]))
            for a in range(num_classes)
            for b in range(a + 1, num_classes)
        )
        if dmin == 0.0:
            raise InvalidDataset("degenerate random centers")
        centers = centers * (separation / dmin)
    else:
        centers = centers * 0.0 if separation == 0 else centers
    labels = np.arange(n, dtype=np.int64) % num_classes
    raw = centers[labels] + rng.gaussians(n * dim).reshape(n, dim)
    lo, hi = float(raw.min()), float(raw.max())
    features = np.full_like(raw, 0.5) if hi == lo else (raw - lo) / (hi - lo)
    return _check(Dataset(
        features=features,
        labels=labels,
        num_classes=num_classes,
        provenance={"chain": [{"op": "synth_blobs", "n": n, "dim": dim,
                               "num_classes": num_classes,
                               "separation": separation, "seed": seed}]},
    ))


def synth_images(n: int, num_classes: int, seed: int, side: int = 28,
                 active_pixels: int = 64, noise: float = 0.08,
                 amplitude: float = 0.3) -> Dataset:
    """Digit-like images whose class signal is purely positional.

    Each class lights up a random set of `active_pixels` positions; every class
    uses the same count, so row value multisets are class-independent and an
    independent pixel permutation of train vs test destroys all usable signal.
    """
    _check_sizes(n, num_classes)
    if side < 1:
        raise InvalidSize(f"side {side} < 1")
    d = side * side
    if not 0 <= active_pixels <= d:
        raise InvalidSize(f"active_pixels {active_pixels} outside [0, {d}] (side {side})")
    rng = Rng(seed)
    masks = np.zeros((num_classes, d))
    for c in range(num_classes):
        masks[c, rng.choose(d, active_pixels)] = 1.0
    labels = np.arange(n, dtype=np.int64) % num_classes
    # base = 0.5 - amplitude / 2.0 + amplitude * mask and clip(base + noise *
    # gaussians), built in place: the same operands and bits, no (n, d) temporaries
    base = masks[labels]
    base *= amplitude
    base += 0.5 - amplitude / 2.0
    features = rng.gaussians(n * d).reshape(n, d)
    features *= noise
    features += base
    np.clip(features, 0.0, 1.0, out=features)
    return _check(Dataset(
        features=features,
        labels=labels,
        num_classes=num_classes,
        provenance={"chain": [{"op": "synth_images", "n": n, "num_classes": num_classes,
                               "seed": seed, "side": side,
                               "active_pixels": active_pixels, "noise": noise}]},
    ))


# --- cache files ------------------------------------------------------------

_CACHE_FORMAT = "fragaudit-dataset-v1"


def save_cache(path, ds: Dataset, key: str) -> None:
    """JSON header line, holding key, + little-endian float64 feature matrix,
    written by persist.write_payload."""
    header = {
        "format": _CACHE_FORMAT,
        "n": ds.n,
        "dim": ds.dim,
        "num_classes": ds.num_classes,
        "labels": ds.labels.tolist(),
        "provenance": ds.provenance,
        "key": key,
    }
    write_payload(path, header, [ds.features])


def load_cache(path, key: str) -> Dataset:
    """The dataset of a save_cache file.

    A malformed or truncated file, or one whose header key is not key, raises
    FormatError naming path.
    """
    def words(header):
        n, d, labels = header["n"], header["dim"], header["labels"]
        if d < 1:
            raise FormatError(f"dataset cache dim {d} < 1", offset=0)
        if len(labels) != n:
            raise FormatError(f"{len(labels)} labels for n = {n}", offset=0)
        if not all(type(v) is int and 0 <= v < header["num_classes"] for v in labels):
            raise FormatError(f"labels must be integers in [0, {header['num_classes']})",
                              offset=0)
        if header["key"] != key:
            raise FormatError(f"header key {header['key']!r} is not the file's key "
                              f"{key!r}", offset=0)
        return n * d

    header, features = read_payload(path, _CACHE_FORMAT, "dataset cache", {
        "n": int, "dim": int, "num_classes": int, "labels": list, "provenance": dict,
        "key": str}, words)
    return _check(Dataset(
        features=features.reshape(header["n"], header["dim"]),
        labels=np.array(header["labels"], dtype=np.int64),
        num_classes=header["num_classes"],
        provenance=header["provenance"],
    ))


# --- one split per data section --------------------------------------------

# Sources that are a pure function of their fields. The split of any other
# source (a file read) is built anew each time: its bytes can change under an
# unchanged config.
_SYNTHETIC = ("synth_blobs", "synth_images")


def apply_ops(ds: Dataset, ops) -> Dataset:
    """ds after each op, an (op function name, fields) pair of a read config."""
    for fn, fields in ops:
        if fn == "make_permutation":
            ds = permute_pixels(ds, make_permutation(ds.dim, **fields))
        else:
            ds = globals()[fn](ds, **fields)
    return ds


def build_split(section: dict, cache_dir: Path):
    """(train, test) of a read data section: source, transforms, split, permute,
    then the train and test transforms.

    A synthetic source's split is built once per cache_dir. The first call
    writes it as cache_dir/<key>-train.dsc and <key>-test.dsc, key the config
    hash of the section and TOOL_VERSION, each file's header keyed by its name
    without the suffix, and each later call loads those files. A file there
    that cannot be read or does not load, or whose header key is not its
    name's (a stale or swapped file), raises FormatError naming it: the split
    is never built again over it.
    """
    fn, fields = section["source"]
    if fn in _SYNTHETIC:
        key = config_hash({"data": section, "tool_version": TOOL_VERSION})
        paths = [cache_dir / f"{key}-{part}.dsc" for part in ("train", "test")]
        kept = []
        for path in paths:
            try:
                kept.append(load_cache(path, path.stem))
            except FileNotFoundError:
                break  # not built yet, or deleted: build it
            except OSError as exc:  # a directory, say, in the file's place
                raise FormatError(f"{path}: cannot read the kept split: {exc}") from None
        else:
            return tuple(kept)
    try:
        ds = globals()[fn](**fields)
    except OSError as exc:  # the file of an idx source
        raise ConfigError(f"cannot read data source: {exc}")
    ds = apply_ops(ds, section["transforms"])
    train, test = split_train_test(ds, **section["split"])
    mode = section["permute"]["mode"]
    if mode != "none":
        p_train, p_test = permutation_pair(
            train.dim, section["permute"]["seed"], independent=(mode == "independent"))
        train, test = permute_pixels(train, p_train), permute_pixels(test, p_test)
    train = apply_ops(train, section["train_transforms"])
    test = apply_ops(test, section["test_transforms"])
    if fn in _SYNTHETIC:
        cache_dir.mkdir(parents=True, exist_ok=True)
        for path, ds in zip(paths, (train, test)):
            save_cache(path, ds, path.stem)
    return train, test
