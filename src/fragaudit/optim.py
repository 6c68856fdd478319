"""Training loop: buffered SGD with momentum and (possibly signed, time-varying)
weight decay, Adam, stop rules, traces, hysteresis resume, and grid sweeps.

The momentum update keeps explicit (theta, lr) buffers from the previous step:

    (theta_t - theta_{t-1}) / eta_{t-1}
        = gamma * (theta_{t-1} - theta_{t-2}) / eta_{t-2}
          - grad(L(theta_{t-1})) - lambda_{t-1} * theta_{t-1}

so schedule-equivalence runs can override the t=0 buffers directly.
"""

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, subsample
from .errors import ConfigError, FragAuditError, IncompatibleCheckpoint, \
    LogDomainError, NumericalDivergence, SlopeUndefined
from .net import Checkpoint, NetSpec, evaluate_wb, flatten_params, init_checkpoint, \
    unflatten_params
from .rng import Rng

STOP_RULES = ("train_acc_100", "train_ce_below", "max_epochs")


@dataclass(frozen=True)
class Hyperparams:
    optimizer: str = "sgdm"
    lr: float = 0.01
    momentum_gamma: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 0  # 0 = full batch
    stop_rule: str = "train_acc_100"
    stop_threshold: float = 0.01
    max_epochs: int = 200
    n_train: int = 0
    dataset: str = ""
    arch: str = ""
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    lr_schedule: tuple = ()  # per-step lr overrides (schedule equivalence runs)
    wd_schedule: tuple = ()  # per-step weight decay; entries may be negative

    def __post_init__(self):
        if self.optimizer not in ("sgdm", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.momentum_gamma < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.lr <= 0 or any(e <= 0 for e in self.lr_schedule):
            raise ConfigError("learning rates must be positive")
        if self.weight_decay < 0 and not self.wd_schedule:
            raise ConfigError("fixed weight decay must be >= 0")
        if self.stop_rule not in STOP_RULES:
            raise ConfigError(f"unknown stop rule {self.stop_rule!r}")
        object.__setattr__(self, "lr_schedule", tuple(float(x) for x in self.lr_schedule))
        object.__setattr__(self, "wd_schedule", tuple(float(x) for x in self.wd_schedule))

    def lr_at(self, t: int) -> float:
        if self.lr_schedule:
            return self.lr_schedule[min(t, len(self.lr_schedule) - 1)]
        return self.lr

    def wd_at(self, t: int) -> float:
        if self.wd_schedule:
            return self.wd_schedule[min(t, len(self.wd_schedule) - 1)]
        return self.weight_decay

    def h_fields(self) -> dict:
        """The hyperparameter identity used for seed-vs-config pair splitting."""
        return {
            "optimizer": self.optimizer,
            "lr": self.lr,
            "momentum": self.momentum_gamma,
            "weight_decay": self.weight_decay,
            "batch_size": self.batch_size,
            "stop_rule": self.stop_rule,
            "stop_threshold": self.stop_threshold,
            "max_epochs": self.max_epochs,
            "n_train": self.n_train,
        }


@dataclass
class OptState:
    theta_curr: np.ndarray
    theta_prev: np.ndarray
    eta_curr: float
    eta_prev: float
    t: int = 0
    adam_m: np.ndarray = None
    adam_v: np.ndarray = None

    @classmethod
    def fresh(cls, theta: np.ndarray, lr: float) -> "OptState":
        return cls(theta.copy(), theta.copy(), lr, lr, 0,
                   np.zeros_like(theta), np.zeros_like(theta))


def sgdm_step(state: OptState, grad: np.ndarray, gamma: float, wd: float,
              next_lr: float) -> OptState:
    """One buffered momentum step; wd applies to the current iterate, buffers rotate."""
    eta = state.eta_curr
    theta = state.theta_curr
    new = theta + eta * (
        gamma * (theta - state.theta_prev) / state.eta_prev - grad - wd * theta
    )
    if not np.all(np.isfinite(new)):
        raise NumericalDivergence("non-finite iterate", step=state.t)
    return OptState(new, theta, next_lr, eta, state.t + 1, state.adam_m, state.adam_v)


def adam_step(state: OptState, grad: np.ndarray, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> OptState:
    """Standard bias-corrected Adam step."""
    t = state.t + 1
    m = beta1 * state.adam_m + (1.0 - beta1) * grad
    v = beta2 * state.adam_v + (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    new = state.theta_curr - lr * mhat / (np.sqrt(vhat) + eps)
    if not np.all(np.isfinite(new)):
        raise NumericalDivergence("non-finite iterate", step=state.t)
    return OptState(new, state.theta_curr, lr, state.eta_curr, t, m, v)


@dataclass
class TrainTrace:
    run_id: str = ""
    epochs: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    train_ce: list = field(default_factory=list)
    test_error: list = field(default_factory=list)
    measures: dict = field(default_factory=dict)  # name -> list parallel to epochs
    resumed_from: str = ""

    def append(self, epoch, acc, ce, err, snapshot=None):
        if self.epochs and epoch <= self.epochs[-1]:
            raise ConfigError("trace epochs must be strictly increasing")
        self.epochs.append(int(epoch))
        self.train_acc.append(float(acc))
        self.train_ce.append(float(ce))
        self.test_error.append(float(err))
        for name, value in (snapshot or {}).items():
            self.measures.setdefault(name, [None] * (len(self.epochs) - 1)).append(value)
        for name, col in self.measures.items():
            if len(col) < len(self.epochs):
                col.append(None)


def detect_T_int(trace: TrainTrace):
    """First epoch with training accuracy exactly 1.0, or None."""
    for epoch, acc in zip(trace.epochs, trace.train_acc):
        if acc == 1.0:
            return epoch
    return None


def post_interp_slope(trace: TrainTrace, measure_name: str) -> float:
    """Least-squares slope of log(measure) vs log(epoch) restricted to t > T_int."""
    t_int = detect_T_int(trace)
    if t_int is None:
        raise SlopeUndefined("no interpolation epoch in trace")
    col = trace.measures.get(measure_name)
    if col is None:
        raise SlopeUndefined(f"no snapshots for measure {measure_name!r}")
    pts = [(e, v) for e, v in zip(trace.epochs, col) if e > t_int and v is not None]
    if any(v <= 0 for _, v in pts):
        raise LogDomainError(f"nonpositive {measure_name!r} value after interpolation")
    if len(pts) < 2:
        raise SlopeUndefined("need >= 2 post-interpolation points")
    x = np.log([float(e) for e, _ in pts])
    y = np.log([float(v) for _, v in pts])
    xc = x - x.mean()
    return float((xc @ (y - y.mean())) / (xc @ xc))


@dataclass
class RunRecord:
    run_id: str
    group: str
    dataset: str
    arch: str
    optimizer: str
    lr: float
    stop_rule: str
    n_train: int
    seed: int
    test_error: float
    measures: dict = field(default_factory=dict)
    t_int: int = None
    parent_run_id: str = ""
    momentum: float = 0.0
    weight_decay: float = 0.0
    batch_size: int = 0
    stop_threshold: float = 0.01
    max_epochs: int = 0
    status: str = "ok"
    measure_errors: dict = field(default_factory=dict)

    def h_key(self) -> tuple:
        return (self.optimizer, self.lr, self.momentum, self.weight_decay,
                self.batch_size, self.stop_rule, self.stop_threshold,
                self.max_epochs, self.n_train)

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "group": self.group,
            "dataset": self.dataset,
            "arch": self.arch,
            "optimizer": self.optimizer,
            "lr": self.lr,
            "stop_rule": self.stop_rule,
            "n_train": self.n_train,
            "seed": self.seed,
            "test_error": self.test_error,
            "measures": dict(sorted(self.measures.items())),
            "t_int": self.t_int,
            "parent_run_id": self.parent_run_id,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "batch_size": self.batch_size,
            "stop_threshold": self.stop_threshold,
            "max_epochs": self.max_epochs,
            "status": self.status,
            "measure_errors": dict(sorted(self.measure_errors.items())),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


def make_run_id(group: str, H: Hyperparams, seed: int, parent: str = "") -> str:
    blob = json.dumps(
        {"group": group, "h": H.h_fields(), "seed": seed, "parent": parent},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class TrainResult:
    record: RunRecord
    checkpoint: Checkpoint
    trace: TrainTrace
    interp_checkpoint: Checkpoint = None  # snapshot at the first 100%-accuracy epoch


def _weights_view(spec: NetSpec, template: Checkpoint, flat: np.ndarray):
    """(weights, biases) lists with trainable layers viewing into flat."""
    weights = list(template.weights)
    biases = list(template.biases)
    pos = 0
    for i in spec.trainable_layers:
        size = weights[i].size
        weights[i] = flat[pos : pos + size].reshape(weights[i].shape)
        pos += size
    if biases:
        for i in spec.trainable_layers:
            size = biases[i].size
            biases[i] = flat[pos : pos + size]
            pos += size
    return weights, biases


def _run_loop(spec, ckpt0, start_epoch, ds_train, ds_test, H, seed, run_id,
              parent_id, trace_measures=(), measure_config=None,
              buffer_overrides=None, want_interp_snapshot=False):
    from . import measures as measures_mod
    from .net import backward_batch

    for ds in (ds_train, ds_test):
        if int(ds.labels.max(initial=0)) >= spec.layer_dims[-1]:
            raise ConfigError(f"label {int(ds.labels.max())} does not fit the net's "
                              f"{spec.layer_dims[-1]} outputs")
    trace = TrainTrace(run_id=run_id, resumed_from=parent_id)
    theta = flatten_params(spec, ckpt0.weights, ckpt0.biases)
    state = OptState.fresh(theta, H.lr_at(0))
    if buffer_overrides:
        if "theta_prev" in buffer_overrides:
            state.theta_prev = np.asarray(buffer_overrides["theta_prev"], dtype=np.float64)
        if "eta_prev" in buffer_overrides:
            state.eta_prev = float(buffer_overrides["eta_prev"])
    status = "ok"
    interp_ckpt = None
    stop_met = False
    epoch = start_epoch
    X, y = ds_train.features, ds_train.labels
    Xt, yt = ds_test.features, ds_test.labels
    shuffle_root = Rng(seed).spawn_key("shuffle")
    for e in range(1, H.max_epochs + 1):
        epoch = start_epoch + e
        try:
            if H.batch_size and H.batch_size < ds_train.n:
                order = shuffle_root.spawn_index(epoch).permutation(ds_train.n)
                for lo in range(0, ds_train.n, H.batch_size):
                    sel = order[lo : lo + H.batch_size]
                    w, b = _weights_view(spec, ckpt0, state.theta_curr)
                    grad, _ = backward_batch(spec, w, b, X[sel], y[sel])
                    state = _apply_step(state, grad, H)
            else:
                w, b = _weights_view(spec, ckpt0, state.theta_curr)
                grad, _ = backward_batch(spec, w, b, X, y)
                state = _apply_step(state, grad, H)
        except NumericalDivergence:
            status = "diverged"
            break
        w, b = _weights_view(spec, ckpt0, state.theta_curr)
        acc, ce = evaluate_wb(spec, w, b, X, y)
        test_acc, _ = evaluate_wb(spec, w, b, Xt, yt)
        snapshot = None
        if trace_measures:
            ck = _as_ckpt(spec, ckpt0, state.theta_curr, epoch, run_id)
            snapshot = measures_mod.compute_selected(
                spec, ck, ds_train, trace_measures, measure_config)
        trace.append(epoch, acc, ce, 1.0 - test_acc, snapshot)
        if want_interp_snapshot and interp_ckpt is None and acc == 1.0:
            interp_ckpt = _as_ckpt(spec, ckpt0, state.theta_curr, epoch, run_id)
        if H.stop_rule == "train_acc_100" and acc == 1.0:
            stop_met = True
            break
        if H.stop_rule == "train_ce_below" and ce < H.stop_threshold:
            stop_met = True
            break
    if status == "ok" and H.stop_rule != "max_epochs" and not stop_met:
        status = "stop_rule_not_met"
    final = _as_ckpt(spec, ckpt0, state.theta_curr, epoch, run_id)
    if trace.test_error:
        test_error = trace.test_error[-1]
    else:
        test_acc, _ = evaluate_wb(spec, final.weights, final.biases, Xt, yt)
        test_error = 1.0 - test_acc
    record = RunRecord(
        run_id=run_id,
        group=f"{H.dataset}/{H.arch}",
        dataset=H.dataset,
        arch=H.arch,
        optimizer=H.optimizer,
        lr=H.lr,
        stop_rule=H.stop_rule,
        n_train=H.n_train or ds_train.n,
        seed=seed,
        test_error=float(test_error),
        t_int=detect_T_int(trace),
        parent_run_id=parent_id,
        momentum=H.momentum_gamma,
        weight_decay=H.weight_decay,
        batch_size=H.batch_size,
        stop_threshold=H.stop_threshold,
        max_epochs=H.max_epochs,
        status=status,
    )
    return TrainResult(record, final, trace, interp_ckpt)


def _apply_step(state: OptState, grad: np.ndarray, H: Hyperparams) -> OptState:
    t = state.t
    if H.optimizer == "adam":
        return adam_step(state, grad, H.lr_at(t), H.adam_beta1, H.adam_beta2, H.adam_eps)
    return sgdm_step(state, grad, H.momentum_gamma, H.wd_at(t), H.lr_at(t + 1))


def _as_ckpt(spec, template, flat, epoch, run_id) -> Checkpoint:
    ck = unflatten_params(spec, flat, template)
    ck.meta = dict(template.meta, epoch=int(epoch), run_id=run_id)
    return ck


def train(spec: NetSpec, ds_train: Dataset, ds_test: Dataset, H: Hyperparams,
          seed: int, parent_id: str = "", trace_measures=(), measure_config=None,
          buffer_overrides=None, want_interp_snapshot=False) -> TrainResult:
    """Train from a fresh seeded initialization under H."""
    H = replace(H, n_train=H.n_train or ds_train.n)
    run_id = make_run_id(f"{H.dataset}/{H.arch}", H, seed, parent_id)
    ckpt0 = init_checkpoint(spec, Rng(seed).spawn_key("init"),
                            meta={"run_id": run_id})
    return _run_loop(spec, ckpt0, 0, ds_train, ds_test, H, seed, run_id, parent_id,
                     trace_measures, measure_config, buffer_overrides,
                     want_interp_snapshot)


def resume(spec: NetSpec, ckpt: Checkpoint, ds_train: Dataset, ds_test: Dataset,
           H_new: Hyperparams, seed: int, trace_measures=(), measure_config=None) -> TrainResult:
    """Continue training a checkpoint under H_new with re-initialized buffers."""
    if ckpt.meta.get("spec_hash") != spec.hash():
        raise IncompatibleCheckpoint("checkpoint spec hash does not match")
    H_new = replace(H_new, n_train=H_new.n_train or ds_train.n)
    parent_id = str(ckpt.meta.get("run_id", ""))
    run_id = make_run_id(f"{H_new.dataset}/{H_new.arch}", H_new, seed, parent_id)
    start_epoch = int(ckpt.meta.get("epoch", 0))
    base = ckpt.copy()
    base.meta = dict(base.meta, run_id=run_id)
    return _run_loop(spec, base, start_epoch, ds_train, ds_test, H_new, seed,
                     run_id, parent_id, trace_measures, measure_config)


@dataclass(frozen=True)
class SweepConfig:
    lrs: tuple
    optimizers: tuple = ("sgdm",)
    stop_rules: tuple = (("train_acc_100", 0.01),)
    train_sizes: tuple = ()  # empty = full training set
    seeds: tuple = (0,)
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 0
    max_epochs: int = 200
    dataset: str = "data"
    arch: str = "net"
    subsample_seed: int = 1


def sweep_grid(cfg: SweepConfig):
    """The Cartesian product of sweep axes, in deterministic order."""
    sizes = cfg.train_sizes or (0,)
    for lr in cfg.lrs:
        for opt in cfg.optimizers:
            for rule, thresh in cfg.stop_rules:
                for n in sizes:
                    for seed in cfg.seeds:
                        yield lr, opt, rule, thresh, n, seed


def _sweep_one(spec, subsets, ds_test, cfg, item, seed_offset):
    lr, opt, rule, thresh, n, seed = item
    H = Hyperparams(
        optimizer=opt, lr=lr, momentum_gamma=cfg.momentum,
        weight_decay=cfg.weight_decay, batch_size=cfg.batch_size,
        stop_rule=rule, stop_threshold=thresh, max_epochs=cfg.max_epochs,
        n_train=subsets[n].n, dataset=cfg.dataset, arch=cfg.arch,
    )
    try:
        return train(spec, subsets[n], ds_test, H, seed + seed_offset)
    except ConfigError:
        raise  # a config error fails every run alike
    except FragAuditError as exc:  # one failed run must not abort the sweep
        rid = make_run_id(f"{cfg.dataset}/{cfg.arch}", H, seed + seed_offset)
        rec = RunRecord(
            run_id=rid, group=f"{cfg.dataset}/{cfg.arch}", dataset=cfg.dataset,
            arch=cfg.arch, optimizer=opt, lr=lr, stop_rule=rule,
            n_train=subsets[n].n, seed=seed + seed_offset, test_error=1.0,
            momentum=cfg.momentum, weight_decay=cfg.weight_decay,
            batch_size=cfg.batch_size, stop_threshold=thresh,
            max_epochs=cfg.max_epochs, status=f"error:{type(exc).__name__}",
        )
        return TrainResult(rec, None, TrainTrace(run_id=rid))


def sweep(spec: NetSpec, base_train: Dataset, ds_test: Dataset, cfg: SweepConfig,
          on_result=None, seed_offset: int = 0, jobs: int = 1):
    """Run the full grid; per-run failures are recorded, the sweep continues.

    A run that fails with a FragAuditError becomes an "error:<name>" record.
    ConfigError and any other exception (a bug) propagate and end the sweep.

    Runs share no mutable state, so jobs > 1 executes them concurrently;
    results are returned sorted by run id either way, so reruns are
    order-stable byte for byte.
    """
    if not cfg.lrs:
        raise ConfigError("sweep grid is empty")
    subsets = {}
    for n in cfg.train_sizes or (0,):
        if n and n < base_train.n:
            subsets[n] = subsample(base_train, n, Rng(cfg.subsample_seed)
                                   .spawn_key(f"n={n}").next_u64())
        else:
            subsets[n] = base_train
    items = list(sweep_grid(cfg))
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                lambda it: _sweep_one(spec, subsets, ds_test, cfg, it, seed_offset),
                items))
        if on_result is not None:
            for res in results:
                on_result(res)
    else:
        results = []
        for item in items:
            res = _sweep_one(spec, subsets, ds_test, cfg, item, seed_offset)
            if on_result is not None:
                on_result(res)
            results.append(res)
    results.sort(key=lambda r: r.record.run_id)
    return results
