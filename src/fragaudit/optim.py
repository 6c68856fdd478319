"""Training loop: buffered SGD with momentum and fixed weight decay, Adam, stop
rules, hysteresis resume, and grid sweeps. Runs train in lockstep stacks; a
single run is a stack of one.

The momentum update keeps explicit (theta, lr) buffers from the previous step:

    (theta_t - theta_{t-1}) / eta_{t-1}
        = gamma * (theta_{t-1} - theta_{t-2}) / eta_{t-2}
          - grad(L(theta_{t-1})) - lambda_{t-1} * theta_{t-1}

Training keeps eta and lambda fixed. The schedule-equivalence runs of exppp
drive sgdm_step themselves, as a stack of two with time-varying eta and
lambda columns and their own t=0 buffers.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, subsample
from .errors import ConfigError, FragAuditError, IncompatibleCheckpoint
from .net import Checkpoint, NetSpec, accuracy, accuracy_wb, evaluate_wb, \
    flatten_params, init_checkpoint, param_views, unflatten_params
from .persist import config_hash
from .records import H_FIELDS, RunRecord, TrainResult, TrainTrace, detect_T_int
from .rng import Rng
from .workers import ordered_map, pool_size

STOP_RULES = ("train_acc_100", "train_ce_below", "max_epochs")

# A sweep stack holds at most BUDGET // (batch rows x widest layer) runs, which
# bounds the (K, rows, width) activations of one stacked step to 512 KiB.
BUDGET = 1 << 16


@dataclass(frozen=True)
class Hyperparams:
    """A run's training settings. The H_FIELDS among them identify its config;
    dataset and arch name its group."""

    optimizer: str = "sgdm"
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 0  # 0 = full batch
    stop_rule: str = "train_acc_100"
    stop_threshold: float = 0.01
    max_epochs: int = 200
    n_train: int = 0
    dataset: str = ""
    arch: str = ""

    def __post_init__(self):
        for name in ("lr", "weight_decay", "stop_threshold"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value}")
        if self.optimizer not in ("sgdm", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be >= 0")
        if self.stop_rule not in STOP_RULES:
            raise ConfigError(f"unknown stop rule {self.stop_rule!r}")
        if self.batch_size < 0:
            raise ConfigError(f"batch size must be >= 0 (0 = full batch), "
                              f"got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max epochs must be >= 0, got {self.max_epochs}")
        if self.stop_rule == "train_ce_below" and not self.stop_threshold > 0:
            raise ConfigError(f"train_ce_below needs a positive stop threshold, "
                              f"got {self.stop_threshold}")

    def h_fields(self) -> dict:
        """{name: value} of the H_FIELDS: the config identity of the run."""
        return {name: getattr(self, name) for name in H_FIELDS}

    @property
    def group(self) -> str:
        return f"{self.dataset}/{self.arch}"


@dataclass
class OptState:
    """Optimizer buffers of a stack of K runs in lockstep: theta (K, P), (K, 1)
    learning-rate columns and a shared t. A single run is a stack of one."""

    theta_curr: np.ndarray
    theta_prev: np.ndarray
    eta_curr: float
    eta_prev: float
    t: int = 0
    adam_m: np.ndarray = None
    adam_v: np.ndarray = None
    diverged: np.ndarray = None  # (K,) after a step: rows with a non-finite iterate


def _checked(state: OptState) -> OptState:
    """Mark the rows of the stack whose new iterate is non-finite."""
    state.diverged = ~np.isfinite(state.theta_curr).all(axis=-1)
    return state


def sgdm_step(state: OptState, grad: np.ndarray, gamma: float, wd: float,
              next_lr: float) -> OptState:
    """One buffered momentum step; wd applies to the current iterate, buffers rotate.

    wd and next_lr are scalars or (K, 1) columns, one value per run.
    """
    eta = state.eta_curr
    theta = state.theta_curr
    new = theta + eta * (
        gamma * (theta - state.theta_prev) / state.eta_prev - grad - wd * theta
    )
    return _checked(OptState(new, theta, next_lr, eta, state.t + 1, state.adam_m,
                             state.adam_v))


def adam_step(state: OptState, grad: np.ndarray, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> OptState:
    """Standard bias-corrected Adam step; lr is a scalar or a (K, 1) column."""
    t = state.t + 1
    m = beta1 * state.adam_m + (1.0 - beta1) * grad
    v = beta2 * state.adam_v + (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    new = state.theta_curr - lr * mhat / (np.sqrt(vhat) + eps)
    return _checked(OptState(new, state.theta_curr, lr, state.eta_curr, t, m, v))


def make_run_id(H: Hyperparams, seed: int, parent: str = "") -> str:
    """16 hex digits of the sha256 of the run's group, config identity, seed and
    parent run id: the config's settings alone name the run."""
    return config_hash({"group": H.group, "h": H.h_fields(), "seed": seed,
                        "parent": parent})


@dataclass
class _Run:
    """One run of a lockstep stack: its identity, initial iterate and trace."""

    H: Hyperparams
    seed: int
    run_id: str
    parent_id: str
    ckpt0: Checkpoint  # initial iterate; frozen layers and meta carry over
    start_epoch: int = 0
    interp: Checkpoint = None
    trace: TrainTrace = field(init=False)
    shuffle: Rng = field(init=False)

    def __post_init__(self):
        self.trace = TrainTrace(run_id=self.run_id, resumed_from=self.parent_id)
        self.shuffle = Rng(self.seed).spawn_key("shuffle")


@dataclass
class _Stack:
    """The runs still training (indices into the run list), their stacked
    optimizer state, a template with their frozen layers stacked, and, on
    full batches, the gradient at their current iterates once it is known."""

    idx: list
    state: OptState
    template: Checkpoint
    grad: np.ndarray = None

    def rows(self, keep: list) -> "_Stack":
        s, tpl = self.state, self.template

        def pick(layers):
            return [None if a is None else a[keep] for a in layers]

        return _Stack([self.idx[k] for k in keep],
                      OptState(s.theta_curr[keep], s.theta_prev[keep], s.eta_curr[keep],
                               s.eta_prev[keep], s.t, s.adam_m[keep], s.adam_v[keep]),
                      Checkpoint(pick(tpl.weights), [], pick(tpl.biases)),
                      None if self.grad is None else self.grad[keep])


def _new_stack(spec: NetSpec, runs) -> _Stack:
    theta = np.stack([flatten_params(spec, r.ckpt0.weights, r.ckpt0.biases)
                      for r in runs])
    lr = np.array([[r.H.lr] for r in runs])
    state = OptState(theta, theta.copy(), lr, lr.copy(), 0,
                     np.zeros_like(theta), np.zeros_like(theta))

    def stacked(layers):
        # trainable layers come from theta through param_views
        return [None if i in spec.trainable_layers else np.stack([l[i] for l in layers])
                for i in range(len(layers[0]))]

    template = Checkpoint(stacked([r.ckpt0.weights for r in runs]), [],
                          stacked([r.ckpt0.biases for r in runs])
                          if runs[0].ckpt0.biases else [])
    return _Stack(list(range(len(runs))), state, template)


def _apply_step(state: OptState, grad: np.ndarray, H: Hyperparams) -> OptState:
    """One step of a stack; each run keeps its fixed lr in the eta_curr column."""
    if H.optimizer == "adam":
        return adam_step(state, grad, state.eta_curr)
    return sgdm_step(state, grad, H.momentum, H.weight_decay, state.eta_curr)


def _epoch(spec, runs, stack, e, data):
    """Epoch e of a stack: its optimizer steps, then one stacked evaluation.

    Returns (stack, diverged, evals). diverged lists (run index, iterate
    before the step) for the runs whose step went non-finite; they leave the
    stack. evals is (train acc, train CE, test acc), one entry per row of the
    returned stack. On full batches the train-set pass after the step is
    backward_batch's: its forward gives the accuracy, its loss is the CE, and
    its gradient, kept in the stack, takes the next epoch's step, so an epoch
    runs one train-set forward.
    """
    from .net import backward_batch

    X, y, Xt, yt = data
    diverged = []
    if not stack.idx:
        return stack, diverged, None
    bs = runs[stack.idx[0]].H.batch_size
    minibatch = 0 < bs < len(y)

    def gradient(stack, Xb, yb):
        w, b = param_views(spec, stack.state.theta_curr, stack.template)
        return backward_batch(spec, w, b, Xb, yb)[0]

    def step(stack, grad):
        """(stack after one optimizer step, rows of the input stack it keeps)."""
        new = _apply_step(stack.state, grad, runs[stack.idx[0]].H)
        for row in np.flatnonzero(new.diverged):
            diverged.append((stack.idx[row], stack.state.theta_curr[row]))
        keep = np.flatnonzero(~new.diverged).tolist()
        stack = _Stack(stack.idx, new, stack.template)
        return (stack.rows(keep) if len(keep) < len(stack.idx) else stack), keep

    if minibatch:
        orders = np.stack([
            runs[i].shuffle.spawn_index(runs[i].start_epoch + e).permutation(len(y))
            for i in stack.idx])
        for lo in range(0, len(y), bs):
            sel = orders[:, lo : lo + bs]
            # the batch is gathered and freed before the optimizer step
            stack, keep = step(stack, gradient(stack, X[sel], y[sel]))
            if not stack.idx:
                break
            if len(keep) < len(orders):
                orders = orders[keep]
    else:
        grad = gradient(stack, X, y) if stack.grad is None else stack.grad
        stack, _ = step(stack, grad)
    if not stack.idx:
        return stack, diverged, None
    w, b = param_views(spec, stack.state.theta_curr, stack.template)
    if minibatch:
        acc, ce = evaluate_wb(spec, w, b, X, y)
    else:
        record = []
        stack.grad, ce = backward_batch(spec, w, b, X, y, record)
        acc = accuracy(record[-1][0], y)
    test_acc = accuracy_wb(spec, w, b, Xt, yt)
    return stack, diverged, (acc, ce, test_acc)


def _try_epoch(spec, runs, stack, e, data):
    """(_epoch's result, None), or (None, the FragAuditError it raised)."""
    try:
        return _epoch(spec, runs, stack, e, data), None
    except ConfigError:
        raise
    except FragAuditError as exc:
        return None, exc


def _guarded_epoch(spec, runs, stack, e, data, results):
    """_epoch, but a FragAuditError from the stacked epoch redoes it one run at
    a time: each run that raises gets its error as result and leaves the
    stack, and the others run the epoch again together."""
    outcome, exc = _try_epoch(spec, runs, stack, e, data)
    if exc is None:
        return outcome
    if len(stack.idx) == 1:
        errors = {0: exc}
    else:
        errors = {}
        for row in range(len(stack.idx)):
            _, err = _try_epoch(spec, runs, stack.rows([row]), e, data)
            if err is not None:
                errors[row] = err
        if not errors:
            raise exc  # only the stack fails: its slices are not the one-net steps
    for row, err in errors.items():
        results[stack.idx[row]] = err
    keep = [row for row in range(len(stack.idx)) if row not in errors]
    return _guarded_epoch(spec, runs, stack.rows(keep), e, data, results)


def _run_loop(spec, runs, ds_train, ds_test, trace_measures=(), measure_config=None,
              want_interp_snapshot=False):
    """Train runs in lockstep; one TrainResult or FragAuditError per run, in order.

    The runs share the net, the data, the optimizer, the batch size, the
    momentum and the weight decay. Each has its own iterate, learning rate,
    shuffle stream and stop rule, and leaves the stack when it stops, diverges
    or fails; its outputs are bit-identical to training it alone.
    """
    from . import measures as measures_mod

    for ds in (ds_train, ds_test):
        spec.check_labels(ds.labels)
    results = [None] * len(runs)
    data = (ds_train.features, ds_train.labels, ds_test.features, ds_test.labels)
    stack = _new_stack(spec, runs)
    for i, run in enumerate(runs):
        if run.H.max_epochs < 1:
            results[i] = _finish(spec, run, stack.state.theta_curr[i], 0, ds_test)
    if any(results):
        stack = stack.rows([k for k, r in enumerate(results) if r is None])
    for e in range(1, max([r.H.max_epochs for r in runs], default=0) + 1):
        if not stack.idx:
            break
        stack, diverged, evals = _guarded_epoch(spec, runs, stack, e, data, results)
        for i, theta in diverged:
            results[i] = _finish(spec, runs[i], theta, e, ds_test, "diverged")
        if not stack.idx:
            break
        acc, ce, test_acc = evals
        keep = []
        for row, i in enumerate(stack.idx):
            run, theta = runs[i], stack.state.theta_curr[row]
            H, epoch = run.H, run.start_epoch + e
            snapshot = None
            if trace_measures:  # a failed measure is None in the snapshot
                snapshot = measures_mod.compute_selected(
                    spec, _as_ckpt(spec, run.ckpt0, theta, epoch, run.run_id),
                    ds_train, trace_measures, measure_config)
            run.trace.append(epoch, acc[row], ce[row], 1.0 - test_acc[row], snapshot)
            if want_interp_snapshot and run.interp is None and acc[row] == 1.0:
                run.interp = _as_ckpt(spec, run.ckpt0, theta, epoch, run.run_id)
            stop_met = (H.stop_rule == "train_acc_100" and acc[row] == 1.0) or \
                (H.stop_rule == "train_ce_below" and ce[row] < H.stop_threshold)
            if stop_met or e == H.max_epochs:
                results[i] = _finish(spec, run, theta, e, ds_test, "ok", stop_met)
            else:
                keep.append(row)
        if len(keep) < len(stack.idx):
            stack = stack.rows(keep)
    return results


def _finish(spec, run, theta, e, ds_test, status="ok", stop_met=False) -> TrainResult:
    H = run.H
    if status == "ok" and H.stop_rule != "max_epochs" and not stop_met:
        status = "stop_rule_not_met"
    final = _as_ckpt(spec, run.ckpt0, theta, run.start_epoch + e, run.run_id)
    if run.trace.test_error:
        test_error = run.trace.test_error[-1]
    else:
        test_acc = accuracy_wb(spec, final.weights, final.biases,
                               ds_test.features, ds_test.labels)
        test_error = 1.0 - test_acc
    record = _record(H, run.run_id, run.seed, status, float(test_error),
                     detect_T_int(run.trace), run.parent_id)
    return TrainResult(record, final, run.trace, run.interp)


def _record(H: Hyperparams, run_id: str, seed: int, status: str, test_error=1.0,
            t_int=None, parent_id: str = "") -> RunRecord:
    return RunRecord(run_id=run_id, group=H.group, dataset=H.dataset, arch=H.arch,
                     seed=seed, test_error=test_error, t_int=t_int,
                     parent_run_id=parent_id, status=status, **H.h_fields())


def _as_ckpt(spec, template, flat, epoch, run_id) -> Checkpoint:
    ck = unflatten_params(spec, flat, template)
    ck.meta = dict(template.meta, epoch=int(epoch), run_id=run_id)
    return ck


def _only(results) -> TrainResult:
    (res,) = results
    if isinstance(res, Exception):
        raise res
    return res


def _new_run(spec: NetSpec, H: Hyperparams, seed: int, parent_id: str = "") -> _Run:
    run_id = make_run_id(H, seed, parent_id)
    ckpt0 = init_checkpoint(spec, Rng(seed).spawn_key("init"), meta={"run_id": run_id})
    return _Run(H, seed, run_id, parent_id, ckpt0)


def train(spec: NetSpec, ds_train: Dataset, ds_test: Dataset, H: Hyperparams,
          seed: int, parent_id: str = "", trace_measures=(), measure_config=None,
          want_interp_snapshot=False) -> TrainResult:
    """Train from a fresh seeded initialization under H."""
    H = replace(H, n_train=H.n_train or ds_train.n)
    run = _new_run(spec, H, seed, parent_id)
    return _only(_run_loop(spec, [run], ds_train, ds_test, trace_measures,
                           measure_config, want_interp_snapshot))


def resume(spec: NetSpec, ckpt: Checkpoint, ds_train: Dataset, ds_test: Dataset,
           H_new: Hyperparams, seed: int, trace_measures=(), measure_config=None) -> TrainResult:
    """Continue training a checkpoint under H_new with re-initialized buffers."""
    if ckpt.meta.get("spec_hash") != spec.hash():
        raise IncompatibleCheckpoint("checkpoint spec hash does not match")
    H_new = replace(H_new, n_train=H_new.n_train or ds_train.n)
    parent_id = str(ckpt.meta.get("run_id", ""))
    run_id = make_run_id(H_new, seed, parent_id)
    base = ckpt.copy()
    base.meta = dict(base.meta, run_id=run_id)
    run = _Run(H_new, seed, run_id, parent_id, base, int(ckpt.meta.get("epoch", 0)))
    return _only(_run_loop(spec, [run], ds_train, ds_test, trace_measures,
                           measure_config))


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


def _sweep_stacks(spec: NetSpec, cfg: SweepConfig, subsets: dict, workers: int) -> list:
    """The grid cut into lockstep stacks of (subset size, grid items).

    Runs that share the subset and the optimizer are stacked in grid order, in
    near-equal stacks: as few as keep each within BUDGET // (batch rows x
    widest layer) runs, but at least the group's share of the workers, so
    every worker gets a stack.
    """
    groups = {}
    for item in sweep_grid(cfg):
        groups.setdefault((item[4], item[1]), []).append(item)
    total = sum(map(len, groups.values()))
    stacks = []
    for (n, _), items in groups.items():
        rows = subsets[n].n
        if 0 < cfg.batch_size < rows:
            rows = cfg.batch_size
        size = max(1, BUDGET // (rows * max(spec.layer_dims)))
        parts = min(len(items), max(-(-len(items) // size), -(-workers * len(items) // total)))
        cuts = [len(items) * k // parts for k in range(parts + 1)]
        stacks += [(n, items[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    return stacks


def _sweep_stack(spec, subsets, ds_test, cfg, stack) -> list:
    """TrainResults of one stack of grid items, in grid order.

    A run that fails with a FragAuditError becomes an "error:<name>" record.
    """
    n, items = stack
    slots, runs = [], []  # per item: its index in runs, or its error result
    for lr, opt, rule, thresh, _, seed in items:
        H = Hyperparams(
            optimizer=opt, lr=lr, momentum=cfg.momentum,
            weight_decay=cfg.weight_decay, batch_size=cfg.batch_size,
            stop_rule=rule, stop_threshold=thresh, max_epochs=cfg.max_epochs,
            n_train=subsets[n].n, dataset=cfg.dataset, arch=cfg.arch,
        )
        try:
            runs.append(_new_run(spec, H, seed))
            slots.append(len(runs) - 1)
        except ConfigError:
            raise  # a config error fails every run alike
        except FragAuditError as exc:  # one failed run must not abort the sweep
            slots.append(_error_result(H, seed, exc))
    results = _run_loop(spec, runs, subsets[n], ds_test) if runs else []
    out = []
    for slot in slots:
        res = slot if isinstance(slot, TrainResult) else results[slot]
        if isinstance(res, FragAuditError):
            # The traceback's frames reach results, which holds the error: a
            # cycle that would keep the stack's arrays until a full collection.
            res.__traceback__ = None
            res = _error_result(runs[slot].H, runs[slot].seed, res)
        out.append(res)
    return out


def _error_result(H, seed, exc) -> TrainResult:
    rid = make_run_id(H, seed)
    return TrainResult(_record(H, rid, seed, f"error:{type(exc).__name__}"), None,
                       TrainTrace(run_id=rid))


def train_subsets(base_train: Dataset, sizes, subsample_seed: int) -> dict:
    """{n: the training subset of n examples} for each size; 0 or n >= base_train.n
    map to base_train itself. Subset n is the same wherever it is rebuilt."""
    subsets = {}
    for n in sizes:
        if n and n < base_train.n:
            subsets[n] = subsample(base_train, n, Rng(subsample_seed)
                                   .spawn_key(f"n={n}").next_u64())
        else:
            subsets[n] = base_train
    return subsets


def sweep(spec: NetSpec, base_train: Dataset, ds_test: Dataset, cfg: SweepConfig,
          on_result=None, jobs: int = None):
    """Run the full grid; per-run failures are recorded, the sweep continues.

    Runs sharing a training subset and an optimizer train in lockstep stacks
    (see _sweep_stacks). A run that fails with a FragAuditError becomes an
    "error:<name>" record. ConfigError and any other exception (a bug)
    propagate and end the sweep; on_result has then seen the results of every
    stack before the failing one.

    Stacks share no mutable state, so they train on a forked pool of one
    worker per stack, at most one per CPU and at most jobs if it is given (see
    workers.ordered_map). The workers inherit the shared arguments and return
    each stack's results in stack order. on_result sees every result in that
    order as it arrives, and the results are returned sorted by run id, so the
    outputs do not depend on the worker count.
    """
    if not cfg.lrs:
        raise ConfigError("sweep grid is empty")
    subsets = train_subsets(base_train, cfg.train_sizes or (0,), cfg.subsample_seed)
    stacks = _sweep_stacks(spec, cfg, subsets, pool_size(jobs or None))
    shared = (spec, subsets, ds_test, cfg)
    results = []
    limit = min(jobs or len(stacks), len(stacks))
    with ordered_map(_sweep_stack, shared, stacks, limit) as parts:
        for part in parts:
            for res in part:
                if on_result is not None:
                    on_result(res)
                results.append(res)
    results.sort(key=lambda r: r.record.run_id)
    return results

