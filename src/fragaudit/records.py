"""Run records and training traces: what a run produced, in the form the CLI
persists, the audit scores and the temporal reports read.
"""

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError, FormatError, LogDomainError, SlopeUndefined
from .net import Checkpoint

# The hyperparameters that identify a run's config, fields of both RunRecord
# and optim.Hyperparams: the audit splits seed pairs from config pairs by them,
# and optim.make_run_id hashes them.
H_FIELDS = ("optimizer", "lr", "momentum", "weight_decay", "batch_size", "stop_rule",
            "stop_threshold", "max_epochs", "n_train")


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
        return tuple(getattr(self, name) for name in H_FIELDS)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["measures"] = dict(sorted(self.measures.items()))
        d["measure_errors"] = dict(sorted(self.measure_errors.items()))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """The record in d; its unknown keys are ignored. A value that is not an
        object, or that lacks a field without a default, raises FormatError."""
        if type(d) is not dict:
            raise FormatError(f"a run record must be an object, got {d!r}")
        missing = [f.name for f in fields(cls) if f.name not in d
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise FormatError(f"not a run record: missing {', '.join(missing)}")
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


@dataclass
class TrainResult:
    record: RunRecord
    checkpoint: Checkpoint
    trace: TrainTrace
    interp_checkpoint: Checkpoint = None  # snapshot at the first 100%-accuracy epoch
