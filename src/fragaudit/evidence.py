"""Marginal-likelihood PAC-Bayes bound with Monte Carlo consistency mass.

The prior over hypotheses is the initialization distribution, net.init_weights
(fan-in-scaled Gaussian weights); a frozen readout is one draw of it on the
seed's "frozen-readout" stream, shared by every prior draw. P(C(S)) -- the
prior mass of nets with zero training error -- is estimated by counting
exact-fit draws; the posterior is realized by rejection sampling, which
returns the prior restricted to the consistency set. Draw k always uses the
stream spawned at index k, so sharding the draw budget cannot change any
result. The experiment maps its repetitions, and the mass estimate its
shards, through workers.ordered_map: a repetition takes its streams from its
own key and returns its row, a shard returns its integer hit count, and the
parent reads them in task order, so where a task runs changes no result.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, corrupt_labels, split_train_test, synth_blobs
from .errors import BoundUndefined, ConfigError, InvalidDataset, RejectionExhausted
from .fragility import median
from .net import Checkpoint, NetSpec, _class_argmax, forward_batch, init_checkpoint, \
    init_weights, predict
from .rng import Rng, child_seeds, states_from_seeds
from .workers import ordered_map

_WILSON_Z = 1.96
_MASS_SHARD = 4096  # draws per shard of the mass estimate
_GIBBS_SHARD = 2048  # attempts the rejection sampler tests in one batch


@dataclass
class ConsistencyEstimate:
    hits: int
    draws: int
    p_hat: float  # None when hits == 0
    wilson_lo: float
    wilson_hi: float
    rule_of_three_upper: float = None  # flagged pessimistic option when hits == 0


def wilson_interval(hits: int, draws: int):
    """95% Wilson score interval for a binomial proportion."""
    if draws <= 0:
        raise ConfigError("draws must be positive")
    phat = hits / draws
    z = _WILSON_Z
    z2 = z * z
    center = (phat + z2 / (2 * draws)) / (1 + z2 / draws)
    half = z * math.sqrt(phat * (1 - phat) / draws + z2 / (4 * draws * draws)) / (
        1 + z2 / draws)
    return max(0.0, center - half), min(1.0, center + half)


def _readout(spec: NetSpec, seed: int):
    """The frozen readout (out, in) shared by the prior draws of seed, or None."""
    if not spec.frozen_readout:
        return None
    stream = Rng(seed).spawn_key("frozen-readout")
    return init_weights(spec, stream.stack(), [spec.num_layers - 1])[0][0]


def _require_plain(spec: NetSpec) -> None:
    if spec.bias_enabled or spec.normalize_hidden:
        raise ConfigError("prior sampling supports plain (bias-free) nets")


def _check_sampler(spec: NetSpec, ds: Dataset, what: str, count: int, unit: str) -> None:
    """Every input check of a sampler, run before any shard is drawn."""
    if ds.num_classes != 2:
        raise InvalidDataset(f"{what} is binary-only")
    if count < 1:
        raise ConfigError(f"need at least one {unit}")
    if ds.dim != spec.layer_dims[0]:
        raise ConfigError(
            f"dataset dim {ds.dim} does not match the net's input width "
            f"{spec.layer_dims[0]}")
    _require_plain(spec)


def prior_predictions(spec: NetSpec, X: np.ndarray, seeds: np.ndarray,
                      readout=None) -> np.ndarray:
    """Predicted labels, shape (K, n), for one prior draw per seed.

    The trainable layers of draw k come from init_weights on the stream of
    seeds[k], in the scalar initialization's layout, so draw k can be
    re-materialized with draw_checkpoint; a frozen readout is the one given.
    """
    _require_plain(spec)
    if spec.frozen_readout and readout is None:
        raise ConfigError("frozen readout weights required")
    weights = init_weights(spec, states_from_seeds(seeds), spec.trainable_layers)
    if spec.frozen_readout:
        weights.append(readout)
    return _class_argmax(forward_batch(spec, weights, [], X))


def draw_checkpoint(spec: NetSpec, seed: int, index: int, readout) -> Checkpoint:
    """Materialize prior draw `index` (bit-identical to the vectorized row)."""
    ck = init_checkpoint(spec, Rng(seed).spawn_index(index))
    if spec.frozen_readout:
        ck.weights[-1] = readout.copy()
        ck.init_weights[-1] = readout.copy()
    return ck


def _fits(spec: NetSpec, X: np.ndarray, y: np.ndarray, seed: int, readout, lo: int,
          hi: int) -> np.ndarray:
    """(hi - lo,) bools: which of the prior draws lo..hi-1 of seed fit (X, y) exactly."""
    preds = prior_predictions(spec, X, child_seeds(seed, lo, hi), readout)
    return (preds == y[None, :]).all(axis=1)


def _shard_hits(spec: NetSpec, X: np.ndarray, y: np.ndarray, seed: int, readout,
                draws: int, lo: int) -> int:
    """Exact-fit draws among the shard of draws from lo (in-process or in a worker)."""
    return int(_fits(spec, X, y, seed, readout, lo, min(lo + _MASS_SHARD, draws)).sum())


def estimate_consistency_mass(spec: NetSpec, ds: Dataset, draws: int,
                              seed: int) -> ConsistencyEstimate:
    """Hit fraction of exact-interpolation prior draws, with a Wilson interval.

    The shards of _MASS_SHARD draws run on worker processes, one per CPU up to
    one per shard (see workers.ordered_map); the result does not depend on
    where they run.
    """
    _check_sampler(spec, ds, "consistency mass estimation", draws, "draw")
    shared = (spec, ds.features, ds.labels, seed, _readout(spec, seed), draws)
    starts = range(0, draws, _MASS_SHARD)
    with ordered_map(_shard_hits, shared, starts, len(starts)) as shard_hits:
        hits = sum(shard_hits)
    lo, hi = wilson_interval(hits, draws)
    return ConsistencyEstimate(hits, draws, hits / draws if hits else None, lo, hi,
                               None if hits else 3.0 / draws)


@dataclass(frozen=True)
class BoundInput:
    n: int
    p_hat: float
    delta_conf: float = 0.05
    gamma_conf: float = 0.05

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("bound requires n >= 2")
        if not 0.0 < self.delta_conf <= 1.0 or not 0.0 < self.gamma_conf <= 1.0:
            raise ConfigError("confidence levels must be in (0, 1]")


@dataclass
class BoundResult:
    rhs: float
    epsilon_bound: float
    vacuous: bool  # bound above 1/2: uninformative for binary labels

    def to_dict(self) -> dict:
        return {"rhs": self.rhs, "epsilon_bound": self.epsilon_bound,
                "vacuous": self.vacuous}


def ml_pacbayes_bound(inp: BoundInput) -> BoundResult:
    """epsilon <= 1 - exp(-[ln(1/p) + ln n + ln(1/delta) + ln(1/gamma)]/(n-1))."""
    if inp.p_hat is None or inp.p_hat <= 0.0:
        raise BoundUndefined("consistency mass estimate must be positive")
    rhs = (
        math.log(1.0 / inp.p_hat) + math.log(inp.n)
        + math.log(1.0 / inp.delta_conf) + math.log(1.0 / inp.gamma_conf)
    ) / (inp.n - 1)
    eps = 1.0 - math.exp(-rhs)
    return BoundResult(rhs=rhs, epsilon_bound=eps, vacuous=eps >= 0.5)


def gibbs_sample_consistent(spec: NetSpec, ds: Dataset, max_attempts: int, seed: int):
    """First prior draw with zero training error: an exact posterior sample.

    Returns (checkpoint, attempts). Uses its own stream family ('gibbs'), kept
    independent from the mass estimator's draws, and tests _GIBBS_SHARD draws
    at a time.
    """
    _check_sampler(spec, ds, "rejection sampling", max_attempts, "attempt")
    root = Rng(seed).spawn_key("gibbs")
    ro = _readout(spec, root.seed)
    for lo in range(0, max_attempts, _GIBBS_SHARD):
        hi = min(lo + _GIBBS_SHARD, max_attempts)
        where = np.flatnonzero(_fits(spec, ds.features, ds.labels, root.seed, ro, lo, hi))
        if len(where):
            k = lo + int(where[0])
            ck = draw_checkpoint(spec, root.seed, k, ro)
            ck.meta["gibbs_attempts"] = k + 1
            return ck, k + 1
    raise RejectionExhausted(f"no consistent draw in {max_attempts} attempts")


@dataclass(frozen=True)
class EvidenceTask:
    n_train: int = 16
    n_heldout: int = 2000
    dim: int = 2
    separation: float = 4.0
    draws: int = 100000
    repetitions: int = 100
    delta_conf: float = 0.05
    gamma_conf: float = 0.05
    corruptions: tuple = (0.0,)
    max_attempts: int = 200000

    def __post_init__(self):
        for name, least in (("repetitions", 1), ("draws", 1), ("max_attempts", 1),
                            ("n_heldout", 1), ("n_train", 2)):
            if getattr(self, name) < least:
                raise ConfigError(f"evidence task {name} must be >= {least}, "
                                  f"got {getattr(self, name)}")
        for name in ("delta_conf", "gamma_conf"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ConfigError(f"evidence task {name} must be in (0, 1], "
                                  f"got {getattr(self, name)}")
        for p in self.corruptions:
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"evidence task corruptions must lie in [0, 1], "
                                  f"got {p}")


def _repetition(spec: NetSpec, task: EvidenceTask, seed: int, job) -> dict:
    """The row of one (corruption, repetition): fresh data, mass estimate, bound,
    posterior sample and its true error."""
    p, rep = job
    rs = Rng(seed).spawn_key(f"rep={rep}|p={p!r}")
    full = synth_blobs(task.n_train + task.n_heldout, task.dim, 2, task.separation,
                       seed=rs.spawn_key("data").next_u64())
    train, heldout = split_train_test(full, task.n_train,
                                      seed=rs.spawn_key("split").next_u64())
    if p > 0:
        train = corrupt_labels(train, p, seed=rs.spawn_key("corrupt").next_u64())
    est = estimate_consistency_mass(spec, train, task.draws,
                                    seed=rs.spawn_key("mc").next_u64())
    row = {
        "rep": rep, "corruption": p, "hits": est.hits, "draws": est.draws,
        "p_hat": est.p_hat, "bound": None, "sample_error": None,
        "violation": None, "status": "ok",
    }
    if est.p_hat is None:
        row["status"] = "zero_hits"
        return row
    bound = ml_pacbayes_bound(BoundInput(task.n_train, est.p_hat, task.delta_conf,
                                         task.gamma_conf))
    row["bound"] = bound.epsilon_bound
    try:
        ck, attempts = gibbs_sample_consistent(
            spec, train, task.max_attempts, seed=rs.spawn_key("posterior").next_u64())
    except RejectionExhausted:
        row["status"] = "rejection_exhausted"
        return row
    err = float((predict(spec, ck, heldout.features) != heldout.labels).mean())
    row["sample_error"] = err
    row["violation"] = bool(err > bound.epsilon_bound)
    row["attempts"] = attempts
    return row


def bound_vs_error_experiment(spec: NetSpec, task: EvidenceTask, seed: int) -> dict:
    """Fresh data per repetition: estimate mass, bound, posterior sample, true error.

    Per-repetition failures (zero hits, rejection exhausted) are recorded and
    skipped in the violation count, never fatal. The repetitions run on worker
    processes, one per CPU up to one per repetition (see workers.ordered_map),
    each with its rejection sampling; the rows come back in task order.
    """
    if task.dim != spec.layer_dims[0]:
        raise ConfigError(
            f"evidence task dim {task.dim} does not match the net's input width "
            f"{spec.layer_dims[0]}")
    jobs = [(p, rep) for p in task.corruptions for rep in range(task.repetitions)]
    with ordered_map(_repetition, (spec, task, seed), jobs, len(jobs)) as rows:
        rows = list(rows)
    evaluated = [r for r in rows if r["violation"] is not None]
    violations = sum(1 for r in evaluated if r["violation"])
    medians = {}
    for p in task.corruptions:
        bounds = [r["bound"] for r in rows
                  if r["corruption"] == p and r["bound"] is not None]
        if bounds:
            medians[repr(float(p))] = median(bounds)
    return {
        "task": {k: getattr(task, k) for k in task.__dataclass_fields__},
        "rows": rows,
        "evaluated": len(evaluated),
        "violations": violations,
        "violation_rate": (violations / len(evaluated)) if evaluated else None,
        "median_bound_by_corruption": medians,
        "skipped": {
            "zero_hits": sum(1 for r in rows if r["status"] == "zero_hits"),
            "rejection_exhausted": sum(
                1 for r in rows if r["status"] == "rejection_exhausted"),
        },
    }
