"""Post-mortem generalization measures computed from a checkpoint and a dataset.

MEASURES is the vocabulary: each measure's name, family, formula and source,
as the audit report tables and the README name them. All quantities use the
flattened trainable parameter vector w (frozen readouts are excluded, so the
schedule-equivalence scaling identities hold for the reported values).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateLayer, FragAuditError, MarginNotPositive, \
    PathNormUndefined, SigmaSearchFailed
from .net import Checkpoint, NetSpec, accuracy, flatten_params, forward_batch, \
    margins, param_views
from .rng import Rng, child_seeds, gaussian_matrix

# The vocabulary, one row per measure in report order: name, the family that
# computes it, whether it needs a positive margin, formula and source. W_i are
# the weights of the d trainable layers and W_i⁰ their initial values; w and w⁰
# the trainable weights and biases, flattened; n is the train size, γ the
# margin, σ and σ' the plain and the magnitude-aware sigma-search radii, s_j =
# σ'(|w_j| + κ), and f_W² the plain net with every weight and bias squared.
# Jiang is Jiang et al. 2019 (arXiv:1912.02178).
MEASURES = (
    ("PARAMS", "params", False, "sqrt(Σ_i c_(i-1)(c_i + 1) / n), c the layer widths",
     "Jiang: params, as a sqrt(·/n) surrogate of the count"),
    ("INVERSE_MARGIN", "margin", True, "sqrt(n) / γ", "Jiang: inverse-margin"),
    ("FRO_DIST", "frobenius", False, "sqrt(Σ‖W_i − W_i⁰‖_F² / n)", "Jiang: fro-dist"),
    ("PARAM_NORM", "frobenius", False, "sqrt(Σ‖W_i‖_F² / n)",
     "Jiang: param-norm; equals PROD_OF_FRO when d = 1"),
    ("PARAM_NORM_OVER_MARGIN", "frobenius", True, "PARAM_NORM / γ",
     "Jiang's param-norm over γ; was SUM_OF_FRO_OVER_MARGIN"),
    ("PROD_OF_FRO", "frobenius", False, "sqrt(∏‖W_i‖_F² / n)",
     "Jiang: prod-of-fro; the sqrt halves the CMS of ∏‖W_i‖_F² at fixed n"),
    ("PROD_OF_FRO_OVER_MARGIN", "frobenius", True, "PROD_OF_FRO / γ",
     "Jiang: prod-of-fro/margin"),
    ("SUM_OF_SPEC", "spectral", False, "sqrt(Σ‖W_i‖₂² / n)",
     "not Jiang's sum-of-spec, d·(∏‖W_i‖₂²)^(1/d); equals PROD_OF_SPEC when d = 1"),
    ("SUM_OF_SPEC_OVER_MARGIN", "spectral", True, "SUM_OF_SPEC / γ",
     "Jiang: sum-of-spec/margin, with SUM_OF_SPEC's variant"),
    ("PROD_OF_SPEC", "spectral", False, "sqrt(∏‖W_i‖₂² / n)",
     "Jiang: prod-of-spec; the sqrt halves the CMS of ∏‖W_i‖₂² at fixed n"),
    ("PROD_OF_SPEC_OVER_MARGIN", "spectral", True, "PROD_OF_SPEC / γ",
     "Jiang: prod-of-spec/margin"),
    ("DIST_SPEC_INIT", "spectral", False, "sqrt(Σ‖W_i − W_i⁰‖₂² / n)",
     "Jiang: dist-spec-init"),
    ("FRO_OVER_SPEC", "spectral", False, "Σ‖W_i‖_F² / ‖W_i‖₂²", "Jiang: fro/spec"),
    ("SPEC_ORIG_MAIN", "spectral", True, "∏‖W_i‖₂² · FRO_OVER_SPEC / (γ² n)",
     "Jiang: spec-orig-main"),
    ("SPEC_INIT_MAIN", "spectral", True,
     "∏‖W_i‖₂² · Σ(‖W_i − W_i⁰‖_F² / ‖W_i‖₂²) / (γ² n)", "Jiang: spec-init-main"),
    ("PATH_NORM", "path", False, "sqrt(Σ_k f_W²(1)_k / n), 1 the all-ones input",
     "Jiang: path-norm"),
    ("PATH_NORM_OVER_MARGIN", "path", True, "PATH_NORM / γ", "Jiang: path-norm/margin"),
    ("PACBAYES_ORIG", "pacbayes", False, "sqrt(‖w‖² / (4σ²) + ln(n/δ) + 10) / sqrt(n)",
     "Jiang: pacbayes-orig"),
    ("PACBAYES_INIT", "pacbayes", False,
     "sqrt(‖w − w⁰‖² / (4σ²) + ln(n/δ) + 10) / sqrt(n)", "Jiang: pacbayes-init"),
    ("PACBAYES_FLATNESS", "pacbayes", False, "1 / (σ sqrt(n))",
     "Jiang: pacbayes-flatness"),
    ("PACBAYES_MAG_ORIG", "pacbayes_mag", False,
     "sqrt(Σ_j w_j² / (4s_j²) + ln(n/δ) + 10) / sqrt(n)", "Jiang: pacbayes-mag-orig"),
    ("PACBAYES_MAG_INIT", "pacbayes_mag", False,
     "sqrt(Σ_j (w_j − w_j⁰)² / (4s_j²) + ln(n/δ) + 10) / sqrt(n)",
     "Jiang: pacbayes-mag-init"),
    ("PACBAYES_MAG_FLATNESS", "pacbayes_mag", False, "1 / (σ' sqrt(n))",
     "Jiang: pacbayes-mag-flatness"),
)
MEASURE_NAMES = tuple(row[0] for row in MEASURES)
_FAMILY = {row[0]: row[1] for row in MEASURES}
_MARGIN_MEASURES = frozenset(row[0] for row in MEASURES if row[2])
# each *_OVER_MARGIN name -> the measure it divides by the margin
_OVER_MARGIN = {n: n.removesuffix("_OVER_MARGIN") for n in MEASURE_NAMES
                if n.endswith("_OVER_MARGIN")}

_SPECTRAL_START_SEED = 0x5EED5EED5EED5EED


@dataclass(frozen=True)
class MeasureConfig:
    sigma_target_dev: float = 0.1
    sigma_mc_draws: int = 15
    sigma_iters: int = 20
    sigma_lo: float = 1e-5
    sigma_hi: float = 10.0
    kappa: float = 1e-3
    delta: float = 0.05
    seed: int = 0
    spectral_tol: float = 1e-10
    spectral_max_iters: int = 20000
    margin_percentile: float = 0.10

    def __post_init__(self):
        # written as "not (valid)" so that NaN settings are rejected too
        checks = (
            ("sigma_mc_draws", self.sigma_mc_draws >= 1, "must be >= 1"),
            ("sigma_iters", self.sigma_iters >= 0, "must be >= 0"),
            ("sigma_lo", 0.0 < self.sigma_lo, "must be > 0"),
            ("sigma_hi", self.sigma_lo < self.sigma_hi, "must exceed sigma_lo"),
            ("sigma_target_dev", self.sigma_target_dev > 0.0, "must be > 0"),
            ("margin_percentile", 0.0 <= self.margin_percentile <= 1.0,
             "must be in [0, 1]"),
            ("spectral_max_iters", self.spectral_max_iters >= 1, "must be >= 1"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ConfigError(f"measure {name} {rule}, got {getattr(self, name)!r}")


@dataclass
class SigmaSearchResult:
    sigma: float
    target_dev: float
    mc_draws: int
    iterations: int
    converged: bool
    final_drop: float
    magnitude_aware: bool = False


@dataclass
class MeasureSet:
    values: dict = field(default_factory=dict)  # name -> positive finite float
    errors: dict = field(default_factory=dict)  # name -> error tag
    diagnostics: dict = field(default_factory=dict)

    def record(self, name: str, value) -> None:
        v = float(value)
        if v == 0.0:
            self.errors[name] = "ZeroValue"
        elif not np.isfinite(v):
            self.errors[name] = "NonFinite"
        elif v < 0:
            self.errors[name] = "NegativeValue"
        else:
            self.values[name] = v


def measure_layers(spec: NetSpec, ckpt: Checkpoint):
    """(weights, init_weights) the measures run over: trainable layers only."""
    idx = spec.trainable_layers
    return [ckpt.weights[i] for i in idx], [ckpt.init_weights[i] for i in idx]


def spectral_norm(W: np.ndarray, tol: float = 1e-10, max_iters: int = 20000):
    """Largest singular value by power iteration on the Gram matrix.

    Returns (sigma, relative_residual, iterations, converged). The start vector
    comes from a fixed stream so results are reproducible.
    """
    W = np.asarray(W, dtype=np.float64)
    if not np.any(W):
        raise DegenerateLayer("zero matrix has no spectral direction")
    G = W.T @ W if W.shape[1] <= W.shape[0] else W @ W.T
    k = G.shape[0]
    v = _spectral_start(k).copy()
    rng = None
    lam, residual = 0.0, np.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        u = G @ v
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:  # started in the kernel; redraw deterministically
            if rng is None:  # continue the start vector's stream past it
                rng = Rng(_SPECTRAL_START_SEED)
                rng.gaussians(k)
            v = rng.gaussians(k)
            v /= np.linalg.norm(v)
            continue
        lam = float(v @ u)
        residual = float(np.linalg.norm(u - lam * v) / abs(lam)) if lam else np.inf
        v = u / norm_u
        if residual <= tol:
            break
    return float(np.sqrt(max(lam, 0.0))), residual, iters, residual <= tol


@functools.lru_cache(maxsize=64)
def _spectral_start(k: int) -> np.ndarray:
    """The unit start vector of spectral_norm for a k x k Gram matrix; callers copy it."""
    v = Rng(_SPECTRAL_START_SEED).gaussians(k)
    v /= np.linalg.norm(v)
    return v


def _frobenius_sq(Ws, W0s):
    """Per layer, ||W_i||_F^2 and ||W_i - W_i^0||_F^2."""
    return [float(np.sum(W * W)) for W in Ws], \
        [float(np.sum((W - W0) ** 2)) for W, W0 in zip(Ws, W0s)]


def frobenius_measures(spec: NetSpec, ckpt: Checkpoint, n: int) -> dict:
    """FRO_DIST, PARAM_NORM, PROD_OF_FRO."""
    sq, dist_sq = _frobenius_sq(*measure_layers(spec, ckpt))
    return {
        "FRO_DIST": float(np.sqrt(sum(dist_sq) / n)),
        "PARAM_NORM": float(np.sqrt(sum(sq) / n)),
        "PROD_OF_FRO": float(np.sqrt(np.prod(sq) / n)),
    }


def inverse_margin(margin_gamma: float, n: int) -> float:
    """sqrt(n) / gamma (proportionality constant fixed to 1)."""
    if margin_gamma <= 0:
        raise MarginNotPositive(f"margin gamma {margin_gamma} <= 0")
    return float(np.sqrt(n) / margin_gamma)


def spectral_measures(spec: NetSpec, ckpt: Checkpoint, n: int, margin_gamma=None,
                      tol: float = 1e-10, max_iters: int = 20000):
    """Spectral-norm family; returns (values, residual diagnostics).

    SPEC_ORIG_MAIN / SPEC_INIT_MAIN require a positive margin and are skipped
    (left to the caller's error tagging) when margin_gamma is None.
    """
    Ws, W0s = measure_layers(spec, ckpt)
    specs, residuals = [], []
    for W in Ws:
        s, res, _, _ = spectral_norm(W, tol, max_iters)
        if s == 0.0:
            raise DegenerateLayer("layer with zero spectral norm")
        specs.append(s)
        residuals.append(res)
    spec_sq = [s * s for s in specs]
    dist_sq = []
    for W, W0 in zip(Ws, W0s):
        D = W - W0
        if np.any(D):
            s, _, _, _ = spectral_norm(D, tol, max_iters)
        else:
            s = 0.0
        dist_sq.append(s * s)
    fro_sq, fro_dist_sq = _frobenius_sq(Ws, W0s)
    stable_rank_sum = sum(f / s for f, s in zip(fro_sq, spec_sq))
    values = {
        "SUM_OF_SPEC": float(np.sqrt(sum(spec_sq) / n)),
        "PROD_OF_SPEC": float(np.sqrt(np.prod(spec_sq) / n)),
        "DIST_SPEC_INIT": float(np.sqrt(sum(dist_sq) / n)),
        "FRO_OVER_SPEC": float(stable_rank_sum),
    }
    if margin_gamma is not None:
        if margin_gamma <= 0:
            raise MarginNotPositive(f"margin gamma {margin_gamma} <= 0")
        prod_spec = float(np.prod(spec_sq))
        init_sum = sum(f / s for f, s in zip(fro_dist_sq, spec_sq))
        g2n = margin_gamma * margin_gamma * n
        values["SPEC_ORIG_MAIN"] = prod_spec * stable_rank_sum / g2n
        values["SPEC_INIT_MAIN"] = prod_spec * init_sum / g2n
    return values, residuals


def path_norm(spec: NetSpec, ckpt: Checkpoint, n: int) -> float:
    """sqrt(sum of logits / n) for the squared-weight pass on the all-ones input.

    Normalization layers are bypassed; the pass runs the plain ReLU chain.
    """
    plain = NetSpec(spec.layer_dims, spec.activation, normalize_hidden=False,
                    frozen_readout=spec.frozen_readout,
                    bias_enabled=spec.bias_enabled)
    weights = [W * W for W in ckpt.weights]
    biases = [b * b for b in ckpt.biases] if ckpt.biases else []
    ones = np.ones((1, spec.layer_dims[0]))
    logits = forward_batch(plain, weights, biases, ones)[0]
    total = float(logits.sum())
    if not total >= 0.0:
        raise PathNormUndefined(
            f"squared-weight pass produced a negative or NaN logit sum ({total!r})")
    return float(np.sqrt(total / n))


def vc_params_proxy(spec: NetSpec, n: int) -> float:
    """Parameter-count surrogate sqrt(sum_i c_{i-1} (c_i + 1) / n); spec-only."""
    dims = spec.layer_dims
    total = sum(dims[i] * (dims[i + 1] + 1) for i in range(spec.num_layers))
    return float(np.sqrt(total / n))


def sigma_seeds(cfg: MeasureConfig, magnitude_aware: bool = False) -> np.ndarray:
    """Seeds of a sigma search's noise rows: row d is stream.spawn_index(d)."""
    stream = Rng(cfg.seed).spawn_key("sigma-mag" if magnitude_aware else "sigma")
    return child_seeds(stream.seed, 0, cfg.sigma_mc_draws)


def sigma_noise(cfgs, p: int) -> list:
    """Both sigma searches' noise rows for nets of P = p, in one multi-stream fill.

    Returns one (plain, magnitude-aware) pair of (D, p) row blocks per config,
    bit-equal to the rows each search draws on its own: a row's words never
    depend on how many rows share the fill.
    """
    seeds = [sigma_seeds(cfg, mag) for cfg in cfgs for mag in (False, True)]
    rows = gaussian_matrix(np.concatenate(seeds), p)
    blocks = np.split(rows, np.cumsum([s.size for s in seeds])[:-1])
    return list(zip(blocks[0::2], blocks[1::2]))


def sigma_search(spec: NetSpec, ckpt: Checkpoint, dataset, cfg: MeasureConfig,
                 magnitude_aware: bool = False, draws=None) -> SigmaSearchResult:
    """Largest radius whose mean train-accuracy drop stays within the target.

    Plain mode perturbs w with N(0, sigma^2 I); the magnitude-aware mode scales
    coordinate i by sigma0*(|w_i| + kappa). The same noise draws are reused at
    every radius, so the search is deterministic given the seed. Each radius
    runs every draw's perturbed net in one stacked forward. draws, if given,
    are the search's (D, P) noise rows as sigma_noise returns them; otherwise
    the search draws them itself.
    """
    X, y = dataset.features, dataset.labels
    w = flatten_params(spec, ckpt.weights, ckpt.biases)
    acc0 = float(accuracy(forward_batch(spec, ckpt.weights, ckpt.biases, X), y))
    if draws is None:
        # row d is stream.spawn_index(d).gaussians(w.size)
        draws = gaussian_matrix(sigma_seeds(cfg, magnitude_aware), w.size)
    elif draws.shape != (cfg.sigma_mc_draws, w.size):
        raise ValueError(f"noise rows of shape {draws.shape} for a search of "
                         f"{cfg.sigma_mc_draws} draws over {w.size} parameters")
    scale = (np.abs(w) + cfg.kappa) if magnitude_aware else 1.0
    perturbed = np.empty_like(draws)

    def drop(radius: float) -> float:
        np.multiply(radius * scale, draws, out=perturbed)
        np.add(perturbed, w, out=perturbed)
        weights, biases = param_views(spec, perturbed, ckpt)
        accs = accuracy(forward_batch(spec, weights, biases, X), y)
        return acc0 - float(np.mean(accs))

    target = cfg.sigma_target_dev
    hi_drop = drop(cfg.sigma_hi)
    if hi_drop <= target:
        return SigmaSearchResult(cfg.sigma_hi, target, cfg.sigma_mc_draws, 0, True,
                                 hi_drop, magnitude_aware)
    lo, lo_drop = cfg.sigma_lo, drop(cfg.sigma_lo)
    if lo_drop > target:
        raise SigmaSearchFailed(
            f"accuracy drop {lo_drop:.3f} at radius {cfg.sigma_lo} exceeds {target}"
        )
    hi = cfg.sigma_hi
    for _ in range(cfg.sigma_iters):
        mid = float(np.sqrt(lo * hi))
        d = drop(mid)
        if d <= target:
            lo, lo_drop = mid, d
        else:
            hi = mid
    converged = abs(lo_drop - target) <= 0.2 * target
    return SigmaSearchResult(lo, target, cfg.sigma_mc_draws, cfg.sigma_iters,
                             converged, lo_drop, magnitude_aware)


def pacbayes_measures(w: np.ndarray, w0: np.ndarray, n: int, sigma=None,
                      sigma0=None, delta: float = 0.05, kappa: float = 1e-3) -> dict:
    """PAC-Bayes proxies from posterior radii; only the radii supplied are used."""
    out = {}
    log_term = np.log(n / delta) + 10.0
    if sigma is not None:
        q = 4.0 * sigma * sigma
        out["PACBAYES_ORIG"] = float(np.sqrt((w @ w) / q + log_term) / np.sqrt(n))
        d = w - w0
        out["PACBAYES_INIT"] = float(np.sqrt((d @ d) / q + log_term) / np.sqrt(n))
        out["PACBAYES_FLATNESS"] = float(1.0 / (sigma * np.sqrt(n)))
    if sigma0 is not None:
        denom = 4.0 * (sigma0 * (np.abs(w) + kappa)) ** 2
        out["PACBAYES_MAG_ORIG"] = float(
            np.sqrt(np.sum(w * w / denom) + log_term) / np.sqrt(n))
        d = w - w0
        out["PACBAYES_MAG_INIT"] = float(
            np.sqrt(np.sum(d * d / denom) + log_term) / np.sqrt(n))
        out["PACBAYES_MAG_FLATNESS"] = float(1.0 / (sigma0 * np.sqrt(n)))
    return out


def _spectral(spec, ckpt, dataset, cfg, gamma, noise, diagnostics):
    values, diagnostics["spectral_residuals"] = spectral_measures(
        spec, ckpt, dataset.n, gamma, cfg.spectral_tol, cfg.spectral_max_iters)
    return values


def _pacbayes(spec, ckpt, dataset, cfg, gamma, noise, diagnostics,
              magnitude_aware=False):
    """One sigma search, then the PAC-Bayes measures of its radius."""
    key = "sigma0" if magnitude_aware else "sigma"
    res = sigma_search(spec, ckpt, dataset, cfg, magnitude_aware=magnitude_aware,
                       draws=None if noise is None else noise[int(magnitude_aware)])
    diagnostics[key], diagnostics[f"{key}_converged"] = res.sigma, res.converged
    w = flatten_params(spec, ckpt.weights, ckpt.biases)
    w0 = flatten_params(spec, ckpt.init_weights, ckpt.init_biases)
    return pacbayes_measures(w, w0, dataset.n, delta=cfg.delta, kappa=cfg.kappa,
                             **{key: res.sigma})


# The measure families that run, in order: the names each computes (its rows
# of MEASURES but the *_OVER_MARGIN ones) and its
# run(spec, ckpt, dataset, cfg, gamma, noise, diagnostics) -> values, gamma the
# margin if positive, else None. A run calls the measure functions through this
# module's globals when it runs, so a binding patched here is the one called.
# The margin family is compute_all's own.
_FAMILIES = tuple(
    (tuple(n for n in MEASURE_NAMES if _FAMILY[n] == family and n not in _OVER_MARGIN),
     run) for family, run in (
        ("params", lambda spec, ckpt, ds, *_: {"PARAMS": vc_params_proxy(spec, ds.n)}),
        ("frobenius", lambda spec, ckpt, ds, *_: frobenius_measures(spec, ckpt, ds.n)),
        ("spectral", _spectral),
        ("path", lambda spec, ckpt, ds, *_: {"PATH_NORM": path_norm(spec, ckpt, ds.n)}),
        ("pacbayes", _pacbayes),
        ("pacbayes_mag", functools.partial(_pacbayes, magnitude_aware=True)),
    ))


def compute_all(spec: NetSpec, ckpt: Checkpoint, dataset, cfg: MeasureConfig = None,
                include=(), noise=None) -> MeasureSet:
    """The measures named in include (default: all); failures are tagged, never fatal.

    The margins are always computed. A measure family runs only if a wanted
    name needs it: one of its own, or an *_OVER_MARGIN name built on one of
    them. A family that raises a toolkit error fails all its names. The first
    of these rules that holds decides each wanted name:
    1. it depends on the margin, and the margin is <= 0 or NaN: MarginNotPositive;
    2. its family (for an *_OVER_MARGIN name, its base measure's) failed: the
       type of that error;
    3. it depends on the margin, and margins raised: the type of that error;
    4. otherwise its value goes through MeasureSet.record.

    noise, if given, is the run's (plain, magnitude-aware) pair of sigma-search
    noise rows from sigma_noise. Only a ConfigError (such as a dataset whose
    labels do not fit the net's outputs) or a programming error raises.
    """
    cfg = cfg or MeasureConfig()
    spec.check_labels(dataset.labels)
    wanted = [name for name in MEASURE_NAMES if name in include] if include \
        else MEASURE_NAMES
    ms = MeasureSet()
    gamma = margin_error = None
    try:
        gamma = margins(spec, ckpt, dataset.features, dataset.labels,
                        cfg.margin_percentile, dataset.num_classes).margin_gamma
        ms.diagnostics["margin_gamma"] = gamma
    except FragAuditError as exc:
        margin_error = type(exc).__name__
    positive_gamma = gamma if gamma is not None and gamma > 0 else None

    bases = {_OVER_MARGIN.get(name, name) for name in wanted}
    values, failed = {}, {}
    for names, run in _FAMILIES:
        if not bases.isdisjoint(names):
            try:
                values.update(run(spec, ckpt, dataset, cfg, positive_gamma, noise,
                                  ms.diagnostics))
            except ConfigError:
                raise
            except FragAuditError as exc:
                failed.update(dict.fromkeys(names, type(exc).__name__))

    for name in wanted:
        base = _OVER_MARGIN.get(name, name)
        if name in _MARGIN_MEASURES and gamma is not None and not gamma > 0:
            ms.errors[name] = "MarginNotPositive"
        elif base in failed:
            ms.errors[name] = failed[base]
        elif name in _MARGIN_MEASURES and margin_error is not None:
            ms.errors[name] = margin_error
        elif _FAMILY[name] == "margin":
            ms.record(name, inverse_margin(gamma, dataset.n))
        elif name in _OVER_MARGIN:
            ms.record(name, values[base] / gamma)
        else:
            ms.record(name, values[name])
    ms.diagnostics["delta"] = cfg.delta
    return ms


def compute_selected(spec: NetSpec, ckpt: Checkpoint, dataset, names,
                     cfg: MeasureConfig = None) -> dict:
    """Values for the named measures, None where a measure failed (trace snapshots)."""
    ms = compute_all(spec, ckpt, dataset, cfg, include=tuple(names))
    return {name: ms.values.get(name) for name in names}
