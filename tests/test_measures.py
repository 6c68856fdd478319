"""Measure engine: hand fixtures, SVD oracle, homogeneity, sigma search."""

import itertools

import numpy as np
import pytest

from fragaudit import _kernels_py
from fragaudit import measures as measures_mod
from fragaudit.data import split_train_test, synth_blobs
from fragaudit.errors import ConfigError, DegenerateLayer, MarginNotPositive, \
    NormalizationSingularity, PathNormUndefined, SigmaSearchFailed
from fragaudit.measures import MEASURE_NAMES, MeasureConfig, compute_all, \
    compute_selected, frobenius_measures, inverse_margin, measure_layers, \
    pacbayes_measures, path_norm, sigma_search, spectral_measures, spectral_norm, \
    vc_params_proxy
from fragaudit.net import Checkpoint, NetSpec, flatten_params, forward_batch, \
    init_checkpoint, scale_checkpoint, unflatten_params
from fragaudit.optim import Hyperparams, train
from fragaudit.rng import Rng, states_from_seeds


def ckpt_from(mats, mats0=None):
    ws = [np.asarray(m, dtype=np.float64) for m in mats]
    w0 = [np.asarray(m, dtype=np.float64) for m in (mats0 or mats)]
    return Checkpoint([w.copy() for w in ws], [w.copy() for w in w0])


def random_ckpt(spec, seed=0):
    return init_checkpoint(spec, Rng(seed).spawn_key("init"))


# --- spectral norm ------------------------------------------------------------

def test_spectral_norm_diagonal():
    s, _, _, conv = spectral_norm(np.diag([3.0, 1.0]))
    assert conv
    assert s == pytest.approx(3.0, rel=1e-12)


def test_spectral_norm_rank_one():
    u = np.array([1.0, 2.0, -2.0])
    v = np.array([0.5, -1.5])
    s, _, _, _ = spectral_norm(np.outer(u, v))
    assert s == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-10)


def test_spectral_norm_vs_svd_oracle():
    # oracle: dense SVD (LAPACK), independent of the power-iteration path
    rng = Rng(77)
    for k in range(100):
        rows = 2 + rng.below(31)
        cols = 2 + rng.below(31)
        W = rng.gaussians(rows * cols).reshape(rows, cols)
        s, _, _, conv = spectral_norm(W, tol=1e-12, max_iters=100000)
        ref = float(np.linalg.svd(W, compute_uv=False)[0])
        assert conv
        assert abs(s - ref) <= 1e-8 * ref


def test_spectral_norm_rejects_zero():
    with pytest.raises(DegenerateLayer):
        spectral_norm(np.zeros((3, 3)))


def _uncached_spectral_norm(W, tol=1e-10, max_iters=20000, first=None):
    """Oracle: the start vector drawn afresh on every call. `first` stands in
    for it while the stream still moves past it, so a redraw continues there."""
    G = W.T @ W if W.shape[1] <= W.shape[0] else W @ W.T
    k = G.shape[0]
    rng = Rng(measures_mod._SPECTRAL_START_SEED)
    v = rng.gaussians(k)
    v /= np.linalg.norm(v)
    if first is not None:
        v = first
    lam, residual, iters = 0.0, np.inf, 0
    for iters in range(1, max_iters + 1):
        u = G @ v
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:
            v = rng.gaussians(k)
            v /= np.linalg.norm(v)
            continue
        lam = float(v @ u)
        residual = float(np.linalg.norm(u - lam * v) / abs(lam)) if lam else np.inf
        v = u / norm_u
        if residual <= tol:
            break
    return float(np.sqrt(max(lam, 0.0))), residual, iters, residual <= tol


def test_spectral_norm_cached_start_matches_uncached_oracle():
    rng = Rng(78)
    for _ in range(2):  # the second pass reads every start vector from the cache
        for rows, cols in [(16, 8), (8, 16), (2, 16), (16, 16), (3, 5), (784, 32)]:
            W = rng.gaussians(rows * cols).reshape(rows, cols)
            assert spectral_norm(W) == _uncached_spectral_norm(W), (rows, cols)
    fresh = Rng(measures_mod._SPECTRAL_START_SEED).gaussians(16)
    assert np.array_equal(measures_mod._spectral_start(16), fresh / np.linalg.norm(fresh))


def test_spectral_norm_redraw_continues_the_start_stream(monkeypatch):
    # a start vector in the kernel of G forces one redraw from the stream
    W = np.diag([0.0, 2.0, 1.0])
    e0 = np.array([1.0, 0.0, 0.0])
    monkeypatch.setattr(measures_mod, "_spectral_start", lambda k: e0)
    got = spectral_norm(W)
    assert got == _uncached_spectral_norm(W, first=e0)
    assert got[0] == pytest.approx(2.0, rel=1e-10) and got[3]
    assert np.array_equal(e0, [1.0, 0.0, 0.0])


# --- fixed-value fixtures ------------------------------------------------------

def test_param_norm_single_layer():
    spec = NetSpec((2, 1))
    ck = ckpt_from([[[3.0, 4.0]]])
    out = frobenius_measures(spec, ck, 1)
    assert out["PARAM_NORM"] == pytest.approx(5.0, abs=1e-12)


def test_fro_dist_zero_at_init():
    spec = NetSpec((2, 2))
    ck = ckpt_from([np.eye(2)])
    assert frobenius_measures(spec, ck, 4)["FRO_DIST"] == 0.0


def test_param_norm_homogeneous_degree_one():
    spec = NetSpec((3, 4, 2))
    ck = random_ckpt(spec, 3)
    base = frobenius_measures(spec, ck, 7)["PARAM_NORM"]
    doubled = frobenius_measures(spec, scale_checkpoint(ck, spec, 2.0), 7)["PARAM_NORM"]
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_inverse_margin_fixtures():
    assert inverse_margin(2.0, 4) == pytest.approx(1.0, abs=1e-15)
    assert inverse_margin(0.5, 100) == pytest.approx(20.0, abs=1e-12)
    with pytest.raises(MarginNotPositive):
        inverse_margin(0.0, 4)


def test_sum_of_spec_fixture():
    spec = NetSpec((2, 2))
    vals, _ = spectral_measures(spec, ckpt_from([np.diag([3.0, 1.0])]), 1)
    assert vals["SUM_OF_SPEC"] == pytest.approx(3.0, rel=1e-10)


def test_prod_of_spec_orthonormal_layers():
    spec = NetSpec((2, 2, 2))
    q = np.array([[0.0, 1.0], [-1.0, 0.0]])
    vals, _ = spectral_measures(spec, ckpt_from([q, np.eye(2)]), 4)
    assert vals["PROD_OF_SPEC"] == pytest.approx(np.sqrt(1.0 / 4.0), rel=1e-9)


def test_fro_over_spec_rank_one_is_one():
    spec = NetSpec((2, 3))
    W = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    vals, _ = spectral_measures(spec, ckpt_from([W]), 1)
    assert vals["FRO_OVER_SPEC"] == pytest.approx(1.0, rel=1e-9)


def test_spec_main_composites():
    spec = NetSpec((2, 2))
    W = np.diag([3.0, 1.0])
    vals, _ = spectral_measures(spec, ckpt_from([W], [np.zeros((2, 2))]), n=2,
                                margin_gamma=2.0)
    # prod_spec = 9, stable rank = 10/9, gamma^2 n = 8
    assert vals["SPEC_ORIG_MAIN"] == pytest.approx(9.0 * (10.0 / 9.0) / 8.0, rel=1e-9)
    assert vals["SPEC_INIT_MAIN"] == pytest.approx(9.0 * (10.0 / 9.0) / 8.0, rel=1e-9)


def test_path_norm_single_layer():
    spec = NetSpec((2, 1))
    assert path_norm(spec, ckpt_from([[[3.0, 4.0]]]), 1) == pytest.approx(5.0, abs=1e-12)


def test_path_norm_identity_layers():
    spec = NetSpec((2, 2, 2))
    ck = ckpt_from([np.eye(2), np.eye(2)])
    assert path_norm(spec, ck, 2) == pytest.approx(1.0, abs=1e-12)


def test_path_norm_scaling_power():
    spec = NetSpec((3, 4, 4, 2))
    ck = random_ckpt(spec, 5)
    base = path_norm(spec, ck, 2)
    scaled = path_norm(spec, scale_checkpoint(ck, spec, 3.0), 2)
    assert scaled == pytest.approx((3.0 ** 3) * base, rel=1e-10)


def test_path_norm_nan_weights_raise_typed_error():
    spec = NetSpec((2, 2, 1))
    ck = ckpt_from([[[np.nan, 1.0], [1.0, 1.0]], [[1.0, 1.0]]])
    with pytest.raises(PathNormUndefined):
        path_norm(spec, ck, 1)


def test_vc_params_fixture():
    assert vc_params_proxy(NetSpec((2, 3, 1)), 1) == pytest.approx(
        3.7416573867739413, abs=1e-12)
    spec = NetSpec((4, 5, 3))
    assert vc_params_proxy(spec, 16) == pytest.approx(
        vc_params_proxy(spec, 4) / 2.0, rel=1e-12)


def test_params_depends_only_on_spec():
    spec = NetSpec((3, 4, 2))
    assert vc_params_proxy(spec, 9) == vc_params_proxy(spec, 9)
    a = compute_all(spec, random_ckpt(spec, 1), synth_blobs(9, 3, 2, 3.0, 1),
                    include=("PARAMS",))
    b = compute_all(spec, random_ckpt(spec, 2), synth_blobs(9, 3, 2, 3.0, 1),
                    include=("PARAMS",))
    assert a.values["PARAMS"] == b.values["PARAMS"]


def test_pacbayes_orig_fixture():
    w = np.array([1.0, 1.0, 1.0, 1.0])  # ||w||^2 = 4
    out = pacbayes_measures(w, np.zeros(4), n=100, sigma=1.0, delta=0.05)
    assert out["PACBAYES_ORIG"] == pytest.approx(0.4312876355698374, abs=1e-12)


def test_pacbayes_init_at_initialization():
    w = np.array([2.0, -1.0])
    out = pacbayes_measures(w, w.copy(), n=50, sigma=0.5, delta=0.05)
    expected = np.sqrt(np.log(50 / 0.05) + 10.0) / np.sqrt(50)
    assert out["PACBAYES_INIT"] == pytest.approx(expected, abs=1e-12)


def test_pacbayes_flatness_scaling():
    w = np.ones(3)
    a = pacbayes_measures(w, w, n=100, sigma=1.0)["PACBAYES_FLATNESS"]
    b = pacbayes_measures(w, w, n=100, sigma=2.0)["PACBAYES_FLATNESS"]
    assert b == pytest.approx(a / 2.0, rel=1e-12)


def test_pacbayes_orig_increases_with_weight_scale():
    rng = Rng(8)
    w = rng.gaussians(20)
    base = pacbayes_measures(w, np.zeros(20), n=64, sigma=1.0)["PACBAYES_ORIG"]
    big = pacbayes_measures(3.0 * w, np.zeros(20), n=64, sigma=1.0)["PACBAYES_ORIG"]
    assert big > base


def test_margin_variants_equal_plain_at_gamma_one():
    spec = NetSpec((2, 3, 2))
    ck = random_ckpt(spec, 9)
    n = 5
    fro = frobenius_measures(spec, ck, n)
    pn = path_norm(spec, ck, n)
    gamma = 1.0
    assert fro["PARAM_NORM"] / gamma == fro["PARAM_NORM"]
    assert pn / gamma == pn


def test_frozen_readout_excluded_from_measures():
    spec = NetSpec((2, 4, 2), frozen_readout=True)
    ck = random_ckpt(spec, 4)
    Ws, _ = measure_layers(spec, ck)
    assert len(Ws) == 1
    expected = np.sqrt(np.sum(ck.weights[0] ** 2) / 3)
    assert frobenius_measures(spec, ck, 3)["PARAM_NORM"] == pytest.approx(
        expected, rel=1e-12)


# --- homogeneity suite ---------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_homogeneity_suite(seed):
    spec = NetSpec((3, 5, 4, 2))
    ck = random_ckpt(spec, seed)
    n = 11
    c = 1.0 + 0.5 * (seed + 1)
    scaled = scale_checkpoint(ck, spec, c)
    d = spec.num_layers
    assert frobenius_measures(spec, scaled, n)["PARAM_NORM"] == pytest.approx(
        c * frobenius_measures(spec, ck, n)["PARAM_NORM"], rel=1e-10)
    assert path_norm(spec, scaled, n) == pytest.approx(
        (c ** d) * path_norm(spec, ck, n), rel=1e-9)
    sv, _ = spectral_measures(spec, scaled, n)
    bv, _ = spectral_measures(spec, ck, n)
    assert sv["PROD_OF_SPEC"] == pytest.approx((c ** d) * bv["PROD_OF_SPEC"], rel=1e-8)
    assert vc_params_proxy(spec, n) == vc_params_proxy(spec, n)
    w = np.concatenate([m.ravel() for m in ck.weights])
    assert pacbayes_measures(c * w, np.zeros_like(w), n, sigma=1.0)["PACBAYES_ORIG"] \
        > pacbayes_measures(w, np.zeros_like(w), n, sigma=1.0)["PACBAYES_ORIG"]


def test_hidden_unit_relabeling_invariance():
    spec = NetSpec((2, 6, 3), bias_enabled=True)
    tr, _ = split_train_test(synth_blobs(128, 2, 3, 6.0, seed=31), 64, seed=32)
    H = Hyperparams(lr=0.1, max_epochs=300, dataset="blobs", arch="fcn", n_train=64)
    res = train(spec, tr, tr, H, seed=33)
    assert res.record.t_int is not None
    ck = res.checkpoint
    perm = Rng(34).permutation(6)
    ck2 = ck.copy()
    ck2.weights[0] = ck.weights[0][perm]
    ck2.weights[1] = ck.weights[1][:, perm]
    ck2.init_weights[0] = ck.init_weights[0][perm]
    ck2.init_weights[1] = ck.init_weights[1][:, perm]
    ck2.biases[0] = ck.biases[0][perm]
    ck2.init_biases[0] = ck.init_biases[0][perm]
    cfg = MeasureConfig(seed=35, spectral_tol=1e-13)
    a = compute_all(spec, ck, tr, cfg)
    b = compute_all(spec, ck2, tr, cfg)
    assert set(a.values) == set(b.values)
    # sigma-search-backed measures are invariant only in distribution (the MC
    # perturbation draws are coordinate-indexed); all deterministic measures
    # must agree to 1e-10, and the PAC-Bayes formulas agree at fixed radii.
    sigma_backed = {"PACBAYES_ORIG", "PACBAYES_INIT", "PACBAYES_FLATNESS",
                    "PACBAYES_MAG_ORIG", "PACBAYES_MAG_INIT",
                    "PACBAYES_MAG_FLATNESS"}
    for name in set(a.values) - sigma_backed:
        assert a.values[name] == pytest.approx(b.values[name], rel=1e-10), name
    from fragaudit.net import flatten_params

    wa = flatten_params(spec, ck.weights, ck.biases)
    wa0 = flatten_params(spec, ck.init_weights, ck.init_biases)
    wb = flatten_params(spec, ck2.weights, ck2.biases)
    wb0 = flatten_params(spec, ck2.init_weights, ck2.init_biases)
    pa = pacbayes_measures(wa, wa0, tr.n, sigma=0.25, sigma0=0.1)
    pb = pacbayes_measures(wb, wb0, tr.n, sigma=0.25, sigma0=0.1)
    for name in pa:
        assert pa[name] == pytest.approx(pb[name], rel=1e-10), name


# --- sigma search ---------------------------------------------------------------

def _trained_net(seed=41):
    spec = NetSpec((2, 8, 2), bias_enabled=True)
    tr, _ = split_train_test(synth_blobs(128, 2, 2, 6.0, seed=seed), 64, seed + 1)
    H = Hyperparams(lr=0.1, max_epochs=400, dataset="blobs", arch="fcn")
    res = train(spec, tr, tr, H, seed=seed + 2)
    assert res.record.t_int is not None
    return spec, res.checkpoint, tr


def _serial_gaussians(seed, n):
    """Rng(seed).gaussians(n) without the production fill or Box-Muller: the
    words come from the serial loop, the transform from fresh arrays."""
    cols = 2 * ((n + 1) // 2)
    words = np.empty(cols, dtype=np.uint64)
    _kernels_py.fill_u64_serial(
        states_from_seeds(np.array([seed], dtype=np.uint64))[0].copy(), words)
    a = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    b = (words[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(a))
    theta = (2.0 * np.pi) * b
    z = np.empty(cols)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:n]


def _scalar_drop(spec, ck, ds, cfg, radius, magnitude_aware=False):
    """Per-draw oracle: one unflattened net and one forward per MC draw, with
    noise drawn apart from the lane fill and the blocked Box-Muller."""
    X, y = ds.features, ds.labels
    w = flatten_params(spec, ck.weights, ck.biases)
    acc0 = float((forward_batch(spec, ck.weights, ck.biases, X)
                  .argmax(axis=1) == y).mean())
    stream = Rng(cfg.seed).spawn_key("sigma-mag" if magnitude_aware else "sigma")
    scale = (np.abs(w) + cfg.kappa) if magnitude_aware else 1.0
    accs = []
    for d in range(cfg.sigma_mc_draws):
        xi = _serial_gaussians(stream.spawn_index(d).seed, w.size)
        c = unflatten_params(spec, w + radius * scale * xi, ck)
        logits = forward_batch(spec, c.weights, c.biases, X)
        accs.append(float((logits.argmax(axis=1) == y).mean()))
    return acc0 - float(np.mean(accs))


def _scale_invariant_net():
    spec = NetSpec((2, 6, 5, 3), normalize_hidden=True, frozen_readout=True)
    ds = synth_blobs(48, 2, 3, 4.0, seed=61)
    return spec, random_ckpt(spec, seed=62), ds


def _wide_net():
    """P = 1,198: the 15 noise rows run in 64-word lanes, and each row's
    46-word tail perturbs the last hidden biases and the output biases."""
    spec = NetSpec((23, 46, 2), bias_enabled=True)
    ds = synth_blobs(64, 23, 2, 4.0, seed=63)
    return spec, random_ckpt(spec, seed=64), ds


@pytest.mark.parametrize("net", ["bias", "scale_invariant", "wide"])
@pytest.mark.parametrize("magnitude_aware", [False, True])
def test_sigma_search_drop_matches_per_draw_loop(net, magnitude_aware):
    # a target of 1.0 accepts sigma_hi at once, so final_drop is the drop there
    spec, ck, ds = {"bias": _trained_net, "scale_invariant": _scale_invariant_net,
                    "wide": _wide_net}[net]()
    for radius in (1e-4, 3e-3, 0.05, 0.4, 2.0, 10.0):
        cfg = MeasureConfig(seed=7, sigma_hi=radius, sigma_target_dev=1.0)
        res = sigma_search(spec, ck, ds, cfg, magnitude_aware=magnitude_aware)
        assert res.sigma == radius and res.iterations == 0
        assert res.final_drop == _scalar_drop(spec, ck, ds, cfg, radius,
                                              magnitude_aware), radius


def test_sigma_search_deterministic():
    spec, ck, tr = _trained_net()
    cfg = MeasureConfig(seed=7)
    a = sigma_search(spec, ck, tr, cfg)
    b = sigma_search(spec, ck, tr, cfg)
    assert a.sigma == b.sigma
    assert a.final_drop == b.final_drop


def test_sigma_search_brackets_target_with_grid_oracle():
    spec, ck, tr = _trained_net()
    cfg = MeasureConfig(seed=7)
    res = sigma_search(spec, ck, tr, cfg)
    assert res.final_drop <= cfg.sigma_target_dev
    if res.converged:
        assert abs(res.final_drop - cfg.sigma_target_dev) <= 0.2 * cfg.sigma_target_dev
    # grid-scan oracle: measured drop is non-decreasing in sigma up to MC noise,
    # and the search lands in the feasible region the oracle sees
    grid = np.geomspace(1e-4, 10.0, 12)
    drops = [_scalar_drop(spec, ck, tr, cfg, s) for s in grid]
    for lo, hi in zip(drops, drops[1:]):
        assert hi >= lo - 0.05
    feasible = [s for s, d in zip(grid, drops) if d <= cfg.sigma_target_dev]
    assert feasible and res.sigma >= max(feasible) / 4.0


def test_sigma_search_returns_upper_bound_for_robust_net():
    spec = NetSpec((2, 2))
    ck = ckpt_from([np.diag([1e6, 1e6])])
    ds = synth_blobs(16, 2, 2, 6.0, seed=50)
    res = sigma_search(spec, ck, ds, MeasureConfig(seed=1))
    assert res.sigma == 10.0
    assert res.converged


def test_sigma_search_failure_for_knife_edge_net():
    # scaling only the readout keeps predictions but shrinks margins to ~1e-9,
    # so even the smallest radius drowns the signal in noise
    spec, ck, tr = _trained_net(seed=71)
    tiny = ck.copy()
    tiny.weights[-1] = tiny.weights[-1] * 1e-9
    tiny.biases[-1] = tiny.biases[-1] * 1e-9
    with pytest.raises(SigmaSearchFailed):
        sigma_search(spec, tiny, tr, MeasureConfig(seed=1))


def test_magnitude_aware_search_independent_stream():
    spec, ck, tr = _trained_net()
    cfg = MeasureConfig(seed=7)
    plain = sigma_search(spec, ck, tr, cfg, magnitude_aware=False)
    mag = sigma_search(spec, ck, tr, cfg, magnitude_aware=True)
    assert mag.magnitude_aware
    assert (plain.sigma, plain.final_drop) != (mag.sigma, mag.final_drop)


@pytest.mark.parametrize("p", [32, 33])
def test_sigma_noise_rows_equal_each_search_drawn_alone(p):
    cfgs = [MeasureConfig(seed=s, sigma_mc_draws=d) for s, d in ((3, 4), (9, 1), (27, 6))]
    noise = measures_mod.sigma_noise(cfgs, p)
    assert len(noise) == len(cfgs)
    for cfg, pair in zip(cfgs, noise):
        for mag, rows in zip((False, True), pair):
            stream = Rng(cfg.seed).spawn_key("sigma-mag" if mag else "sigma")
            alone = np.array([_serial_gaussians(stream.spawn_index(d).seed, p)
                              for d in range(cfg.sigma_mc_draws)])
            assert rows.shape == (cfg.sigma_mc_draws, p)
            assert np.array_equal(rows.view(np.uint64), alone.view(np.uint64))


def _odd_width_net():
    """P = 25: each noise row drops the partner variate of its last pair."""
    spec = NetSpec((3, 5, 2))
    return spec, random_ckpt(spec, seed=65), synth_blobs(48, 3, 2, 4.0, seed=66)


@pytest.mark.parametrize("net", ["trained", "odd_width"])
@pytest.mark.parametrize("magnitude_aware", [False, True])
def test_sigma_search_with_given_draws_equals_its_own(net, magnitude_aware):
    spec, ck, tr = _trained_net() if net == "trained" else _odd_width_net()
    # the odd-width net is untrained: a target of 1.0 takes the drop at sigma_hi
    cfg = MeasureConfig(seed=7, sigma_target_dev=0.1 if net == "trained" else 1.0)
    P = flatten_params(spec, ck.weights, ck.biases).size
    plain, mag = measures_mod.sigma_noise([cfg], P)[0]
    own = sigma_search(spec, ck, tr, cfg, magnitude_aware)
    given = sigma_search(spec, ck, tr, cfg, magnitude_aware,
                         draws=mag if magnitude_aware else plain)
    assert given == own
    with pytest.raises(ValueError):
        sigma_search(spec, ck, tr, cfg, magnitude_aware, draws=plain[1:])


@pytest.mark.parametrize("fields", [
    {"sigma_mc_draws": 0}, {"sigma_iters": -3}, {"sigma_lo": 5.0, "sigma_hi": 1.0},
    {"sigma_lo": 0.0}, {"sigma_lo": float("nan")}, {"sigma_hi": float("nan")},
    {"sigma_target_dev": 0.0}, {"sigma_target_dev": float("nan")},
    {"margin_percentile": 1.01}, {"margin_percentile": -0.1},
    {"spectral_max_iters": 0},
])
def test_measure_config_rejects_degenerate_settings(fields):
    with pytest.raises(ConfigError, match=next(iter(fields)) if len(fields) == 1
                       else "sigma_hi"):
        MeasureConfig(**fields)


def test_measure_config_accepts_boundary_settings():
    for fields in ({"sigma_iters": 0}, {"sigma_mc_draws": 1},
                   {"margin_percentile": 0.0}, {"margin_percentile": 1.0},
                   {"spectral_max_iters": 1}):
        MeasureConfig(**fields)


# --- compute_all ----------------------------------------------------------------

def test_compute_all_zero_tags_at_initialization():
    spec = NetSpec((2, 4, 2))
    ck = random_ckpt(spec, 21)
    ds = synth_blobs(32, 2, 2, 5.0, seed=22)
    ms = compute_all(spec, ck, ds, MeasureConfig(seed=23))
    assert ms.errors.get("FRO_DIST") == "ZeroValue"
    assert ms.errors.get("DIST_SPEC_INIT") == "ZeroValue"
    assert "FRO_DIST" not in ms.values
    assert "PARAMS" in ms.values


def test_compute_all_full_vocabulary_on_trained_net():
    spec, ck, tr = _trained_net(seed=61)
    ms = compute_all(spec, ck, tr, MeasureConfig(seed=3))
    for name in MEASURE_NAMES:
        assert name in ms.values or name in ms.errors, name
    assert set(ms.values) & {"PACBAYES_ORIG", "PATH_NORM", "PARAM_NORM", "PARAMS"}
    for v in ms.values.values():
        assert v > 0 and np.isfinite(v)
    assert "sigma" in ms.diagnostics


def test_compute_all_margin_failures_tagged():
    spec = NetSpec((2, 3, 2))
    ck = random_ckpt(spec, 25)  # random net: margins typically not all positive
    ds = synth_blobs(64, 2, 2, 6.0, seed=26)
    ms = compute_all(spec, ck, ds, MeasureConfig(seed=27))
    gamma = ms.diagnostics.get("margin_gamma")
    if gamma is not None and gamma <= 0:
        assert ms.errors.get("INVERSE_MARGIN") == "MarginNotPositive"
        assert "PATH_NORM_OVER_MARGIN" in ms.errors


def test_compute_selected_returns_none_for_failures():
    spec = NetSpec((2, 4, 2))
    ck = random_ckpt(spec, 28)
    ds = synth_blobs(16, 2, 2, 5.0, seed=29)
    out = compute_selected(spec, ck, ds, ("PARAM_NORM", "FRO_DIST"),
                           MeasureConfig(seed=30))
    assert out["PARAM_NORM"] is not None
    assert out["FRO_DIST"] is None  # at initialization: zero-tagged


def test_compute_all_rejects_labels_wider_than_net_outputs():
    ds = synth_blobs(30, 2, 3, 6.0, 5)
    spec = NetSpec((2, 4, 2))
    with pytest.raises(ConfigError, match="does not fit"):
        compute_all(spec, random_ckpt(spec), ds, MeasureConfig(sigma_mc_draws=2))


def test_compute_all_tags_toolkit_margin_errors(monkeypatch):
    from fragaudit import measures

    def singular(*args, **kwargs):
        raise NormalizationSingularity("injected")

    monkeypatch.setattr(measures, "margins", singular)
    ds = synth_blobs(30, 2, 2, 6.0, 5)
    spec = NetSpec((2, 4, 2))
    ms = compute_all(spec, random_ckpt(spec), ds, MeasureConfig(sigma_mc_draws=2),
                     include=("INVERSE_MARGIN", "PARAM_NORM"))
    assert ms.errors == {"INVERSE_MARGIN": "NormalizationSingularity"}
    assert "PARAM_NORM" in ms.values


def test_compute_all_propagates_margin_programming_errors(monkeypatch):
    from fragaudit import measures

    def broken(*args, **kwargs):
        raise TypeError("injected bug")

    monkeypatch.setattr(measures, "margins", broken)
    ds = synth_blobs(30, 2, 2, 6.0, 5)
    spec = NetSpec((2, 4, 2))
    with pytest.raises(TypeError, match="injected bug"):
        compute_all(spec, random_ckpt(spec), ds, MeasureConfig(sigma_mc_draws=2))


def test_compute_all_propagates_a_family_config_error(monkeypatch):
    def misconfigured(*args, **kwargs):
        raise ConfigError("injected")

    monkeypatch.setattr(measures_mod, "path_norm", misconfigured)
    ds = synth_blobs(30, 2, 2, 6.0, 5)
    spec = NetSpec((2, 4, 2))
    with pytest.raises(ConfigError, match="injected"):
        compute_all(spec, random_ckpt(spec), ds, MeasureConfig(sigma_mc_draws=2),
                    include=("PATH_NORM_OVER_MARGIN",))


# --- the vocabulary --------------------------------------------------------------

def test_the_measure_table_names_each_measure_once():
    names = [row[0] for row in measures_mod.MEASURES]
    assert tuple(names) == MEASURE_NAMES and len(set(names)) == len(names)
    family = {name: fam for name, fam, *_ in measures_mod.MEASURES}
    for name, fam, on_margin, formula, source in measures_mod.MEASURES:
        assert formula and source, name
        base = name.removesuffix("_OVER_MARGIN")
        if base != name:  # X / gamma, computed in X's family
            assert family.get(base) == fam and on_margin, name


def test_no_two_measures_are_equal_or_log_affine_on_trained_nets():
    # 12 short runs that all interpolate; PARAMS depends only on the net and n,
    # so it is one constant here and is left out
    spec = NetSpec((4, 8, 8, 2), bias_enabled=True)
    tr, te = split_train_test(synth_blobs(96, 4, 2, 8.0, seed=1), 64, seed=2)
    grid = [("sgdm", 0.05), ("sgdm", 0.1), ("sgdm", 0.2),
            ("adam", 0.01), ("adam", 0.02), ("adam", 0.05)]
    names = [name for name in MEASURE_NAMES if name != "PARAMS"]
    logs = []
    for (opt, lr), seed in itertools.product(grid, (0, 1)):
        H = Hyperparams(optimizer=opt, lr=lr, max_epochs=50, dataset="blobs", arch="fcn")
        res = train(spec, tr, te, H, seed=seed)
        ms = compute_all(spec, res.checkpoint, tr,
                         MeasureConfig(sigma_mc_draws=3, sigma_iters=8, seed=seed))
        assert not ms.errors, ms.errors
        logs.append([np.log(ms.values[name]) for name in names])
    logs = np.array(logs)
    for name, column in zip(names, logs.T):
        assert len(set(column)) >= 3, name  # else an affine fit is trivially exact
    # log C_a = slope * log C_b + offset exactly (equal measures included)
    for a, b in itertools.combinations(range(len(names)), 2):
        x, y = logs[:, b], logs[:, a]
        A = np.stack([x, np.ones_like(x)], axis=1)
        fit = A @ np.linalg.lstsq(A, y, rcond=None)[0]
        assert np.max(np.abs(fit - y)) > 1e-9 * (1.0 + np.max(np.abs(y))), \
            (names[a], names[b])


# --- compute_all's tagging rule, against the rule written out -------------------

_FAMILY_NAMES = {
    "params": ("PARAMS",),
    "frobenius": ("FRO_DIST", "PARAM_NORM", "PROD_OF_FRO"),
    "spectral": ("SUM_OF_SPEC", "PROD_OF_SPEC", "DIST_SPEC_INIT", "FRO_OVER_SPEC",
                 "SPEC_ORIG_MAIN", "SPEC_INIT_MAIN"),
    "path": ("PATH_NORM",),
    "sigma": ("PACBAYES_ORIG", "PACBAYES_INIT", "PACBAYES_FLATNESS"),
    "sigma0": ("PACBAYES_MAG_ORIG", "PACBAYES_MAG_INIT", "PACBAYES_MAG_FLATNESS"),
}
_FAKE_VALUES = {name: 1.0 + i for i, name in enumerate(MEASURE_NAMES)}
_FAKE_SIGMA = {False: 0.5, True: 0.25}


def test_every_measure_name_has_exactly_one_source():
    family_names = [name for names, _ in measures_mod._FAMILIES for name in names]
    over_margin = measures_mod._OVER_MARGIN
    for name in MEASURE_NAMES:
        sources = family_names.count(name) + (name == "INVERSE_MARGIN") + \
            (name in over_margin)
        assert sources == 1, name
    assert set(family_names) <= set(MEASURE_NAMES)
    assert set(over_margin.values()) <= set(family_names)
    assert sorted(family_names) == sorted(sum(_FAMILY_NAMES.values(), ()))


def _install_fake_families(monkeypatch, gamma, ok, calls):
    """Replace the margins and every family's function on the measures module.

    gamma is the margin, or "raises"; ok[family] False makes that family raise
    its toolkit error. calls collects the families that ran, in order.
    """
    from fragaudit.net import MarginStats

    positive = gamma if gamma != "raises" and gamma > 0 else None

    def fake_margins(spec, ckpt, X, y, percentile=0.1, num_classes=None):
        if gamma == "raises":
            raise NormalizationSingularity("injected")
        return MarginStats(np.zeros(len(y)), gamma, len(y), percentile)

    def run(family, error=None):
        calls.append(family)
        if not ok[family]:
            raise error("injected")
        return {name: _FAKE_VALUES[name] for name in _FAMILY_NAMES[family]}

    def fake_spectral(spec, ckpt, n, margin_gamma=None, tol=1e-10, max_iters=20000):
        assert margin_gamma == positive
        values = run("spectral", DegenerateLayer)
        if margin_gamma is None:  # as spectral_measures: no SPEC_*_MAIN
            del values["SPEC_ORIG_MAIN"], values["SPEC_INIT_MAIN"]
        return values, [1e-12]

    def fake_path(spec, ckpt, n):
        return run("path", PathNormUndefined)["PATH_NORM"]

    def fake_sigma(spec, ckpt, dataset, cfg, magnitude_aware=False, draws=None):
        run("sigma0" if magnitude_aware else "sigma", SigmaSearchFailed)
        return measures_mod.SigmaSearchResult(_FAKE_SIGMA[magnitude_aware], 0.1, 2, 0,
                                              True, 0.0, magnitude_aware)

    monkeypatch.setattr(measures_mod, "margins", fake_margins)
    monkeypatch.setattr(measures_mod, "vc_params_proxy",
                        lambda spec, n: run("params")["PARAMS"])
    monkeypatch.setattr(measures_mod, "frobenius_measures",
                        lambda spec, ckpt, n: run("frobenius"))
    monkeypatch.setattr(measures_mod, "spectral_measures", fake_spectral)
    monkeypatch.setattr(measures_mod, "path_norm", fake_path)
    monkeypatch.setattr(measures_mod, "sigma_search", fake_sigma)


def _rule(name, gamma, ok, values, n):
    """The tag or value of one wanted name; the first rule that holds decides."""
    base = name.removesuffix("_OVER_MARGIN")
    on_margin = base != name or name in ("INVERSE_MARGIN", "SPEC_ORIG_MAIN",
                                         "SPEC_INIT_MAIN")
    family = next((f for f, names in _FAMILY_NAMES.items() if base in names), None)
    errors = {"spectral": "DegenerateLayer", "path": "PathNormUndefined",
              "sigma": "SigmaSearchFailed", "sigma0": "SigmaSearchFailed"}
    if on_margin and gamma != "raises" and not gamma > 0:
        return "MarginNotPositive"
    if family is not None and not ok[family]:
        return errors[family]
    if on_margin and gamma == "raises":
        return "NormalizationSingularity"
    if name == "INVERSE_MARGIN":
        return float(np.sqrt(n) / gamma)
    return values[base] / gamma if base != name else values[name]


@pytest.mark.parametrize("gamma", [2.0, 0.0, -0.5, float("nan"), "raises"])
@pytest.mark.parametrize("spectral_ok", [True, False])
@pytest.mark.parametrize("path_ok", [True, False])
@pytest.mark.parametrize("sigma_ok", [True, False])
@pytest.mark.parametrize("sigma0_ok", [True, False])
def test_compute_all_tags_by_the_rule(monkeypatch, gamma, spectral_ok, path_ok,
                                      sigma_ok, sigma0_ok):
    ok = dict(params=True, frobenius=True, spectral=spectral_ok, path=path_ok,
              sigma=sigma_ok, sigma0=sigma0_ok)
    calls = []
    _install_fake_families(monkeypatch, gamma, ok, calls)
    spec = NetSpec((2, 4, 2))
    ck = random_ckpt(spec, 31)
    ds = synth_blobs(24, 2, 2, 5.0, seed=32)
    cfg = MeasureConfig(sigma_mc_draws=2)
    w, w0 = flatten_params(spec, ck.weights, ck.biases), \
        flatten_params(spec, ck.init_weights, ck.init_biases)
    values = dict(_FAKE_VALUES, **pacbayes_measures(
        w, w0, ds.n, _FAKE_SIGMA[False], _FAKE_SIGMA[True], cfg.delta, cfg.kappa))
    order = list(_FAMILY_NAMES)
    for include in [()] + [(name,) for name in MEASURE_NAMES]:
        calls.clear()
        ms = compute_all(spec, ck, ds, cfg, include=include)
        names = include or MEASURE_NAMES
        assert set(ms.values).isdisjoint(ms.errors)
        assert {**ms.values, **ms.errors} == \
            {name: _rule(name, gamma, ok, values, ds.n) for name in names}, include
        bases = {name.removesuffix("_OVER_MARGIN") for name in names}
        assert calls == [f for f in order if bases & set(_FAMILY_NAMES[f])], include
