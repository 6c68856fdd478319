"""Schedule equivalence: interval fixtures, closed forms, lockstep verification."""

import math

import numpy as np
import pytest

from fragaudit.data import split_train_test, synth_blobs
from fragaudit.errors import ConfigError, InadmissibleAlpha, PredictionMismatch
from fragaudit.exppp import ExpPPParams, demo_alphas, derive, inflation_demo, \
    schedule, verify_equivalence
from fragaudit.measures import MeasureConfig, MeasureSet
from fragaudit.net import NetSpec


def si_spec(dims=(2, 16, 16, 2)):
    return NetSpec(dims, normalize_hidden=True, frozen_readout=True,
                   bias_enabled=False)


def blob_split(n_train=128, seed=5):
    full = synth_blobs(n_train + 64, 2, 2, 6.0, seed=seed)
    return split_train_test(full, n_train, seed + 1)


def test_derive_interval_fixture():
    der = derive(0.01, 0.9, 0.0)
    assert der.delta_lambda == pytest.approx(0.01, rel=1e-12)
    assert der.alpha_L == pytest.approx(0.9 / 1.9, rel=1e-12)  # 0.473684...
    assert der.alpha_minus == pytest.approx(0.9, rel=1e-12)
    assert der.alpha_plus == pytest.approx(1.0, rel=1e-12)
    assert der.remark_ok
    assert not der.interval_empty
    assert der.contains(0.9)
    assert der.contains(0.6)
    assert not der.contains(0.4)
    assert not der.contains(0.95)


def test_derive_collapsed_interval():
    der = derive(0.01, 0.0, 0.0)
    assert der.alpha_minus == 0.0
    assert der.alpha_plus == 1.0
    assert der.interval_empty
    assert not der.contains(0.5)


def test_remark_threshold_fixture():
    # (1 - sqrt(0.9))^2 = 0.0026334...; lambda*eta0 = 5e-6 passes
    thresh = (1.0 - math.sqrt(0.9)) ** 2
    assert thresh == pytest.approx(0.0026334, abs=1e-7)
    assert derive(0.01, 0.9, 5e-4).remark_ok  # lambda*eta0 = 5e-6
    assert not derive(0.01, 0.9, 1.0).remark_ok  # lambda*eta0 = 0.01 > threshold


def test_derive_complex_endpoints():
    # large lambda*eta0 pushes the discriminant negative
    der = derive(0.1, 0.9, 0.5)  # delta = 0.01 - 0.19*... < 0
    assert der.delta_lambda < 0
    assert der.complex_endpoints
    assert der.interval_empty
    assert not der.remark_ok
    assert not der.contains(0.9)


def test_interval_endpoints_ordered_when_remark_ok():
    for gamma in (0.0, 0.3, 0.5, 0.9, 0.99):
        for le in (0.0, 1e-5, 1e-4):
            der = derive(0.01, gamma, le / 0.01)
            if der.remark_ok:
                assert der.alpha_L < der.alpha_minus <= der.alpha_plus < 1.0 + 1e-15


def test_beta_in_unit_interval_on_dense_sample():
    der = derive(0.01, 0.9, 0.1)
    assert der.remark_ok
    lo = der.alpha_L
    for branch in ((lo, der.alpha_minus), (der.alpha_plus, 1.0)):
        a0, a1 = branch
        if a0 >= a1:
            continue
        for a in np.linspace(a0 + 1e-9, a1 - 1e-12, 500):
            if der.contains(a):
                assert 0.0 < der.beta(a) <= 1.0 + 1e-12, a


def test_schedule_first_eta():
    sched = schedule(ExpPPParams(0.01, 0.9, 0.0, 0.8), 5)
    assert len(sched.etas) == 6 and len(sched.lambdas) == 5  # etas runs to eta_T
    assert sched.etas[0] == pytest.approx(0.01 / 0.8, rel=1e-15)
    assert sched.etas[5] == pytest.approx(0.01 * 0.8 ** -11, rel=1e-15)
    assert sched.eta_prev == pytest.approx(0.8 * 0.01, rel=1e-15)
    assert sched.theta_prev_scale == 0.8
    assert all(a < b for a, b in zip(sched.etas, sched.etas[1:]))  # increasing


def test_schedule_alpha_equals_gamma_no_wd():
    sched = schedule(ExpPPParams(0.01, 0.9, 0.0, 0.9), 10)
    assert all(lam == 0.0 for lam in sched.lambdas)  # Xi(gamma) = 0 exactly


def test_schedule_identity_lambda_eta():
    sched = schedule(ExpPPParams(0.01, 0.9, 0.2, 0.85), 50)
    for t in range(50):
        assert sched.lambdas[t] * sched.etas[t] + sched.beta == pytest.approx(
            1.0, abs=1e-12)


def test_schedule_rejects_inadmissible_alpha():
    with pytest.raises(InadmissibleAlpha):
        schedule(ExpPPParams(0.01, 0.9, 0.0, 0.3), 5)
    with pytest.raises(InadmissibleAlpha):
        schedule(ExpPPParams(0.01, 0.9, 0.0, 0.95), 5)


@pytest.mark.parametrize("alpha, T", [(0.5, 600), (0.6, 700)])
def test_schedule_beyond_float_range_is_config_error(alpha, T):
    assert derive(0.01, 0.9, 0.0).contains(alpha)
    with pytest.raises(ConfigError, match=f"alpha {alpha} with {T} steps"):
        schedule(ExpPPParams(0.01, 0.9, 0.0, alpha), T)


def test_schedule_checks_the_rate_after_the_last_step():
    # etas ends at eta_T, which step T-1 hands on as its next rate
    def finite(t):
        try:
            return math.isfinite(0.01 * 0.5 ** (-2 * t - 1))
        except OverflowError:
            return False

    T = next(t for t in range(1, 2000) if not finite(t))
    params = ExpPPParams(0.01, 0.9, 0.0, 0.5)
    assert math.isfinite(schedule(params, T - 1).etas[-1])
    with pytest.raises(ConfigError):
        schedule(params, T)


def test_verify_requires_scale_invariant_net():
    tr, _ = blob_split()
    with pytest.raises(ConfigError):
        verify_equivalence(NetSpec((2, 4, 2)), tr,
                           ExpPPParams(0.01, 0.9, 0.0, 0.9), 5)


def test_verify_equivalence_small():
    tr, _ = blob_split()
    rep = verify_equivalence(si_spec(), tr, ExpPPParams(0.01, 0.9, 0.0, 0.8),
                             T=60, seed=0)
    assert rep.passed
    assert rep.max_rel_dev <= 1e-9
    assert rep.max_logit_diff <= 1e-10
    assert rep.max_grad_scale_err <= 1e-8


def test_verify_equivalence_with_weight_decay():
    tr, _ = blob_split()
    rep = verify_equivalence(si_spec(), tr, ExpPPParams(0.01, 0.9, 0.2, 0.85),
                             T=60, seed=0)
    assert rep.passed


def test_verify_first_step_shares_initialization():
    tr, _ = blob_split()
    rep = verify_equivalence(si_spec((2, 8, 2)), tr,
                             ExpPPParams(0.01, 0.9, 0.0, 0.8), T=1, seed=3)
    assert rep.steps[0][1] <= 1e-12  # one step in, already matched


def test_verify_steps_both_runs_as_one_stack(monkeypatch):
    from fragaudit import exppp

    calls = {}

    def spy(name):
        real = getattr(exppp, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(exppp, name, counted)

    for name in ("backward_batch", "sgdm_step", "forward_batch", "unflatten_params"):
        spy(name)
    tr, _ = blob_split()
    rep = verify_equivalence(si_spec(), tr, ExpPPParams(0.01, 0.9, 0.0, 0.8), T=7)
    assert rep.passed and len(rep.steps) == 7
    # the pass after each step but the last is the next step's backward_batch
    assert calls == {"backward_batch": 7, "sgdm_step": 7, "forward_batch": 1,
                     "unflatten_params": 2}


def test_verify_of_zero_steps_makes_no_train_pass(monkeypatch):
    from fragaudit import exppp

    def forbidden(*args, **kwargs):
        raise AssertionError("no train-set pass at T = 0")

    for name in ("backward_batch", "forward_batch"):
        monkeypatch.setattr(exppp, name, forbidden)
    tr, _ = blob_split()
    rep = verify_equivalence(si_spec(), tr, ExpPPParams(0.01, 0.9, 0.0, 0.8), T=0)
    assert rep.passed and rep.steps == []


def test_verify_divergence_stops_both_runs_at_the_last_finite_step(monkeypatch):
    from fragaudit import exppp

    tr, _ = blob_split()
    params, k = ExpPPParams(0.01, 0.9, 0.2, 0.85), 6
    clean = verify_equivalence(si_spec(), tr, params, T=k, seed=2)
    assert clean.passed and clean.diverged_at is None
    real = exppp.sgdm_step

    def sgdm_step(state, *args):
        new = real(state, *args)
        if state.t == k:
            new.diverged[1] = True  # only the matched run goes non-finite
        return new

    monkeypatch.setattr(exppp, "sgdm_step", sgdm_step)
    rep = verify_equivalence(si_spec(), tr, params, T=k + 5, seed=2)
    assert rep.diverged_at == k and not rep.passed
    assert rep.steps == clean.steps
    for got, want in ((rep.checkpoint_a, clean.checkpoint_a),
                      (rep.checkpoint_b, clean.checkpoint_b)):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.weights, want.weights))


def test_demo_alphas_inside_interval():
    der = derive(0.01, 0.9, 0.0)
    alphas = demo_alphas(der, 8)
    assert len(alphas) == 8
    assert all(der.contains(a) for a in alphas)
    assert sorted(alphas) == list(alphas)


def test_inflation_demo_param_norm_ratio():
    tr, te = blob_split()
    T = 60
    alpha = 0.9
    demo = inflation_demo(si_spec(), tr, te, ExpPPParams(0.01, 0.9, 0.0, alpha),
                          T, MeasureConfig(seed=1, sigma_mc_draws=5,
                                           sigma_iters=10), seed=0)
    assert demo["verify"]["passed"]
    assert demo["predictions_equal"]
    assert demo["test_error_a"] == demo["test_error_b"]
    assert demo["ratios"]["PARAM_NORM"] == pytest.approx(alpha ** (-T), rel=1e-6)
    assert demo["ratios"]["PARAMS"] == pytest.approx(1.0, abs=0.0)
    # magnitude-sensitive proxies inflate (orders of magnitude at T=200; the
    # acceptance suite checks that scale, this short run checks the direction)
    assert demo["ratios"]["PACBAYES_ORIG"] > 10.0
    assert demo["ratios"]["PATH_NORM"] > 100.0


def test_inflation_demo_prediction_mismatch_is_typed(monkeypatch):
    from fragaudit import exppp

    tr, te = blob_split()
    real_predict = exppp.predict
    test_calls = []

    def predict_flipping_second_test_pass(spec, ckpt, x):
        pred = real_predict(spec, ckpt, x)
        if x is te.features:
            test_calls.append(1)
            if len(test_calls) == 2:
                return 1 - pred
        return pred

    monkeypatch.setattr(exppp, "predict", predict_flipping_second_test_pass)
    monkeypatch.setattr(exppp, "compute_all", lambda *a, **k: MeasureSet())
    with pytest.raises(PredictionMismatch):
        inflation_demo(si_spec(), tr, te, ExpPPParams(0.01, 0.9, 0.0, 0.9), 2, seed=0)
