"""Optimizer update fixtures, stop rules, traces, resume, sweeps."""

import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from fragaudit import optim, workers
from fragaudit.data import split_train_test, synth_blobs
from fragaudit.errors import ConfigError, IncompatibleCheckpoint, LogDomainError, \
    NormalizationSingularity, SlopeUndefined
from fragaudit.net import NetSpec
from fragaudit.optim import Hyperparams, OptState, SweepConfig, adam_step, resume, \
    sgdm_step, sweep, train
from fragaudit.records import H_FIELDS, RunRecord, TrainTrace, detect_T_int, \
    post_interp_slope
from fragaudit.rng import Rng


def scalar_state(theta, lr):
    return OptState.fresh(np.array([theta]), lr)


def test_sgdm_hand_iteration_fixture():
    # L = 0.25 * theta^2, eta=0.1, gamma=0.9, lambda=0, theta0 = theta_{-1} = 1
    s = scalar_state(1.0, 0.1)
    s = sgdm_step(s, np.array([0.5 * s.theta_curr[0]]), 0.9, 0.0, 0.1)
    assert s.theta_curr[0] == pytest.approx(0.95, abs=0)
    s = sgdm_step(s, np.array([0.5 * s.theta_curr[0]]), 0.9, 0.0, 0.1)
    assert s.theta_curr[0] == pytest.approx(0.8575, abs=1e-15)


def test_sgdm_reduces_to_plain_gd():
    s = scalar_state(2.0, 0.5)
    s = sgdm_step(s, np.array([3.0]), 0.0, 0.0, 0.5)
    assert s.theta_curr[0] == 2.0 - 0.5 * 3.0


def test_sgdm_pure_decay_with_momentum():
    lam, eta = 0.3, 0.1
    s = scalar_state(4.0, eta)
    s = sgdm_step(s, np.array([0.0]), 0.9, lam, eta)
    assert s.theta_curr[0] == pytest.approx((1 - lam * eta) * 4.0, abs=1e-15)


def test_sgdm_matches_raw_formula_reference():
    # reference: evaluate the displayed update term by term on random scalars
    rng = Rng(99)
    theta, theta_prev = rng.gaussian(), rng.gaussian()
    eta, eta_prev = 0.05, 0.02
    state = OptState(np.array([theta]), np.array([theta_prev]), eta, eta_prev, 0)
    for step in range(50):
        g = rng.gaussian()
        gamma, lam = 0.9, 0.01
        momentum_term = gamma * (state.theta_curr[0] - state.theta_prev[0]) / state.eta_prev
        force = momentum_term - (g + lam * state.theta_curr[0])
        expected = state.theta_curr[0] + state.eta_curr * force
        state = sgdm_step(state, np.array([g]), gamma, lam, eta)
        assert abs(state.theta_curr[0] - expected) <= 1e-14 * max(1.0, abs(expected))


def test_sgdm_buffer_rotation():
    s = OptState(np.array([1.0]), np.array([0.5]), 0.1, 0.2, 3)
    out = sgdm_step(s, np.array([0.0]), 0.0, 0.0, 0.7)
    assert out.theta_prev[0] == 1.0
    assert out.eta_prev == 0.1
    assert out.eta_curr == 0.7
    assert out.t == 4


def test_adam_zero_gradient_is_identity():
    s = scalar_state(1.5, 0.1)
    for _ in range(5):
        s = adam_step(s, np.array([0.0]), 0.1)
    assert s.theta_curr[0] == 1.5


def test_adam_first_step_sign_of_gradient():
    eps = 1e-8
    for g in (2.0, -0.3):
        s = scalar_state(0.0, 0.1)
        s = adam_step(s, np.array([g]), 0.1, 0.0, 0.0, eps)
        expected = -0.1 * g / (abs(g) + eps)
        assert s.theta_curr[0] == pytest.approx(expected, rel=1e-15)


def test_adam_deterministic():
    def run():
        s = scalar_state(1.0, 0.01)
        rng = Rng(5)
        for _ in range(20):
            s = adam_step(s, np.array([rng.gaussian()]), 0.01)
        return s.theta_curr[0]

    assert run() == run()


@pytest.mark.parametrize("optimizer", ["sgdm", "adam"])
def test_stacked_steps_equal_one_run_steps_per_row(optimizer):
    gen = np.random.default_rng(4)
    K, P = 4, 7
    theta, prev = gen.standard_normal((K, P)), gen.standard_normal((K, P))
    lr = np.array([[0.1], [0.02], [0.5], [0.003]])
    wd = np.array([[0.0], [1e-3], [0.2], [0.05]])
    stacked = OptState(theta, prev, lr, lr * 0.7, 0, np.zeros((K, P)), np.zeros((K, P)))
    singles = [OptState(theta[k].copy(), prev[k].copy(), lr[k, 0], lr[k, 0] * 0.7, 0,
                        np.zeros(P), np.zeros(P)) for k in range(K)]
    for _ in range(4):
        grad = gen.standard_normal((K, P))
        if optimizer == "sgdm":
            stacked = sgdm_step(stacked, grad, 0.9, wd, lr * 1.5)
            singles = [sgdm_step(s, grad[k], 0.9, wd[k, 0], lr[k, 0] * 1.5)
                       for k, s in enumerate(singles)]
        else:
            stacked = adam_step(stacked, grad, lr, 0.8, 0.99, 1e-6)
            singles = [adam_step(s, grad[k], lr[k, 0], 0.8, 0.99, 1e-6)
                       for k, s in enumerate(singles)]
        assert not stacked.diverged.any()
        for k, s in enumerate(singles):
            for name in ("theta_curr", "theta_prev", "adam_m", "adam_v"):
                assert np.array_equal(getattr(stacked, name)[k], getattr(s, name))
            assert stacked.eta_curr[k, 0] == s.eta_curr
            assert stacked.eta_prev[k, 0] == s.eta_prev
            assert stacked.t == s.t


@pytest.mark.parametrize("optimizer", ["sgdm", "adam"])
def test_stacked_step_marks_only_non_finite_rows(optimizer):
    grad = np.zeros((3, 4))
    grad[1, 2] = np.inf

    def step(state, g):
        if optimizer == "sgdm":
            return sgdm_step(state, g, 0.9, 0.0, 0.1)
        return adam_step(state, g, 0.1)

    out = step(OptState.fresh(np.ones((3, 4)), np.full((3, 1), 0.1)), grad)
    assert out.diverged.tolist() == [False, True, False]
    assert np.isfinite(out.theta_curr[[0, 2]]).all()


def test_detect_t_int_fixtures():
    def trace_with(accs):
        t = TrainTrace()
        for i, a in enumerate(accs, start=1):
            t.append(i, a, 0.5, 0.5)
        return t

    assert detect_T_int(trace_with([0.8, 0.95, 1.0, 1.0])) == 3
    assert detect_T_int(trace_with([0.8, 0.9, 0.99])) is None
    assert detect_T_int(trace_with([1.0, 0.9, 1.0])) == 1


def _trace_with_measure(epochs, values, accs=None):
    t = TrainTrace()
    for i, (e, v) in enumerate(zip(epochs, values)):
        acc = 1.0 if accs is None else accs[i]
        t.append(e, acc, 0.1, 0.1, {"M": v})
    return t


def test_slope_exact_power_law():
    # accuracy hits 1.0 at epoch 1; measure = 3 t^2 afterwards
    epochs = [1, 2, 3, 5, 9, 17]
    vals = [3.0 * e * e for e in epochs]
    t = _trace_with_measure(epochs, vals)
    assert post_interp_slope(t, "M") == pytest.approx(2.0, abs=1e-9)


def test_slope_constant_measure_is_zero():
    t = _trace_with_measure([1, 2, 3, 4], [7.0] * 4)
    assert post_interp_slope(t, "M") == pytest.approx(0.0, abs=1e-12)


def test_slope_collinear_fixture():
    # points strictly after T_int=1: (10,10), (20,20), (40,40) -> slope 1
    t = _trace_with_measure([1, 10, 20, 40], [1.0, 10.0, 20.0, 40.0])
    assert post_interp_slope(t, "M") == pytest.approx(1.0, abs=1e-12)


def test_slope_undefined_without_interpolation():
    t = _trace_with_measure([1, 2, 3], [1.0, 2.0, 3.0], accs=[0.5, 0.6, 0.7])
    with pytest.raises(SlopeUndefined):
        post_interp_slope(t, "M")


def test_slope_undefined_with_one_point():
    t = _trace_with_measure([1, 2], [1.0, 2.0])
    with pytest.raises(SlopeUndefined):
        post_interp_slope(t, "M")


def test_slope_log_domain_error():
    t = _trace_with_measure([1, 2, 3, 4], [1.0, 2.0, -1.0, 3.0])
    with pytest.raises(LogDomainError):
        post_interp_slope(t, "M")


def _blob_task(n=64, separation=6.0, seed=3):
    full = synth_blobs(n * 2, 2, 2, separation, seed)
    from fragaudit.data import split_train_test

    return split_train_test(full, n, seed + 1)


def test_train_reaches_interpolation_on_separable_blobs():
    tr, te = _blob_task()
    spec = NetSpec((2, 8, 2))
    H = Hyperparams(lr=0.1, max_epochs=200, dataset="blobs", arch="fcn")
    res = train(spec, tr, te, H, seed=0)
    assert res.record.t_int is not None and res.record.t_int <= 200
    assert res.record.status == "ok"


def test_train_deterministic():
    tr, te = _blob_task(n=32)
    spec = NetSpec((2, 6, 2))
    H = Hyperparams(lr=0.1, max_epochs=50, dataset="blobs", arch="fcn")
    a = train(spec, tr, te, H, seed=4)
    b = train(spec, tr, te, H, seed=4)
    assert a.record.to_dict() == b.record.to_dict()
    for wa, wb in zip(a.checkpoint.weights, b.checkpoint.weights):
        assert np.array_equal(wa, wb)


def test_train_seed_changes_init_not_config():
    tr, te = _blob_task(n=32)
    spec = NetSpec((2, 6, 2))
    H = Hyperparams(lr=0.1, max_epochs=5, stop_rule="max_epochs",
                    dataset="blobs", arch="fcn")
    a = train(spec, tr, te, H, seed=1)
    b = train(spec, tr, te, H, seed=2)
    assert a.record.h_key() == b.record.h_key()
    assert not np.array_equal(a.checkpoint.init_weights[0], b.checkpoint.init_weights[0])


def _pinned_hyperparams():
    return Hyperparams(optimizer="adam", lr=0.0032, momentum=0.5, weight_decay=1e-4,
                       batch_size=32, stop_rule="train_ce_below", stop_threshold=0.02,
                       max_epochs=77, n_train=64, dataset="blobs", arch="fcn")


def test_identity_fields_are_fields_of_records_and_hyperparams():
    for cls in (RunRecord, Hyperparams):
        assert set(H_FIELDS) <= {f.name for f in fields(cls)}
    assert tuple(_pinned_hyperparams().h_fields()) == H_FIELDS


def test_record_of_a_run_carries_its_config_identity():
    H = _pinned_hyperparams()
    rec = optim._record(H, "rid", 3, "ok")
    assert rec.h_key() == tuple(H.h_fields()[name] for name in H_FIELDS)
    assert (rec.group, rec.dataset, rec.arch, rec.seed) == ("blobs/fcn", "blobs", "fcn", 3)


def test_run_ids_are_pinned():
    # a run id names files in existing output trees: it must never change
    H = _pinned_hyperparams()
    assert optim.make_run_id(H, 3) == "4e6a8750301314e9"
    assert optim.make_run_id(H, 3, "abc") == "b20636fd309eecc6"


def test_stop_rule_ce_threshold():
    tr, te = _blob_task(n=32)
    spec = NetSpec((2, 8, 2))
    H = Hyperparams(lr=0.1, stop_rule="train_ce_below", stop_threshold=0.01,
                    max_epochs=500, dataset="blobs", arch="fcn")
    res = train(spec, tr, te, H, seed=0)
    if res.record.status == "ok":
        # stopped exactly at the first epoch with CE below the threshold
        assert res.trace.train_ce[-1] < 0.01
        assert all(ce >= 0.01 for ce in res.trace.train_ce[:-1])


def test_resume_zero_epochs_keeps_checkpoint():
    tr, te = _blob_task(n=32)
    spec = NetSpec((2, 6, 2))
    H = Hyperparams(lr=0.1, max_epochs=20, stop_rule="max_epochs",
                    dataset="blobs", arch="fcn")
    parent = train(spec, tr, te, H, seed=7)
    H0 = Hyperparams(lr=0.1, max_epochs=0, stop_rule="max_epochs",
                     dataset="blobs", arch="fcn")
    res = resume(spec, parent.checkpoint, tr, te, H0, seed=8)
    for wa, wb in zip(res.checkpoint.weights, parent.checkpoint.weights):
        assert np.array_equal(wa, wb)


def test_resume_links_parent_and_new_id():
    tr, te = _blob_task(n=32)
    spec = NetSpec((2, 6, 2))
    H = Hyperparams(lr=0.1, max_epochs=10, stop_rule="max_epochs",
                    dataset="blobs", arch="fcn")
    parent = train(spec, tr, te, H, seed=7)
    H2 = Hyperparams(optimizer="adam", lr=0.01, max_epochs=5,
                     stop_rule="max_epochs", dataset="blobs", arch="fcn")
    res = resume(spec, parent.checkpoint, tr, te, H2, seed=9)
    assert res.record.run_id != parent.record.run_id
    assert res.record.parent_run_id == parent.record.run_id
    assert res.trace.resumed_from == parent.record.run_id
    assert res.trace.epochs[0] == parent.checkpoint.meta["epoch"] + 1


def test_resume_rejects_wrong_spec():
    tr, te = _blob_task(n=32)
    spec = NetSpec((2, 6, 2))
    other = NetSpec((2, 7, 2))
    H = Hyperparams(lr=0.1, max_epochs=5, stop_rule="max_epochs",
                    dataset="blobs", arch="fcn")
    parent = train(spec, tr, te, H, seed=7)
    with pytest.raises(IncompatibleCheckpoint):
        resume(other, parent.checkpoint, tr, te, H, seed=8)


def test_sweep_product_count_and_determinism():
    tr, te = _blob_task(n=32)
    spec = NetSpec((2, 4, 2))
    cfg = SweepConfig(lrs=(0.05, 0.1), seeds=(0, 1), max_epochs=3,
                      stop_rules=(("max_epochs", 0.01),),
                      dataset="blobs", arch="fcn")
    a = sweep(spec, tr, te, cfg)
    b = sweep(spec, tr, te, cfg)
    assert len(a) == 4
    assert [r.record.to_dict() for r in a] == [r.record.to_dict() for r in b]
    assert [r.record.run_id for r in a] == sorted(r.record.run_id for r in a)


def _workers(monkeypatch, n):
    monkeypatch.setattr(workers, "cpu_count", lambda: n)


def test_sweep_jobs_parallel_matches_sequential(monkeypatch, pools_made):
    tr, te = _blob_task(n=32)
    spec = NetSpec((2, 4, 2))
    cfg = SweepConfig(lrs=(0.05, 0.1), optimizers=("sgdm", "adam"), seeds=(0, 1),
                      train_sizes=(16, 32), max_epochs=3,
                      stop_rules=(("max_epochs", 0.01),),
                      dataset="blobs", arch="fcn")
    _workers(monkeypatch, 3)
    seq = sweep(spec, tr, te, cfg, jobs=1)
    par = sweep(spec, tr, te, cfg, jobs=4)
    assert pools_made == [3]  # four stacks, capped by the CPU count
    assert [r.record.to_dict() for r in seq] == [r.record.to_dict() for r in par]
    assert all(np.array_equal(a, b) for rs, rp in zip(seq, par)
               for a, b in zip(rs.checkpoint.weights, rp.checkpoint.weights))


def test_sweep_pool_size_is_stacks_capped_by_cpus_and_jobs(monkeypatch, pools_made):
    tr, te = _blob_task(n=32)
    cfg = SweepConfig(lrs=(0.05,), optimizers=("sgdm", "adam"), seeds=(0,),
                      train_sizes=(16, 32), max_epochs=2,
                      stop_rules=(("max_epochs", 0.01),), dataset="blobs", arch="fcn")
    runs = []
    for cpus, jobs in ((3, None), (8, None), (8, 2), (8, 9)):
        _workers(monkeypatch, cpus)
        runs.append(sweep(NetSpec((2, 4, 2)), tr, te, cfg, jobs=jobs))
    assert pools_made == [3, 4, 2, 4]  # four stacks
    assert all([r.record.to_dict() for r in rs] == [r.record.to_dict() for r in runs[0]]
               for rs in runs)


def test_sweep_jobs_1_one_stack_or_a_running_thread_starts_no_process(monkeypatch,
                                                                       pools_made):
    tr, te = _blob_task(n=16)
    spec = NetSpec((2, 4, 2))
    two_stacks = replace(_tiny_sweep_config(), optimizers=("sgdm", "adam"))
    _workers(monkeypatch, 2)
    first = sweep(spec, tr, te, two_stacks, jobs=1)
    sweep(spec, tr, te, _tiny_sweep_config(), jobs=2)
    # fork is unsafe while another thread may hold a lock
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        again = sweep(spec, tr, te, two_stacks, jobs=2)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert pools_made == []
    assert [r.record.to_dict() for r in first] == [r.record.to_dict() for r in again]


def test_sweep_full_protocol_grid_shape():
    # 7 lrs x 2 optimizers x 2 stop rules x 8 seeds = 224 records per group
    tr, te = _blob_task(n=16)
    spec = NetSpec((2, 3, 2))
    cfg = SweepConfig(
        lrs=(0.001, 0.0032, 0.0063, 0.01, 0.0158, 0.05, 0.1),
        optimizers=("adam", "sgdm"),
        stop_rules=(("train_acc_100", 0.01), ("train_ce_below", 0.01)),
        seeds=tuple(range(8)),
        max_epochs=2,
        dataset="blobs", arch="fcn",
    )
    results = sweep(spec, tr, te, cfg)
    assert len(results) == 224
    assert len({r.record.run_id for r in results}) == 224


def _tiny_sweep_config():
    return SweepConfig(lrs=(0.05,), seeds=(0, 1), max_epochs=2,
                       stop_rules=(("max_epochs", 0.01),),
                       dataset="blobs", arch="fcn")


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_propagates_programming_errors(monkeypatch, pools_made, jobs, children_left):
    tr, te = _blob_task(n=16)
    real = optim._new_run

    def broken(spec, H, *args):
        if H.optimizer == "adam":  # the second stack
            raise TypeError("injected bug")
        return real(spec, H, *args)

    monkeypatch.setattr(optim, "_new_run", broken)
    _workers(monkeypatch, 2)
    seen = []
    cfg = replace(_tiny_sweep_config(), optimizers=("sgdm", "adam"))
    with pytest.raises(TypeError, match="injected bug"):
        sweep(NetSpec((2, 4, 2)), tr, te, cfg, on_result=seen.append, jobs=jobs)
    # the first stack's results reach on_result before the error, as in-process
    assert [(r.record.optimizer, r.record.seed) for r in seen] == \
        [("sgdm", 0), ("sgdm", 1)]
    assert pools_made == ([2] if jobs == 2 else [])
    assert not children_left()


def test_sweep_records_toolkit_errors_per_run(monkeypatch):
    tr, te = _blob_task(n=16)

    def singular(*args, **kwargs):
        raise NormalizationSingularity("injected")

    monkeypatch.setattr(optim, "init_checkpoint", singular)
    results = sweep(NetSpec((2, 4, 2)), tr, te, _tiny_sweep_config())
    assert [r.record.status for r in results] == ["error:NormalizationSingularity"] * 2
    assert all(r.checkpoint is None for r in results)


def test_labels_wider_than_net_outputs_raise_config_error():
    tr, te = split_train_test(synth_blobs(96, 2, 3, 6.0, 5), 48, 6)
    spec = NetSpec((2, 4, 2))
    H = Hyperparams(max_epochs=2, stop_rule="max_epochs")
    with pytest.raises(ConfigError, match="does not fit"):
        train(spec, tr, te, H, seed=0)
    with pytest.raises(ConfigError, match="does not fit"):
        sweep(spec, tr, te, _tiny_sweep_config())


def test_sweep_stack_sizes_follow_the_activation_budget():
    from types import SimpleNamespace

    cfg = SweepConfig(lrs=(0.1, 0.2, 0.3), optimizers=("adam", "sgdm"),
                      seeds=(0, 1, 2), train_sizes=(64, 128))
    subsets = {64: SimpleNamespace(n=64), 128: SimpleNamespace(n=128)}
    stacks = optim._sweep_stacks(NetSpec((8, 16, 2), bias_enabled=True), cfg, subsets)
    # 2**14 // (128 rows x 16 wide) = 8 runs; 2**14 // (64 x 16) = 16 runs
    assert [(n, len(items)) for n, items in stacks] == \
        [(64, 9), (128, 8), (128, 1), (64, 9), (128, 8), (128, 1)]
    for n, items in stacks:
        assert {(it[4], it[1]) for it in items} == {(n, items[0][1])}
    grid = list(optim.sweep_grid(cfg))
    assert sorted(it for _, items in stacks for it in items) == sorted(grid)
    for _, items in stacks:
        assert items == sorted(items, key=grid.index)
    # a 64-row minibatch of 784-pixel images: one run per stack
    images = SweepConfig(lrs=(0.1, 0.2), seeds=(0, 1), batch_size=64)
    spec = NetSpec((784, 32, 32, 10), normalize_hidden=True, frozen_readout=True)
    assert [len(items) for _, items in
            optim._sweep_stacks(spec, images, {0: SimpleNamespace(n=256)})] == [1] * 4


def test_full_batch_epoch_runs_one_train_forward(monkeypatch):
    from fragaudit import net

    tr, te = split_train_test(synth_blobs(64, 2, 2, 6.0, 3), 40, 4)
    rows = []
    real = net.forward_batch

    def counting(spec, weights, biases, X, *args, **kwargs):
        rows.append(X.shape[-2])
        return real(spec, weights, biases, X, *args, **kwargs)

    monkeypatch.setattr(net, "forward_batch", counting)
    H = Hyperparams(lr=0.05, max_epochs=7, stop_rule="max_epochs")
    res = train(NetSpec((2, 6, 2), bias_enabled=True), tr, te, H, seed=0)
    assert len(res.trace.epochs) == 7
    # the first gradient, then one pass per epoch that also gives the next gradient
    assert rows.count(40) == 7 + 1 and rows.count(24) == 7
