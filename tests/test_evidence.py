"""Evidence module: bound fixtures, Monte Carlo estimator, rejection sampler."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from fragaudit import evidence, workers
from fragaudit.data import Dataset, synth_blobs
from fragaudit.errors import BoundUndefined, ConfigError, InvalidDataset, \
    RejectionExhausted
from fragaudit.evidence import BoundInput, ConsistencyEstimate, EvidenceTask, \
    bound_vs_error_experiment, draw_checkpoint, estimate_consistency_mass, \
    gibbs_sample_consistent, ml_pacbayes_bound, prior_predictions, wilson_interval
from fragaudit.net import NetSpec, forward_batch, init_checkpoint, init_weights, predict
from fragaudit.rng import Rng, child_seeds, states_from_seeds


def test_bound_fixture_half():
    out = ml_pacbayes_bound(BoundInput(n=2, p_hat=1.0, delta_conf=1.0, gamma_conf=1.0))
    assert out.rhs == pytest.approx(math.log(2.0), abs=1e-15)
    assert out.epsilon_bound == pytest.approx(0.5, abs=1e-12)


def test_bound_fixture_uniform_labelings():
    # frozen expected value computed independently via expm1
    rhs_ref = (10.0 * math.log(2.0) + math.log(10.0)) / 9.0
    eps_ref = -math.expm1(-rhs_ref)  # 0.6415644177815567
    out = ml_pacbayes_bound(BoundInput(n=10, p_hat=2.0 ** -10, delta_conf=1.0,
                                       gamma_conf=1.0))
    assert out.epsilon_bound == pytest.approx(eps_ref, abs=1e-12)
    assert out.epsilon_bound == pytest.approx(0.6415644177815567, abs=1e-12)
    assert out.vacuous


def test_bound_vanishes_for_large_n():
    eps = [ml_pacbayes_bound(BoundInput(n=n, p_hat=1.0)).epsilon_bound
           for n in (10, 100, 10000, 10 ** 8)]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    assert eps[-1] < 1e-6


def test_bound_monotonicity_finite_differences():
    base = ml_pacbayes_bound(BoundInput(n=50, p_hat=0.01)).epsilon_bound
    assert ml_pacbayes_bound(BoundInput(n=50, p_hat=0.009)).epsilon_bound > base
    assert ml_pacbayes_bound(BoundInput(n=51, p_hat=0.01)).epsilon_bound < base


def test_bound_rejects_bad_inputs():
    with pytest.raises(BoundUndefined):
        ml_pacbayes_bound(BoundInput(n=5, p_hat=None))
    with pytest.raises(BoundUndefined):
        ml_pacbayes_bound(BoundInput(n=5, p_hat=0.0))
    with pytest.raises(ConfigError):
        BoundInput(n=1, p_hat=0.5)
    with pytest.raises(ConfigError):
        BoundInput(n=5, p_hat=0.5, delta_conf=0.0)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0


def _single_point_task(y=1):
    X = np.array([[0.7, 0.2]])
    return Dataset(X, np.array([y], dtype=np.int64), 2)


def test_estimator_single_example_near_half():
    ds = _single_point_task(y=1)
    spec = NetSpec((2, 8, 2))
    est = estimate_consistency_mass(spec, ds, draws=10000, seed=3)
    se = math.sqrt(0.25 / 10000)
    assert abs(est.p_hat - 0.5) <= 4 * se
    assert est.wilson_lo < est.p_hat < est.wilson_hi


def test_estimator_frozen_constant_net_hits_everything(monkeypatch):
    spec = NetSpec((2, 3, 2), frozen_readout=True)
    readout = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    monkeypatch.setattr(evidence, "_readout", lambda spec, seed: readout)
    ds = Dataset(np.array([[0.2, 0.8], [0.5, 0.1]]), np.zeros(2, dtype=np.int64), 2)
    est = estimate_consistency_mass(spec, ds, draws=500, seed=4)
    assert est.hits == 500
    assert est.p_hat == 1.0


def test_estimator_deterministic_and_shard_invariant(monkeypatch):
    ds = synth_blobs(8, 2, 2, 4.0, seed=5)
    spec = NetSpec((2, 4, 2))
    a = estimate_consistency_mass(spec, ds, draws=3000, seed=6)
    b = estimate_consistency_mass(spec, ds, draws=3000, seed=6)
    monkeypatch.setattr(evidence, "_MASS_SHARD", 7)
    c = estimate_consistency_mass(spec, ds, draws=3000, seed=6)
    assert a.hits == b.hits == c.hits


def test_estimator_requires_binary():
    ds = synth_blobs(9, 2, 3, 4.0, seed=7)
    with pytest.raises(InvalidDataset):
        estimate_consistency_mass(NetSpec((2, 4, 3)), ds, draws=10, seed=8)


def test_zero_hits_surfaces_rule_of_three():
    # conflicting labels on duplicate inputs: the consistency set is empty
    X = np.array([[0.5, 0.5], [0.5, 0.5]])
    ds = Dataset(X, np.array([0, 1], dtype=np.int64), 2)
    spec = NetSpec((2, 4, 2))
    est = estimate_consistency_mass(spec, ds, draws=300, seed=9)
    assert est.hits == 0
    assert est.p_hat is None
    assert est.rule_of_three_upper == pytest.approx(3.0 / 300)


def test_vectorized_draws_match_scalar_checkpoints():
    # every draw of a shard against its materialized checkpoint
    seed = 11
    seeds = child_seeds(seed, 0, 256)
    for spec, dim in [(NetSpec((2, 5, 2)), 2), (NetSpec((3, 6, 2)), 3),
                      (NetSpec((2, 5, 4, 2), frozen_readout=True), 2),
                      (NetSpec((2, 5, 3)), 2)]:
        # the origin gives every class the logit 0: a tie argmax resolves to 0
        X = np.vstack([synth_blobs(16, dim, 2, 4.0, seed=10).features, np.zeros(dim)])
        ro = Rng(12).gaussians(8).reshape(2, 4) if spec.frozen_readout else None
        preds = prior_predictions(spec, X, seeds, ro)
        assert preds.shape == (256, 17) and not preds[:, -1].any()
        for k in range(256):
            ck = draw_checkpoint(spec, seed, k, ro)
            direct = forward_batch(spec, ck.weights, ck.biases, X).argmax(axis=1)
            assert np.array_equal(direct, preds[k]), (spec.layer_dims, k)


PRIOR_SPECS = [NetSpec((2, 5, 2)), NetSpec((3, 6, 2), bias_enabled=True),
               NetSpec((2, 5, 4, 2), frozen_readout=True)]


def _init_oracle(spec, stream, layers):
    """The layers drawn one at a time from one stream, without init_weights."""
    dims = spec.layer_dims
    return [stream.gaussians(dims[i + 1] * dims[i]).reshape(dims[i + 1], dims[i])
            * math.sqrt(2.0 / dims[i]) for i in layers]


@pytest.mark.parametrize("spec", PRIOR_SPECS, ids=lambda s: str(list(s.layer_dims)))
def test_one_prior_matches_the_per_stream_oracle(spec):
    seeds = child_seeds(21, 0, 5)
    layers = range(spec.num_layers)
    drawn = init_weights(spec, states_from_seeds(seeds), layers)
    assert [w.shape for w in drawn] == [
        (5, spec.layer_dims[i + 1], spec.layer_dims[i]) for i in layers]
    for k, seed in enumerate(seeds):
        oracle = _init_oracle(spec, Rng(int(seed)), layers)
        for w, want in zip(drawn, oracle):
            assert np.array_equal(w[k], want)
        if k == 0:
            ck = init_checkpoint(spec, Rng(int(seed)))
            for got in (ck.weights, ck.init_weights):
                assert all(np.array_equal(a, b) for a, b in zip(got, oracle))
            assert len(ck.biases) == (spec.num_layers if spec.bias_enabled else 0)
            assert not any(b.any() for b in ck.biases)
    ro = evidence._readout(spec, 33)
    if not spec.frozen_readout:
        assert ro is None
        return
    stream = Rng(33).spawn_key("frozen-readout")
    assert np.array_equal(ro, _init_oracle(spec, stream, [spec.num_layers - 1])[0])


def test_frozen_readout_gibbs_sample_is_its_prior_row():
    spec = NetSpec((2, 5, 4, 2), frozen_readout=True)
    ds = _single_point_task(y=1)
    probes = np.vstack([ds.features, synth_blobs(32, 2, 2, 4.0, seed=3).features])
    ck, attempts = gibbs_sample_consistent(spec, ds, max_attempts=1000, seed=17)
    root = Rng(17).spawn_key("gibbs").seed
    readout = evidence._readout(spec, root)
    assert np.array_equal(ck.weights[-1], readout)
    assert np.array_equal(ck.init_weights[-1], readout)
    row = prior_predictions(spec, probes, child_seeds(root, attempts - 1, attempts),
                            readout)[0]
    assert row[0] == 1
    assert np.array_equal(predict(spec, ck, probes), row)


def test_gibbs_sample_is_consistent():
    ds = _single_point_task(y=0)
    spec = NetSpec((2, 8, 2))
    ck, attempts = gibbs_sample_consistent(spec, ds, max_attempts=1000, seed=12)
    preds = forward_batch(spec, ck.weights, ck.biases, ds.features).argmax(axis=1)
    assert np.array_equal(preds, ds.labels)
    assert attempts >= 1


def test_gibbs_exhausts_on_impossible_dataset():
    X = np.array([[0.5, 0.5], [0.5, 0.5]])
    ds = Dataset(X, np.array([0, 1], dtype=np.int64), 2)
    spec = NetSpec((2, 4, 2))
    with pytest.raises(RejectionExhausted):
        gibbs_sample_consistent(spec, ds, max_attempts=500, seed=13)


def test_gibbs_geometric_attempts_near_two():
    ds = _single_point_task(y=1)  # p ~ 0.5
    spec = NetSpec((2, 8, 2))
    attempts = [gibbs_sample_consistent(spec, ds, 1000, seed=s)[1]
                for s in range(200)]
    assert 1.6 <= float(np.mean(attempts)) <= 2.6


def test_gibbs_distribution_matches_restricted_prior():
    # finite fixture: patterns of random nets on 3 probe points, conditioned on
    # fitting one labeled point; oracle = direct prior filtering
    spec = NetSpec((2, 3, 2))
    S = _single_point_task(y=1)
    probes = np.array([[0.9, 0.1], [0.1, 0.9], [0.4, 0.6]])
    oracle_seeds = child_seeds(314159, 0, 60000)
    fit = prior_predictions(spec, S.features, oracle_seeds)[:, 0] == 1
    patterns = prior_predictions(spec, probes, oracle_seeds)[fit]
    keys = patterns @ np.array([4, 2, 1])
    oracle_freq = np.bincount(keys, minlength=8) / len(keys)

    M = 400
    counts = np.zeros(8)
    for s in range(M):
        ck, _ = gibbs_sample_consistent(spec, S, 5000, seed=s)
        pred = forward_batch(spec, ck.weights, ck.biases, probes).argmax(axis=1)
        counts[int(pred @ np.array([4, 2, 1]))] += 1
    chi2 = 0.0
    dof = 0
    for k in range(8):
        expected = M * oracle_freq[k]
        if expected >= 5:
            chi2 += (counts[k] - expected) ** 2 / expected
            dof += 1
    assert dof >= 2
    assert chi2 <= 27.88  # chi^2 0.999 quantile at dof=9 (conservative)


def test_experiment_structure_and_determinism():
    spec = NetSpec((2, 4, 2))
    task = EvidenceTask(n_train=8, n_heldout=200, draws=3000, repetitions=3,
                        corruptions=(0.0,), max_attempts=20000, separation=4.0)
    a = bound_vs_error_experiment(spec, task, seed=14)
    b = bound_vs_error_experiment(spec, task, seed=14)
    assert a == b
    assert len(a["rows"]) == 3
    for row in a["rows"]:
        if row["status"] == "ok":
            assert row["bound"] is not None
            assert row["violation"] in (True, False)


def test_experiment_rejects_net_wider_than_task():
    task = EvidenceTask(n_train=8, n_heldout=50, draws=10, repetitions=1, dim=2)
    with pytest.raises(ConfigError):
        bound_vs_error_experiment(NetSpec((3, 6, 2)), task, seed=1)


def test_consistency_mass_rejects_dataset_of_other_width():
    ds = synth_blobs(20, 2, 2, 4.0, seed=1)
    with pytest.raises(ConfigError):
        estimate_consistency_mass(NetSpec((3, 6, 2)), ds, draws=10, seed=1)


def test_experiment_skips_failures_without_aborting():
    spec = NetSpec((2, 4, 2))
    # one Monte Carlo draw: zero hits are common, rows must still be recorded
    task = EvidenceTask(n_train=8, n_heldout=50, draws=1, repetitions=4,
                        corruptions=(0.5,), max_attempts=10)
    report = bound_vs_error_experiment(spec, task, seed=15)
    assert len(report["rows"]) == 4
    assert report["skipped"]["zero_hits"] + report["skipped"]["rejection_exhausted"] \
        + report["evaluated"] == 4


def _samplers():
    ds = synth_blobs(8, 2, 2, 4.0, seed=5)
    return ds, {
        "mass": lambda spec, data, n: estimate_consistency_mass(spec, data, n, seed=6),
        "gibbs": lambda spec, data, n: gibbs_sample_consistent(spec, data, n, seed=6),
    }


def test_gibbs_rejects_dataset_of_other_width_and_zero_attempts():
    ds, run = _samplers()
    with pytest.raises(ConfigError, match="dataset dim 2 does not match the net's "
                                          "input width 3"):
        run["gibbs"](NetSpec((3, 6, 2)), ds, 100)
    for sampler, unit in (("mass", "draw"), ("gibbs", "attempt")):
        with pytest.raises(ConfigError, match=f"need at least one {unit}"):
            run[sampler](NetSpec((2, 4, 2)), ds, 0)


def _workers(monkeypatch, n):
    monkeypatch.setattr(workers, "cpu_count", lambda: n)


def test_mass_hits_do_not_depend_on_the_worker_count(monkeypatch, pools_made):
    ds = synth_blobs(8, 2, 2, 6.0, seed=5)
    spec = NetSpec((2, 4, 2))
    monkeypatch.setattr(evidence, "_MASS_SHARD", 7)
    hits = []
    for n in (1, 2, 3):
        _workers(monkeypatch, n)
        hits.append(estimate_consistency_mass(spec, ds, draws=3000, seed=6).hits)
        assert multiprocessing.active_children() == []
    assert pools_made == [2, 3]
    assert hits[0] > 0 and hits == [hits[0]] * 3


def test_one_shard_or_a_running_thread_starts_no_process(monkeypatch, pools_made):
    _workers(monkeypatch, 2)
    ds = synth_blobs(8, 2, 2, 4.0, seed=5)
    spec = NetSpec((2, 4, 2))
    one = estimate_consistency_mass(spec, ds, draws=4096, seed=6)
    task = EvidenceTask(n_train=8, n_heldout=50, draws=4096, repetitions=1,
                        max_attempts=100)
    bound_vs_error_experiment(spec, task, seed=1)
    monkeypatch.setattr(evidence, "_MASS_SHARD", 512)
    # fork is unsafe while another thread may hold a lock
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        many = estimate_consistency_mass(spec, ds, draws=4096, seed=6)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert one.hits == many.hits
    assert pools_made == []


def test_worker_exception_reaches_the_parent_with_its_type(monkeypatch, pools_made):
    parent = os.getpid()
    real = evidence.prior_predictions

    def fail_in_worker(*args):
        if os.getpid() != parent:
            raise InvalidDataset("raised in a worker")
        return real(*args)

    monkeypatch.setattr(evidence, "prior_predictions", fail_in_worker)
    monkeypatch.setattr(evidence, "_MASS_SHARD", 1000)
    _workers(monkeypatch, 2)
    ds = synth_blobs(8, 2, 2, 4.0, seed=5)
    with pytest.raises(InvalidDataset, match="raised in a worker"):
        estimate_consistency_mass(NetSpec((2, 4, 2)), ds, draws=3000, seed=6)
    assert pools_made == [2]
    assert multiprocessing.active_children() == []


def test_repetition_error_in_a_worker_reaches_the_parent_with_its_type(monkeypatch,
                                                                      pools_made):
    parent = os.getpid()
    real = evidence.gibbs_sample_consistent

    def fail_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            raise InvalidDataset("raised in a repetition's worker")
        return real(*args, **kwargs)

    monkeypatch.setattr(evidence, "gibbs_sample_consistent", fail_in_worker)
    _workers(monkeypatch, 2)
    task = EvidenceTask(n_train=8, n_heldout=50, draws=3000, repetitions=3,
                        max_attempts=20000)
    with pytest.raises(InvalidDataset, match="raised in a repetition's worker"):
        bound_vs_error_experiment(NetSpec((2, 4, 2)), task, seed=14)
    assert pools_made == [2]
    assert multiprocessing.active_children() == []


def test_package_import_leaves_multiprocessing_unloaded(tmp_path):
    # a two-stack sweep with --jobs 1 trains in-process and loads no pool either
    cfg = {"out_dir": str(tmp_path / "out"), "net": {"layer_dims": [2, 4, 2]},
           "data": {"source": {"kind": "blobs", "n": 32, "dim": 2, "num_classes": 2,
                               "separation": 6.0, "seed": 1},
                    "split": {"n_train": 16, "seed": 2}},
           "sweep": {"lrs": [0.1], "optimizers": ["sgdm", "adam"], "max_epochs": 2}}
    cp = tmp_path / "config.json"
    cp.write_text(json.dumps(cfg))
    code = ("import sys, fragaudit.cli as cli\n"
            "print('multiprocessing' in sys.modules)\n"
            f"print(cli.main(['sweep', '--config', {str(cp)!r}, '--jobs', '1']))\n"
            "print('multiprocessing' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=60)
    first, summary, rc, last = out.stdout.splitlines()
    assert summary.startswith("sweep complete: 2 records") and rc == "0"
    assert first == last == "False"
