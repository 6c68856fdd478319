"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fragaudit.cli import main as cli_main
from fragaudit.data import binarize, load_idx, permutation_pair, permute_pixels, \
    split_train_test, subsample, synth_blobs, synth_images
from fragaudit.evidence import BoundInput, EvidenceTask, bound_vs_error_experiment, \
    ml_pacbayes_bound
from fragaudit.exppp import ExpPPParams, derive, inflation_demo, schedule, \
    verify_equivalence
from fragaudit.fragility import FragilityConfig, score_group
from fragaudit.measures import MeasureConfig, compute_all, frobenius_measures, \
    inverse_margin, pacbayes_measures, path_norm, spectral_norm, vc_params_proxy
from fragaudit.net import NetSpec, backward_batch, flatten_params, init_checkpoint, \
    scale_checkpoint, unflatten_params
from fragaudit.optim import Hyperparams, SweepConfig, resume, sweep, train
from fragaudit.records import RunRecord, TrainTrace, post_interp_slope
from fragaudit.rng import Rng


@contextmanager
def criterion(num, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def si_spec():
    return NetSpec((2, 32, 32, 2), normalize_hidden=True, frozen_readout=True,
                   bias_enabled=False)


def blob_split():
    full = synth_blobs(320, 2, 2, 6.0, seed=5)
    return split_train_test(full, 256, seed=6)


def test_criterion_01_exppp_equivalence():
    with criterion(1, "Exp++ schedule equivalence"):
        tr, _ = blob_split()
        spec = si_spec()
        # headline config plus three more admissible alphas at lambda = 0
        for alpha in (0.9, 0.8, 0.6, 0.5):
            t0 = time.perf_counter()
            rep = verify_equivalence(spec, tr, ExpPPParams(0.01, 0.9, 0.0, alpha),
                                     T=200, tol=1e-6, logit_tol=1e-9, seed=0)
            elapsed = time.perf_counter() - t0
            assert rep.passed, f"alpha={alpha}: rel_dev={rep.max_rel_dev}"
            assert rep.max_rel_dev <= 1e-6
            assert rep.max_logit_diff <= 1e-9
            assert elapsed < 10.0
        # one lambda > 0 configuration passing the remark check
        der = derive(0.01, 0.9, 0.2)
        assert der.remark_ok  # lambda*eta0 = 0.002 <= (1-sqrt(0.9))^2
        t0 = time.perf_counter()
        rep = verify_equivalence(spec, tr, ExpPPParams(0.01, 0.9, 0.2, 0.85),
                                 T=200, tol=1e-6, logit_tol=1e-9, seed=0)
        assert rep.passed and time.perf_counter() - t0 < 10.0


def test_criterion_02_exppp_special_case():
    with criterion(2, "Exp++ special case alpha=gamma, lambda=0"):
        sched = schedule(ExpPPParams(0.01, 0.9, 0.0, 0.9), T=200)
        assert all(lam == 0.0 for lam in sched.lambdas[1:])  # exact zeros
        assert sched.lambdas[0] == 0.0  # correction-free closed form
        assert all(a < b for a, b in zip(sched.etas, sched.etas[1:]))


def test_criterion_03_inflation_demo():
    with criterion(3, "Inflation demo at T=200"):
        tr, te = blob_split()
        T, alpha = 200, 0.9
        demo = inflation_demo(si_spec(), tr, te, ExpPPParams(0.01, 0.9, 0.0, alpha),
                              T, MeasureConfig(seed=1), seed=0)
        assert demo["verify"]["passed"]
        ratio = demo["ratios"]["PARAM_NORM"]
        assert abs(ratio / alpha ** (-T) - 1.0) <= 1e-6
        assert demo["predictions_equal"]
        assert demo["test_error_a"] == demo["test_error_b"]
        assert demo["ratios"]["PARAMS"] == 1.0


def test_criterion_04_scale_invariance_lemma():
    with criterion(4, "Scale-invariance lemma on 50 random nets"):
        from fragaudit.errors import NormalizationSingularity

        shapes = [(2, 8, 2), (3, 16, 2), (2, 8, 8, 2), (4, 12, 3), (2, 32, 32, 2)]
        rng = Rng(77)
        for k in range(50):
            dims = shapes[k % len(shapes)]
            spec = NetSpec(dims, normalize_hidden=True, frozen_readout=True,
                           bias_enabled=False)
            ck = init_checkpoint(spec, Rng(1000 + k).spawn_key("init"))
            n = 8
            # a batch can land outside f's domain (an all-dead hidden layer
            # zeroes the next pre-activation); redraw deterministically
            for _ in range(20):
                X = rng.gaussians(n * dims[0]).reshape(n, dims[0])
                y = np.array([rng.below(dims[-1]) for _ in range(n)])
                try:
                    grad, _ = backward_batch(spec, ck.weights, ck.biases, X, y)
                    break
                except NormalizationSingularity:
                    continue
            else:
                raise AssertionError("no valid batch found")
            theta = flatten_params(spec, ck.weights, ck.biases)
            assert abs(grad @ theta) <= 1e-8 * np.linalg.norm(grad) * np.linalg.norm(theta)
            for c in (0.5, 2.0, 10.0):
                scaled = scale_checkpoint(ck, spec, c)
                grad_c, _ = backward_batch(spec, scaled.weights, scaled.biases, X, y)
                assert np.linalg.norm(c * grad_c - grad) <= 1e-8 * np.linalg.norm(grad)


def _mk_record(i, err, value, h, seed):
    return RunRecord(
        run_id=f"r{i:03d}", group="g", dataset="d", arch="a", optimizer=h[0],
        lr=h[1], stop_rule="train_acc_100", n_train=50, seed=seed, test_error=err,
        measures={"M": value},
    )


def _brute_force(records, delta):
    rows = [r for r in records if r.measures.get("M", 0) > 0]
    spreads, seed_spreads, inter_spreads = [], [], []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if abs(rows[i].test_error - rows[j].test_error) <= delta:
                hi = max(rows[i].measures["M"], rows[j].measures["M"])
                lo = min(rows[i].measures["M"], rows[j].measures["M"])
                v = math.log(hi / lo)
                spreads.append(v)
                if rows[i].h_key() == rows[j].h_key():
                    if rows[i].seed != rows[j].seed:
                        seed_spreads.append(v)
                else:
                    inter_spreads.append(v)
    c = statistics.median(spreads) if spreads else None
    cs = statistics.median(seed_spreads) if seed_spreads else None
    ci = statistics.median(inter_spreads) if inter_spreads else None
    e = max(0.0, ci - cs) if (cs is not None and ci is not None) else None
    return {"cms": c, "cms_seed": cs, "cms_inter": ci, "ecms": e,
            "n_pairs": len(spreads), "n_seed_pairs": len(seed_spreads),
            "n_inter_pairs": len(inter_spreads), "n_runs_used": len(rows)}


def test_criterion_05_cms_oracle_equivalence():
    with criterion(5, "CMS/eCMS oracle equivalence + scale freeness"):
        lrs = [0.01, 0.1, 0.5]
        for trial in range(200):
            rng = Rng(9000 + trial)
            n_runs = 2 + rng.below(49)
            records = []
            for i in range(n_runs):
                h = ("sgdm" if rng.below(2) else "adam", lrs[rng.below(3)])
                records.append(_mk_record(i, round(rng.uniform() * 0.2, 3),
                                          math.exp(2 * rng.gaussian()), h,
                                          rng.below(4)))
            delta = (0.01, 0.02, 0.05)[trial % 3]
            want = _brute_force(records, delta)
            got = score_group("g", records, ("M",),
                              FragilityConfig(deltas=(delta,), pair_budget=0))
            assert {k: getattr(got[("M", delta)], k) for k in want} == want
        # budgeted run: byte-reproducible across calls
        rng = Rng(4242)
        records = [_mk_record(i, round(rng.uniform() * 0.05, 3),
                              math.exp(rng.gaussian()),
                              ("sgdm", lrs[rng.below(3)]), rng.below(4))
                   for i in range(40)]
        cfg = FragilityConfig(deltas=(0.05,), pair_budget=25, subsample_seed=3)
        a = score_group("g", records, ("M",), cfg)[("M", 0.05)]
        b = score_group("g", records, ("M",), cfg)[("M", 0.05)]
        assert repr((a.cms, a.ecms)) == repr((b.cms, b.ecms))
        # scale-freeness bit-exact under power-of-two rescaling
        base = score_group("g", records, ("M",), FragilityConfig())[("M", 0.05)]
        for scale in (2.0, 0.5, 2.0 ** 20):
            scaled = [_mk_record(i, r.test_error, scale * r.measures["M"],
                                 (r.optimizer, r.lr), r.seed)
                      for i, r in enumerate(records)]
            out = score_group("g", scaled, ("M",), FragilityConfig())[("M", 0.05)]
            assert out.cms == base.cms and out.ecms == base.ecms


def test_criterion_06_params_row_stable():
    with criterion(6, "PARAMS control row exactly zero"):
        full = synth_blobs(160, 2, 2, 6.0, seed=31)
        tr, te = split_train_test(full, 96, seed=32)
        spec = NetSpec((2, 6, 2), bias_enabled=True)
        cfg = SweepConfig(lrs=(0.05, 0.1), optimizers=("sgdm",),
                          stop_rules=(("train_acc_100", 0.01),),
                          seeds=(0, 1, 2), max_epochs=300,
                          dataset="blobs", arch="fcn")
        results = sweep(spec, tr, te, cfg)
        records = []
        for res in results:
            res.record.measures = {"PARAMS": vc_params_proxy(spec, tr.n)}
            records.append(res.record)
        scores = score_group("blobs/fcn", records, ("PARAMS",),
                             FragilityConfig(deltas=(0.01, 0.02, 0.05)))
        for delta in (0.01, 0.02, 0.05):
            cell = scores[("PARAMS", delta)]
            assert cell.n_pairs > 0
            assert cell.cms == 0.0
            if cell.ecms is not None:
                assert cell.ecms == 0.0
        # the headline deltas must produce defined eCMS for this grid
        assert scores[("PARAMS", 0.05)].ecms == 0.0


def test_criterion_07_measure_engine():
    with criterion(7, "Measure engine fixtures, SVD oracle, homogeneity"):
        # power iteration vs SVD oracle on 100 random matrices up to 32x32
        rng = Rng(123)
        for _ in range(100):
            rows = 2 + rng.below(31)
            cols = 2 + rng.below(31)
            W = rng.gaussians(rows * cols).reshape(rows, cols)
            s, _, _, conv = spectral_norm(W, tol=1e-12, max_iters=100000)
            ref = float(np.linalg.svd(W, compute_uv=False)[0])
            assert conv and abs(s - ref) <= 1e-8 * ref
        # hand fixtures at 1e-12
        one_layer = NetSpec((2, 1))
        from fragaudit.net import Checkpoint

        ck = Checkpoint([np.array([[3.0, 4.0]])], [np.array([[3.0, 4.0]])])
        assert abs(frobenius_measures(one_layer, ck, 1)["PARAM_NORM"] - 5.0) <= 1e-12
        assert abs(path_norm(one_layer, ck, 1) - 5.0) <= 1e-12
        assert abs(vc_params_proxy(NetSpec((2, 3, 1)), 1) - math.sqrt(14)) <= 1e-12
        assert abs(inverse_margin(2.0, 4) - 1.0) <= 1e-12
        assert abs(inverse_margin(0.5, 100) - 20.0) <= 1e-12
        w = np.array([1.0, 1.0, 1.0, 1.0])
        pb = pacbayes_measures(w, np.zeros(4), n=100, sigma=1.0, delta=0.05)
        assert abs(pb["PACBAYES_ORIG"] - 0.4312876355698374) <= 1e-12
        # homogeneity suite on 20 random nets
        from fragaudit.measures import spectral_measures

        for k in range(20):
            spec = NetSpec((3, 5, 4, 2))
            ck = init_checkpoint(spec, Rng(500 + k).spawn_key("init"))
            c = 1.25 + 0.25 * (k % 5)
            scaled = scale_checkpoint(ck, spec, c)
            d = spec.num_layers
            n = 9
            assert frobenius_measures(spec, scaled, n)["PARAM_NORM"] == pytest.approx(
                c * frobenius_measures(spec, ck, n)["PARAM_NORM"], rel=1e-10)
            assert path_norm(spec, scaled, n) == pytest.approx(
                (c ** d) * path_norm(spec, ck, n), rel=1e-9)
            sv, _ = spectral_measures(spec, scaled, n)
            bv, _ = spectral_measures(spec, ck, n)
            assert sv["PROD_OF_SPEC"] == pytest.approx(
                (c ** d) * bv["PROD_OF_SPEC"], rel=1e-8)
            wf = flatten_params(spec, ck.weights, ck.biases)
            assert pacbayes_measures(c * wf, np.zeros_like(wf), n,
                                     sigma=1.0)["PACBAYES_ORIG"] > \
                pacbayes_measures(wf, np.zeros_like(wf), n,
                                  sigma=1.0)["PACBAYES_ORIG"]
            assert vc_params_proxy(spec, n) == vc_params_proxy(spec, n)


def test_criterion_08_gradient_correctness():
    with criterion(8, "Gradient vs central finite differences"):

        def ce_loss(spec, ck, flat, X, y):
            c = unflatten_params(spec, flat, ck)
            from fragaudit.net import forward_batch

            logits = forward_batch(spec, c.weights, c.biases, X)
            shifted = logits - logits.max(axis=1, keepdims=True)
            logz = np.log(np.exp(shifted).sum(axis=1))
            return float(np.mean(logz - shifted[np.arange(len(y)), y]))

        shapes = [(2, 6, 3), (3, 4, 4, 2), (2, 5, 2), (4, 7, 3), (3, 8, 2)]
        total_coords = 0
        rng = Rng(321)
        for k in range(10):
            dims = shapes[k % len(shapes)]
            bias = k % 2 == 0
            spec = NetSpec(dims, bias_enabled=bias)
            ck = init_checkpoint(spec, Rng(700 + k).spawn_key("init"))
            X = rng.gaussians(8 * dims[0]).reshape(8, dims[0])
            y = np.array([rng.below(dims[-1]) for _ in range(8)])
            grad, _ = backward_batch(spec, ck.weights, ck.biases, X, y)
            flat = flatten_params(spec, ck.weights, ck.biases)
            h = 1e-5
            for _ in range(12):
                idx = rng.below(flat.size)
                fp, fm = flat.copy(), flat.copy()
                fp[idx] += h
                fm[idx] -= h
                fd = (ce_loss(spec, ck, fp, X, y) - ce_loss(spec, ck, fm, X, y)) / (2 * h)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                assert abs(grad[idx] - fd) / denom <= 1e-5
                total_coords += 1
        assert total_coords >= 100


def test_criterion_09_ml_pacbayes():
    with criterion(9, "ML-PACBayes fixtures and bound-vs-error experiment"):
        out = ml_pacbayes_bound(BoundInput(n=2, p_hat=1.0, delta_conf=1.0,
                                           gamma_conf=1.0))
        assert abs(out.epsilon_bound - 0.5) <= 1e-12
        out = ml_pacbayes_bound(BoundInput(n=10, p_hat=2.0 ** -10, delta_conf=1.0,
                                           gamma_conf=1.0))
        assert abs(out.epsilon_bound - 0.6415644177815567) <= 1e-12
        t0 = time.perf_counter()
        task = EvidenceTask(n_train=16, n_heldout=2000, dim=3, separation=6.0,
                            draws=100000, repetitions=100, delta_conf=0.05,
                            gamma_conf=0.05, corruptions=(0.0,),
                            max_attempts=300000)
        report = bound_vs_error_experiment(NetSpec((3, 6, 2)), task, seed=0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"experiment took {elapsed:.0f}s"
        assert report["evaluated"] >= 90  # nearly every repetition yields a bound
        assert report["violation_rate"] <= 0.05


def test_criterion_10_data_complexity_analogue(tmp_path, write_idx):
    with criterion(10, "Pixel-permutation data-complexity analogue"):
        raw = synth_images(2400, 10, seed=17, active_pixels=392, noise=0.3)
        write_idx(tmp_path / "i.idx", tmp_path / "l.idx", raw.features, raw.labels,
                  28, 28)
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        b = binarize(ds, set(range(5)))
        tr, te = split_train_test(b, 1200, seed=18)
        spec = NetSpec((784, 32, 2), bias_enabled=True)
        H = Hyperparams(lr=0.05, max_epochs=300, dataset="img", arch="fcn")
        plain = train(spec, tr, te, H, seed=21)
        assert plain.record.t_int is not None

        # function-level permutation symmetry is exact
        from fragaudit.net import forward_batch

        perm = permutation_pair(784, seed=19, independent=False)[0]
        ck = plain.checkpoint
        ck2 = ck.copy()
        W1 = np.empty_like(ck.weights[0])
        W1[:, perm] = ck.weights[0]
        ck2.weights[0] = W1
        moved = forward_batch(spec, ck2.weights, ck2.biases,
                              permute_pixels(te, perm).features)
        base = forward_batch(spec, ck.weights, ck.biases, te.features)
        assert np.max(np.abs(moved - base)) <= 1e-12

        p_tr, p_te = permutation_pair(784, seed=19, independent=False)
        shared = train(spec, permute_pixels(tr, p_tr), permute_pixels(te, p_te),
                       H, seed=21)
        assert abs(shared.record.test_error - plain.record.test_error) <= 0.02

        p_tr, p_te = permutation_pair(784, seed=19, independent=True)
        indep = train(spec, permute_pixels(tr, p_tr), permute_pixels(te, p_te),
                      H, seed=21)
        assert 0.45 <= indep.record.test_error <= 0.55


def test_criterion_11_temporal_tooling():
    with criterion(11, "Temporal tooling fixtures and hysteresis"):
        t = TrainTrace()
        for e in (1, 2, 3, 5, 9):
            t.append(e, 1.0, 0.1, 0.1, {"M": 3.0 * e * e, "C": 7.0})
        assert abs(post_interp_slope(t, "M") - 2.0) <= 1e-9
        assert post_interp_slope(t, "C") == 0.0

        full = synth_blobs(160, 2, 2, 6.0, seed=51)
        tr, te = split_train_test(full, 96, seed=52)
        spec = NetSpec((2, 6, 2), bias_enabled=True)
        H = Hyperparams(lr=0.1, max_epochs=60, stop_rule="max_epochs",
                        dataset="blobs", arch="fcn")
        H2 = Hyperparams(optimizer="adam", lr=0.01, max_epochs=30,
                         stop_rule="max_epochs", dataset="blobs", arch="fcn")

        def paired():
            parent = train(spec, tr, te, H, seed=7,
                           trace_measures=("PARAM_NORM",),
                           want_interp_snapshot=True)
            assert parent.interp_checkpoint is not None
            res = resume(spec, parent.interp_checkpoint, tr, te, H2, seed=8,
                         trace_measures=("PARAM_NORM",))
            slopes = {}
            for name, r in (("parent", parent), ("resumed", res)):
                try:
                    slopes[name] = post_interp_slope(r.trace, "PARAM_NORM")
                except Exception as exc:
                    slopes[name] = type(exc).__name__
            return {
                "parent_id": parent.record.run_id,
                "resumed_id": res.record.run_id,
                "link": res.record.parent_run_id,
                "slopes": slopes,
            }

        a = paired()
        b = paired()
        assert a == b  # deterministic paired report
        assert a["link"] == a["parent_id"]
        assert a["resumed_id"] != a["parent_id"]


def test_criterion_12_end_to_end_determinism(tmp_path):
    with criterion(12, "End-to-end pipeline byte-for-byte determinism"):
        cfg = {
            "net": {"layer_dims": [2, 6, 2], "bias_enabled": True, "tag": "fcn"},
            "data": {
                "source": {"kind": "blobs", "n": 160, "dim": 2, "num_classes": 2,
                           "separation": 6.0, "seed": 11},
                "split": {"n_train": 96, "seed": 12},
                "tag": "blobs",
            },
            "sweep": {"lrs": [0.05, 0.1], "optimizers": ["sgdm"],
                      "stop_rules": [["train_acc_100", 0.01]],
                      "seeds": [0, 1, 2], "max_epochs": 300, "subsample_seed": 5},
            "measure": {"mc_draws": 5, "iters": 8, "seed": 3},
            "fragility": {"deltas": [0.01, 0.02, 0.05], "pair_budget": 10000,
                          "subsample_seed": 7},
            "exppp": {"eta0": 0.01, "gamma": 0.9, "lambda": 0.0, "alpha": 0.9,
                      "steps": 50, "seed": 0},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2))

        def run_pipeline(out_dir):
            assert cli_main(["sweep", "--config", str(cfg_path),
                             "--out", str(out_dir)]) == 0
            assert cli_main(["measure", "--config", str(cfg_path),
                             "--out", str(out_dir)]) == 0
            assert cli_main(["audit", "--config", str(cfg_path),
                             "--out", str(out_dir)]) in (0, 3)

        run_pipeline(tmp_path / "out1")
        run_pipeline(tmp_path / "out2")

        files1 = sorted(p.relative_to(tmp_path / "out1")
                        for p in (tmp_path / "out1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "out2")
                        for p in (tmp_path / "out2").rglob("*") if p.is_file())
        assert files1 == files2 and files1
        for rel in files1:
            a = (tmp_path / "out1" / rel).read_bytes()
            b = (tmp_path / "out2" / rel).read_bytes()
            assert a == b, f"{rel} differs between reruns"
