"""CLI end-to-end: every subcommand, byte-stable reruns, pipeline composition."""

import functools
import json
import os
import shutil
import signal
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fragaudit import evidence as ev, optim, workers as workers_mod
from fragaudit.cli import COMMANDS, SCHEMA, main
from fragaudit.measures import MEASURE_NAMES, MeasureConfig, compute_all
from fragaudit.persist import json_ready, read_jsonl


def base_config(tmp_path, **overrides):
    cfg = {
        "out_dir": str(tmp_path / "out"),
        "net": {"layer_dims": [2, 6, 2], "bias_enabled": True, "tag": "fcn"},
        "data": {
            "source": {"kind": "blobs", "n": 192, "dim": 2, "num_classes": 2,
                       "separation": 6.0, "seed": 11},
            "split": {"n_train": 128, "seed": 12},
            "tag": "blobs",
        },
        "train": {"optimizer": "sgdm", "lr": 0.1, "max_epochs": 200, "seed": 0},
        "sweep": {"lrs": [0.05, 0.1], "optimizers": ["sgdm"],
                  "stop_rules": [["train_acc_100", 0.01]],
                  "seeds": [0, 1, 2], "max_epochs": 200, "subsample_seed": 5},
        "measure": {"mc_draws": 5, "iters": 8, "seed": 3},
        "fragility": {"deltas": [0.02, 0.05], "pair_budget": 1000,
                      "subsample_seed": 7},
        "temporal": {"measures": ["PARAM_NORM", "PATH_NORM"]},
        "hysteresis": {"new": {"optimizer": "adam", "lr": 0.01},
                       "seed": 99},
        "exppp": {"eta0": 0.01, "gamma": 0.9, "lambda": 0.0, "alpha": 0.9,
                  "steps": 40, "tol": 1e-6, "seed": 0},
        "evidence": {"n_train": 8, "n_heldout": 200, "draws": 2000,
                     "repetitions": 2, "separation": 4.0, "seed": 1,
                     "max_attempts": 20000,
                     "net": {"layer_dims": [2, 4, 2]}},
    }
    cfg.update(overrides)
    return cfg


def _workers(monkeypatch, n):
    monkeypatch.setattr(workers_mod, "cpu_count", lambda: n)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def test_train_command(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cp = write_config(tmp_path, cfg)
    assert main(["train", "--config", cp]) == 0
    out = tmp_path / "out"
    records = read_jsonl(out / "records.jsonl")
    assert len(records) == 1
    rec = records[0]
    assert rec["status"] == "ok"
    assert "config_hash" in rec and "tool_version" in rec
    run_dir = out / "runs" / rec["group"] / rec["run_id"]
    assert (run_dir / "record.json").exists()
    assert (run_dir / "ckpt.bin").exists()
    assert (run_dir / "trace.csv").exists()


def test_sweep_rerun_byte_identical(tmp_path):
    cfg = base_config(tmp_path)
    cfg["sweep"]["max_epochs"] = 60
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 0
    first = (tmp_path / "out" / "records.jsonl").read_bytes()
    assert main(["sweep", "--config", cp]) == 0
    second = (tmp_path / "out" / "records.jsonl").read_bytes()
    assert first == second
    assert len(read_jsonl(tmp_path / "out" / "records.jsonl")) == 6  # 2 lrs x 3 seeds


def test_pipeline_sweep_measure_audit(tmp_path):
    cfg = base_config(tmp_path)
    cfg["sweep"]["max_epochs"] = 80
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 0
    assert main(["measure", "--config", cp]) == 0
    records = read_jsonl(tmp_path / "out" / "records.jsonl")
    assert all(r["measures"] for r in records if r["status"] == "ok")
    code = main(["audit", "--config", cp])
    assert code == 0
    reports = list((tmp_path / "out" / "reports").glob("audit-*"))
    assert len(reports) == 1
    rdir = reports[0]
    assert (rdir / "audit.json").exists()
    csvs = sorted(p.name for p in rdir.glob("cms_delta_*.csv"))
    assert len(csvs) == 2
    txts = sorted(p.name for p in rdir.glob("cms_delta_*.txt"))
    assert len(txts) == 2


def test_command_composition_equals_in_process(tmp_path):
    from fragaudit import fragility as frag
    from fragaudit.data import split_train_test, synth_blobs
    from fragaudit.net import NetSpec
    from fragaudit.optim import SweepConfig, sweep
    from fragaudit.rng import Rng

    cfg = base_config(tmp_path)
    cfg["sweep"]["max_epochs"] = 80
    cp = write_config(tmp_path, cfg)
    for cmd in ("sweep", "measure", "audit"):
        assert main([cmd, "--config", cp]) in (0, 3)
    audit_json = json.loads(
        next((tmp_path / "out" / "reports").glob("audit-*/audit.json")).read_text())

    # in-process pipeline with the same seeds and derivations
    spec = NetSpec.from_dict(cfg["net"])
    full = synth_blobs(192, 2, 2, 6.0, 11)
    tr, te = split_train_test(full, 128, 12)
    scfg = SweepConfig(lrs=(0.05, 0.1), optimizers=("sgdm",),
                       stop_rules=(("train_acc_100", 0.01),), seeds=(0, 1, 2),
                       max_epochs=80, dataset="blobs", arch="fcn",
                       subsample_seed=5)
    results = sweep(spec, tr, te, scfg)
    mcfg = MeasureConfig(sigma_mc_draws=5, sigma_iters=8, seed=3)
    records = []
    for res in results:
        from dataclasses import replace

        rm = replace(mcfg, seed=Rng(mcfg.seed).spawn_key(res.record.run_id).next_u64())
        ms = compute_all(spec, res.checkpoint, tr, rm)
        res.record.measures = ms.values
        records.append(res.record)
    fcfg = frag.FragilityConfig(deltas=(0.02, 0.05), pair_budget=1000,
                                subsample_seed=7)
    from fragaudit.measures import MEASURE_NAMES

    _, agg = frag.score_records(records, MEASURE_NAMES, fcfg)
    for (m, delta), a in agg.items():
        cell = audit_json["cells"][f"{m}|{delta!r}"]
        assert cell["cms_med"] == a.cms_med, (m, delta)
        assert cell["ecms_med"] == a.ecms_med, (m, delta)


def test_audit_all_undefined_exit_code(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cp = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    out.mkdir()
    # records with no measures at all -> every score Undefined
    (out / "records.jsonl").write_text(json.dumps({
        "run_id": "r0", "group": "g", "dataset": "d", "arch": "a",
        "optimizer": "sgdm", "lr": 0.1, "stop_rule": "train_acc_100",
        "n_train": 8, "seed": 0, "test_error": 0.5, "measures": {}, "t_int": None,
        "parent_run_id": "",
    }) + "\n")
    code = main(["audit", "--config", cp, "--records", str(out / "records.jsonl")])
    assert code == 3
    err = capsys.readouterr().err
    assert "AllUndefined" in err


def test_temporal_command(tmp_path):
    cfg = base_config(tmp_path)
    cp = write_config(tmp_path, cfg)
    assert main(["temporal", "--config", cp]) == 0
    reports = list((tmp_path / "out" / "reports" / "temporal").glob("*.json"))
    assert len(reports) == 1
    body = json.loads(reports[0].read_text())
    assert body["t_int"] is not None
    assert set(body["slopes"]) == {"PARAM_NORM", "PATH_NORM"}


def test_hysteresis_command(tmp_path):
    cfg = base_config(tmp_path)
    cfg["train"]["max_epochs"] = 120
    cfg["hysteresis"]["new"]["max_epochs"] = 30
    cp = write_config(tmp_path, cfg)
    assert main(["hysteresis", "--config", cp]) == 0
    reports = list((tmp_path / "out" / "reports" / "hysteresis").glob("*.json"))
    assert len(reports) == 1
    body = json.loads(reports[0].read_text())
    assert body["resume_links_parent"]
    assert body["parent"]["t_int"] is not None
    assert "slopes" in body["resumed"]


def test_exppp_verify_command(tmp_path):
    cfg = base_config(tmp_path, net={"layer_dims": [2, 8, 8, 2],
                                     "normalize_hidden": True,
                                     "frozen_readout": True,
                                     "bias_enabled": False, "tag": "sinet"})
    cp = write_config(tmp_path, cfg)
    assert main(["exppp", "--config", cp, "--mode", "verify"]) == 0
    body = json.loads(
        (tmp_path / "out" / "reports" / "exppp" / "verify.json").read_text())
    assert body["reports"][0]["passed"]
    csvs = list((tmp_path / "out" / "reports" / "exppp").glob("verify-alpha-*.csv"))
    assert len(csvs) == 1


def test_exppp_demo_command(tmp_path):
    cfg = base_config(tmp_path, net={"layer_dims": [2, 8, 8, 2],
                                     "normalize_hidden": True,
                                     "frozen_readout": True,
                                     "bias_enabled": False, "tag": "sinet"})
    cfg["exppp"]["alphas"] = [0.8, 0.9]
    cfg["exppp"]["steps"] = 30
    cfg["measure"] = {"mc_draws": 3, "iters": 5, "seed": 2}
    cp = write_config(tmp_path, cfg)
    assert main(["exppp", "--config", cp, "--mode", "demo"]) == 0
    body = json.loads(
        (tmp_path / "out" / "reports" / "exppp" / "demo.json").read_text())
    assert len(body["demos"]) == 2
    assert (tmp_path / "out" / "reports" / "exppp" / "demo_ratios.csv").exists()


def test_exppp_inadmissible_alpha_errors(tmp_path, capsys):
    cfg = base_config(tmp_path, net={"layer_dims": [2, 8, 2],
                                     "normalize_hidden": True,
                                     "frozen_readout": True,
                                     "bias_enabled": False})
    cfg["exppp"]["alpha"] = 0.2
    cp = write_config(tmp_path, cfg)
    code = main(["exppp", "--config", cp, "--mode", "verify"])
    assert code == 1
    assert "InadmissibleAlpha" in capsys.readouterr().err


# --- exppp: one alpha per worker on the forked pool --------------------------------

def _si_config(tmp_path, **exppp):
    cfg = base_config(tmp_path, net={"layer_dims": [2, 8, 8, 2], "normalize_hidden": True,
                                     "frozen_readout": True, "bias_enabled": False,
                                     "tag": "sinet"})
    cfg["exppp"].update({"steps": 30, **exppp})
    cfg["measure"] = {"mc_draws": 3, "iters": 5, "seed": 2}
    return cfg


def _files(rdir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(rdir.iterdir())} if rdir.exists() else {}


@pytest.mark.parametrize("mode, alphas, pools", [
    ("verify", [0.8, 0.9], [2, 2]),
    ("demo", [0.8, 0.9], [2, 2]),
    ("demo", [], [2, 3]),  # the 8 demo_alphas
])
def test_exppp_outputs_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch,
                                                         pools_made, mode, alphas, pools,
                                                         children_left):
    cp = write_config(tmp_path, _si_config(tmp_path, alphas=alphas))
    rdir = tmp_path / "out" / "reports" / "exppp"
    outputs = []
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        assert main(["exppp", "--config", cp, "--mode", mode]) == 0
        assert not children_left()
        outputs.append((_files(rdir), capsys.readouterr().out))
        shutil.rmtree(rdir)
    assert pools_made == pools  # two alphas open one pool of 2 workers on 2 or 3 CPUs
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0][0]) == (len(alphas) + 1 if mode == "verify" else 2)


def test_exppp_verify_of_one_alpha_forks_nothing(tmp_path, monkeypatch, pools_made):
    cp = write_config(tmp_path, _si_config(tmp_path))
    _workers(monkeypatch, 2)
    assert main(["exppp", "--config", cp, "--mode", "verify"]) == 0
    assert pools_made == []


def _exppp_ends(tmp_path, capsys, monkeypatch, cfg, mode, children_left):
    """(exit code, stderr, report files) of exppp on 1 worker, checked equal on 2."""
    cp = write_config(tmp_path, cfg)
    rdir = tmp_path / "out" / "reports" / "exppp"
    ends = []
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        code = main(["exppp", "--config", cp, "--mode", mode])
        assert not children_left()
        ends.append((code, capsys.readouterr().err, _files(rdir)))
        shutil.rmtree(rdir, ignore_errors=True)
    assert ends[0] == ends[1]
    return ends[0]


def test_exppp_inadmissible_second_alpha_on_a_pool_ends_as_in_process(
        tmp_path, capsys, monkeypatch, pools_made, children_left):
    cfg = _si_config(tmp_path, alphas=[0.8, 0.2])
    code, err, files = _exppp_ends(tmp_path, capsys, monkeypatch, cfg, "verify",
                                   children_left)
    assert pools_made == [2]
    assert code == 1 and json.loads(err)["error"] == "InadmissibleAlpha"
    assert list(files) == ["verify-alpha-0_8.csv"]  # and no verify.json


def test_exppp_alpha_beyond_float_range_on_a_pool_ends_as_in_process(
        tmp_path, capsys, monkeypatch, pools_made, children_left):
    # 0.5 is admissible, but 0.5^(-2 * 600 - 1) overflows a float
    cfg = _si_config(tmp_path, alphas=[0.8, 0.5], steps=600)
    code, err, files = _exppp_ends(tmp_path, capsys, monkeypatch, cfg, "verify",
                                   children_left)
    assert pools_made == [2]
    error = json.loads(err)  # one JSON line, no traceback
    assert code == 2 and error["error"] == "ConfigError"
    assert "alpha 0.5 with 600 steps" in error["message"]
    assert list(files) == ["verify-alpha-0_8.csv"]


@pytest.mark.parametrize("mode", ["verify", "demo"])
def test_exppp_net_not_scale_invariant_on_a_pool_ends_as_in_process(
        tmp_path, capsys, monkeypatch, pools_made, mode, children_left):
    cfg = base_config(tmp_path)
    cfg["exppp"]["alphas"] = [0.8, 0.9]
    code, err, files = _exppp_ends(tmp_path, capsys, monkeypatch, cfg, mode, children_left)
    assert pools_made == [2]
    assert code == 2 and json.loads(err)["error"] == "ConfigError"
    assert files == {}


def test_exppp_prediction_mismatch_on_a_pool_ends_as_in_process(
        tmp_path, capsys, monkeypatch, pools_made, children_left):
    from fragaudit import exppp

    real = exppp.predict
    test_calls = []

    def predict_flipping_matched_test_pass(spec, ckpt, x):
        pred = real(spec, ckpt, x)
        if len(x) == 64:  # the test split, predicted twice per alpha: baseline, matched
            test_calls.append(1)
            if len(test_calls) % 2 == 0:
                return 1 - pred
        return pred

    monkeypatch.setattr(exppp, "predict", predict_flipping_matched_test_pass)
    cfg = _si_config(tmp_path, alphas=[0.8, 0.9])
    code, err, files = _exppp_ends(tmp_path, capsys, monkeypatch, cfg, "demo",
                                   children_left)
    assert pools_made == [2]
    assert code == 1 and json.loads(err)["error"] == "PredictionMismatch"
    assert files == {}


@pytest.mark.parametrize("tol, counts", [(1e-6, "1 passed, 0 failed, 1 diverged"),
                                         (0.0, "0 passed, 1 failed, 1 diverged")])
def test_exppp_verify_summary_counts_alphas_by_outcome(tmp_path, capsys, monkeypatch,
                                                       tol, counts):
    from fragaudit import exppp

    real = exppp.sgdm_step

    def sgdm_step(state, grad, gamma, wd, next_lr):
        new = real(state, grad, gamma, wd, next_lr)
        # in 20 steps only the matched run of alpha 0.5 gets there
        new.diverged |= (next_lr > 1.0).ravel()
        return new

    monkeypatch.setattr(exppp, "sgdm_step", sgdm_step)
    cp = write_config(tmp_path, _si_config(tmp_path, alphas=[0.5, 0.9], steps=20, tol=tol))
    assert main(["exppp", "--config", cp, "--mode", "verify"]) == 0
    path = tmp_path / "out" / "reports" / "exppp" / "verify.json"
    reports = json.loads(path.read_text())["reports"]
    passed = sum(r["passed"] for r in reports)
    diverged = sum(r["diverged_at"] is not None for r in reports)
    assert f"{passed} passed, {2 - passed - diverged} failed, {diverged} diverged" == counts
    assert capsys.readouterr().out == f"verified 2 alpha value(s): {counts} -> {path}\n"


def test_exppp_demo_summary_counts_equal_predictions(tmp_path, capsys, monkeypatch):
    from fragaudit import exppp

    real = exppp.predict
    test_calls = []

    def predict_flipping_first_matched_test_pass(spec, ckpt, x):
        pred = real(spec, ckpt, x)
        if len(x) == 64:
            test_calls.append(1)
            if len(test_calls) == 2:
                return 1 - pred
        return pred

    monkeypatch.setattr(exppp, "predict", predict_flipping_first_matched_test_pass)
    _workers(monkeypatch, 1)
    # tol 0 fails every verification, so differing predictions are reported, not raised
    cp = write_config(tmp_path, _si_config(tmp_path, alphas=[0.8, 0.9], tol=0.0))
    assert main(["exppp", "--config", cp, "--mode", "demo"]) == 0
    path = tmp_path / "out" / "reports" / "exppp" / "demo.json"
    demos = json.loads(path.read_text())["demos"]
    assert [d["predictions_equal"] for d in demos] == [False, True]
    assert capsys.readouterr().out == (
        f"inflation demo for 2 alpha value(s): 1 with equal predictions -> {path}\n")


def test_evidence_bound_command(tmp_path):
    cfg = base_config(tmp_path)
    cfg["data"]["source"]["separation"] = 4.0
    cfg["data"]["split"] = {"n_train": 8, "seed": 12}
    cfg["evidence"]["draws"] = 3000
    cp = write_config(tmp_path, cfg)
    assert main(["evidence", "--config", cp, "--mode", "bound"]) == 0
    body = json.loads(
        (tmp_path / "out" / "reports" / "evidence" / "bound.json").read_text())
    assert body["draws"] == 3000
    if body["p_hat"] is not None:
        assert 0 < body["bound"]["epsilon_bound"] <= 1


def test_evidence_experiment_command(tmp_path):
    cfg = base_config(tmp_path)
    cp = write_config(tmp_path, cfg)
    assert main(["evidence", "--config", cp, "--mode", "experiment"]) == 0
    body = json.loads(
        (tmp_path / "out" / "reports" / "evidence" / "experiment.json").read_text())
    assert len(body["rows"]) == 2
    assert (tmp_path / "out" / "reports" / "evidence" / "experiment.csv").exists()


@pytest.mark.parametrize("mode", ["bound", "experiment"])
def test_evidence_reports_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, pools_made,
                                                            mode, children_left):
    cfg = base_config(tmp_path)
    cfg["data"]["split"] = {"n_train": 8, "seed": 12}
    cfg["evidence"]["draws"] = 9000  # three shards of 4096
    cp = write_config(tmp_path, cfg)
    rdir = tmp_path / "out" / "reports" / "evidence"
    reports = []
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        assert main(["evidence", "--config", cp, "--mode", mode]) == 0
        assert not children_left()
        reports.append({p.name: p.read_bytes() for p in sorted(rdir.iterdir())})
        shutil.rmtree(rdir)
    assert pools_made == [2]
    assert reports[0] == reports[1]


def test_evidence_experiment_is_byte_identical_at_1_2_and_3_workers(
        tmp_path, monkeypatch, pools_made, children_left):
    # 8 repetitions, more than the workers; each maps a mass estimate of 2 shards
    cfg = base_config(tmp_path)
    cfg["evidence"].update(repetitions=4, corruptions=[0.0, 0.25], draws=5000)
    cp = write_config(tmp_path, cfg)
    rdir = tmp_path / "out" / "reports" / "evidence"
    reports = []
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        assert main(["evidence", "--config", cp, "--mode", "experiment"]) == 0
        assert not children_left()
        reports.append({p.name: p.read_bytes() for p in sorted(rdir.iterdir())})
        shutil.rmtree(rdir)
    assert pools_made == [2, 3]
    assert sorted(reports[0]) == ["experiment.csv", "experiment.json"]
    assert reports[0] == reports[1] == reports[2]
    rows = json.loads(reports[0]["experiment.json"])["rows"]
    assert [(r["corruption"], r["rep"]) for r in rows] == \
        [(p, rep) for p in (0.0, 0.25) for rep in range(4)]


@pytest.mark.parametrize("mode", ["bound", "experiment"])
@pytest.mark.parametrize("key, value", [("delta", 0), ("gamma", 1.5), ("n_train", 1),
                                        ("corruptions", [2.0]),
                                        ("corruptions", [0.0, -0.25])])
def test_evidence_settings_out_of_range_exit_2_before_any_draw(tmp_path, capsys,
                                                              monkeypatch, mode, key,
                                                              value):
    def no_draw(*args):
        raise AssertionError("a prior draw was made")

    monkeypatch.setattr(ev, "prior_predictions", no_draw)
    cfg = base_config(tmp_path)
    cfg["evidence"][key] = value
    cp = write_config(tmp_path, cfg)
    assert main(["evidence", "--config", cp, "--mode", mode]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and key in err["message"]
    assert not (tmp_path / "out" / "reports" / "evidence").exists()


def test_evidence_summary_lines_match_their_reports(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["data"]["split"] = {"n_train": 8, "seed": 12}
    cfg["evidence"]["draws"] = 3000
    cp = write_config(tmp_path, cfg)
    rdir = tmp_path / "out" / "reports" / "evidence"
    assert main(["evidence", "--config", cp, "--mode", "bound"]) == 0
    bound = json.loads((rdir / "bound.json").read_text())
    assert capsys.readouterr().out == (f"evidence bound -> {rdir / 'bound.json'} "
                                       f"({bound['hits']} hits in 3000 draws)\n")
    assert main(["evidence", "--config", cp, "--mode", "experiment"]) == 0
    report = json.loads((rdir / "experiment.json").read_text())
    statuses = Counter(row["status"] for row in report["rows"])
    assert sum(statuses.values()) == 2
    by_status = ", ".join(f"{statuses[k]} {k}" for k in sorted(statuses))
    assert capsys.readouterr().out == (
        f"evidence experiment -> {rdir / 'experiment.json'} (violation rate "
        f"{report['violation_rate']!r}; rows: {by_status})\n")


@pytest.mark.parametrize("mode", ["experiment", "bound"])
def test_evidence_net_width_mismatch_is_config_error(tmp_path, capsys, mode):
    cfg = base_config(tmp_path)
    cfg["evidence"]["net"] = {"layer_dims": [3, 6, 2]}  # task and data dim stay 2
    cp = write_config(tmp_path, cfg)
    assert main(["evidence", "--config", cp, "--mode", mode]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


@pytest.mark.parametrize("key", ["repetitions", "draws", "max_attempts", "n_heldout"])
def test_evidence_experiment_sizes_below_one_exit_2(tmp_path, capsys, key):
    cfg = base_config(tmp_path)
    cfg["evidence"][key] = 0
    cp = write_config(tmp_path, cfg)
    assert main(["evidence", "--config", cp, "--mode", "experiment"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and key in err["message"]
    assert not (tmp_path / "out" / "reports" / "evidence" / "experiment.json").exists()


def test_evidence_bound_checks_the_training_size_before_any_draw(tmp_path, capsys,
                                                                  monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the mass estimate ran")

    monkeypatch.setattr(ev, "estimate_consistency_mass", no_draws)
    cfg = base_config(tmp_path)
    cfg["data"]["split"] = {"n_train": 1, "seed": 12}
    cp = write_config(tmp_path, cfg)
    assert main(["evidence", "--config", cp, "--mode", "bound"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "data.split.n_train" in err["message"]
    assert not (tmp_path / "out" / "reports" / "evidence" / "bound.json").exists()


_IMAGES = {"kind": "images", "n": 20, "num_classes": 2, "seed": 1}
_BLOBS = {"kind": "blobs", "n": 20, "dim": 2, "num_classes": 2, "separation": 2.0, "seed": 1}


@pytest.mark.parametrize("source, message", [
    (dict(_IMAGES, active_pixels=1000), "active_pixels 1000 outside [0, 784] (side 28)"),
    (dict(_IMAGES, active_pixels=-3), "active_pixels -3 outside [0, 784] (side 28)"),
    (dict(_IMAGES, side=0), "side 0 < 1"),
    (dict(_BLOBS, num_classes=0), "num_classes 0 < 1"),
    (dict(_BLOBS, dim=0), "dim 0 < 1"),
])
def test_transform_of_a_bad_synthetic_size_is_a_typed_error(tmp_path, capsys, source,
                                                            message):
    # the data section's build of the source into a split, before any split is kept
    cfg = base_config(tmp_path)
    cfg["data"]["source"] = source
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InvalidSize", "message": message}
    assert list((tmp_path / "out").glob("data/*.dsc")) == []


def test_data_section_provenance_names_each_op(tmp_path):
    from fragaudit import cli

    cfg = base_config(tmp_path)
    cfg["data"] = {
        "source": {"kind": "blobs", "n": 40, "dim": 3, "num_classes": 4,
                   "separation": 2.0, "seed": 3},
        "transforms": [{"op": "binarize", "positive": [0, 1]},
                       {"op": "corrupt_labels", "p": 0.25, "seed": 4},
                       {"op": "subsample", "m": 20, "seed": 5},
                       {"op": "permute_pixels", "seed": 6}],
        "split": {"n_train": 15, "seed": 7},
    }
    train_ds, test_ds = cli._build_data(cfg, tmp_path / "out")
    assert (train_ds.n, test_ds.n) == (15, 5)
    for ds in (train_ds, test_ds):
        assert ds.num_classes == 2
        ops = [c["op"] for c in ds.provenance["chain"]]
        assert ops == ["synth_blobs", "binarize", "corrupt_labels", "subsample",
                       "permute_pixels", "split"]


# --- one dataset build per output directory -----------------------------------

_IMAGES_DATA = {"source": {"kind": "images", "n": 60, "num_classes": 4, "seed": 2,
                           "side": 6, "active_pixels": 5},
                "transforms": [{"op": "binarize", "positive": [0, 1]},
                               {"op": "corrupt_labels", "p": 0.1, "seed": 3}],
                "split": {"n_train": 40, "seed": 4}}
SPLIT_CONFIGS = {
    "blobs": base_config(Path("."))["data"],
    "images-transforms": _IMAGES_DATA,
    "images-shared-permute": dict(_IMAGES_DATA, permute={"mode": "shared", "seed": 5}),
    "images-independent-permute-train-test-transforms": dict(
        _IMAGES_DATA, permute={"mode": "independent", "seed": 5},
        train_transforms=[{"op": "subsample", "m": 30, "seed": 6}],
        test_transforms=[{"op": "corrupt_labels", "p": 0.2, "seed": 7},
                         {"op": "permute_pixels", "seed": 8}],
        tag="images"),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CONFIGS))
def test_a_kept_split_equals_a_fresh_build(tmp_path, monkeypatch, name):
    from fragaudit import cli, data as datakit

    cfg = dict(base_config(tmp_path), data=SPLIT_CONFIGS[name])
    out = tmp_path / "out"
    fresh = cli._build_data(cfg, out)
    assert len(list((out / "data").iterdir())) == 2
    for fn in ("synth_blobs", "synth_images", "split_train_test"):
        # wraps keeps the signature, which the config schema reads defaults from
        monkeypatch.setattr(datakit, fn, functools.wraps(getattr(datakit, fn))(
            lambda *a, **k: pytest.fail("built again")))
    kept = cli._build_data(cfg, out)
    for a, b in zip(fresh, kept, strict=True):
        assert a.features.dtype == b.features.dtype == np.float64
        assert a.features.shape == b.features.shape
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.dtype == b.labels.dtype and a.labels.tolist() == b.labels.tolist()
        assert type(b.num_classes) is int and a.num_classes == b.num_classes
        assert a.provenance == b.provenance


# sha256 of the (train, test) files of a kept split, by persist.TOOL_VERSION.
# A change to the bytes a generator or transform gives fails this test: bump
# TOOL_VERSION, which is part of every split's key, so that no output directory
# loads a split the old code built, and pin the new version's bytes here.
# Taken with numpy 2.4.6 on x86-64 with AVX-512: the Box-Muller draws go
# through numpy's float64 log, sin and cos.
KEPT_SPLIT_SHA256 = {"0.1.0": {
    "blobs": ("504e058382ff8a921c202bd73bf590073f4bb0c51cc968356184371ec494d454",
              "50e7be968530dcb183031eede1b92e678e382e49d6f0312116f8b8e2ab016b0f"),
    "images-independent-permute-train-test-transforms": (
        "7f473cf490d94d94946c9c7a2cfca2b1044410899c85f99c3af9d26609a123ad",
        "55991bfe30fdea754f1f0ca7d0f7071db2ab9742d873582f04249e9ecb28123e"),
}}


@pytest.mark.parametrize("name", ["blobs",
                                  "images-independent-permute-train-test-transforms"])
def test_kept_split_bytes_are_pinned_by_the_tool_version(tmp_path, name):
    import hashlib

    from fragaudit import cli
    from fragaudit.persist import TOOL_VERSION

    cli._build_data(dict(base_config(tmp_path), data=SPLIT_CONFIGS[name]), tmp_path)
    (train,), (test,) = ((tmp_path / "data").glob(f"*-{part}.dsc")
                         for part in ("train", "test"))
    got = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (train, test))
    assert got == KEPT_SPLIT_SHA256[TOOL_VERSION][name]


def test_editing_any_data_key_writes_a_new_pair_of_files(tmp_path):
    from fragaudit import cli

    base = SPLIT_CONFIGS["images-independent-permute-train-test-transforms"]
    edits = [("source", "n", 61), ("source", "num_classes", 5), ("source", "seed", 9),
             ("source", "side", 5), ("source", "active_pixels", 4),
             ("source", "noise", 0.1), ("split", "n_train", 41), ("split", "seed", 9),
             ("permute", "mode", "shared"), ("permute", "seed", 9),
             (None, "transforms", []), (None, "train_transforms", []),
             (None, "test_transforms", []), (None, "tag", "other")]
    out = tmp_path / "out"
    cli._build_data(dict(base_config(tmp_path), data=base), out)
    for section, key, value in edits:
        data = json.loads(json.dumps(base))
        (data if section is None else data[section])[key] = value
        before = set(os.listdir(out / "data"))
        cli._build_data(dict(base_config(tmp_path), data=data), out)
        new = set(os.listdir(out / "data")) - before
        assert sorted(name.split("-")[1] for name in new) == ["test.dsc", "train.dsc"], key
    assert len(os.listdir(out / "data")) == 2 * (len(edits) + 1)


def test_file_backed_sources_are_read_each_time_and_never_kept(tmp_path, write_idx):
    from fragaudit import cli
    from fragaudit.data import synth_images

    out = tmp_path / "out"
    source = {"kind": "idx", "images": str(tmp_path / "i.idx"),
              "labels": str(tmp_path / "l.idx"), "num_classes": 3}
    cfg = dict(base_config(tmp_path), data={"source": source,
                                            "split": {"n_train": 20, "seed": 2}})
    builds = []
    for seed in (1, 2):  # the same config, the source file's bytes changed
        ds = synth_images(30, 3, seed=seed, side=4, active_pixels=3)
        write_idx(tmp_path / "i.idx", tmp_path / "l.idx", ds.features, ds.labels, 4, 4)
        builds.append(cli._build_data(cfg, out)[0].features)
    assert not np.array_equal(*builds)
    assert not (out / "data").exists()


@pytest.mark.parametrize("missing", ["images.idx", "labels.idx"])
def test_a_missing_source_file_is_a_config_error_naming_it(tmp_path, capsys, write_idx,
                                                           missing):
    from fragaudit.data import synth_images

    ds = synth_images(30, 3, seed=1, side=4, active_pixels=3)
    write_idx(tmp_path / "images.idx", tmp_path / "labels.idx", ds.features, ds.labels,
              4, 4)
    (tmp_path / missing).unlink()
    source = {"kind": "idx", "images": str(tmp_path / "images.idx"),
              "labels": str(tmp_path / "labels.idx"), "num_classes": 3}
    cfg = base_config(tmp_path)
    cfg["data"] = {"source": source, "split": {"n_train": 20, "seed": 2}}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and str(tmp_path / missing) in err["message"]
    assert sorted(os.listdir(tmp_path / "out")) == []


def _swap(train, test):
    blob = train.read_bytes()
    train.write_bytes(test.read_bytes())
    test.write_bytes(blob)


@pytest.mark.parametrize("tamper", [
    lambda train, test, other: train.write_bytes(train.read_bytes()[:-8]),
    lambda train, test, other: test.write_bytes(test.read_bytes()[:-1]),
    lambda train, test, other: shutil.copyfile(other, train),
    lambda train, test, other: _swap(train, test),
    lambda train, test, other: (train.unlink(), train.mkdir()),
], ids=["train-truncated", "test-truncated", "another-sections-file", "train-test-swapped",
        "train-a-directory"])
def test_measure_on_a_tampered_data_file_exits_1_naming_it(tmp_path, capsys, tamper):
    from fragaudit import cli

    cfg = base_config(tmp_path)
    cfg["sweep"].update(max_epochs=5, seeds=[0])
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 0
    data = tmp_path / "out" / "data"
    (train,), (test,) = data.glob("*-train.dsc"), data.glob("*-test.dsc")
    other_cfg = dict(cfg, data=dict(cfg["data"], tag="other"))
    cli._build_data(other_cfg, tmp_path / "other")
    other, = (tmp_path / "other" / "data").glob("*-train.dsc")
    tamper(train, test, other)
    capsys.readouterr()
    assert main(["measure", "--config", cp]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FormatError"
    assert str(train) in err["message"] or str(test) in err["message"]


def test_bad_config_machine_readable_error(tmp_path, capsys):
    cp = tmp_path / "bad.json"
    cp.write_text("{not json")
    code = main(["train", "--config", str(cp)])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip())
    assert payload["error"] == "ConfigError"


def test_missing_section_error(tmp_path, capsys):
    cfg = {"out_dir": str(tmp_path / "out")}
    cp = write_config(tmp_path, cfg)
    code = main(["train", "--config", cp])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_takes_a_seed_offset(tmp_path, capsys, command):
    # every seed is a config key, so the config hash identifies every output
    argv = [command, "--config", write_config(tmp_path, base_config(tmp_path)),
            "--seed-offset", "1"]
    if command in ("exppp", "evidence"):
        argv += ["--mode", "verify" if command == "exppp" else "bound"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--seed-offset" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_jobs_flag_matches_sequential(tmp_path):
    cfg = base_config(tmp_path)
    cfg["sweep"]["max_epochs"] = 30
    cfg["sweep"]["stop_rules"] = [["max_epochs", 0.01]]
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp, "--jobs", "1"]) == 0
    seq = (tmp_path / "out" / "records.jsonl").read_bytes()
    assert main(["sweep", "--config", cp, "--jobs", "3",
                 "--out", str(tmp_path / "out_par")]) == 0
    par = (tmp_path / "out_par" / "records.jsonl").read_bytes()
    assert seq == par


def test_jobs_flag_only_on_sweep(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["sweep"] = {"lrs": [0.1], "optimizers": ["sgdm"],
                    "stop_rules": [["max_epochs", 0.01]], "seeds": [0, 1],
                    "max_epochs": 3}
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp, "--jobs", "2"]) == 0
    assert len(read_jsonl(tmp_path / "out" / "records.jsonl")) == 2
    for cmd in ("train", "measure", "audit", "evidence"):
        argv = [cmd, "--config", cp, "--jobs", "2"]
        if cmd == "evidence":
            argv += ["--mode", "bound"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def test_sweep_labels_wider_than_net_outputs_exit_2(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["net"]["layer_dims"] = [2, 4, 2]
    cfg["data"]["source"]["num_classes"] = 3
    cfg["sweep"]["max_epochs"] = 3
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert not (tmp_path / "out" / "records.jsonl").exists()


@pytest.mark.parametrize("train", [
    {"batch_size": -5}, {"max_epochs": -1},
    {"stop_rule": "train_ce_below", "stop_threshold": 0.0},
    {"stop_rule": "train_ce_below", "stop_threshold": -0.01},
])
def test_train_settings_out_of_range_exit_2(tmp_path, capsys, train):
    # each trained before: full batch recorded as -5, zero epochs, a rule never met
    cfg = base_config(tmp_path)
    cfg["train"].update(train)
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError", err
    assert not (tmp_path / "out" / "records.jsonl").exists()


def test_sweep_negative_batch_size_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["sweep"].update(batch_size=-5, max_epochs=3)
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "batch size" in err["message"], err
    assert not (tmp_path / "out" / "records.jsonl").exists()


def test_sweep_config_error_in_a_worker_matches_in_process(tmp_path, capsys, monkeypatch,
                                                           pools_made, children_left):
    cfg = base_config(tmp_path)
    cfg["net"]["layer_dims"] = [2, 4, 2]
    cfg["data"]["source"]["num_classes"] = 3
    cfg["sweep"].update(optimizers=["sgdm", "adam"], max_epochs=3)  # two stacks
    cp = write_config(tmp_path, cfg)
    _workers(monkeypatch, 2)
    errs = []
    for jobs in ("1", "2"):
        assert main(["sweep", "--config", cp, "--jobs", jobs]) == 2
        assert not children_left()
        errs.append(capsys.readouterr().err)
    assert pools_made == [2]
    assert errs[0] == errs[1]
    assert json.loads(errs[1])["error"] == "ConfigError"
    assert not (tmp_path / "out" / "records.jsonl").exists()


def test_sweep_summary_counts_runs_by_status(tmp_path, capsys, monkeypatch):
    _train_failing_for(monkeypatch, {2})
    cfg = base_config(tmp_path)
    cfg["sweep"].update(lrs=[0.1, 1e300], max_epochs=20)
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 0
    records = tmp_path / "out" / "records.jsonl"
    statuses = Counter(r["status"] for r in read_jsonl(records))
    assert statuses == {"ok": 2, "diverged": 1, "stop_rule_not_met": 1,
                        "error:InvalidDataset": 2}
    assert capsys.readouterr().out == (
        "sweep complete: 6 records (1 diverged, 2 error:InvalidDataset, 2 ok, "
        f"1 stop_rule_not_met) -> {records}\n")


def _train_failing_for(monkeypatch, failing_seeds):
    """Make runs whose seed is listed raise a toolkit error as they initialize."""
    import fragaudit.optim as optim
    from fragaudit.errors import InvalidDataset
    from fragaudit.rng import Rng

    real_init = optim.init_checkpoint
    failing = {Rng(seed).spawn_key("init").seed for seed in failing_seeds}

    def init_checkpoint(spec, rng, *args, **kw):
        if rng.seed in failing:
            raise InvalidDataset("injected")
        return real_init(spec, rng, *args, **kw)

    monkeypatch.setattr(optim, "init_checkpoint", init_checkpoint)


def test_sweep_all_runs_failed_exits_1(tmp_path, capsys, monkeypatch):
    _train_failing_for(monkeypatch, {0, 1, 2})
    cfg = base_config(tmp_path)
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "AllRunsFailed" and err["count"] == 6
    records = read_jsonl(tmp_path / "out" / "records.jsonl")
    assert [r["status"] for r in records] == ["error:InvalidDataset"] * 6


def test_sweep_with_one_surviving_run_exits_0(tmp_path, capsys, monkeypatch):
    _train_failing_for(monkeypatch, {1, 2})
    cfg = base_config(tmp_path)
    cfg["sweep"]["max_epochs"] = 20
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 0
    assert capsys.readouterr().err == ""
    statuses = [r["status"] for r in read_jsonl(tmp_path / "out" / "records.jsonl")]
    assert statuses.count("error:InvalidDataset") == 4
    assert len(statuses) == 6


def _output_bytes(out):
    return {str(f.relative_to(out)): f.read_bytes()
            for f in sorted(out.rglob("*")) if f.is_file()}


# A bias net whose grid holds a diverging learning rate, and a scale-invariant
# net whose seed-1 runs start with a zero first layer (a singular forward); on
# 2-D blobs its other runs meet zero-norm rows of their own as they train.
LOCKSTEP_NETS = {
    "bias": {"layer_dims": [2, 6, 2], "bias_enabled": True},
    "scale_invariant": {"layer_dims": [2, 16, 16, 2], "normalize_hidden": True,
                        "frozen_readout": True},
}


@pytest.mark.parametrize("batch_size", [0, 32])
@pytest.mark.parametrize("net", sorted(LOCKSTEP_NETS))
def test_lockstep_sweep_outputs_independent_of_stacking(tmp_path, monkeypatch, pools_made,
                                                        net, batch_size, children_left):
    import fragaudit.optim as optim
    from fragaudit.rng import Rng

    real_init = optim.init_checkpoint
    singular = Rng(1).spawn_key("init").seed

    def init_checkpoint(spec, rng, *args, **kw):
        ck = real_init(spec, rng, *args, **kw)
        if spec.normalize_hidden and rng.seed == singular:
            ck.weights[0][:] = 0.0
        return ck

    monkeypatch.setattr(optim, "init_checkpoint", init_checkpoint)
    cfg = base_config(tmp_path)
    cfg["net"] = dict(LOCKSTEP_NETS[net], tag="fcn")
    cfg["sweep"] = {"lrs": [0.05, 0.3, 1e300], "optimizers": ["adam", "sgdm"],
                    "stop_rules": [["train_acc_100", 0.01], ["train_ce_below", 0.05]],
                    "train_sizes": [96, 128], "seeds": [0, 1], "max_epochs": 25,
                    "batch_size": batch_size, "subsample_seed": 5}
    cp = write_config(tmp_path, cfg)
    _workers(monkeypatch, 2)
    outputs = {}
    for budget, jobs in ((optim.BUDGET, 1), (1, 1), (optim.BUDGET, 2)):
        monkeypatch.setattr(optim, "BUDGET", budget)
        out = tmp_path / f"out-{budget}-{jobs}"
        assert main(["sweep", "--config", cp, "--out", str(out), "--jobs", str(jobs)]) == 0
        outputs[budget, jobs] = _output_bytes(out)
    assert pools_made == [2]  # only --jobs 2 forks
    assert not children_left()
    first, *rest = outputs.values()
    assert all(other == first for other in rest)
    records = read_jsonl(tmp_path / f"out-{optim.BUDGET}-1" / "records.jsonl")
    assert len(records) == 48
    if net == "bias":
        assert {r["lr"] for r in records if r["status"] == "diverged"} == {1e300}
        assert any(r["status"] == "ok" for r in records)
    else:
        assert {r["status"] for r in records if r["seed"] == 1} == \
            {"error:NormalizationSingularity"}
        assert any(not r["status"].startswith("error:") for r in records)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    cp = write_config(tmp_path, base_config(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cp, "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.jsonl").exists()


# --- sweep: stacks on one worker per CPU by default --------------------------------

def _stacked_sweep_config(tmp_path, train_sizes):
    """A sweep of two optimizers over each training size: one stack per pair."""
    cfg = base_config(tmp_path)
    cfg["sweep"].update(optimizers=["sgdm", "adam"], train_sizes=train_sizes,
                        max_epochs=20)
    return write_config(tmp_path, cfg)


@pytest.mark.parametrize("train_sizes, stacks", [([128], 2), ([96, 128], 4)])
def test_sweep_defaults_to_one_worker_per_cpu(tmp_path, monkeypatch, pools_made,
                                              train_sizes, stacks, children_left):
    cp = _stacked_sweep_config(tmp_path, train_sizes)
    _workers(monkeypatch, 2)
    outputs = []
    for jobs in (["--jobs", "1"], []):
        out = tmp_path / f"out{len(outputs)}"
        assert main(["sweep", "--config", cp, "--out", str(out)] + jobs) == 0
        assert not children_left()
        outputs.append(_output_bytes(out))
    assert pools_made == [min(stacks, 2)]
    # three files a run, records.jsonl, the data split's two files
    assert len(outputs[0]) == 3 * 6 * stacks + 1 + 2
    assert outputs[0] == outputs[1]


def test_sweep_of_one_stack_or_jobs_1_forks_nothing(tmp_path, monkeypatch, pools_made):
    _workers(monkeypatch, 2)
    cfg = base_config(tmp_path)
    cfg["sweep"].update(lrs=[0.1], seeds=[0])  # one run: one stack
    one_stack = write_config(tmp_path, cfg, "one.json")
    assert main(["sweep", "--config", one_stack, "--out", str(tmp_path / "a")]) == 0
    two_stacks = _stacked_sweep_config(tmp_path, [128])
    assert main(["sweep", "--config", two_stacks, "--out", str(tmp_path / "b"),
                 "--jobs", "1"]) == 0
    assert pools_made == []


def test_measure_writes_diagnostics_to_record_json(tmp_path):
    cfg = base_config(tmp_path)
    cfg["sweep"]["max_epochs"] = 40
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 0
    assert main(["measure", "--config", cp]) == 0
    out = tmp_path / "out"
    records = read_jsonl(out / "records.jsonl")
    measured = [r for r in records if r["status"] in ("ok", "stop_rule_not_met")]
    assert measured
    paths = [out / "runs" / r["group"] / r["run_id"] / "record.json" for r in measured]
    for rec, path in zip(measured, paths):
        doc = json.loads(path.read_text())
        diag = doc.pop("diagnostics")
        assert doc == rec and "diagnostics" not in rec
        assert set(diag) == {"margin_gamma", "sigma", "sigma_converged", "sigma0",
                             "sigma0_converged", "spectral_residuals", "delta"}
        assert diag["delta"] == 0.05
        assert isinstance(diag["sigma_converged"], bool)
        assert len(diag["spectral_residuals"]) == 2
    first = [p.read_bytes() for p in [out / "records.jsonl"] + paths]
    assert main(["measure", "--config", cp]) == 0
    assert [p.read_bytes() for p in [out / "records.jsonl"] + paths] == first


def test_json_ready_maps_non_finite_floats_to_null():
    import numpy as np

    got = json_ready({"a": float("nan"), "b": [np.float64(1.5), np.inf, -np.inf],
                      "c": np.bool_(True), "d": (np.int64(3), "x", None)})
    assert got == {"a": None, "b": [1.5, None, None], "c": True, "d": [3, "x", None]}
    assert type(got["b"][0]) is float and type(got["c"]) is bool


class _SubsetPerLookup(dict):
    """Rebuilds the training subset on every lookup, one per measured record."""

    def __init__(self, base, seed):
        super().__init__()
        self.base, self.seed = base, seed

    def __getitem__(self, n):
        from fragaudit import data as datakit
        from fragaudit.rng import Rng

        if n and n < self.base.n:
            return datakit.subsample(self.base, n, Rng(self.seed)
                                     .spawn_key(f"n={n}").next_u64())
        return self.base


def test_measure_builds_each_training_subset_once(tmp_path, monkeypatch):
    import shutil

    from fragaudit import cli, optim

    cfg = base_config(tmp_path)
    cfg["sweep"].update(train_sizes=[64, 96], max_epochs=40)
    cp = write_config(tmp_path, cfg)
    once, per_record = tmp_path / "once", tmp_path / "per-record"
    assert main(["sweep", "--config", cp, "--out", str(once)]) == 0
    shutil.copytree(once, per_record)

    sizes = []
    real_subsample = optim.subsample

    def counting_subsample(ds, m, seed):
        sizes.append(m)
        return real_subsample(ds, m, seed)

    monkeypatch.setattr(optim, "subsample", counting_subsample)
    assert main(["measure", "--config", cp, "--out", str(once)]) == 0
    assert sorted(sizes) == [64, 96]
    monkeypatch.setattr(cli, "train_subsets",
                        lambda base, _sizes, seed: _SubsetPerLookup(base, seed))
    assert main(["measure", "--config", cp, "--out", str(per_record)]) == 0
    records = read_jsonl(once / "records.jsonl")
    assert {r["n_train"] for r in records if r["measures"]} == {64, 96}
    assert _output_bytes(once) == _output_bytes(per_record)


@pytest.mark.parametrize("measure", [
    {"mc_draws": 0}, {"iters": -3}, {"target_dev": 0.0}, {"spectral_max_iters": 0},
])
def test_measure_rejects_degenerate_measure_config(tmp_path, capsys, measure):
    cfg = base_config(tmp_path)
    cfg["measure"] = dict(cfg["measure"], **measure)
    assert main(["measure", "--config", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "measure" in err["message"]
    assert not (tmp_path / "out" / "records.jsonl").exists()


# --- config schema: every section checked at load ----------------------------
DROP = object()  # the key is left out


@pytest.mark.parametrize("command, key, value, path", [
    # each ran with a default before the schema
    ("measure", "measure.mc_draw", 5, "measure.mc_draw"),
    ("sweep", "net.bias_enable", True, "net.bias_enable"),
    ("audit", "fragility.pair_budjet", 10, "fragility.pair_budjet"),
    ("temporal", "temporal.measures", ["PATH_NROM"], "temporal.measures[0]"),
    ("sweep", "net.bias_enabled", "false", "net.bias_enabled"),
    # audited nothing and exited 3 AllUndefined
    ("audit", "fragility.measures", ["PATH_NROM"], "fragility.measures[0]"),
    # ended in a traceback
    ("sweep", "data.split.seed", DROP, "data.split.seed"),
    ("sweep", "sweep.seeds", 3, "sweep.seeds"),
    ("sweep", "sweep.lrs", "0.1", "sweep.lrs"),
    ("sweep", "sweep.stop_rules", [["train_acc_100"]], "sweep.stop_rules[0]"),
    ("train", "train.lr", "fast", "train.lr"),
    ("sweep", "net.layer_dims", DROP, "net.layer_dims"),
    # more kinds: a bool is not an int, a tagged object checks its own keys
    ("sweep", "sweep.batch_size", True, "sweep.batch_size"),
    ("train", "train.trace_measures", ["NOPE"], "train.trace_measures[0]"),
    ("hysteresis", "hysteresis.new", {"lr_x": 0.1}, "hysteresis.new.lr_x"),
    ("sweep", "data.source.kind", "blob", "data.source.kind"),
    ("sweep", "data.transforms", [{"op": "subsample", "m": 10}], "data.transforms[0].seed"),
    ("sweep", "data.transforms", [{"op": "shuffle"}], "data.transforms[0].op"),
    ("evidence", "evidence.net.tag", "fcn", "evidence.net.tag"),
    ("measure", "mesure", {}, "mesure"),
    # a section the command does not read is checked too
    ("audit", "exppp.stepz", 3, "exppp.stepz"),
])
def test_config_schema_errors_name_the_json_path(tmp_path, capsys, command, key, value,
                                                 path):
    cfg = base_config(tmp_path)
    *parents, last = key.split(".")
    node = cfg
    for name in parents:
        node = node[name]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    argv = [command, "--config", write_config(tmp_path, cfg)]
    assert main(argv + (["--mode", "bound"] if command == "evidence" else [])) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and path in err["message"], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("section, key, value, path", [
    (None, "transform", {"input": _BLOBS, "ops": []}, "transform"),
    ("data", "source", {"kind": "cache", "path": "dataset.dsc"}, "data.source.kind"),
    ("data", "transforms", [{"op": "corrupt", "p": 0.1, "seed": 1}],
     "data.transforms[0].op"),
    ("data", "transforms", [{"op": "permute", "seed": 1}], "data.transforms[0].op"),
], ids=["transform-section", "cache-source", "corrupt-op", "permute-op"])
def test_a_removed_section_kind_or_op_is_a_config_error(tmp_path, capsys, command,
                                                        section, key, value, path):
    cfg = base_config(tmp_path)
    (cfg if section is None else cfg[section])[key] = value
    argv = [command, "--config", write_config(tmp_path, cfg)]
    if command in ("exppp", "evidence"):
        argv += ["--mode", "verify" if command == "exppp" else "bound"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and path in err["message"], err
    assert not (tmp_path / "out").exists()


def test_there_is_no_transform_command(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--config", write_config(tmp_path, base_config(tmp_path))])
    assert exc.value.code == 2
    assert "invalid choice: 'transform'" in capsys.readouterr().err


def test_config_float_keys_read_json_integers_as_floats(tmp_path):
    from fragaudit import cli

    cfg = base_config(tmp_path)
    cfg["measure"]["target_dev"] = 1
    cfg["evidence"]["corruptions"] = [0, 1]
    mcfg = cli._measure_config(cfg)
    assert type(mcfg.sigma_target_dev) is float and repr(mcfg.sigma_target_dev) == "1.0"
    assert cli._section(cfg, "evidence")["corruptions"] == (0.0, 1.0)
    assert all(type(p) is float for p in cli._section(cfg, "evidence")["corruptions"])


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_config_non_finite_number_exits_2(tmp_path, capsys, constant):
    cfg = base_config(tmp_path)
    cfg["measure"]["kappa"] = float(constant)  # json.dumps writes the bare constant
    cp = write_config(tmp_path, cfg)
    assert f'"kappa": {constant}' in open(cp).read()
    assert main(["audit", "--config", cp]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and constant in err["message"]
    assert not (tmp_path / "out").exists()


def test_config_number_beyond_float_range_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["sweep"]["lrs"] = [0.1, 1e300]
    cp = write_config(tmp_path, cfg)
    with open(cp, "w") as fh:
        fh.write(json.dumps(cfg).replace("1e+300", "1e400"))
    assert main(["sweep", "--config", cp]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "1e400" in err["message"]


def test_permute_mode_typo_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["data"]["permute"] = {"mode": "independant", "seed": 4}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "data.permute.mode" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["none", "shared", "independent"])
def test_permute_modes_build_the_named_permutations(tmp_path, mode):
    import numpy as np

    from fragaudit import cli
    from fragaudit.data import permutation_pair, permute_pixels

    cfg = base_config(tmp_path)
    cfg["data"]["source"]["dim"] = 8
    plain = cli._build_data(cfg, tmp_path)
    cfg["data"]["permute"] = {"mode": mode, "seed": 4}
    train_ds, test_ds = cli._build_data(cfg, tmp_path)
    if mode == "none":
        want = plain
    else:
        # "shared" is the path every mode but "none" and "independent" took
        # before the modes were named: one permutation for train and test
        perms = permutation_pair(8, 4, independent=(mode == "independent"))
        want = [permute_pixels(ds, p) for ds, p in zip(plain, perms)]
    for got, ds in zip((train_ds, test_ds), want):
        assert got.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(got.labels, ds.labels)
        assert got.provenance == ds.provenance
    if mode != "none":
        perms = [ds.provenance["chain"][-1]["perm"] for ds in (train_ds, test_ds)]
        assert (perms[0] == perms[1]) == (mode == "shared")


@pytest.mark.parametrize("fragility, field", [
    ({"deltas": [-0.1]}, "deltas"), ({"deltas": [0.02, 0]}, "deltas"),
    ({"pair_budget": -1}, "pair_budget"),
])
def test_audit_rejects_degenerate_fragility_config(tmp_path, capsys, fragility, field):
    cfg = base_config(tmp_path)
    cfg["fragility"] = dict(cfg["fragility"], **fragility)
    assert main(["audit", "--config", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and f"fragility {field}" in err["message"]
    assert not (tmp_path / "out" / "reports").exists()


def test_config_naming_a_measure_outside_the_vocabulary_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["fragility"]["measures"] = ["PARAM_NORM", "SUM_OF_FRO"]
    assert main(["audit", "--config", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ConfigError", "message": "config key fragility.measures[1] "
                   "must be a measure name, got 'SUM_OF_FRO'"}


def test_default_measure_lists_hold_only_measure_names():
    # defaults skip the schema check, and a name outside the vocabulary would
    # be a silently empty column
    for section in ("fragility", "temporal"):
        assert set(SCHEMA[section].defaults["measures"]) <= set(MEASURE_NAMES), section


def test_audit_json_counts_the_runs_each_cell_used_and_excluded(tmp_path):
    cfg = base_config(tmp_path)
    cfg["fragility"] = {"deltas": [0.5], "measures": ["PARAM_NORM", "PATH_NORM"]}
    cp = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    out.mkdir()
    # four runs of one group; the last two have no PATH_NORM value
    with open(out / "records.jsonl", "w") as fh:
        for seed in range(4):
            measures = {"PARAM_NORM": 1.0 + seed}
            if seed < 2:
                measures["PATH_NORM"] = 2.0 + seed
            fh.write(json.dumps({
                "run_id": f"r{seed}", "group": "g", "dataset": "d", "arch": "a",
                "optimizer": "sgdm", "lr": 0.1, "stop_rule": "train_acc_100",
                "n_train": 8, "seed": seed, "test_error": 0.1 * seed,
                "measures": measures, "t_int": None, "parent_run_id": "",
            }) + "\n")
    assert main(["audit", "--config", cp]) == 0
    rdir = next((out / "reports").glob("audit-*"))
    cells = json.loads((rdir / "audit.json").read_text())["cells"]
    counts = {key: tuple(c["per_group"]["g"][k] for k in (
        "n_runs_used", "n_runs_excluded", "n_pairs")) for key, c in cells.items()}
    assert counts == {"PARAM_NORM|0.5": (4, 0, 6), "PATH_NORM|0.5": (2, 2, 1)}


def test_a_lost_sweep_worker_ends_the_command_with_the_json_error_line(
        tmp_path, capsys, monkeypatch, children_left):
    _workers(monkeypatch, 2)
    real = optim._sweep_stack

    def stack(*args):
        if workers_mod._in_worker:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(optim, "_sweep_stack", stack)
    cfg = base_config(tmp_path)
    cfg["sweep"]["optimizers"] = ["sgdm", "adam"]  # two stacks, one per worker
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "WorkerLost"
    assert "task 0 " in err["message"] and "killed by signal 9" in err["message"]
    assert not children_left()


@pytest.mark.parametrize("command", ["measure", "audit"])
def test_missing_records_file_is_config_error(tmp_path, capsys, command):
    cp = write_config(tmp_path, base_config(tmp_path))
    missing = tmp_path / "absent.jsonl"
    assert main([command, "--config", cp, "--records", str(missing)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "absent.jsonl" in err["message"]


@pytest.mark.parametrize("command", ["measure", "audit"])
def test_malformed_records_line_is_format_error_naming_it(tmp_path, capsys, command):
    cp = write_config(tmp_path, base_config(tmp_path))
    records = tmp_path / "bad.jsonl"
    records.write_text('{"run_id": "a"}\n\n{"run_id": \n')
    assert main([command, "--config", cp, "--records", str(records)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FormatError" and "line 3" in err["message"]
    assert not (tmp_path / "out" / "reports").exists()


@pytest.mark.parametrize("line", ['{"run_id": "a"}', '[1, 2]', '"run"'])
@pytest.mark.parametrize("command", ["measure", "audit"])
def test_records_line_that_is_not_a_run_record_is_format_error(tmp_path, capsys,
                                                               command, line):
    cfg = base_config(tmp_path)
    cfg["sweep"]["max_epochs"] = 3
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 0
    good = (tmp_path / "out" / "records.jsonl").read_text().splitlines()
    records = tmp_path / "bad.jsonl"
    records.write_text("\n".join(good[:2] + ["", line] + good[2:]) + "\n")
    capsys.readouterr()
    assert main([command, "--config", cp, "--records", str(records)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FormatError"
    assert str(records) in err["message"] and "line 4" in err["message"]
    assert not (tmp_path / "out" / "reports").exists()


def test_audit_summary_line(tmp_path, capsys):
    from fragaudit.measures import MEASURE_NAMES

    cfg = base_config(tmp_path)
    cfg["sweep"]["max_epochs"] = 80
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 0
    assert main(["measure", "--config", cp]) == 0
    capsys.readouterr()
    assert main(["audit", "--config", cp]) == 0
    rdir = next((tmp_path / "out" / "reports").glob("audit-*"))
    audit = json.loads((rdir / "audit.json").read_text())
    cells = audit["cells"].values()
    pairs = sum(g["n_pairs"] for c in cells for g in c["per_group"].values())
    defined = sum(c["cms_med"] is not None or c["ecms_med"] is not None for c in cells)
    assert 0 < pairs and 0 < defined <= len(cells) == 2 * len(MEASURE_NAMES)
    statuses = Counter(r["status"] for r in read_jsonl(tmp_path / "out" / "records.jsonl"))
    by_status = ", ".join(f"{statuses[k]} {k}" for k in sorted(statuses))
    assert capsys.readouterr().out == (
        f"audit of 6 records ({by_status}) in {len(audit['groups'])} groups: {pairs} "
        f"close-error pairs, {defined} of {len(cells)} cells defined -> {rdir}\n")


# --- measure: sigma-search noise drawn in blocks of runs -------------------------
# A narrow [2,6,2] bias net has P = 32, so one run's two searches of 5 draws
# take 2 * 5 * 32 = 320 noise words; a wide [2,16,2] net has P = 82 and 820.
NARROW_WORDS, WIDE_WORDS = 320, 820


def _mixed_width_runs(tmp_path, order):
    """(config path, out dir, records path): six narrow and six wide runs in one
    out directory, listed narrow then wide ('grouped') or alternating."""
    cfg = base_config(tmp_path)
    cfg["sweep"]["max_epochs"] = 20
    out = tmp_path / "out"
    by_width = []
    for tag, dims in (("narrow", [2, 6, 2]), ("wide", [2, 16, 2])):
        cfg["net"] = {"layer_dims": dims, "bias_enabled": True, "tag": tag}
        cp = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", cp, "--jobs", "1"]) == 0  # forks nothing
        by_width.append(read_jsonl(out / "records.jsonl"))
    narrow, wide = by_width
    assert len(narrow) == len(wide) == 6
    assert all(r["status"] in ("ok", "stop_rule_not_met") for r in narrow + wide)
    listed = narrow + wide if order == "grouped" else \
        [r for pair in zip(narrow, wide) for r in pair]
    records = tmp_path / f"{order}.jsonl"
    records.write_text("".join(json.dumps(r) + "\n" for r in listed))
    return cp, out, records


def _measure_with_budget(monkeypatch, cp, out, records, budget):
    """Measure in-process with NOISE_BUDGET = budget; returns the (rows, P) of
    every fill. The fills are counted in this process, so one worker."""
    from fragaudit import cli, measures

    fills = []
    real = measures.gaussian_matrix

    def counting(seeds, m):
        fills.append((len(seeds), m))
        return real(seeds, m)

    _workers(monkeypatch, 1)
    monkeypatch.setattr(cli, "NOISE_BUDGET", budget)
    monkeypatch.setattr(measures, "gaussian_matrix", counting)
    assert main(["measure", "--config", cp, "--out", str(out),
                 "--records", str(records)]) == 0
    monkeypatch.undo()
    return fills


def _measure_outputs(out):
    return {str(f.relative_to(out)): f.read_bytes()
            for f in sorted(out.rglob("*")) if f.name in ("records.jsonl", "record.json")}


def test_measure_noise_blocks_change_no_byte(tmp_path, monkeypatch):
    import shutil

    cp, out, records = _mixed_width_runs(tmp_path, "grouped")
    budgets = {0: [(5, 32)] * 12 + [(5, 82)] * 12,  # every search alone
               # five narrow runs, then one; wide runs in pairs
               1700: [(50, 32), (10, 32), (20, 82), (20, 82), (20, 82)],
               1 << 30: [(60, 32), (60, 82)]}  # one block per width
    outputs = {}
    for budget, fills in budgets.items():
        run_out = tmp_path / f"budget-{budget}"
        shutil.copytree(out, run_out)
        assert _measure_with_budget(monkeypatch, cp, run_out, records, budget) == fills
        outputs[budget] = _measure_outputs(run_out)
    first, *rest = outputs.values()
    assert len(first) == 13 and all(other == first for other in rest)


def test_measure_blocks_close_on_width_and_over_budget_runs_draw_alone(
        tmp_path, monkeypatch):
    import shutil

    cp, out, records = _mixed_width_runs(tmp_path, "alternating")
    shutil.copytree(out, tmp_path / "again")
    # every change of P closes a block, so no two runs share a fill
    fills = _measure_with_budget(monkeypatch, cp, out, records, 1 << 30)
    assert fills == [(10, 32), (10, 82)] * 6
    # a wide run is over the budget: its two searches draw alone, and the
    # narrow runs around it still get their own one-run blocks
    budget = 2 * NARROW_WORDS
    assert NARROW_WORDS <= budget < WIDE_WORDS
    fills = _measure_with_budget(monkeypatch, cp, tmp_path / "again", records, budget)
    assert fills == [(10, 32), (5, 82), (5, 82)] * 6
    assert _measure_outputs(out) == _measure_outputs(tmp_path / "again")


def test_measure_block_runs_match_compute_all_alone(tmp_path):
    from dataclasses import replace

    from fragaudit.cli import _build_data, _measure_config
    from fragaudit.net import load_checkpoint
    from fragaudit.rng import Rng

    cp, out, records = _mixed_width_runs(tmp_path, "grouped")
    assert main(["measure", "--config", cp, "--records", str(records)]) == 0
    cfg = json.loads(open(cp).read())
    train_ds, _ = _build_data(cfg, out)
    mcfg = _measure_config(cfg)
    measured = read_jsonl(out / "records.jsonl")
    assert len(measured) == 12
    for rec in measured:
        run_dir = out / "runs" / rec["group"] / rec["run_id"]
        spec, ckpt = load_checkpoint(run_dir / "ckpt.bin")
        run_cfg = replace(mcfg, seed=Rng(mcfg.seed).spawn_key(rec["run_id"]).next_u64())
        alone = compute_all(spec, ckpt, train_ds, run_cfg)
        assert rec["measures"] == alone.values and rec["measure_errors"] == alone.errors
        diag = json.loads((run_dir / "record.json").read_text())["diagnostics"]
        for key in ("sigma", "sigma_converged", "sigma0", "sigma0_converged"):
            assert diag[key] == alone.diagnostics[key], (rec["run_id"], key)


@pytest.mark.parametrize("damage", ["garbage", "deleted"])
def test_measure_stops_at_a_bad_checkpoint_after_the_runs_before_it(
        tmp_path, capsys, monkeypatch, damage):
    import shutil
    from pathlib import Path

    from fragaudit import cli

    cp, out, records = _mixed_width_runs(tmp_path, "grouped")
    clean = tmp_path / "clean"
    shutil.copytree(out, clean)
    _measure_with_budget(monkeypatch, cp, clean, records, 1 << 30)
    measured = _measure_outputs(clean)
    listed = read_jsonl(records)
    bad = listed[3]  # the middle of the narrow runs' block
    ckpt = out / "runs" / bad["group"] / bad["run_id"] / "ckpt.bin"
    if damage == "garbage":
        ckpt.write_bytes(b"garbage")
    else:
        ckpt.unlink()
    before = _measure_outputs(out)
    monkeypatch.setattr(cli, "NOISE_BUDGET", 1 << 30)
    capsys.readouterr()
    assert main(["measure", "--config", cp, "--out", str(out),
                 "--records", str(records)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FormatError" and err["message"].startswith(f"{ckpt}: ")
    after = _measure_outputs(out)
    assert after["records.jsonl"] == before["records.jsonl"]
    for i, rec in enumerate(listed):
        name = str(Path("runs", rec["group"], rec["run_id"], "record.json"))
        # the runs before the bad checkpoint are measured as in a clean run;
        # it and every run after it keep their unmeasured record.json
        assert after[name] == (measured[name] if i < 3 else before[name])
        assert (after[name] != before[name]) == (i < 3), name


@pytest.mark.parametrize("edit", [
    lambda h: {k: v for k, v in h.items() if k != "spec"},
    lambda h: {k: v for k, v in h.items() if k != "payload"},
    lambda h: [1, 2],
], ids=["no-spec", "no-payload", "not-an-object"])
def test_measure_stops_at_a_malformed_checkpoint_header_after_the_runs_before_it(
        tmp_path, capsys, monkeypatch, edit):
    from pathlib import Path

    cp, out, records = _mixed_width_runs(tmp_path, "grouped")
    listed = read_jsonl(records)
    bad = listed[3]
    path = out / "runs" / bad["group"] / bad["run_id"] / "ckpt.bin"
    head, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(head))).encode() + b"\n" + payload)
    before = _measure_outputs(out)
    capsys.readouterr()
    _workers(monkeypatch, 1)
    assert main(_measure_cmd(cp, out, records)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FormatError" and err["message"].startswith(f"{path}: ")
    after = _measure_outputs(out)
    assert after["records.jsonl"] == before["records.jsonl"]
    for i, rec in enumerate(listed):
        name = str(Path("runs", rec["group"], rec["run_id"], "record.json"))
        assert (after[name] != before[name]) == (i < 3), name


# --- measure: noise blocks on the forked worker pool -----------------------------

def _measure_cmd(cp, out, records):
    return ["measure", "--config", cp, "--out", str(out), "--records", str(records)]


def test_measure_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch,
                                                           pools_made, children_left):
    from fragaudit import cli

    cp, out, records = _mixed_width_runs(tmp_path, "grouped")
    outputs = {}
    for workers in (1, 2, 3):
        for budget in (0, 1700, 1 << 30):  # 12, 5 and 2 blocks
            run_out = tmp_path / f"workers-{workers}-budget-{budget}"
            shutil.copytree(out, run_out)
            _workers(monkeypatch, workers)
            monkeypatch.setattr(cli, "NOISE_BUDGET", budget)
            assert main(_measure_cmd(cp, run_out, records)) == 0
            outputs[workers, budget] = _measure_outputs(run_out)
    assert pools_made == [2, 2, 2, 3, 3, 2]
    assert not children_left()
    first, *rest = outputs.values()
    assert len(first) == 13 and all(other == first for other in rest)


@pytest.mark.parametrize("budget, bad", [(0, 3), (1700, 8)])
def test_measure_on_a_pool_stops_at_a_bad_checkpoint_after_the_runs_before_it(
        tmp_path, monkeypatch, pools_made, budget, bad):
    from pathlib import Path

    from fragaudit import cli

    cp, out, records = _mixed_width_runs(tmp_path, "grouped")
    clean = tmp_path / "clean"
    shutil.copytree(out, clean)
    _workers(monkeypatch, 2)
    monkeypatch.setattr(cli, "NOISE_BUDGET", budget)
    assert main(_measure_cmd(cp, clean, records)) == 0
    measured = _measure_outputs(clean)
    listed = read_jsonl(records)
    rec = listed[bad]  # three blocks before it at either budget
    (out / "runs" / rec["group"] / rec["run_id"] / "ckpt.bin").write_bytes(b"garbage")
    before = _measure_outputs(out)
    assert main(_measure_cmd(cp, out, records)) == 1
    assert pools_made == [2, 2]
    after = _measure_outputs(out)
    assert after["records.jsonl"] == before["records.jsonl"]
    for i, rec in enumerate(listed):
        name = str(Path("runs", rec["group"], rec["run_id"], "record.json"))
        assert after[name] == (measured[name] if i < bad else before[name])
        assert (after[name] != before[name]) == (i < bad), name


def test_measure_bug_in_a_worker_matches_in_process(tmp_path, monkeypatch, pools_made,
                                                    children_left):
    from fragaudit import cli

    cp, out, records = _mixed_width_runs(tmp_path, "grouped")
    real = cli.compute_all

    def compute_all(spec, *args, **kwargs):
        if spec.layer_dims == (2, 16, 2):
            raise RuntimeError("planted in the first wide run")
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_all", compute_all)
    monkeypatch.setattr(cli, "NOISE_BUDGET", 0)
    outputs, errors = [], []
    for workers in (1, 2):
        run_out = tmp_path / f"workers-{workers}"
        shutil.copytree(out, run_out)
        _workers(monkeypatch, workers)
        with pytest.raises(RuntimeError) as exc:
            main(_measure_cmd(cp, run_out, records))
        errors.append(str(exc.value))
        outputs.append(_measure_outputs(run_out))
    assert pools_made == [2]
    assert not children_left()
    assert errors == ["planted in the first wide run"] * 2
    assert outputs[0] == outputs[1]
    unmeasured = _measure_outputs(out)
    assert outputs[0]["records.jsonl"] == unmeasured["records.jsonl"]
    assert sum(outputs[0][k] != unmeasured[k] for k in unmeasured) == 6  # the narrow runs


def test_measure_of_one_block_forks_nothing(tmp_path, monkeypatch, pools_made):
    cp = write_config(tmp_path, base_config(tmp_path))  # six P = 32 runs: one block
    _workers(monkeypatch, 2)
    assert main(["sweep", "--config", cp, "--jobs", "1"]) == 0
    assert main(["measure", "--config", cp]) == 0
    assert pools_made == []


def test_measure_tags_an_undefined_path_norm_and_goes_on(tmp_path, capsys):
    from fragaudit.net import load_checkpoint, save_checkpoint

    cfg = base_config(tmp_path)
    cfg["sweep"].update(lrs=[0.1], seeds=[0], max_epochs=5)
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 0
    (ckpt_path,) = (tmp_path / "out" / "runs").rglob("ckpt.bin")
    spec, ckpt = load_checkpoint(ckpt_path)
    # the squared-weight pass meets 0 * inf: its logit sum is NaN
    ckpt.weights[0][1, 0] = 1e200
    ckpt.weights[1][:, 1] = 0.0
    save_checkpoint(ckpt_path, spec, ckpt)
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(["measure", "--config", cp]) == 0
    path = tmp_path / "out" / "records.jsonl"
    (record,) = read_jsonl(path)
    assert record["measure_errors"]["PATH_NORM"] == "PathNormUndefined"
    errors = Counter(record["measure_errors"].values())
    assert capsys.readouterr().out == (
        "measured 1 of 1 runs (skipped: none; measure errors: "
        f"{', '.join(f'{errors[k]} {k}' for k in sorted(errors))}) -> {path}\n")


def test_measure_summary_counts_runs_skipped_by_status_and_errors_by_tag(
        tmp_path, capsys, monkeypatch):
    _train_failing_for(monkeypatch, {2})
    cfg = base_config(tmp_path)
    cfg["sweep"].update(lrs=[0.1, 1e300], max_epochs=20)
    cp = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cp]) == 0
    capsys.readouterr()
    assert main(["measure", "--config", cp]) == 0
    path = tmp_path / "out" / "records.jsonl"
    records = read_jsonl(path)
    errors = Counter(tag for r in records for tag in r["measure_errors"].values())
    assert errors == {"MarginNotPositive": 8, "NonFinite": 12}
    assert capsys.readouterr().out == (
        "measured 3 of 6 runs (skipped: 1 diverged, 2 error:InvalidDataset; "
        f"measure errors: 8 MarginNotPositive, 12 NonFinite) -> {path}\n")
