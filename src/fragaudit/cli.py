"""Command-line orchestration: one JSON config document drives every command.

Outputs land under --out (default: the config's out_dir) in a re-runnable
layout: runs/<group>/<run_id>/{record.json, ckpt.bin, trace.csv} plus
records.jsonl, and reports/<name>/... for audits and experiments. Every file
embeds the config hash and tool version; reruns are byte-identical.
"""

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import data as datakit
from . import evidence as ev
from . import exppp as xp
from . import fragility as frag
from . import persist
from .errors import AllRunsFailed, ConfigError, FragAuditError
from .measures import MEASURE_NAMES, MeasureConfig, compute_all, sigma_noise
from .net import NetSpec, flatten_params, load_checkpoint, save_checkpoint
from .optim import Hyperparams, SweepConfig, resume, sweep, train, train_subsets
from .records import RunRecord, post_interp_slope
from .rng import Rng
from .workers import ordered_map


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    if name not in cfg:
        if required:
            raise ConfigError(f"config is missing the {name!r} section")
        return {}
    return cfg[name]


def _net_spec(cfg: dict) -> NetSpec:
    return NetSpec.from_dict(_section(cfg, "net"))


def _apply_ops(ds, ops):
    for op in ops:
        kind = op.get("op")
        if kind in ("binarize",):
            ds = datakit.binarize(ds, set(op["positive"]) if "positive" in op else None)
        elif kind in ("corrupt", "corrupt_labels"):
            ds = datakit.corrupt_labels(ds, float(op["p"]), int(op["seed"]))
        elif kind in ("permute", "permute_pixels"):
            perm = datakit.make_permutation(ds.dim, int(op["seed"]))
            ds = datakit.permute_pixels(ds, perm)
        elif kind == "subsample":
            ds = datakit.subsample(ds, int(op["m"]), int(op["seed"]))
        else:
            raise ConfigError(f"unknown transform op {kind!r}")
    return ds


def _build_source(src: dict):
    kind = src.get("kind")
    if kind == "blobs":
        return datakit.synth_blobs(int(src["n"]), int(src["dim"]),
                                   int(src["num_classes"]),
                                   float(src["separation"]), int(src["seed"]))
    if kind == "images":
        return datakit.synth_images(int(src["n"]), int(src["num_classes"]),
                                    int(src["seed"]), int(src.get("side", 28)),
                                    int(src.get("active_pixels", 64)),
                                    float(src.get("noise", 0.08)))
    if kind == "idx":
        return datakit.load_idx(src["images"], src["labels"],
                                src.get("num_classes"))
    if kind == "cache":
        return datakit.load_cache(src["path"])
    raise ConfigError(f"unknown dataset source kind {kind!r}")


def _build_data(cfg: dict):
    """(train, test) per the data section: source, transforms, split, permute."""
    dcfg = _section(cfg, "data")
    ds = _build_source(_section(dcfg, "source"))
    ds = _apply_ops(ds, dcfg.get("transforms", []))
    split = _section(dcfg, "split")
    train_ds, test_ds = datakit.split_train_test(ds, int(split["n_train"]),
                                                 int(split["seed"]))
    pcfg = dcfg.get("permute", {})
    mode = pcfg.get("mode", "none")
    if mode != "none":
        p_train, p_test = datakit.permutation_pair(
            train_ds.dim, int(pcfg["seed"]), independent=(mode == "independent"))
        train_ds = datakit.permute_pixels(train_ds, p_train)
        test_ds = datakit.permute_pixels(test_ds, p_test)
    train_ds = _apply_ops(train_ds, dcfg.get("train_transforms", []))
    test_ds = _apply_ops(test_ds, dcfg.get("test_transforms", []))
    return train_ds, test_ds


def _measure_config(cfg: dict) -> MeasureConfig:
    m = cfg.get("measure", {})
    return MeasureConfig(
        sigma_target_dev=float(m.get("target_dev", 0.1)),
        sigma_mc_draws=int(m.get("mc_draws", 15)),
        sigma_iters=int(m.get("iters", 20)),
        kappa=float(m.get("kappa", 1e-3)),
        delta=float(m.get("delta", 0.05)),
        seed=int(m.get("seed", 0)),
        spectral_tol=float(m.get("spectral_tol", 1e-10)),
        spectral_max_iters=int(m.get("spectral_max_iters", 20000)),
    )


def _hyperparams(tcfg: dict, dataset_tag: str, arch_tag: str) -> Hyperparams:
    return Hyperparams(
        optimizer=tcfg.get("optimizer", "sgdm"),
        lr=float(tcfg.get("lr", 0.01)),
        momentum_gamma=float(tcfg.get("momentum", 0.9)),
        weight_decay=float(tcfg.get("weight_decay", 0.0)),
        batch_size=int(tcfg.get("batch_size", 0)),
        stop_rule=tcfg.get("stop_rule", "train_acc_100"),
        stop_threshold=float(tcfg.get("stop_threshold", 0.01)),
        max_epochs=int(tcfg.get("max_epochs", 200)),
        dataset=dataset_tag,
        arch=arch_tag,
    )


def _tags(cfg: dict):
    dcfg = _section(cfg, "data")
    default = dcfg.get("source", {}).get("kind", "data")
    return dcfg.get("tag", default), cfg.get("net", {}).get("tag", "fcn")


def _run_dir(out: Path, rec) -> Path:
    return out / "runs" / rec.group / rec.run_id


def _persist_result(out: Path, spec, res, cfg_hash: str) -> None:
    d = _run_dir(out, res.record)
    d.mkdir(parents=True, exist_ok=True)
    persist.write_json(d / "record.json", res.record.to_dict(), cfg_hash)
    if res.checkpoint is not None:
        save_checkpoint(d / "ckpt.bin", spec, res.checkpoint)
    header, rows = persist.trace_csv_rows(res.trace)
    persist.write_csv(d / "trace.csv", header, rows, cfg_hash)


def _write_records(out: Path, records, cfg_hash: str) -> None:
    records = sorted(records, key=lambda r: r["run_id"])
    persist.write_jsonl(out / "records.jsonl", records, cfg_hash)


# --- commands ----------------------------------------------------------------

def cmd_train(cfg, out, args):
    spec = _net_spec(cfg)
    train_ds, test_ds = _build_data(cfg)
    dtag, atag = _tags(cfg)
    tcfg = _section(cfg, "train")
    H = _hyperparams(tcfg, dtag, atag)
    seed = int(tcfg.get("seed", 0)) + args.seed_offset
    res = train(spec, train_ds, test_ds, H, seed,
                trace_measures=tuple(tcfg.get("trace_measures", ())),
                measure_config=_measure_config(cfg))
    cfg_hash = persist.config_hash(cfg)
    _persist_result(out, spec, res, cfg_hash)
    _write_records(out, [res.record.to_dict()], cfg_hash)
    print(f"run {res.record.run_id}: test_error={res.record.test_error!r} "
          f"t_int={res.record.t_int}")
    return 0


def cmd_sweep(cfg, out, args):
    spec = _net_spec(cfg)
    train_ds, test_ds = _build_data(cfg)
    dtag, atag = _tags(cfg)
    s = _section(cfg, "sweep")
    scfg = SweepConfig(
        lrs=tuple(float(x) for x in s["lrs"]),
        optimizers=tuple(s.get("optimizers", ("sgdm",))),
        stop_rules=tuple((r[0], float(r[1])) for r in
                         s.get("stop_rules", [["train_acc_100", 0.01]])),
        train_sizes=tuple(int(x) for x in s.get("train_sizes", ())),
        seeds=tuple(int(x) for x in s.get("seeds", (0,))),
        momentum=float(s.get("momentum", 0.9)),
        weight_decay=float(s.get("weight_decay", 0.0)),
        batch_size=int(s.get("batch_size", 0)),
        max_epochs=int(s.get("max_epochs", 200)),
        dataset=dtag, arch=atag,
        subsample_seed=int(s.get("subsample_seed", 1)),
    )
    cfg_hash = persist.config_hash(cfg)
    results = sweep(spec, train_ds, test_ds, scfg,
                    on_result=lambda r: _persist_result(out, spec, r, cfg_hash),
                    seed_offset=args.seed_offset, jobs=args.jobs)
    _write_records(out, [r.record.to_dict() for r in results], cfg_hash)
    by_status = _by_count(Counter(r.record.status for r in results))
    print(f"sweep complete: {len(results)} records ({by_status}) -> "
          f"{out / 'records.jsonl'}")
    if results and all(r.record.status.startswith("error:") for r in results):
        raise AllRunsFailed(len(results))
    return 0


def _by_count(counts: Counter) -> str:
    """'2 a, 1 b' for Counter(a=2, b=1), keys sorted; 'none' when empty."""
    return ", ".join(f"{counts[k]} {k}" for k in sorted(counts)) or "none"


def _iter_records(path):
    for d in persist.read_jsonl(path):
        yield RunRecord.from_dict(d)


# cmd_measure draws the sigma-search noise of consecutive runs with the same P
# in one gaussian_matrix call of at most this many words, both searches of
# every run; a run whose own noise is larger draws inside its searches. A fill
# has a fixed cost of about 1.5 ms. Per search of the blobs_audit net (15 rows
# of 178), one search alone took 1.7-2.1 ms, blocks of 2^14 words (3 runs,
# 90 rows) 0.67-0.72 ms and of 2^15 words (6 runs, 180 rows) 0.41-0.45 ms;
# 2^16 words gave 0.29 ms for twice the block's memory
# (benchmarks/bench_kernels.py, 2-core x86-64 host, numpy backend).
NOISE_BUDGET = 1 << 15


def _measurable(rec) -> bool:
    return rec.status.startswith("ok") or rec.status == "stop_rule_not_met"


def _measure_plan(out, records, mcfg):
    """(blocks, load_error): the noise blocks of the runs to measure, in order.

    A block is (runs, p), runs a list of (record, measure config). Consecutive
    runs with one parameter count p share a noise fill while it stays within
    NOISE_BUDGET words; a change in p closes the block. A run whose own noise
    is over the budget is a block of its own with p None: its searches draw.
    Each checkpoint is loaded here only to check it and read p. The plan ends
    at the first one that fails to load, and load_error is its exception (None
    if every checkpoint loaded): the runs before it are still measured.
    """
    blocks, block, width, words = [], [], None, 0
    for rec in filter(_measurable, records):
        try:
            ck_spec, ckpt = load_checkpoint(_run_dir(out, rec) / "ckpt.bin")
        except Exception as exc:
            # raised by cmd_measure once the runs before it are written
            if block:
                blocks.append((block, width))
            return blocks, exc
        run_mcfg = replace(mcfg, seed=Rng(mcfg.seed).spawn_key(rec.run_id).next_u64())
        p = flatten_params(ck_spec, ckpt.weights, ckpt.biases).size
        need = 2 * mcfg.sigma_mc_draws * (p + p % 2)  # rows hold whole word pairs
        if block and (p != width or words + need > NOISE_BUDGET):
            blocks.append((block, width))
            block, words = [], 0
        if need > NOISE_BUDGET:
            blocks.append(([(rec, run_mcfg)], None))
            continue
        block.append((rec, run_mcfg))
        width = p
        words += need
    if block:
        blocks.append((block, width))
    return blocks, None


def _measure_block(out, subsets, blocks, i) -> list:
    """(values, errors, diagnostics) of each run of blocks[i], in order.

    Runs in a worker or in-process. It reloads the block's checkpoints and
    draws the block's noise itself, so no checkpoint or noise row crosses a
    pipe.
    """
    runs, width = blocks[i]
    if width is None:
        noise = [None] * len(runs)
    else:
        noise = sigma_noise([run_mcfg for _, run_mcfg in runs], width)
    results = []
    for (rec, run_mcfg), rows in zip(runs, noise, strict=True):
        ck_spec, ckpt = load_checkpoint(_run_dir(out, rec) / "ckpt.bin")
        ms = compute_all(ck_spec, ckpt, subsets[rec.n_train or 0], run_mcfg, noise=rows)
        results.append((ms.values, ms.errors, ms.diagnostics))
    return results


def cmd_measure(cfg, out, args):
    spec = _net_spec(cfg)
    base_train, _ = _build_data(cfg)
    mcfg = _measure_config(cfg)
    records_path = Path(args.records) if args.records else out / "records.jsonl"
    records = list(_iter_records(records_path))
    subsample_seed = int(cfg.get("sweep", {}).get("subsample_seed", 1))
    subsets = train_subsets(base_train, {r.n_train or 0 for r in records}, subsample_seed)
    cfg_hash = persist.config_hash(cfg)
    blocks, load_error = _measure_plan(out, records, mcfg)
    # one worker per CPU, never more than blocks: the outputs do not depend on it
    shared = (out, subsets, blocks)
    with ordered_map(_measure_block, shared, range(len(blocks)), len(blocks)) as parts:
        for (runs, _), part in zip(blocks, parts, strict=True):
            for (rec, _), (values, errors, diagnostics) in zip(runs, part, strict=True):
                rec.measures, rec.measure_errors = values, errors
                # record.json also keeps the search and solver diagnostics;
                # records.jsonl does not
                persist.write_json(_run_dir(out, rec) / "record.json", dict(
                    rec.to_dict(), diagnostics=persist.json_ready(diagnostics)),
                    cfg_hash)
    if load_error is not None:
        raise load_error
    _write_records(out, [rec.to_dict() for rec in records], cfg_hash)
    measured = [rec for rec in records if _measurable(rec)]
    skipped = Counter(rec.status for rec in records if not _measurable(rec))
    errors = Counter(tag for rec in measured for tag in rec.measure_errors.values())
    print(f"measured {len(measured)} of {len(records)} runs (skipped: "
          f"{_by_count(skipped)}; measure errors: {_by_count(errors)}) -> "
          f"{out / 'records.jsonl'}")
    return 0


def cmd_audit(cfg, out, args):
    fcfg_raw = cfg.get("fragility", {})
    fcfg = frag.FragilityConfig(
        deltas=tuple(float(d) for d in fcfg_raw.get("deltas", (0.01, 0.02, 0.05))),
        pair_budget=int(fcfg_raw.get("pair_budget", 10000)),
        subsample_seed=int(fcfg_raw.get("subsample_seed", 0)),
    )
    measures = tuple(fcfg_raw.get("measures", MEASURE_NAMES))
    records_path = Path(args.records) if args.records else out / "records.jsonl"
    records = list(_iter_records(records_path))
    group_scores, aggregates = frag.score_records(records, measures, fcfg)
    cfg_hash = persist.config_hash(cfg)
    rdir = out / "reports" / f"audit-{cfg_hash}"
    rdir.mkdir(parents=True, exist_ok=True)
    groups = sorted(group_scores)
    for delta in fcfg.deltas:
        csv_text = frag.emit_table_csv(aggregates, groups, measures, delta)
        stem = f"cms_delta_{repr(delta).replace('.', '_')}"
        with open(rdir / f"{stem}.csv", "w") as fh:
            fh.write(f"# config_hash={cfg_hash} tool_version={persist.TOOL_VERSION}\n")
            fh.write(csv_text)
        with open(rdir / f"{stem}.txt", "w") as fh:
            fh.write(f"# config_hash={cfg_hash} tool_version={persist.TOOL_VERSION}\n")
            fh.write(frag.emit_table_text(aggregates, groups, measures, delta))
    cells = {
        f"{m}|{delta!r}": {
            "cms_med": agg.cms_med, "ecms_med": agg.ecms_med,
            "cms_coverage": agg.cms_coverage, "ecms_coverage": agg.ecms_coverage,
            "per_group": {
                g: {"cms": c.cms, "ecms": c.ecms, "cms_seed": c.cms_seed,
                    "cms_inter": c.cms_inter, "n_pairs": c.n_pairs,
                    "n_seed_pairs": c.n_seed_pairs,
                    "n_inter_pairs": c.n_inter_pairs}
                for g, c in agg.per_group.items()
            },
        }
        for (m, delta), agg in sorted(aggregates.items())
    }
    persist.write_json(rdir / "audit.json",
                       {"groups": groups, "cells": cells}, cfg_hash)
    print(f"audit tables -> {rdir}")
    if not frag.any_defined(aggregates):
        sys.stderr.write(persist.canonical_json(
            {"error": "AllUndefined", "message": "every score was Undefined"}) + "\n")
        return 3
    return 0


def cmd_temporal(cfg, out, args):
    spec = _net_spec(cfg)
    train_ds, test_ds = _build_data(cfg)
    dtag, atag = _tags(cfg)
    tcfg = _section(cfg, "train")
    names = tuple(cfg.get("temporal", {}).get(
        "measures", ("PATH_NORM", "PARAM_NORM", "FRO_DIST")))
    H = _hyperparams(tcfg, dtag, atag)
    seed = int(tcfg.get("seed", 0)) + args.seed_offset
    res = train(spec, train_ds, test_ds, H, seed, trace_measures=names,
                measure_config=_measure_config(cfg))
    cfg_hash = persist.config_hash(cfg)
    _persist_result(out, spec, res, cfg_hash)
    slopes = {}
    for name in names:
        try:
            slopes[name] = post_interp_slope(res.trace, name)
        except FragAuditError as exc:
            slopes[name] = f"{type(exc).__name__}: {exc}"
    rdir = out / "reports" / "temporal"
    rdir.mkdir(parents=True, exist_ok=True)
    persist.write_json(rdir / f"{res.record.run_id}.json", {
        "run_id": res.record.run_id,
        "t_int": res.record.t_int,
        "slopes": slopes,
        "test_error": res.record.test_error,
    }, cfg_hash)
    print(f"temporal report -> {rdir / (res.record.run_id + '.json')}")
    return 0


def cmd_hysteresis(cfg, out, args):
    spec = _net_spec(cfg)
    train_ds, test_ds = _build_data(cfg)
    dtag, atag = _tags(cfg)
    tcfg = _section(cfg, "train")
    names = tuple(cfg.get("temporal", {}).get(
        "measures", ("PATH_NORM", "PARAM_NORM", "FRO_DIST")))
    H = _hyperparams(tcfg, dtag, atag)
    seed = int(tcfg.get("seed", 0)) + args.seed_offset
    mcfg = _measure_config(cfg)
    parent = train(spec, train_ds, test_ds, H, seed, trace_measures=names,
                   measure_config=mcfg, want_interp_snapshot=True)
    if parent.interp_checkpoint is None:
        raise ConfigError("parent run never reached 100% training accuracy")
    hcfg = _section(cfg, "hysteresis")
    new = dict(tcfg)
    new.update(hcfg.get("new", {}))
    H_new = _hyperparams(new, dtag, atag)
    resumed = resume(spec, parent.interp_checkpoint, train_ds, test_ds, H_new,
                     seed=int(hcfg.get("seed", seed + 1)), trace_measures=names,
                     measure_config=mcfg)
    cfg_hash = persist.config_hash(cfg)
    _persist_result(out, spec, parent, cfg_hash)
    _persist_result(out, spec, resumed, cfg_hash)
    _write_records(out, [parent.record.to_dict(), resumed.record.to_dict()], cfg_hash)

    def slope_block(res):
        block = {}
        for name in names:
            try:
                block[name] = post_interp_slope(res.trace, name)
            except FragAuditError as exc:
                block[name] = f"{type(exc).__name__}: {exc}"
        return block

    report = {
        "parent_run_id": parent.record.run_id,
        "resumed_run_id": resumed.record.run_id,
        "resume_links_parent": resumed.record.parent_run_id == parent.record.run_id,
        "parent": {"t_int": parent.record.t_int, "slopes": slope_block(parent),
                   "test_error": parent.record.test_error},
        "resumed": {"t_int": resumed.record.t_int, "slopes": slope_block(resumed),
                    "test_error": resumed.record.test_error},
    }
    rdir = out / "reports" / "hysteresis"
    rdir.mkdir(parents=True, exist_ok=True)
    persist.write_json(rdir / f"{parent.record.run_id}.json", report, cfg_hash)
    print(f"hysteresis report -> {rdir / (parent.record.run_id + '.json')}")
    return 0


def cmd_exppp(cfg, out, args):
    spec = _net_spec(cfg)
    train_ds, test_ds = _build_data(cfg)
    e = _section(cfg, "exppp")
    base = dict(eta0=float(e.get("eta0", 0.01)), gamma=float(e.get("gamma", 0.9)),
                lam=float(e.get("lambda", 0.0)))
    T = int(e.get("steps", 200))
    tol = float(e.get("tol", 1e-6))
    logit_tol = float(e.get("logit_tol", 1e-9))
    seed = int(e.get("seed", 0)) + args.seed_offset
    cfg_hash = persist.config_hash(cfg)
    rdir = out / "reports" / "exppp"
    rdir.mkdir(parents=True, exist_ok=True)
    der = xp.derive(base["eta0"], base["gamma"], base["lam"])
    if args.mode == "verify":
        alphas = [float(a) for a in e.get("alphas", [])] or [float(e.get("alpha", 0.9))]
        reports = []
        for a in alphas:
            rep = xp.verify_equivalence(spec, train_ds,
                                        xp.ExpPPParams(alpha=a, **base), T,
                                        tol=tol, logit_tol=logit_tol, seed=seed)
            reports.append(rep.to_dict())
            stem = f"verify-alpha-{repr(a).replace('.', '_')}"
            persist.write_csv(rdir / f"{stem}.csv",
                              ["step", "rel_dev", "logit_diff"], rep.steps, cfg_hash)
        persist.write_json(rdir / "verify.json", {
            "interval": der.interval_str(),
            "remark_ok": der.remark_ok,
            "reports": reports,
        }, cfg_hash)
        print(f"verified {len(reports)} alpha value(s) -> {rdir / 'verify.json'}")
        return 0
    alphas = [float(a) for a in e.get("alphas", [])] or \
        list(xp.demo_alphas(der, int(e.get("demo_count", 8))))
    demos = []
    for a in alphas:
        demo = xp.inflation_demo(spec, train_ds, test_ds,
                                 xp.ExpPPParams(alpha=a, **base), T,
                                 _measure_config(cfg), tol=tol, seed=seed)
        demos.append(demo)
    names = sorted(set().union(*(d["ratios"] for d in demos))) if demos else []
    rows = [[repr(a)] + [d["ratios"].get(m) for m in names]
            + [d["test_error_a"], d["test_error_b"]]
            for a, d in zip(alphas, demos)]
    persist.write_csv(rdir / "demo_ratios.csv",
                      ["alpha"] + names + ["test_error_a", "test_error_b"],
                      rows, cfg_hash)
    persist.write_json(rdir / "demo.json", {"alphas": alphas, "demos": demos}, cfg_hash)
    print(f"inflation demo for {len(alphas)} alpha value(s) -> {rdir / 'demo.json'}")
    return 0


def cmd_evidence(cfg, out, args):
    e = _section(cfg, "evidence")
    spec = NetSpec.from_dict(e["net"]) if "net" in e else _net_spec(cfg)
    cfg_hash = persist.config_hash(cfg)
    rdir = out / "reports" / "evidence"
    rdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "bound":
        train_ds, _ = _build_data(cfg)
        est = ev.estimate_consistency_mass(
            spec, train_ds, int(e.get("draws", 100000)), int(e.get("seed", 0)))
        report = {
            "hits": est.hits, "draws": est.draws, "p_hat": est.p_hat,
            "wilson": [est.wilson_lo, est.wilson_hi],
            "rule_of_three_upper": est.rule_of_three_upper,
        }
        if est.p_hat is not None:
            bound = ev.ml_pacbayes_bound(ev.BoundInput(
                train_ds.n, est.p_hat, float(e.get("delta", 0.05)),
                float(e.get("gamma", 0.05))))
            report["bound"] = bound.to_dict()
        persist.write_json(rdir / "bound.json", report, cfg_hash)
        print(f"evidence bound -> {rdir / 'bound.json'}")
        return 0
    task = ev.EvidenceTask(
        n_train=int(e.get("n_train", 16)),
        n_heldout=int(e.get("n_heldout", 2000)),
        dim=int(e.get("dim", 2)),
        separation=float(e.get("separation", 4.0)),
        draws=int(e.get("draws", 100000)),
        repetitions=int(e.get("repetitions", 100)),
        delta_conf=float(e.get("delta", 0.05)),
        gamma_conf=float(e.get("gamma", 0.05)),
        corruptions=tuple(float(p) for p in e.get("corruptions", (0.0,))),
        max_attempts=int(e.get("max_attempts", 200000)),
    )
    report = ev.bound_vs_error_experiment(spec, task, int(e.get("seed", 0)))
    persist.write_json(rdir / "experiment.json", report, cfg_hash)
    header = ["rep", "corruption", "hits", "p_hat", "bound", "sample_error",
              "violation", "status"]
    rows = [[r["rep"], r["corruption"], r["hits"], r["p_hat"], r["bound"],
             r["sample_error"], r["violation"], r["status"]]
            for r in report["rows"]]
    persist.write_csv(rdir / "experiment.csv", header, rows, cfg_hash)
    print(f"evidence experiment -> {rdir / 'experiment.json'} "
          f"(violation rate {report['violation_rate']!r})")
    return 0


def cmd_transform(cfg, out, args):
    t = _section(cfg, "transform")
    ds = _build_source(_section(t, "input"))
    ds = _apply_ops(ds, t.get("ops", []))
    out.mkdir(parents=True, exist_ok=True)
    path = out / t.get("output", "dataset.dsc")
    datakit.save_cache(path, ds)
    print(f"dataset cache -> {path} (n={ds.n}, dim={ds.dim}, "
          f"classes={ds.num_classes})")
    return 0


COMMANDS = {
    "train": cmd_train,
    "sweep": cmd_sweep,
    "measure": cmd_measure,
    "audit": cmd_audit,
    "temporal": cmd_temporal,
    "hysteresis": cmd_hysteresis,
    "exppp": cmd_exppp,
    "evidence": cmd_evidence,
    "transform": cmd_transform,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragaudit",
        description="Fragility auditing toolkit for generalization measures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed-offset", type=int, default=0, dest="seed_offset")
        if name == "sweep":
            p.add_argument("--jobs", type=_positive_int, default=1,
                           help="lockstep stacks of runs trained at once")
        if name in ("measure", "audit"):
            p.add_argument("--records", default=None, help="records.jsonl path")
        if name in ("exppp", "evidence"):
            p.add_argument("--mode", required=True,
                           choices=("verify", "demo") if name == "exppp"
                           else ("bound", "experiment"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out = Path(args.out or cfg.get("out_dir", "out"))
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        return persist.error_exit(exc, 2)
    except FragAuditError as exc:
        return persist.error_exit(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
