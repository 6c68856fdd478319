"""Command-line orchestration: one JSON config document drives every command.

Outputs land under --out (default: the config's out_dir) in a re-runnable
layout: runs/<group>/<run_id>/{record.json, ckpt.bin, trace.csv} plus
records.jsonl, reports/<name>/... for audits and experiments, and
data/<key>-{train,test}.dsc, the split of a synthetic source. Every other
file embeds the config hash and tool version, and a data file its key, a
hash of the data section and tool version; reruns are byte-identical.
"""

import argparse
import inspect
import json
import math
import sys
from collections import Counter
from dataclasses import asdict, replace
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

# --- config schema -----------------------------------------------------------

def _value(v, kind, path):
    """The JSON value v at path read as kind, or a ConfigError naming path.

    A kind is a type (a JSON int is a float too, a bool is neither), a tuple
    of strs for one of them (MEASURE_NAMES, say), [kind] for a list (read as a
    tuple), [kind, kind, ...] for a list of exactly those, an _Obj, or {tag
    key: {tag: _Obj}} for an object read as (its _Obj's datakit function,
    fields)."""
    if isinstance(kind, _Obj):
        return kind.read(v, path)
    if type(kind) is dict:
        [(tag, choices)] = kind.items()
        if type(v) is not dict or v.get(tag) not in list(choices):
            raise ConfigError(f"config key {path}.{tag} must be one of {', '.join(choices)}")
        obj = choices[v[tag]]
        return obj.owners[0], obj.read({k: x for k, x in v.items() if k != tag}, path)
    if type(kind) is list and type(v) is list and len(kind) in (1, len(v)):
        return tuple(_value(x, kind[i % len(kind)], f"{path}[{i}]") for i, x in enumerate(v))
    if type(kind) is tuple:
        if v in kind:
            return v
        what = "a measure name" if kind is MEASURE_NAMES else f"one of {', '.join(kind)}"
    elif type(v) is kind or (kind is float and type(v) is int):
        return kind(v)
    elif type(kind) is list:
        what = "a list" if len(kind) == 1 else f"a list of {len(kind)}"
    else:
        what = kind.__name__
    raise ConfigError(f"config key {path} must be {what}, got {v!r}")


class _Obj:
    """A JSON object: each key with its kind, or (kind, field) where the field it
    feeds has another name or the kind is a tuple. Reading gives {field: value}.
    A key left out takes its field's default in `owners` (dataclasses or
    functions; a str names a datakit function, looked up when used), else in
    `defaults`; else it is required."""

    def __init__(self, keys, *owners, **defaults):
        self.keys, self.owners, self.defaults = keys, owners, defaults

    def read(self, doc, path):
        if type(doc) is not dict:
            raise ConfigError(f"config {path or 'document'} must be an object, got {doc!r}")
        at = f"{path}." if path else ""
        for key in doc:
            if key not in self.keys:
                raise ConfigError(f"config key {at}{key} is not known")
        defaults = dict(self.defaults)
        for owner in self.owners:
            owner = getattr(datakit, owner) if type(owner) is str else owner
            params = inspect.signature(owner).parameters.values()
            defaults.update((p.name, p.default) for p in params if p.default is not p.empty)
        out = {}
        for key, kind in self.keys.items():
            kind, field = kind if type(kind) is tuple else (kind, key)
            if key not in doc and field not in defaults:
                raise ConfigError(f"config key {at}{key} is missing")
            out[field] = _value(doc[key], kind, at + key) if key in doc else defaults[field]
        return out


# "shared": train and test get one permutation; "independent": one each
PERMUTE_MODES = ("none", "shared", "independent")
_NET = {"layer_dims": [int], "activation": str, "normalize_hidden": bool,
        "frozen_readout": bool, "bias_enabled": bool}
_SOURCE = {"kind": {
    "blobs": _Obj({"n": int, "dim": int, "num_classes": int, "separation": float,
                   "seed": int}, "synth_blobs"),
    "images": _Obj({"n": int, "num_classes": int, "seed": int, "side": int,
                    "active_pixels": int, "noise": float}, "synth_images"),
    "idx": _Obj({"images": (str, "images_path"), "labels": (str, "labels_path"),
                 "num_classes": int}, "load_idx"),
}}
_OP = {"op": {
    "binarize": _Obj({"positive": ([int], "positive_classes")}, "binarize"),
    "corrupt_labels": _Obj({"p": float, "seed": int}, "corrupt_labels"),
    "permute_pixels": _Obj({"seed": int}, "make_permutation"),
    "subsample": _Obj({"m": int, "seed": int}, "subsample"),
}}
_TRAIN = _Obj({"optimizer": str, "lr": float, "momentum": float, "weight_decay": float,
               "batch_size": int, "stop_rule": str, "stop_threshold": float,
               "max_epochs": int, "seed": int, "trace_measures": [MEASURE_NAMES]},
              Hyperparams, train, seed=0)
# Every top-level key. A command raises for a section it needs that is left out.
SCHEMA = {
    "out_dir": str,
    "net": _Obj(dict(_NET, tag=str), NetSpec, tag="fcn"),
    "data": _Obj({"source": _SOURCE, "transforms": [_OP],
                  "split": _Obj({"n_train": int, "seed": int}),
                  "permute": _Obj({"mode": (PERMUTE_MODES, "mode"), "seed": int},
                                  mode="none"),
                  "train_transforms": [_OP], "test_transforms": [_OP], "tag": str},
                 transforms=(), permute={"mode": "none"}, train_transforms=(),
                 test_transforms=(), tag=None),
    "train": _TRAIN,
    "sweep": _Obj({"lrs": [float], "optimizers": [str], "stop_rules": [[str, float]],
                   "train_sizes": [int], "seeds": [int], "momentum": float,
                   "weight_decay": float, "batch_size": int, "max_epochs": int,
                   "subsample_seed": int}, SweepConfig),
    "measure": _Obj({"target_dev": (float, "sigma_target_dev"),
                     "mc_draws": (int, "sigma_mc_draws"), "iters": (int, "sigma_iters"),
                     "kappa": float, "delta": float, "seed": int, "spectral_tol": float,
                     "spectral_max_iters": int}, MeasureConfig),
    "fragility": _Obj({"deltas": [float], "pair_budget": int, "subsample_seed": int,
                       "measures": [MEASURE_NAMES]}, frag.FragilityConfig,
                      measures=MEASURE_NAMES),
    "temporal": _Obj({"measures": [MEASURE_NAMES]},
                     measures=("PATH_NORM", "PARAM_NORM", "FRO_DIST")),
    # new: the train keys that the resumed run changes
    "hysteresis": _Obj({"new": _TRAIN, "seed": int}, new=None, seed=None),
    "exppp": _Obj({"eta0": float, "gamma": float, "lambda": (float, "lam"), "alpha": float,
                   "alphas": [float], "steps": (int, "T"), "tol": float, "logit_tol": float,
                   "seed": int, "demo_count": (int, "count")},
                  xp.verify_equivalence, xp.demo_alphas,
                  eta0=0.01, gamma=0.9, lam=0.0, alpha=0.9, alphas=(), T=200),
    "evidence": _Obj({"net": _Obj(_NET, NetSpec), "n_train": int, "n_heldout": int,
                      "dim": int, "separation": float, "draws": int, "repetitions": int,
                      "delta": (float, "delta_conf"), "gamma": (float, "gamma_conf"),
                      "corruptions": [float], "max_attempts": int, "seed": int},
                     ev.EvidenceTask, net=None, seed=0),
}
_DOC = _Obj(SCHEMA, **dict.fromkeys(SCHEMA))


def _load_config(path) -> dict:
    """The config document at path, after every section in it is checked.

    NaN, Infinity and -Infinity, and numbers too large for a float, are not
    read: canonical JSON, and so the config hash, has no form for them."""
    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"config {path} holds {text}, which is not a finite number")
        return value

    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=finite, parse_constant=finite)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    _DOC.read(cfg, "")
    return cfg


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    """Section name of the config, read through the schema."""
    if name not in cfg and required:
        raise ConfigError(f"config is missing the {name!r} section")
    return SCHEMA[name].read(cfg.get(name, {}), name)


def _make(owner, fields: dict, **extra):
    """owner called on the fields that are its parameters, and on extra."""
    params = inspect.signature(owner).parameters
    return owner(**{k: v for k, v in fields.items() if k in params}, **extra)


def _tags(cfg: dict) -> dict:
    """The run tags; the dataset's defaults to the kind of its source."""
    tag = _section(cfg, "data")["tag"]
    return {"dataset": cfg["data"]["source"]["kind"] if tag is None else tag,
            "arch": _section(cfg, "net")["tag"]}


def _build_data(cfg: dict, out: Path):
    """(train, test) per the data section; a synthetic source's split is built
    by the first command on out and kept under out/data for the later ones."""
    return datakit.build_split(_section(cfg, "data"), out / "data")


def _measure_config(cfg: dict) -> MeasureConfig:
    return MeasureConfig(**_section(cfg, "measure", required=False))


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


def _train_run(cfg, out, names=None, **kwargs):
    """(spec, (train, test), train section, result) of the train section's run;
    it traces names, or the section's trace_measures if names is None."""
    spec, data = NetSpec.from_dict(_section(cfg, "net")), _build_data(cfg, out)
    tcfg = _section(cfg, "train")
    res = train(spec, *data, _make(Hyperparams, tcfg, **_tags(cfg)), tcfg["seed"],
                trace_measures=tcfg["trace_measures"] if names is None else names,
                measure_config=_measure_config(cfg), **kwargs)
    return spec, data, tcfg, res


def _run_report(res, names) -> dict:
    """A run's t_int, test error and post-interpolation slopes (or their errors)."""
    slopes = {}
    for name in names:
        try:
            slopes[name] = post_interp_slope(res.trace, name)
        except FragAuditError as exc:
            slopes[name] = f"{type(exc).__name__}: {exc}"
    return {"t_int": res.record.t_int, "slopes": slopes, "test_error": res.record.test_error}


# --- commands ----------------------------------------------------------------

def cmd_train(cfg, out, args):
    spec, _, _, res = _train_run(cfg, out)
    cfg_hash = persist.config_hash(cfg)
    _persist_result(out, spec, res, cfg_hash)
    _write_records(out, [res.record.to_dict()], cfg_hash)
    print(f"run {res.record.run_id}: test_error={res.record.test_error!r} "
          f"t_int={res.record.t_int}")
    return 0


def cmd_sweep(cfg, out, args):
    spec = NetSpec.from_dict(_section(cfg, "net"))
    train_ds, test_ds = _build_data(cfg, out)
    scfg = SweepConfig(**_section(cfg, "sweep"), **_tags(cfg))
    cfg_hash = persist.config_hash(cfg)

    def write_run(res):
        _persist_result(out, spec, res, cfg_hash)
        res.checkpoint = res.trace = None  # written; the summary needs only the record

    results = sweep(spec, train_ds, test_ds, scfg, on_result=write_run, jobs=args.jobs)
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


def _read_records(out, args) -> list:
    """The run records of --records, by default out/records.jsonl."""
    path = Path(args.records) if args.records else out / "records.jsonl"
    try:
        return persist.read_jsonl(path, RunRecord.from_dict)
    except OSError as exc:
        raise ConfigError(f"cannot read records {path}: {exc}")


# cmd_measure draws the sigma-search noise of consecutive runs with the same P
# in one gaussian_matrix call of at most this many words, both searches of
# every run; a run whose own noise is larger draws inside its searches. A fill
# has a fixed cost of about 1.5 ms. Per search of the blobs_audit net (15 rows
# of 178), one search alone took 1.7-2.1 ms, blocks of 2^14 words (3 runs,
# 90 rows) 0.67-0.72 ms and of 2^15 words (6 runs, 180 rows) 0.41-0.45 ms;
# 2^16 words gave 0.29 ms for twice the block's memory
# (2-core x86-64 host, numpy backend).
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
    spec = NetSpec.from_dict(_section(cfg, "net"))
    base_train, _ = _build_data(cfg, out)
    mcfg = _measure_config(cfg)
    records = _read_records(out, args)
    subsample_seed = _section(cfg, "sweep")["subsample_seed"] if "sweep" in cfg \
        else SweepConfig.subsample_seed
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
    f = _section(cfg, "fragility", required=False)
    fcfg, measures = _make(frag.FragilityConfig, f), f["measures"]
    records = _read_records(out, args)
    group_scores, aggregates = frag.score_records(records, measures, fcfg)
    cfg_hash = persist.config_hash(cfg)
    rdir = out / "reports" / f"audit-{cfg_hash}"
    rdir.mkdir(parents=True, exist_ok=True)
    groups = sorted(group_scores)
    for delta in fcfg.deltas:
        stem = f"cms_delta_{repr(delta).replace('.', '_')}"
        for ext, emit in (("csv", frag.emit_table_csv), ("txt", frag.emit_table_text)):
            persist.write_text(rdir / f"{stem}.{ext}",
                               emit(aggregates, groups, measures, delta), cfg_hash)
    cells = {f"{m}|{delta!r}": asdict(agg) for (m, delta), agg in sorted(aggregates.items())}
    persist.write_json(rdir / "audit.json",
                       {"groups": groups, "cells": cells}, cfg_hash)
    pairs = sum(c.n_pairs for agg in aggregates.values() for c in agg.per_group.values())
    defined = frag.defined_cells(aggregates)
    by_status = _by_count(Counter(r.status for r in records))
    print(f"audit of {len(records)} records ({by_status}) in {len(groups)} groups: "
          f"{pairs} close-error pairs, {defined} of {len(aggregates)} cells defined "
          f"-> {rdir}")
    if not defined:
        sys.stderr.write(persist.canonical_json(
            {"error": "AllUndefined", "message": "every score was Undefined"}) + "\n")
        return 3
    return 0


def cmd_temporal(cfg, out, args):
    names = _section(cfg, "temporal", required=False)["measures"]
    spec, _, _, res = _train_run(cfg, out, names)
    cfg_hash = persist.config_hash(cfg)
    _persist_result(out, spec, res, cfg_hash)
    rdir = out / "reports" / "temporal"
    rdir.mkdir(parents=True, exist_ok=True)
    persist.write_json(rdir / f"{res.record.run_id}.json",
                       dict(_run_report(res, names), run_id=res.record.run_id), cfg_hash)
    print(f"temporal report -> {rdir / (res.record.run_id + '.json')}")
    return 0


def cmd_hysteresis(cfg, out, args):
    names = _section(cfg, "temporal", required=False)["measures"]
    spec, data, tcfg, parent = _train_run(cfg, out, names, want_interp_snapshot=True)
    if parent.interp_checkpoint is None:
        raise ConfigError("parent run never reached 100% training accuracy")
    hcfg = _section(cfg, "hysteresis")
    # the train section with the keys of hysteresis.new in place
    new = _TRAIN.read(dict(cfg["train"], **cfg["hysteresis"].get("new", {})), "hysteresis.new")
    seed = tcfg["seed"] + 1 if hcfg["seed"] is None else hcfg["seed"]
    resumed = resume(spec, parent.interp_checkpoint, *data,
                     _make(Hyperparams, new, **_tags(cfg)), seed=seed, trace_measures=names,
                     measure_config=_measure_config(cfg))
    cfg_hash = persist.config_hash(cfg)
    _persist_result(out, spec, parent, cfg_hash)
    _persist_result(out, spec, resumed, cfg_hash)
    _write_records(out, [parent.record.to_dict(), resumed.record.to_dict()], cfg_hash)
    report = {
        "parent_run_id": parent.record.run_id,
        "resumed_run_id": resumed.record.run_id,
        "resume_links_parent": resumed.record.parent_run_id == parent.record.run_id,
        "parent": _run_report(parent, names),
        "resumed": _run_report(resumed, names),
    }
    rdir = out / "reports" / "hysteresis"
    rdir.mkdir(parents=True, exist_ok=True)
    persist.write_json(rdir / f"{parent.record.run_id}.json", report, cfg_hash)
    print(f"hysteresis report -> {rdir / (parent.record.run_id + '.json')}")
    return 0


def _exppp_alpha(spec, train_ds, test_ds, e, mcfg, seed, mode, a):
    """Alpha a of cmd_exppp: (report dict, steps) for verify, the inflation
    demo's dict for demo. Runs in a worker or in-process; no checkpoint is
    returned."""
    params = _make(xp.ExpPPParams, dict(e, alpha=a))
    if mode == "verify":
        rep = xp.verify_equivalence(spec, train_ds, params, e["T"], tol=e["tol"],
                                    logit_tol=e["logit_tol"], seed=seed)
        return rep.to_dict(), rep.steps
    return xp.inflation_demo(spec, train_ds, test_ds, params, e["T"], mcfg,
                             tol=e["tol"], seed=seed)


def cmd_exppp(cfg, out, args):
    spec = NetSpec.from_dict(_section(cfg, "net"))
    train_ds, test_ds = _build_data(cfg, out)
    e = _section(cfg, "exppp")
    cfg_hash = persist.config_hash(cfg)
    rdir = out / "reports" / "exppp"
    rdir.mkdir(parents=True, exist_ok=True)
    der = xp.derive(e["eta0"], e["gamma"], e["lam"])

    def each_alpha(alphas, mcfg=None):
        # one worker per alpha, up to the CPUs: the outputs do not depend on it
        shared = (spec, train_ds, test_ds, e, mcfg, e["seed"], args.mode)
        return ordered_map(_exppp_alpha, shared, alphas, len(alphas))

    if args.mode == "verify":
        alphas, reports = e["alphas"] or (e["alpha"],), []
        with each_alpha(alphas) as results:
            for a, (rep, steps) in zip(alphas, results, strict=True):
                reports.append(rep)
                stem = f"verify-alpha-{repr(a).replace('.', '_')}"
                persist.write_csv(rdir / f"{stem}.csv",
                                  ["step", "rel_dev", "logit_diff"], steps, cfg_hash)
        path = rdir / "verify.json"
        persist.write_json(path, {
            "interval": der.interval_str(),
            "remark_ok": der.remark_ok,
            "reports": reports,
        }, cfg_hash)
        passed = sum(rep["passed"] for rep in reports)
        diverged = sum(rep["diverged_at"] is not None for rep in reports)
        print(f"verified {len(reports)} alpha value(s): {passed} passed, "
              f"{len(reports) - passed - diverged} failed, {diverged} diverged -> {path}")
        return 0
    alphas = list(e["alphas"] or xp.demo_alphas(der, e["count"]))
    with each_alpha(alphas, _measure_config(cfg)) as results:
        demos = list(results)
    names = sorted(set().union(*(d["ratios"] for d in demos))) if demos else []
    rows = [[repr(a)] + [d["ratios"].get(m) for m in names]
            + [d["test_error_a"], d["test_error_b"]]
            for a, d in zip(alphas, demos)]
    persist.write_csv(rdir / "demo_ratios.csv",
                      ["alpha"] + names + ["test_error_a", "test_error_b"],
                      rows, cfg_hash)
    path = rdir / "demo.json"
    persist.write_json(path, {"alphas": alphas, "demos": demos}, cfg_hash)
    equal = sum(d["predictions_equal"] for d in demos)
    print(f"inflation demo for {len(alphas)} alpha value(s): {equal} with equal "
          f"predictions -> {path}")
    return 0


def cmd_evidence(cfg, out, args):
    e = _section(cfg, "evidence")
    task = _make(ev.EvidenceTask, e)  # checks every setting before the first draw
    spec = NetSpec(**e["net"]) if e["net"] else NetSpec.from_dict(_section(cfg, "net"))
    cfg_hash = persist.config_hash(cfg)
    rdir = out / "reports" / "evidence"
    rdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "bound":
        train_ds, _ = _build_data(cfg, out)
        if train_ds.n < 2:  # checked before the first draw
            raise ConfigError(f"config key data.split.n_train must give the bound >= 2 "
                              f"training points, got {train_ds.n}")
        est = ev.estimate_consistency_mass(spec, train_ds, e["draws"], e["seed"])
        report = {
            "hits": est.hits, "draws": est.draws, "p_hat": est.p_hat,
            "wilson": [est.wilson_lo, est.wilson_hi],
            "rule_of_three_upper": est.rule_of_three_upper,
        }
        if est.p_hat is not None:
            bound = ev.ml_pacbayes_bound(ev.BoundInput(
                train_ds.n, est.p_hat, task.delta_conf, task.gamma_conf))
            report["bound"] = bound.to_dict()
        persist.write_json(rdir / "bound.json", report, cfg_hash)
        print(f"evidence bound -> {rdir / 'bound.json'} "
              f"({est.hits} hits in {est.draws} draws)")
        return 0
    report = ev.bound_vs_error_experiment(spec, task, e["seed"])
    persist.write_json(rdir / "experiment.json", report, cfg_hash)
    header = ["rep", "corruption", "hits", "p_hat", "bound", "sample_error",
              "violation", "status"]
    rows = [[r[key] for key in header] for r in report["rows"]]
    persist.write_csv(rdir / "experiment.csv", header, rows, cfg_hash)
    by_status = _by_count(Counter(r["status"] for r in report["rows"]))
    print(f"evidence experiment -> {rdir / 'experiment.json'} "
          f"(violation rate {report['violation_rate']!r}; rows: {by_status})")
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
        if name == "sweep":
            p.add_argument("--jobs", type=_positive_int, default=None,
                           help="most lockstep stacks of runs trained at once "
                                "(default: one per CPU)")
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
