"""The traced benchmark's tracer must find every binding it wraps in the package."""

import importlib.util
from pathlib import Path

import numpy as np

from fragaudit import cli, data, evidence, exppp, fragility, measures, net, optim, \
    persist, rng

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _bindings():
    owners = [cli, data, evidence, exppp, fragility, measures, net, optim, persist,
              rng, rng._kernels, rng.Rng]
    return {(owner.__name__, name): value
            for owner in owners for name, value in vars(owner).items()}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod.Tracer()


def test_tracer_installs_and_uninstalls_against_the_package():
    before = _bindings()
    tracer = _tracer()
    try:
        tracer.install()  # AttributeError if a wrapped binding is gone
        wrapped = {key for key, value in _bindings().items() if before[key] is not value}
        assert {("fragaudit.optim", "train"), ("fragaudit.optim", "sgdm_step"),
                ("fragaudit.optim", "evaluate_wb"), ("fragaudit.net", "backward_batch"),
                ("fragaudit.exppp", "backward_batch"),
                ("fragaudit.measures", "forward_batch"),
                ("fragaudit.evidence", "estimate_consistency_mass"),
                ("fragaudit.evidence", "gibbs_sample_consistent"),
                ("fragaudit.evidence", "synth_blobs")} <= wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_counts_one_draw_per_seed_of_prior_predictions():
    # the tracer reads the seeds as the third positional argument
    seeds = rng.child_seeds(5, 0, 7)
    tracer = _tracer()
    tracer.install()
    try:
        evidence.prior_predictions(net.NetSpec((2, 4, 2)), np.zeros((3, 2)), seeds)
    finally:
        tracer.uninstall()
    assert tracer.counts()["evidence.draws"] == len(seeds)


def test_compute_all_runs_its_families_through_the_traced_bindings():
    # compute_all must look each family's function up when it runs: a table
    # that kept the functions of import time would bypass the tracer
    spec = net.NetSpec((2, 4, 2))
    ckpt = net.init_checkpoint(spec, rng.Rng(1).spawn_key("init"))
    ds = data.synth_blobs(24, 2, 2, 5.0, seed=2)
    tracer = _tracer()
    tracer.install()
    try:
        measures.compute_all(spec, ckpt, ds,
                             measures.MeasureConfig(sigma_mc_draws=2, sigma_iters=2))
    finally:
        tracer.uninstall()
    assert {"measures.margins", "measures.spectral_norm", "measures.path_norm",
            "measures.sigma_search"} <= {span[1] for span in tracer.spans}
