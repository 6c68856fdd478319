"""Workload definitions: one config generator and one stage list per workload.

Every config is derived from the workload seed alone, so the same seed gives
byte-identical inputs. Sizes are chosen so that one round (a fresh process
running every stage once) takes a few seconds on a 2-core host and several
rounds fit in one measured run; NOTES.md records why each workload exists.
"""

import json
import random

# The README sweep grid: 7 learning rates x {adam, sgdm} x 2 stop rules.
README_LRS = [0.001, 0.0032, 0.0063, 0.01, 0.0158, 0.05, 0.1]
README_STOP_RULES = [["train_acc_100", 0.01], ["train_ce_below", 0.01]]

DATA_SEED = 777
TRAIN_SEED = 1000
# images_si takes its images and training seeds from workload seed 1, the
# first seed it was run with; see images_si().
IMAGES_INPUT_SEED = 1
SEEDS_PER_POINT = 2  # training seeds per grid point: 56 runs per round
BLOBS_PAIR_BUDGET = 100

# Admissible for eta0=0.01, gamma=0.9, lambda=0: the interval is (0.47, 0.9].
EXPPP_ALPHAS = [0.8, 0.9]


def _seeds(seed: int, n: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(n)]


def blobs_audit(seed: int, scale: float = 1.0) -> dict:
    """Many tiny nets: the README grid on 8-D two-class blobs, [8,16,2] + bias.

    Separation 6.0 makes roughly half of the runs interpolate, so the sweep
    mixes early stops with full 200-epoch runs. pair_budget is below the
    number of close-error pairs at the wider deltas, so Rng.choose subsampling
    runs in the audit.

    The dataset and the runs' training seeds are pinned; the workload seed
    draws the measure and subsample streams. A seeded dataset moved the
    interpolating share, and with it the number of epochs trained, by about
    11% between seeds. Seeded training seeds still moved the optimizer steps
    per round from 5.3k to 7.1k (interquartile range 16% of the median over
    15 seeds). Either would hide code changes of that size behind the input.
    """
    s = _seeds(seed, 6)
    n_seeds = max(1, round(SEEDS_PER_POINT * scale))
    return {
        "out_dir": "out",
        "net": {"layer_dims": [8, 16, 2], "bias_enabled": True, "tag": "fcn"},
        "data": {
            "source": {"kind": "blobs", "n": 256, "dim": 8, "num_classes": 2,
                       "separation": 6.0, "seed": DATA_SEED},
            "split": {"n_train": 128, "seed": DATA_SEED + 1},
            "tag": "blobs",
        },
        "sweep": {"lrs": README_LRS, "optimizers": ["adam", "sgdm"],
                  "stop_rules": README_STOP_RULES,
                  "seeds": [TRAIN_SEED + i for i in range(n_seeds)],
                  "max_epochs": max(2, round(200 * scale)),
                  "subsample_seed": s[3]},
        "measure": {"target_dev": 0.1, "mc_draws": 15, "iters": 20, "seed": s[4]},
        "fragility": {"deltas": [0.01, 0.02, 0.05],
                      "pair_budget": max(10, round(BLOBS_PAIR_BUDGET * scale)),
                      "subsample_seed": s[5]},
    }


def evidence_prior(seed: int, scale: float = 1.0) -> dict:
    """Prior draws of a [3,6,2] bias-free net on 3-D blobs, clean and 12.5% noise.

    The task dim must equal the net's input width (3): the README example pairs
    net [3,6,2] with the default dim 2, which crashes the experiment.
    Rejection sampling stops after 8192 attempts. At the default 200,000 a
    repetition with a tiny consistency mass could draw up to five times the
    mass estimate's 40,000 draws, so the work per round varied by about 40%
    between seeds. Repetitions that give up are recorded as
    rejection_exhausted.
    """
    s = _seeds(seed, 4)
    return {
        "out_dir": "out",
        "net": {"layer_dims": [3, 6, 2]},
        "data": {
            "source": {"kind": "blobs", "n": 516, "dim": 3, "num_classes": 2,
                       "separation": 4.0, "seed": s[0]},
            "split": {"n_train": 16, "seed": s[1]},
            "tag": "blobs",
        },
        "evidence": {"net": {"layer_dims": [3, 6, 2]}, "n_train": 16,
                     "n_heldout": 2000, "dim": 3, "separation": 4.0,
                     "draws": max(1000, round(40000 * scale)),
                     "repetitions": max(1, round(6 * scale)),
                     "corruptions": [0.0, 0.125], "max_attempts": 8192,
                     "delta": 0.05, "gamma": 0.05, "seed": s[2]},
    }


def images_si(seed: int, scale: float = 1.0) -> dict:
    """Few large nets: 28x28 images on a scale-invariant [784,32,32,10] net.

    Hidden layers are normalized, the readout frozen and biases off, which is
    what the exppp verifier requires. The sweep uses minibatches and --jobs 2.

    The images and training seeds are pinned; the workload seed draws the
    measure, subsample and exppp streams. Seeded inputs moved the sweep's
    optimizer steps from 480 to 952 between seeds, and the interpolating
    runs from 1 to 8 of 8.
    """
    s = _seeds(seed, 7)
    pinned = _seeds(IMAGES_INPUT_SEED, 3)
    return {
        "out_dir": "out",
        "net": {"layer_dims": [784, 32, 32, 10], "normalize_hidden": True,
                "frozen_readout": True, "bias_enabled": False, "tag": "si"},
        "data": {
            "source": {"kind": "images", "n": 384, "num_classes": 10,
                       "seed": pinned[0]},
            "split": {"n_train": 256, "seed": pinned[1]},
            "tag": "images",
        },
        "sweep": {"lrs": [0.1, 0.2, 0.3, 0.5], "optimizers": ["sgdm"],
                  "stop_rules": [["train_acc_100", 0.01]],
                  "seeds": [pinned[2] % 100000 + i for i in range(2)],
                  "batch_size": 64, "max_epochs": 30,
                  "subsample_seed": s[3]},
        "measure": {"target_dev": 0.1, "mc_draws": 4,
                    "iters": max(1, round(5 * scale)), "seed": s[4]},
        "fragility": {"deltas": [0.01, 0.02, 0.05], "pair_budget": 400,
                      "subsample_seed": s[5]},
        "exppp": {"eta0": 0.01, "gamma": 0.9, "lambda": 0.0,
                  "alphas": EXPPP_ALPHAS, "steps": max(2, round(10 * scale)),
                  "tol": 1e-6, "seed": s[6]},
    }


GENERATORS = {"blobs_audit": blobs_audit, "evidence_prior": evidence_prior,
              "images_si": images_si}

# CLI argument lists per stage, in run order; the stage name keys the metric.
STAGES = {
    "blobs_audit": [("sweep", ["sweep"]), ("measure", ["measure"]),
                    ("audit", ["audit"])],
    "evidence_prior": [("evidence", ["evidence", "--mode", "experiment"]),
                       ("evidence", ["evidence", "--mode", "bound"])],
    "images_si": [("sweep", ["sweep", "--jobs", "2"]), ("measure", ["measure"]),
                  ("audit", ["audit"]), ("exppp", ["exppp", "--mode", "verify"]),
                  ("exppp", ["exppp", "--mode", "demo"])],
}


def write_config(name: str, seed: int, path, scale: float = 1.0) -> None:
    with open(path, "w") as fh:
        json.dump(GENERATORS[name](seed, scale), fh, sort_keys=True, indent=1)
