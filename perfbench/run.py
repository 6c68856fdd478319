"""fragaudit benchmark: seeded workloads, per-stage wall time, traced per-layer run.

    python3 perfbench/run.py --workload blobs_audit --seed 1 --seconds 30 --trace 0

Run from the repository root. Each round starts a fresh process
(perfbench/round.py) that imports fragaudit from ./src, writes the workload's
config and calls fragaudit.cli.main once per stage.

--trace 0 repeats untraced rounds until --seconds have passed (at least
MIN_ROUNDS) and reports medians of the end-to-end metrics over the rounds.
Around every stage the round times a fixed host-speed probe (hostspeed.py),
and each stage's time is rescaled to the probe's nominal speed: the shared
host's speed drifts by tens of percent over tens of seconds, which would
otherwise swamp any change to fragaudit. Raw wall times are printed as well.
--trace 1 alternates two untraced and two traced rounds; it reports the
per-layer metrics of the first traced round, checks that their exact counters
repeat in the second, and reports trace.overhead_frac (median traced total
over median untraced total, minus one).

Every round's outputs are hashed and must be identical across the run's
rounds; exppp reports must pass. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Without ./src/fragaudit
the command exits 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
MAX_ROUNDS = 40
DEADLINE_S = 170.0  # the whole command must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Output files hashed per workload (paths under the round's out/ directory).
OUTPUTS = {
    "blobs_audit": ["records.jsonl", "reports/audit-*/audit.json"],
    "evidence_prior": ["reports/evidence/experiment.json",
                       "reports/evidence/bound.json"],
    "images_si": ["records.jsonl", "reports/audit-*/audit.json",
                  "reports/exppp/verify.json", "reports/exppp/demo.json"],
}

E2E_UNITS = {"setup_s": "s", "total_s": "s", "peak_rss_mib": "MiB"}
STAGE_UNITS = {f"{stage}_s": "s" for stage in tracer.STAGE_NAMES}
LAYER_UNITS = dict(tracer.UNITS, **STAGE_UNITS, **{
    "trace.overhead_frac": "frac", "total_wall_s": "s", "host.probe_s": "s"})


class Ops:
    """Operations attempted and failed: stage invocations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_round(args, rdir: Path, mode: str, deadline: float) -> dict:
    """Run round.py in a fresh process; mode is plain or traced."""
    rdir.mkdir(parents=True)
    env = dict(os.environ, **BLAS_ENV)
    with open(rdir / "log.txt", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "round.py"), args.workload, str(args.seed),
             repr(args.scale), str(rdir), repr(t0), mode],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT))
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    result = {"dir": rdir, "rc": proc.returncode, "traced": mode == "traced"}
    if proc.returncode == 0 and (rdir / "result.json").exists():
        with open(rdir / "result.json") as fh:
            result.update(json.load(fh))
    return result


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_round(args, rnd: dict, ops: Ops, reference: dict) -> None:
    """Stage exit codes, output hashes against the first round, report flags."""
    label = f"round {rnd['dir'].name}"
    if not ops.check("stages" in rnd, f"{label}: process exited {rnd['rc']}"):
        sys.stdout.write((rnd["dir"] / "log.txt").read_text()[-2000:])
        return
    for st in rnd["stages"]:
        ops.check(st["rc"] == 0, f"{label}: {' '.join(st['argv'])} exited {st['rc']}")
    out = rnd["dir"] / "out"
    cfg = json.loads((rnd["dir"] / "config.json").read_text())
    hashes = {}
    for pattern in OUTPUTS[args.workload]:
        found = sorted(out.glob(pattern))
        if ops.check(len(found) == 1, f"{label}: {pattern} missing"):
            hashes[pattern] = _sha256(found[0])
    rnd["hashes"] = hashes
    for key, digest in hashes.items():
        reference.setdefault(key, digest)
        ops.check(reference[key] == digest, f"{label}: {key} differs from round0")
    # Content checks read only files that exist; a missing one already failed.
    if "records.jsonl" in hashes:
        s = cfg["sweep"]
        grid = len(s["lrs"]) * len(s["optimizers"]) * len(s["stop_rules"]) * len(s["seeds"])
        lines = (out / "records.jsonl").read_text().splitlines()
        ops.check(len(lines) == grid, f"{label}: {len(lines)} records, grid has {grid}")
    if "reports/evidence/experiment.json" in hashes:
        e = cfg["evidence"]
        exp = json.loads((out / "reports/evidence/experiment.json").read_text())
        want = e["repetitions"] * len(e["corruptions"])
        ops.check(len(exp["rows"]) == want, f"{label}: {len(exp['rows'])} rows != {want}")
    if "reports/exppp/verify.json" in hashes:
        verify = json.loads((out / "reports/exppp/verify.json").read_text())
        for rep in verify["reports"]:
            ops.check(rep["passed"], f"{label}: exppp verify alpha={rep['alpha']} failed")
    if "reports/exppp/demo.json" in hashes:
        demo = json.loads((out / "reports/exppp/demo.json").read_text())
        for a, d in zip(demo["alphas"], demo["demos"]):
            ops.check(d["predictions_equal"], f"{label}: demo alpha={a} predictions differ")


def _scaled(seconds: float, probe_s: float) -> float:
    """Wall time rescaled to a host on which the probe takes NOMINAL_S."""
    return seconds * hostspeed.NOMINAL_S / probe_s


def stage_times(rnd: dict, scaled: bool = True) -> dict:
    """Time per stage name, rescaled to the nominal host speed or raw wall."""
    times = {}
    for st in rnd["stages"]:
        s = _scaled(st["s"], st["probe_s"]) if scaled else st["s"]
        times[f"{st['stage']}_s"] = times.get(f"{st['stage']}_s", 0.0) + s
    return times


def total(rnd: dict, scaled: bool = True) -> float:
    return sum(stage_times(rnd, scaled).values())


def median_of(rounds, key) -> float:
    return statistics.median(key(r) for r in rounds)


def fmt_line(name: str, value, unit: str, n: int) -> str:
    return f"  {name:34s} {value:>16.6g} {unit:6s} n={n}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="workload size factor; the self-test uses small values")
    args = ap.parse_args()
    if not (ROOT / "src" / "fragaudit" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no fragaudit sources under {ROOT / 'src'}\n")
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    work = HERE / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Compile bytecode once so no round pays for it inside setup_s.
    subprocess.run([sys.executable, "-c", "import fragaudit.cli"], check=True,
                   cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))

    ops = Ops()
    reference = {}
    rounds = []

    def one(traced: bool):
        t0 = time.monotonic()
        rnd = run_round(args, work / f"round{len(rounds)}",
                        "traced" if traced else "plain", deadline)
        rnd["step_s"] = time.monotonic() - t0
        check_round(args, rnd, ops, reference)
        shutil.rmtree(rnd["dir"] / "out", ignore_errors=True)
        rounds.append(rnd)

    if args.trace:
        for traced in (False, True, False, True):
            one(traced)
    else:
        while len(rounds) < MAX_ROUNDS:
            elapsed = time.monotonic() - start
            typical = statistics.median(r["step_s"] for r in rounds) if rounds else 0.0
            if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
                break
            if elapsed + typical > DEADLINE_S:
                break
            one(False)

    good = [r for r in rounds if "stages" in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} wall={time.monotonic() - start:.1f}s")
    if good:
        env = dict(good[0]["env"], nproc=os.cpu_count(), workload_seed=args.seed,
                   blas_env=BLAS_ENV, scale=args.scale)
        print("env " + json.dumps(env, sort_keys=True))
        print("hashes " + json.dumps(good[0].get("hashes", {}), sort_keys=True))
    for r in good:
        print(f"  {r['dir'].name}{' traced' if r['traced'] else ''}: "
              f"probe {statistics.median(st['probe_s'] for st in r['stages']):.4f}s "
              f"wall: setup {r['setup_s']:.4f}s "
              + " ".join(f"{k} {v:.4f}s" for k, v in stage_times(r, False).items())
              + f" scaled: total {total(r):.4f}s")

    metrics = {}
    if plain:
        n = len(plain)
        e2e = {
            "setup_s": median_of(plain, lambda r: _scaled(r["setup_s"], r["setup_probe_s"])),
            "total_s": median_of(plain, total),
            "peak_rss_mib": median_of(plain, lambda r: r["peak_rss_mib"]),
        }
        stages = {k: median_of(plain, lambda r, k=k: stage_times(r).get(k, 0.0))
                  for k in STAGE_UNITS}
        raw = {"setup_wall_s": median_of(plain, lambda r: r["setup_s"]),
               "total_wall_s": median_of(plain, lambda r: total(r, False)),
               "host.probe_s": statistics.median(
                   st["probe_s"] for r in plain for st in r["stages"])}
        print(f"end-to-end (median over {n} untraced rounds; times rescaled to a "
              f"host-speed probe of {hostspeed.NOMINAL_S} s):")
        for k, v in e2e.items():
            print(fmt_line(k, v, E2E_UNITS[k], n))
        for k, v in stages.items():
            if v:
                print(fmt_line(k, v, STAGE_UNITS[k], n))
        print("unscaled (median over the same rounds):")
        for k, v in raw.items():
            print(fmt_line(k, v, "s", n))
        if not args.trace:
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    if args.trace and traced and plain:
        layers = dict(traced[0]["layers"])
        for a, b in zip(traced, traced[1:]):
            for k, unit in tracer.UNITS.items():
                if unit in tracer.EXACT_UNITS:
                    ops.check(a["layers"][k] == b["layers"][k],
                              f"exact counter {k}: {a['layers'][k]} != {b['layers'][k]}")
        for r in traced:
            ops.check(not r["self_check"], f"span tree: {r['self_check'][:3]}")
        layers.update(stages)
        layers["total_wall_s"] = raw["total_wall_s"]
        layers["host.probe_s"] = raw["host.probe_s"]
        traced_total = median_of(traced, total)
        layers["trace.overhead_frac"] = traced_total / e2e["total_s"] - 1.0
        print(f"per-layer (first traced round; stage times over {len(plain)} untraced "
              f"rounds; exact counters compared over {len(traced)} traced rounds):")
        for k in sorted(layers):
            n = len(plain) if k in STAGE_UNITS or k in raw else 1
            print(fmt_line(k, layers[k], LAYER_UNITS[k], n))
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in sorted(layers.items())}

    for what in ops.failures:
        print(f"FAILED: {what}")
    print(f"ops_failed {len(ops.failures)}/{ops.attempted}")
    correct = bool(metrics) and not ops.failures
    print(json.dumps({"correct": correct, "attempted": max(ops.attempted, 1),
                      "failed": len(ops.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
