"""Smoke test of the benchmark harness at minimal workload sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit in
both modes and every workload, that the outputs pass their checks, and that the
tracer's self-time arithmetic and nesting checks hold on a hand-built span tree
(the real span trees are checked inside every traced run). Exits 1 on failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SCALE = "0.05"


def check_tracer_arithmetic() -> list:
    """Self times on a fixed tree: root [0,10] with children [1,3] and [2,6] on
    another thread (overlapping) and a grandchild [4,5] under the second."""
    t = tracer.Tracer()
    main, other = 1, 2
    t.spans = [
        (2, "a", 1.0, 3.0, 1, main),
        (4, "c", 4.0, 5.0, 3, other),
        (3, "b", 2.0, 6.0, 1, other),
        (1, "root", 0.0, 10.0, 0, main),
    ]
    problems = []
    want = {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}  # root loses the union [1,6]
    got = t.self_times()
    if got != want:
        problems.append(f"self_times {got} != {want}")
    if tracer.check_nesting(t):
        problems.append(f"sound tree flagged: {tracer.check_nesting(t)}")
    t.spans[0] = (2, "a", 1.0, 11.0, 1, main)  # child outlives its parent
    if not tracer.check_nesting(t):
        problems.append("child outside its parent was not flagged")
    return problems


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                           f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_tracer_arithmetic()
    for workload in workloads.GENERATORS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            print(f"{label}: {len(got)} metrics, "
                  f"{result['attempted'] - result['failed']}/{result['attempted']} ops ok")
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
