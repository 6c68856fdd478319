"""One round of a workload in a fresh process: set up, then every stage once.

Usage (started by run.py, not by hand):
    python3 perfbench/round.py WORKLOAD SEED SCALE DIR T0 MODE

T0 is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, imports and config generation. MODE is
"plain" or "traced". Stages call fragaudit.cli.main in-process; the
host-speed probe (hostspeed.py) is timed before the first stage and after
every stage, outside the stage timings. The result goes to DIR/result.json.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import fragaudit  # noqa: E402
from fragaudit import cli  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def _openblas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main() -> int:
    name, seed, scale, rdir, t0, mode = sys.argv[1:7]
    rdir = Path(rdir)
    config = rdir / "config.json"
    workloads.write_config(name, int(seed), config, float(scale))
    setup_s = time.monotonic() - float(t0)

    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    probes = [hostspeed.probe()]
    stages = []
    for stage, argv in workloads.STAGES[name]:
        argv = argv + ["--config", str(config), "--out", str(rdir / "out")]
        start = time.perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span(f"cli.{stage}"):
                rc = cli.main(argv)
        wall = time.perf_counter() - start
        probes.append(hostspeed.probe())
        stages.append({"stage": stage, "argv": argv[:-4], "rc": rc, "s": wall,
                       "probe_s": (probes[-2] + probes[-1]) / 2})
    result = {
        "setup_s": setup_s,
        "setup_probe_s": probes[0],
        "stages": stages,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"backend": fragaudit.backend_name(), "python": platform.python_version(),
                "numpy": np.__version__, "blas": _openblas(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer)
        result["self_check"] = tracing.check_nesting(tracer)
    _write(rdir, result)
    return 0


def _write(rdir: Path, result: dict) -> None:
    with open(rdir / "result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
