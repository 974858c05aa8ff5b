"""One measured run of a workload, in a fresh single-threaded process.

    python3 perfbench/child.py --workload NAME --seed N --work DIR \
        --result FILE [--trace] [--warmup]

Generates the workload's scenario files for the seed, runs each through
``nullform.cli.run_scenario`` with ``force=True`` into ``DIR/out``, checks
the outputs and writes one JSON record to FILE.  ``ready`` is the
monotonic clock when the inputs are ready, so the parent can take set-up
time from the moment it started this process.  ``--warmup`` stops after
the imports and records the environment instead.

``calibration_s`` is the mean time of a fixed numpy and pure-Python
kernel run just before and just after the timed region; the parent
scales the run's times by it, to remove drift in the host's speed (see
``run.py``).
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import nullform.cli as cli  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, install, layer_metrics  # noqa: E402

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "machine": platform.machine(),
    }


def calibrate(reps=1200):
    """Seconds for a fixed kernel that does not touch nullform.

    Its arrays stay below glibc's mmap threshold, so how the program left
    the heap does not change the kernel's page faults.
    """
    x = np.linspace(0.0, 1.0, 1 << 13)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(reps):
        y = np.sin(x) * x + np.sqrt(x)
        acc += float(y[-1]) + sum(range(3000))
    return time.perf_counter() - t0


def _dir_bytes(root):
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def measure(workload, seed, work, trace):
    record = {"failures": []}
    cfgs = workloads.write_scenarios(workload, seed, work / "inputs")
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    record["ready"] = time.monotonic()
    before = calibrate()
    start = time.monotonic()
    outdirs = []
    try:
        for path in cfgs:
            outdirs.append(cli.run_scenario(path, out_root=work / "out",
                                            jobs=1, force=True))
    except Exception:
        record["failures"].append(traceback.format_exc(limit=3))
    record["wall_s"] = time.monotonic() - start
    record["calibration_s"] = 0.5 * (before + calibrate())
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    if record["failures"]:
        return record
    for outdir in outdirs:
        record["failures"] += workloads.check_output(outdir, seed)
        res = json.loads((outdir / "summary.json").read_text())["results"]
        if "recon_rel_l2_error" in res:
            record["recon_rel_l2_error"] = res["recon_rel_l2_error"]
    if tracer is not None:
        record["top_level_s"] = tracer.top_level_s
        record["layers"] = layer_metrics(tracer, _dir_bytes(work / "out"))
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--work", type=Path, default=None)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--warmup", action="store_true")
    args = ap.parse_args(argv)
    if args.warmup:
        record = {"env": environment()}
    else:
        record = measure(args.workload, args.seed, args.work, args.trace)
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
