"""nullform benchmark: seeded scenario workloads timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop with one
client: each measured run is a fresh child process (``child.py``) that
starts when the previous one has ended, pinned to one BLAS/OpenMP thread
and calling ``run_scenario`` with ``jobs = 1``.  Runs start while the
next one is expected to end within ``--seconds``; at least one always
runs.  Every run's output is checked (see ``workloads.check_output``).

Times are scaled to a host of fixed speed: each run's ``wall_s`` and
``setup_s`` are multiplied by ``CALIBRATION_REF_S`` over the time the same
child took for a fixed calibration kernel, run just before and just after
the timed region.  On the shared 2-core Xeon VM the benchmark was tuned
on, the speed of identical runs drifted by up to a third within minutes
(3.1 s in one period, 4.6 s in another) and the kernel drifted with it;
scaling halved the spread of the run medians across seeds.  The raw
times stay in the ``perfbench`` line.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, as medians over the runs.  With ``--trace 1`` untraced and
traced runs alternate; the result carries the per-layer metrics as
medians over the traced runs, and ``trace_overhead_s`` is the traced
minus the untraced median wall time.  A line starting ``perfbench `` gives
the environment, every run's values and the sample counts.  The last line
of standard output is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150
# typical calibration kernel time on that 2-core Xeon VM
CALIBRATION_REF_S = 0.2

THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}


def _child(work, result, extra):
    """Run child.py once; returns (record, seconds taken, spawn time)."""
    env = dict(os.environ, **THREAD_PINS)
    cmd = [sys.executable, str(HERE / "child.py"), "--work", str(work),
           "--result", str(result)] + extra
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        err = proc.stderr if proc.returncode else ""
    except subprocess.TimeoutExpired:
        err = f"timed out after {CHILD_TIMEOUT_S} s"
    seconds = time.monotonic() - spawn
    if err or not result.is_file():
        return {"failures": [f"child failed: {err.strip()[-2000:]}"]}, \
            seconds, spawn
    return json.loads(result.read_text()), seconds, spawn


def measure(workload, seed, seconds, trace, work):
    """Closed-loop runs for `seconds`; returns (env, list of samples)."""
    rec, _, _ = _child(work, work / "warmup.json", ["--warmup"])
    if "env" not in rec:
        raise RuntimeError("; ".join(rec["failures"]))
    env = rec["env"]
    samples = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        run_dir = work / f"run{len(samples)}"
        run_dir.mkdir()
        extra = ["--workload", workload, "--seed", str(seed)]
        rec, took, spawn = _child(run_dir, run_dir / "result.json",
                                  extra + (["--trace"] if traced else []))
        shutil.rmtree(run_dir, ignore_errors=True)
        rec["traced"] = traced
        rec["seconds"] = took
        if "ready" in rec:
            rec["setup_s"] = rec.pop("ready") - spawn
            rec["scale"] = CALIBRATION_REF_S / rec["calibration_s"]
        samples.append(rec)
        if len(samples) < (2 if trace else 1):
            continue
        expected = statistics.median(s["seconds"] for s in samples)
        if time.monotonic() - start + expected > seconds:
            return env, samples


def _median(samples, key):
    """Median of a scaled time, or of another value, over the samples."""
    vals = [s[key] * s["scale"] if key in ("wall_s", "setup_s") else s[key]
            for s in samples if key in s]
    return statistics.median(vals) if vals else None


def summarize(spec, samples, trace):
    """Metric values by name; medians over the runs that passed."""
    ok = [s for s in samples if not s["failures"] and "wall_s" in s] \
        or [s for s in samples if "wall_s" in s]
    plain = [s for s in ok if not s["traced"]]
    if not trace:
        values = {k: _median(plain, k)
                  for k in ("wall_s", "setup_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]
    else:
        traced = [s for s in ok if s["traced"] and "layers" in s]
        if not traced or not plain:
            return None
        names = traced[0]["layers"]
        values = {k: statistics.median(s["layers"][k] for s in traced)
                  for k in names}
        values["trace_overhead_s"] = (_median(traced, "wall_s")
                                      - _median(plain, "wall_s"))
        wanted = spec["per_layer"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in wanted})}")
    if any(v is None for v in values.values()):
        return None
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nullform" / "cli.py").is_file():
        print(f"perfbench: no nullform sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload '{args.workload}'",
              file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        env, samples = measure(args.workload, args.seed, args.seconds,
                               args.trace, work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass            # another run still uses it

    metrics = summarize(spec, samples, args.trace)
    if metrics is None:
        for s in samples:
            for f in s["failures"]:
                print(f"perfbench: {f}", file=sys.stderr)
        print("perfbench: no run produced timings", file=sys.stderr)
        return 1
    failed = sum(1 for s in samples if s["failures"])
    for s in samples:
        for f in s["failures"]:
            print(f"perfbench: FAIL {f}", file=sys.stderr)
        s.pop("layers", None)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "runs": len(samples), "runs_traced": sum(s["traced"] for s in samples),
        "fail_rate": failed / len(samples), "samples": samples,
    }
    print("perfbench " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
