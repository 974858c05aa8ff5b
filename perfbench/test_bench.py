"""Checks on the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

The traced test runs every workload twice at seed 0 (about a minute).
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_seed_zero_writes_the_listed_configs():
    for name, configs in workloads.WORKLOADS.items():
        assert workloads.seeded_configs(name, 0) == configs


@pytest.mark.parametrize("seed", [1, 2, 7, 12345, -3])
def test_other_seeds_change_only_amplitude_and_sweep_start(seed):
    for name, configs in workloads.WORKLOADS.items():
        seeded = workloads.seeded_configs(name, seed)
        assert seeded == workloads.seeded_configs(name, seed)
        for base, cfg in zip(configs, seeded):
            base_amp = float(base["potential"].get("amplitude", "1.0"))
            ratio = float(cfg["potential"]["amplitude"]) / base_amp
            assert 0.9 <= ratio <= 1.1
            if "recover" in base:
                lo, hi, n = cfg["recover"]["angles"].split(":")
                assert int(n) == int(base["recover"]["angles"])
                assert 0.0 <= float(lo) < math.pi / int(n)
                assert float(hi) - float(lo) == pytest.approx(math.pi)
            for sec, items in base.items():
                for key, val in items.items():
                    if (sec, key) not in (("potential", "amplitude"),
                                          ("recover", "angles")):
                        assert cfg[sec][key] == val


def _traced_run(workload, tmp_path, tag):
    work = tmp_path / f"{workload}-{tag}"
    work.mkdir()
    result = work / "result.json"
    subprocess.run([sys.executable, str(HERE / "child.py"), "--workload",
                    workload, "--seed", "0", "--work", str(work),
                    "--result", str(result), "--trace"],
                   env=dict(os.environ, **run.THREAD_PINS), check=True,
                   stdout=subprocess.DEVNULL, timeout=300)
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_runs_pass_and_repeat_counts(workload, tmp_path):
    counted = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] in ("count", "bytes")]
    first, second = (_traced_run(workload, tmp_path, t) for t in "ab")
    for rec in (first, second):
        # seed 0 is compared with the stored references
        assert rec["failures"] == []
        # the top-level spans cover the measured wall time
        assert rec["top_level_s"] <= rec["wall_s"]
        assert rec["top_level_s"] >= 0.98 * rec["wall_s"]
        expected = {m["name"] for m in SPEC["per_layer"]} \
            - {"trace_overhead_s"}
        assert set(rec["layers"]) == expected
    for name in counted:
        assert first["layers"][name] == second["layers"][name], name


def test_run_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fdtd_recover",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
