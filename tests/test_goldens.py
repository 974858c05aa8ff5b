"""Committed goldens: every shipped scenario against `golden/`.

The fast scenarios run in-process here and must pass `compare_golden`
under the unchanged `TOLERANCES`.  The slow ones (about 2.5 minutes on a
2-core x86-64 VM, mostly `recover_fdtd_h64`) run and compare with

    PYTHONPATH=src python3 tests/test_goldens.py

which takes scenario names as arguments (default: the slow ones) and
also prints, per scenario, the numeric `summary.json` leaf that moved
most relative to its golden value.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

from nullform.cli import compare_golden, config_hash, load_scenario, \
    run_scenario

ROOT = Path(__file__).resolve().parent.parent
FAST = ("ansatz_n1", "certify_catalog", "energy_suite", "forward_bump2d",
        "picard_lam8", "recover_rls", "recover_small", "residual_n0")
SLOW = ("residual_n1", "recover_ansatz_h64", "recover_fdtd_h64")


def golden_dir(scenario):
    cfg, canonical = load_scenario(ROOT / "scenarios" / f"{scenario}.cfg")
    name = cfg.str("scenario", "name")
    return ROOT / "golden" / f"{name}-{config_hash(canonical)}"


def run_and_compare(scenario, out_root):
    """Run one shipped scenario into out_root; (output dir, its compare
    failures)."""
    with contextlib.redirect_stdout(io.StringIO()):
        outdir = run_scenario(ROOT / "scenarios" / f"{scenario}.cfg",
                              out_root=out_root, force=True)
    return outdir, compare_golden(outdir, golden_dir(scenario))


def numeric_leaves(node, path="summary"):
    """(path, value) for every int or float leaf of a parsed JSON tree."""
    if isinstance(node, dict):
        for k in sorted(node):
            yield from numeric_leaves(node[k], f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from numeric_leaves(v, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def largest_drift(out_dir, ref_dir):
    """(path, relative drift) of the numeric summary.json leaf of out_dir
    that differs most from ref_dir's; the drift of a leaf whose reference
    is 0 is absolute."""
    got, want = (dict(numeric_leaves(json.loads(
        (Path(d) / "summary.json").read_text()))) for d in (out_dir, ref_dir))
    worst = ("none", 0.0)
    for path in sorted(set(got) & set(want)):
        diff = abs(got[path] - want[path])
        rel = diff / abs(want[path]) if want[path] else diff
        if rel > worst[1]:
            worst = (path, rel)
    return worst


def test_every_scenario_has_a_golden():
    shipped = {p.stem for p in (ROOT / "scenarios").glob("*.cfg")}
    assert shipped == set(FAST) | set(SLOW)
    for scenario in sorted(shipped):
        assert (golden_dir(scenario) / "summary.json").is_file(), scenario


@pytest.mark.parametrize("scenario", FAST)
def test_fast_scenario_matches_golden(scenario, tmp_path):
    assert run_and_compare(scenario, tmp_path)[1] == []


if __name__ == "__main__":
    import tempfile

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sys.argv[1:] or SLOW:
            t0 = time.perf_counter()
            outdir, failures = run_and_compare(scenario, tmp)
            verdict = "FAIL" if failures else "pass"
            path, rel = largest_drift(outdir, golden_dir(scenario))
            print(f"{scenario}: {verdict} "
                  f"({time.perf_counter() - t0:.1f} s); largest drift "
                  f"{rel:.2e} at {path}", flush=True)
            for f in failures:
                print(f"  {f}")
            failed += bool(failures)
    sys.exit(1 if failed else 0)
