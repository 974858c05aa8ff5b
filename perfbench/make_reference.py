"""Regenerate the seed-0 reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's seed-0 scenarios with the current sources and keeps
``summary.json`` and, for recoveries, ``reconstruction.nfg`` per scenario.
The benchmark compares every seed-0 run against these files.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

from nullform.cli import run_scenario  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, write_scenarios  # noqa: E402


def main(names):
    with tempfile.TemporaryDirectory() as tmp:
        for workload in names or WORKLOADS:
            for cfg in write_scenarios(workload, 0, Path(tmp) / workload):
                out = run_scenario(cfg, out_root=Path(tmp) / "out",
                                   force=True)
                dest = REFERENCE_DIR / cfg.stem
                dest.mkdir(parents=True, exist_ok=True)
                for fname in ("summary.json", "reconstruction.nfg"):
                    if (out / fname).exists():
                        shutil.copyfile(out / fname, dest / fname)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
