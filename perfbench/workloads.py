"""Benchmark workloads: seeded scenario files and the checks on their output.

Each workload is a list of complete scenario configs.  Seed 0 writes them
exactly as listed here; other seeds scale ``[potential] amplitude`` within
+-10% and rotate the start of the angle sweep by a fraction of one angular
step.  No seed changes an array size, a step count or a sweep length, so
the work per run depends on the workload, not on the seed.

The configs are stored here in full, not read from ``scenarios/``, so the
benchmark's inputs stay fixed when the shipped scenarios change.
"""

import configparser
import json
import math
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_PROFILES = {"phi": "ramp:flat=1.5,taper=0.5", "chi": "bump:r=0.3"}
_PROBE = {"amp_cos": "1.0", "amp_sin": "0.5"}

# recover_fdtd_h64.cfg at h = 1/16 and 81 offsets
_FDTD_RECOVER = {
    "scenario": {"name": "bench-fdtd-recover", "pipeline": "recover",
                 "dimension": "2"},
    "potential": {"key": "radial_bump"},
    "profiles": _PROFILES,
    "probe": _PROBE,
    "time": {"t0": "-1.2", "tprime": "1.2"},
    "recover": {"provider": "fdtd", "h": "1/16", "ppw": "16",
                "offsets": "-0.8:0.8:81", "angles": "180", "method": "fbp"},
}

# recover_ansatz_h64.cfg at 81 offsets
_ANSATZ_RECOVER = {
    "scenario": {"name": "bench-ansatz-recover", "pipeline": "recover",
                 "dimension": "2"},
    "potential": {"key": "radial_bump"},
    "profiles": _PROFILES,
    "probe": _PROBE,
    "time": {"tprime": "1.5"},
    "recover": {"provider": "ansatz", "h": "1/64",
                "offsets": "-0.8:0.8:81", "angles": "180", "method": "fbp"},
}

# recover_small.cfg with method = rls at 33 offsets (33^2 pixels)
_RLS_INVERSE = {
    "scenario": {"name": "bench-rls-inverse", "pipeline": "recover",
                 "dimension": "2"},
    "potential": {"key": "radial_bump"},
    "profiles": _PROFILES,
    "probe": _PROBE,
    "time": {"tprime": "1.5"},
    "recover": {"provider": "ansatz", "h": "1/32",
                "offsets": "-0.8:0.8:33", "angles": "90", "method": "rls",
                "reg": "1e-8"},
}

# residual_n1.cfg at dx = 0.02 on a shorter window and a smaller box
_RESIDUAL = {
    "scenario": {"name": "bench-residual-n1", "pipeline": "residual",
                 "dimension": "1"},
    "potential": {"key": "radial_bump"},
    "profiles": _PROFILES,
    "grid": {"n_terms": "1", "h_list": "1/16, 1/32, 1/64, 1/128",
             "dx": "0.02", "xlim": "-2.6:2.6"},
    "time": {"t0": "-0.9", "tprime": "0.9", "t_end": "1.0"},
}

# picard_lam8.cfg at dx = 0.024
_PICARD = {
    "scenario": {"name": "bench-picard-lam8", "pipeline": "picard",
                 "dimension": "1"},
    "potential": {"key": "radial_bump", "amplitude": "0.5"},
    "profiles": _PROFILES,
    "grid": {"dx": "0.024", "xlim": "-4.5:4.5"},
    "time": {"t0": "-2.0", "tprime": "0.0", "t_end": "0.5"},
    "picard": {"h": "1/32", "lam": "8", "m": "2", "mu": "4"},
}

WORKLOADS = {
    "fdtd_recover": [_FDTD_RECOVER],
    "ansatz_recover": [_ANSATZ_RECOVER],
    "rls_inverse": [_RLS_INVERSE],
    "hierarchy_1d": [_RESIDUAL, _PICARD],
}

# Upper bounds on the reconstruction's relative L2 error against the
# true potential, for every seed.  Each sits above the spread that the
# seeded amplitude and sweep rotation cause at the current code.
RECON_ERROR_BOUND = {
    "bench-fdtd-recover": 0.36,
    "bench-ansatz-recover": 0.012,
    "bench-rls-inverse": 0.09,
}


def seeded_configs(workload, seed):
    """The workload's scenario configs for `seed`, as section dicts."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload '{workload}' "
                       f"(have {', '.join(WORKLOADS)})")
    configs = [{sec: dict(items) for sec, items in cfg.items()}
               for cfg in WORKLOADS[workload]]
    if seed == 0:
        return configs
    rng = random.Random(seed)
    scale = 1.0 + rng.uniform(-0.1, 0.1)
    turn = rng.random()
    for cfg in configs:
        pot = cfg["potential"]
        pot["amplitude"] = repr(float(pot.get("amplitude", "1.0")) * scale)
        rec = cfg.get("recover")
        if rec is not None:
            n = int(rec["angles"])
            lo = turn * math.pi / n
            rec["angles"] = f"{lo!r}:{lo + math.pi!r}:{n}"
    return configs


def write_scenarios(workload, seed, dest):
    """Write the seeded scenario files into `dest`; returns their paths."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for cfg in seeded_configs(workload, seed):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(cfg)
        path = dest / f"{cfg['scenario']['name']}.cfg"
        with open(path, "w") as fh:
            parser.write(fh)
        paths.append(path)
    return paths


def _non_finite(value, path, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _non_finite(v, f"{path}.{k}", out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _non_finite(v, f"{path}[{i}]", out)
    elif isinstance(value, float) and not math.isfinite(value):
        out.append(f"{path}: non-finite value {value!r}")


def check_output(outdir, seed):
    """Failures of one scenario's output directory; empty when correct.

    Every seed is checked against truth: the reconstruction error bound,
    ``passed`` for the residual order and ``converged`` for Picard, and
    no non-finite number anywhere.  Seed 0 is also compared with the
    stored reference through ``nullform.cli.compare_golden``.
    ``fit_residual_max`` is not used: it reads about 0.71 on clean data.
    """
    import numpy as np
    from nullform.cli import compare_golden
    from nullform.gridio import read_bundle

    outdir = Path(outdir)
    summary = json.loads((outdir / "summary.json").read_text())
    name = summary["name"]
    res = summary["results"]
    failures = []
    _non_finite(summary, "summary", failures)
    if summary["pipeline"] == "recover":
        arrays, _ = read_bundle(outdir / "reconstruction.nfg")
        if not np.all(np.isfinite(arrays["values"])):
            failures.append("reconstruction.values: non-finite pixels")
        err = res["recon_rel_l2_error"]
        if not err <= RECON_ERROR_BOUND[name]:
            failures.append(f"recon_rel_l2_error {err!r} above "
                            f"{RECON_ERROR_BOUND[name]}")
        if res["n_angles_used"] != res["n_angles"]:
            failures.append(f"{res['n_angles'] - res['n_angles_used']} "
                            "angles dropped")
    elif summary["pipeline"] == "residual":
        if res["passed"] is not True:
            failures.append(f"residual order not reached: slope "
                            f"{res['slope']!r}")
    elif summary["pipeline"] == "picard":
        if res["converged"] is not True:
            failures.append("Picard iteration did not converge")
    if seed == 0:
        failures += [f"reference: {f}"
                     for f in compare_golden(outdir, REFERENCE_DIR / name)]
    return [f"{name}: {f}" for f in failures]
