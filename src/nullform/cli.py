"""Experiment runner: scenario configs, pipelines, regression goldens.

Scenarios are INI files (configparser syntax) with a ``[scenario]``
section naming the run and selecting one of the pipelines

    forward | ansatz | residual | picard | energy | recover | certify

plus the sections that pipeline reads (see the README for the schema).
``run`` executes a scenario into an output directory named
``<name>-<hash>`` where the hash digests the canonicalized config, so
every artifact is traceable to the exact configuration that produced
it and a rerun of an unchanged config is detected as already done.

Determinism: summaries contain only values computed with a fixed
reduction order (contiguous numpy sums, no threading inside a
reduction), no timestamps and no absolute paths, and are serialized
with sorted keys -- two runs of the same config produce byte-identical
``summary.json``.
"""

import argparse
import configparser
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .constants import FBP_MIN_ANGLES, PPW_MIN
from .errors import ConfigError, NullformError
from .fdtd import (WeightedNormSpec, check_energy_estimate, picard_iterate,
                   solve_semilinear)
from .geoptics import (AnsatzSpec, assemble_uN, build_hierarchy,
                       dt_u_incident, measure_residual_order, u_incident)
from .gridio import read_bundle, write_bundle, write_pgm
from .grids import l2_norm
from .minkowski import LightVector
from .potential import get_potential, list_potentials, uniqueness_certificate
from .profiles import PROFILE_CATALOG, bump, get_profile
from .raytransform import lightray_forward
from .recovery import (ansatz_measurements, fdtd_measurements,
                       recover_potential_2d)

PIPELINES = ("forward", "ansatz", "residual", "picard", "energy",
             "recover", "certify")
# the one dimension a pipeline runs in; the others take any
PIPELINE_DIMENSION = {"ansatz": 1, "residual": 1, "picard": 1, "energy": 1,
                      "recover": 2}


# ----------------------------------------------------------------------
# config parsing


def _number(text: str) -> float:
    """Float literal, with 'p/q' fractions accepted for wavelengths."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        return float(num) / float(den)
    return float(s)


class ScenarioConfig:
    """Typed access to '[section] key = value' items.

    Every failed lookup or cast raises ConfigError naming the offending
    ``[section] key`` so the CLI can report a field-level message.
    """

    _REQUIRED = object()

    def __init__(self, items: dict):
        self.items = items          # {(section, key): value string}

    def _raw(self, sec, key, default):
        if (sec, key) in self.items:
            return self.items[(sec, key)]
        if default is self._REQUIRED:
            raise ConfigError(f"[{sec}] {key}: required field is missing")
        return None

    def _cast(self, sec, key, default, conv, what):
        raw = self._raw(sec, key, default)
        if raw is None:
            return default
        try:
            return conv(raw)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"[{sec}] {key}: cannot parse '{raw}' as {what}") from None

    def str(self, sec, key, default=_REQUIRED):
        raw = self._raw(sec, key, default)
        return default if raw is None else raw

    def float(self, sec, key, default=_REQUIRED):
        return self._cast(sec, key, default, _number, "a number")

    def int(self, sec, key, default=_REQUIRED):
        return self._cast(sec, key, default, int, "an integer")

    def floats(self, sec, key, default=_REQUIRED):
        def conv(s):
            return tuple(_number(p) for p in s.split(","))
        return self._cast(sec, key, default, conv, "a number list")

    def strs(self, sec, key, default=_REQUIRED):
        def conv(s):
            return tuple(p.strip() for p in s.split(",") if p.strip())
        return self._cast(sec, key, default, conv, "a name list")

    @staticmethod
    def _count(sec, key, text, least):
        n = int(text)
        if n < least:
            raise ConfigError(f"[{sec}] {key}: sample count must be "
                              f">= {least}, got {n}")
        return n

    def linspace(self, sec, key, default=_REQUIRED, least=1):
        """'lo:hi:n' -> n >= least uniform samples on [lo, hi]."""
        def conv(s):
            lo, hi, n = s.split(":")
            return np.linspace(_number(lo), _number(hi),
                               self._count(sec, key, n, least))
        return self._cast(sec, key, default, conv, "a 'lo:hi:n' range")

    def intervals(self, sec, key, default=_REQUIRED, count=1):
        """'lo:hi; lo:hi; ...' -> tuple of `count` (lo, hi) pairs."""
        def conv(s):
            out = []
            for part in s.split(";"):
                lo, _, hi = part.partition(":")
                out.append((_number(lo), _number(hi)))
            return tuple(out)
        out = self._cast(sec, key, default, conv, "'lo:hi' intervals")
        if len(out) != count:
            raise ConfigError(f"[{sec}] {key}: expected {count} intervals, "
                              f"got {len(out)}")
        return out

    def positive(self, sec, key, default=_REQUIRED, kind="float", above=0):
        """The `kind` getter's value; it (or each entry) must be > above."""
        value = getattr(self, kind)(sec, key, default)
        if not np.all(np.asarray(value) > above):
            raise ConfigError(
                f"[{sec}] {key}: must be > {above}, got {value!r}")
        return value

    def angles(self, sec, key, default=_REQUIRED, least=1):
        """A count (uniform half-turn sweep) or 'lo:hi:n', each n >= least."""
        def conv(s):
            if ":" in s:
                lo, hi, n = s.split(":")
                return np.linspace(_number(lo), _number(hi),
                                   self._count(sec, key, n, least),
                                   endpoint=False)
            return np.linspace(0.0, np.pi, self._count(sec, key, s, least),
                               endpoint=False)
        return self._cast(sec, key, default, conv,
                          "an angle count or 'lo:hi:n'")


def load_scenario(path):
    """Parse an INI scenario file -> (ScenarioConfig, canonical text)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from None
    items = {}
    for sec in parser.sections():
        for key, val in parser.items(sec):
            items[(sec, key)] = val.strip()
    canonical = "".join(f"{s}.{k} = {v}\n"
                        for (s, k), v in sorted(items.items()))
    return ScenarioConfig(items), canonical


def config_hash(canonical_text: str) -> str:
    return hashlib.sha256(canonical_text.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# shared scenario pieces


def _scenario_header(cfg: ScenarioConfig):
    name = cfg.str("scenario", "name")
    if not name.replace("-", "").replace("_", "").isalnum():
        raise ConfigError("[scenario] name: must be alphanumeric with "
                          "'-' or '_'")
    pipeline = cfg.str("scenario", "pipeline")
    if pipeline not in PIPELINES:
        raise ConfigError(f"[scenario] pipeline: unknown '{pipeline}' "
                          f"(have {', '.join(PIPELINES)})")
    n = cfg.int("scenario", "dimension")
    if n < 1:
        raise ConfigError("[scenario] dimension: must be >= 1")
    need = PIPELINE_DIMENSION.get(pipeline, n)
    if n != need:
        raise ConfigError(f"[scenario] dimension: the {pipeline} pipeline "
                          f"runs in dimension {need}, got {n}")
    return name, pipeline, n


def _potential(cfg: ScenarioConfig, n: int):
    key = cfg.str("potential", "key")
    amp = cfg.float("potential", "amplitude", None)
    if amp is not None and not np.isfinite(amp):
        raise ConfigError(f"[potential] amplitude: must be finite, "
                          f"got {amp!r}")
    try:
        return get_potential(key, n, amplitude=amp)
    except ConfigError as exc:
        raise ConfigError(f"[potential] key: {exc}") from None


def _profile(cfg: ScenarioConfig, which: str):
    key = cfg.str("profiles", which)
    try:
        return get_profile(key)
    except ConfigError as exc:
        raise ConfigError(f"[profiles] {which}: {exc}") from None


_REQ = ScenarioConfig._REQUIRED


def _light_vector(cfg: ScenarioConfig, n: int, prefix: str,
                  default_sign=_REQ, default_theta=_REQ):
    sign = cfg.int("probe", f"{prefix}_sign", default_sign)
    theta = cfg.floats("probe", f"{prefix}_theta", default_theta)
    if len(theta) != n:
        raise ConfigError(f"[probe] {prefix}_theta: expected {n} "
                          f"components, got {len(theta)}")
    try:
        return LightVector(sign, tuple(theta))
    except ConfigError as exc:
        raise ConfigError(f"[probe] {prefix}_sign/{prefix}_theta: "
                          f"{exc}") from None


def _ansatz_spec(cfg: ScenarioConfig, n: int, N: int, h_list=None):
    phi = _profile(cfg, "phi")
    chi = _profile(cfg, "chi")
    if n == 1:
        V = _light_vector(cfg, n, "v", -1, (-1.0,))
        W = _light_vector(cfg, n, "w", -1, (1.0,))
    else:
        V = _light_vector(cfg, n, "v")
        W = _light_vector(cfg, n, "w")
    A = cfg.float("probe", "amp_cos", 1.0)
    B = cfg.float("probe", "amp_sin", 0.5)
    hs = tuple(h_list if h_list is not None else cfg.floats("grid", "h_list"))
    dx = cfg.positive("grid", "dx")
    xlim = cfg.intervals("grid", "xlim", count=n)
    T0 = cfg.float("time", "t0")
    Tp = cfg.float("time", "tprime")
    T = cfg.float("time", "t_end")
    try:
        return AnsatzSpec(V, W, phi, chi, A, B, N, hs, T0, T, Tp, dx, xlim)
    except ConfigError as exc:
        raise ConfigError(f"[grid]/[time]/[probe]: {exc}") from None


# ----------------------------------------------------------------------
# pipelines: each returns (summary dict, artifact writer)


def run_forward(cfg, n, outdir):
    q = _potential(cfg, n)
    phi = _profile(cfg, "phi")
    V = _light_vector(cfg, n, "v")
    offsets = cfg.linspace("forward", "offsets")
    angles = cfg.angles("forward", "angles")
    sino = lightray_forward(q, phi, V, offsets, angles)
    (outdir / "sinogram.csv").write_text(sino.to_csv())
    cell = (offsets[1] - offsets[0]) if len(offsets) > 1 else 1.0
    return {
        "n_offsets": int(len(offsets)),
        "n_angles": int(len(angles)),
        "sinogram_l2": l2_norm(sino.samples, cell / max(1, len(angles))),
        "sinogram_max": float(np.max(np.abs(sino.samples))),
    }


def run_ansatz(cfg, n, outdir):
    q = _potential(cfg, n)
    N = cfg.int("grid", "n_terms", 1)
    spec = _ansatz_spec(cfg, n, N)
    table = build_hierarchy(spec, q)
    grid = table.grid
    cell = grid.dt * grid.cell_volume()
    hs, l2s, linfs = [], [], []
    for h in spec.h_list:
        uN = assemble_uN(table, h)
        hs.append(float(h))
        l2s.append(l2_norm(uN, cell))
        linfs.append(float(np.max(np.abs(uN))))
    table.save(outdir / "hierarchy.nfg")
    u_fine = assemble_uN(table, spec.h_list[-1])
    write_bundle(outdir / "uN.nfg", {"u": u_fine},
                 {"h": spec.h_list[-1], "t0": grid.t0, "dt": grid.dt,
                  "x0": list(grid.x0), "dx": list(grid.dx)})
    return {
        "N": N,
        "h_list": hs,
        "uN_l2": l2s,
        "uN_linf": linfs,
        "conjugate_symmetry_defect": float(
            table.conjugate_symmetry_defect()),
    }


def run_residual(cfg, n, outdir):
    q = _potential(cfg, n)
    N = cfg.int("grid", "n_terms", 1)
    spec = _ansatz_spec(cfg, n, N)
    rep = measure_residual_order(spec, q)
    (outdir / "residual.csv").write_text(rep.to_csv())
    return {
        "N": N,
        "h_list": [float(h) for h in rep.h_list],
        "residual_l2": [float(v) for v in rep.l2],
        "residual_linf": [float(v) for v in rep.linf],
        "floor": [float(v) for v in rep.floor],
        "used": [int(i) for i in rep.used],
        "slope": float(rep.slope),
        "order_target": N + 1,
        "passed": bool(rep.passed),
    }


def run_picard(cfg, n, outdir):
    q = _potential(cfg, n)
    h = cfg.positive("picard", "h")
    lam = cfg.positive("picard", "lam")
    m = cfg.positive("picard", "m", 2, "int", above=-1)
    mu = cfg.positive("picard", "mu", 4.0)
    tol = cfg.float("picard", "tol", 1e-10)
    j_max = cfg.int("picard", "j_max", 12)
    spec = _ansatz_spec(cfg, n, 0, h_list=(h,))
    spec.validate_against(q)
    # v = the solver's own linear evolution of the incident pulse, so
    # the discrete residual handed to the iteration is pure nonlinearity
    x = np.arange(spec.xlim[0][0], spec.xlim[0][1] + 0.5 * spec.dx,
                  spec.dx)
    u0 = u_incident(spec, h, spec.T0, (x,))
    v0 = dt_u_incident(spec, h, spec.T0, (x,))
    q0 = get_potential("zero", 1)
    v_traj = solve_semilinear(q0, u0, v0, (x[0],), (spec.dx,),
                              spec.T0, spec.T, scheme="leapfrog")
    norm_spec = WeightedNormSpec(m=m, mu=mu, lam=lam)
    trace, _ = picard_iterate(q, v_traj, spec=norm_spec, tol=tol,
                              j_max=j_max)
    lines = ["j,norm,diff,ratio"]
    for j, nr in enumerate(trace.norms):
        d = trace.diffs[j - 1] if 1 <= j <= len(trace.diffs) else ""
        r = trace.ratios[j - 2] if 2 <= j <= len(trace.ratios) + 1 else ""
        lines.append(f"{j},{nr!r},{d!r},{r!r}")
    (outdir / "picard_trace.csv").write_text("\n".join(lines) + "\n")
    return {
        "h": float(h),
        "lam": float(lam),
        "m": m,
        "norms": [float(v) for v in trace.norms],
        "diffs": [float(v) for v in trace.diffs],
        "ratios": [float(v) for v in trace.ratios],
        "converged": bool(trace.converged),
        "j_stop": int(trace.j_stop),
        "limit_residual": float(trace.limit_residual),
    }


def _random_compact_data(rng, x, inner):
    """Superposition of a few random bumps, supported inside |x| < inner."""
    u0 = np.zeros_like(x)
    v0 = np.zeros_like(x)
    for _ in range(3):
        r = rng.uniform(0.3, 0.6)
        c = rng.uniform(-1.0, 1.0)
        x0 = rng.uniform(-(inner - r), inner - r)
        p = bump(r, 1.0)
        u0 += c * p.f(x - x0)
        v0 += rng.uniform(-1.0, 1.0) * p.df(x - x0)
    return u0, v0


def run_energy(cfg, n, outdir):
    q = _potential(cfg, n)
    if q.key != "zero":
        raise ConfigError("[potential] key: the energy pipeline checks "
                          "the homogeneous estimate; use 'zero'")
    cases = cfg.positive("energy", "cases", 20, "int")
    lams = cfg.positive("energy", "lams", (1.0, 2.0, 4.0, 8.0), "floats")
    ms = cfg.floats("energy", "m_values", (0.0, 1.0))
    if not all(m >= 0 and m.is_integer() for m in ms):
        raise ConfigError(f"[energy] m_values: must be integers >= 0, "
                          f"got {ms!r}")
    seed = cfg.int("energy", "seed", 7)
    dx = cfg.positive("grid", "dx")
    (xlo, xhi), = cfg.intervals("grid", "xlim", count=n)
    t0 = cfg.float("time", "t0", 0.0)
    t_end = cfg.float("time", "t_end")
    span = t_end - t0
    inner = 0.5 * (xhi - xlo) - span - 0.5
    if inner <= 0.6:
        raise ConfigError("[grid] xlim: box too small for the time "
                          "window (data would reach the boundary)")
    x = np.arange(xlo, xhi + 0.5 * dx, dx)
    rng = np.random.default_rng(seed)
    combos = [(lam, int(m)) for m in ms for lam in lams]
    rows, Cs = [], []
    for k in range(cases):
        lam, m = combos[k % len(combos)]
        u0, v0 = _random_compact_data(rng, x - 0.5 * (xlo + xhi), inner)
        traj = solve_semilinear(q, u0, v0, (x[0],), (dx,), t0, t_end,
                                scheme="leapfrog", sample_every=4)
        rep = check_energy_estimate(traj, lam, m)
        rows.append((k, lam, m, rep.C))
        Cs.append(float(rep.C))
    lines = ["case,lam,m,C"]
    lines += [f"{k},{lam!r},{m},{C!r}" for k, lam, m, C in rows]
    (outdir / "energy.csv").write_text("\n".join(lines) + "\n")
    return {
        "cases": cases,
        "C_values": Cs,
        "C_max": float(max(Cs)),
    }


def run_recover(cfg, n, outdir):
    q = _potential(cfg, n)
    phi = _profile(cfg, "phi")
    chi = _profile(cfg, "chi")
    A = cfg.float("probe", "amp_cos", 1.0)
    B = cfg.float("probe", "amp_sin", 0.5)
    provider = cfg.str("recover", "provider", "ansatz")
    if provider not in ("ansatz", "fdtd"):
        raise ConfigError(f"[recover] provider: unknown '{provider}' "
                          "(have ansatz, fdtd)")
    h = cfg.positive("recover", "h")
    ppw = cfg.positive("recover", "ppw", 20 if provider == "ansatz" else 16,
                       "int", above=PPW_MIN - 1)
    # the sinogram and the pixel grid must be uniform: two samples each
    offsets = cfg.linspace("recover", "offsets", least=2)
    ax = cfg.linspace("recover", "axes", offsets, least=2)
    for key, v in (("offsets", offsets), ("axes", ax)):
        if not v[-1] > v[0]:
            raise ConfigError(f"[recover] {key}: range must increase, got "
                              f"{float(v[0])!r} to {float(v[-1])!r}")
    angles = cfg.angles("recover", "angles", least=FBP_MIN_ANGLES)
    if np.any(np.diff(angles) <= 0):
        raise ConfigError("[recover] angles: the sweep must increase "
                          f"strictly, got {angles[0]:.6g} to {angles[-1]:.6g}")
    method = cfg.str("recover", "method", "fbp")
    if method not in ("fbp", "rls"):
        raise ConfigError(f"[recover] method: unknown '{method}' "
                          "(have fbp, rls)")
    if method == "fbp" and angles[-1] - angles[0] >= np.pi:
        raise ConfigError("[recover] angles: fbp needs a sweep within "
                          f"one half-turn, got {angles[0]:.6g} to "
                          f"{angles[-1]:.6g}")
    reg = cfg.float("recover", "reg", 1e-8)
    if not (np.isfinite(reg) and reg >= 0):
        raise ConfigError(f"[recover] reg: must be finite and >= 0, "
                          f"got {reg!r}")
    if ("recover", "richardson") in cfg.items:
        raise ConfigError("[recover] richardson: the key was removed; each "
                          "probe is one demodulated slice at h")
    Tp = cfg.float("time", "tprime")
    if provider == "ansatz":
        probes = ansatz_measurements(q, phi, chi, A, B, h, offsets, angles,
                                     Tp, ppw=ppw)
    else:
        T0 = cfg.float("time", "t0")
        probes = [fdtd_measurements(q, phi, chi, A, B, h, offsets, angles,
                                    Tp, T0, ppw=ppw)]
    X1, X2 = ax[:, None], ax[None, :]
    truth = np.asarray(q.q(0.0, [X1, X2], 0.0), dtype=float)
    truth = np.broadcast_to(truth, (len(ax), len(ax)))
    rec, report = recover_potential_2d(probes, (ax, ax), chi, A, B,
                                       method=method, reg=reg, truth=truth)
    write_bundle(outdir / "reconstruction.nfg",
                 {"values": rec.values, "axis": ax, "truth": truth},
                 {"provider": provider, "h": h, "method": report["method"]})
    write_pgm(outdir / "reconstruction.pgm", rec.values.T[::-1])  # x2 up
    return {
        "provider": provider,
        "h": float(h),
        "n_angles": int(report["n_angles"]),
        "n_angles_used": int(report["n_angles_used"]),
        "dropped_angles": [float(a) for a in report["dropped_angles"]],
        "interpolated_offsets": int(report["interpolated_offsets"]),
        "imag_defect_max": float(report["imag_defect_max"]),
        "fit_residual_max": float(report["fit_residual_max"]),
        "method": report["method"],
        "recon_rel_l2_error": float(report["rel_l2_error"]),
    }


def run_certify(cfg, n, outdir):
    keys = cfg.strs("certify", "potentials")
    pts = cfg.positive("certify", "grid_points", 64, "int", above=1)
    n_prof = cfg.positive("certify", "n_profiles", 4, "int")
    n_dirs = cfg.positive("certify", "n_directions", 4, "int")
    profs = [bump(0.4 + 0.25 * k / max(1, n_prof - 1), 1.0)
             for k in range(n_prof)]
    dirs = []
    if n == 1:
        dirs = [LightVector(1, (1.0,)), LightVector(1, (-1.0,))][:n_dirs]
    else:
        for k in range(n_dirs):
            a = np.pi * k / n_dirs
            th = [np.cos(a), np.sin(a)] + [0.0] * (n - 2)
            dirs.append(LightVector(1, tuple(th)))
    certs = {}
    for key in keys:
        q = _potential_by_key(key, n)
        rep = uniqueness_certificate(q, profs, dirs,
                                     grid_points_per_axis=pts)
        certs[key] = {"max_abs": float(rep.max_abs),
                      "inconclusive": bool(rep.inconclusive)}
    lines = ["potential,max_abs,inconclusive"]
    lines += [f"{k},{v['max_abs']!r},{v['inconclusive']}"
              for k, v in certs.items()]
    (outdir / "certificates.csv").write_text("\n".join(lines) + "\n")
    return {"grid_points": pts, "certificates": certs}


def _potential_by_key(key, n):
    try:
        return get_potential(key, n)
    except ConfigError as exc:
        raise ConfigError(f"[certify] potentials: {exc}") from None


PIPELINE_RUNNERS = {
    "forward": run_forward,
    "ansatz": run_ansatz,
    "residual": run_residual,
    "picard": run_picard,
    "energy": run_energy,
    "recover": run_recover,
    "certify": run_certify,
}


# ----------------------------------------------------------------------
# run / compare


def run_scenario(cfg_path, out_root=None, jobs=1, force=False):
    """Execute a scenario file; returns the output directory path.

    ``jobs`` must be 1; it goes once item 8's benchmark-only change (see
    ROADMAP) stops ``perfbench/child.py`` passing it.
    """
    if jobs != 1:
        raise ValueError(f"run_scenario: jobs must be 1, got {jobs!r}")
    cfg, canonical = load_scenario(cfg_path)
    name, pipeline, n = _scenario_header(cfg)
    digest = config_hash(canonical)
    root = Path(out_root or os.environ.get("NULLFORM_OUT", "out"))
    outdir = root / f"{name}-{digest}"
    summary_path = outdir / "summary.json"
    if summary_path.exists() and not force:
        print(f"cached: {outdir} (rerun with --force to recompute)")
        return outdir
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.cfg").write_text(canonical)
    body = PIPELINE_RUNNERS[pipeline](cfg, n, outdir)
    summary = {
        "name": name,
        "pipeline": pipeline,
        "dimension": n,
        "config_hash": digest,
        "results": body,
    }
    summary_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"wrote: {summary_path}")
    return outdir


TOLERANCES = (
    ("slope", "abs", 0.05),
    ("recon", "rel", 1e-3),
    ("default", "rel", 1e-6),
)


def _tolerance_for(path):
    leaf = path.rsplit(".", 1)[-1]
    for tag, kind, tol in TOLERANCES:
        if tag in leaf:
            return kind, tol
    return TOLERANCES[-1][1], TOLERANCES[-1][2]


def _compare_values(path, got, want, failures):
    if isinstance(want, dict):
        if not isinstance(got, dict):
            failures.append(f"{path}: type mismatch")
            return
        for k in sorted(set(want) | set(got)):
            if k not in want or k not in got:
                failures.append(f"{path}.{k}: present on one side only")
                continue
            _compare_values(f"{path}.{k}", got[k], want[k], failures)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            failures.append(f"{path}: length mismatch")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_values(f"{path}[{i}]", g, w, failures)
    elif isinstance(want, bool) or isinstance(want, str) or want is None:
        if got != want:
            failures.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, (int, float)):
        g, w = float(got), float(want)
        if np.isnan(w) and np.isnan(g):
            return
        kind, tol = _tolerance_for(path)
        err = abs(g - w)
        if kind == "rel":
            err = err / max(abs(w), abs(g), 1e-300)
        if err > tol:
            failures.append(f"{path}: {g!r} vs {w!r} "
                            f"({kind} err {err:.3e} > {tol:g})")
    else:
        failures.append(f"{path}: unsupported golden type {type(want)}")


def compare_golden(out_dir, golden_dir):
    """Field-by-field summary comparison; returns a list of failures."""
    out_dir, golden_dir = Path(out_dir), Path(golden_dir)
    golden_summary = golden_dir / "summary.json"
    if not golden_summary.exists():
        raise ConfigError(
            f"no golden summary at {golden_summary}; generate one with "
            f"'nullform run <cfg> --out {golden_dir.parent}' and commit "
            "the directory")
    run_summary = out_dir / "summary.json"
    if not run_summary.exists():
        raise ConfigError(f"no run summary at {run_summary}")
    got = json.loads(run_summary.read_text())
    want = json.loads(golden_summary.read_text())
    failures = []
    _compare_values("summary", got, want, failures)
    # reconstructions are compared against the stored grid when present
    g_rec = golden_dir / "reconstruction.nfg"
    o_rec = out_dir / "reconstruction.nfg"
    if g_rec.exists():
        if not o_rec.exists():
            failures.append("reconstruction.nfg: missing from run output")
        else:
            want_arrays, _ = read_bundle(g_rec)
            got_arrays, _ = read_bundle(o_rec)
            a, b = got_arrays["values"], want_arrays["values"]
            if a.shape != b.shape:
                failures.append("reconstruction.values: shape mismatch")
            else:
                _, tol = _tolerance_for("reconstruction")
                rel = float(np.sqrt(np.sum((a - b) ** 2)
                                    / max(np.sum(b ** 2), 1e-300)))
                if rel > tol:
                    failures.append(
                        f"reconstruction.values: rel err {rel:.3e} > {tol:g}")
    return failures


def list_catalog():
    print("pipelines:", ", ".join(PIPELINES))
    print("potentials (any dimension):", ", ".join(list_potentials()))
    print("profiles:", ", ".join(sorted(PROFILE_CATALOG)),
          "(parameters: name:r=...,a=... ; ramp:flat=...,taper=...)")


# ----------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nullform",
        description="Scenario runner for the null-form wave-equation "
                    "laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="scenario .cfg file")
    p_run.add_argument("--out", default=None,
                       help="output root (default: $NULLFORM_OUT or ./out)")
    p_run.add_argument("--force", action="store_true",
                       help="recompute even if the output already exists")

    p_cmp = sub.add_parser("compare", help="compare a run against a golden")
    p_cmp.add_argument("out", help="run output directory")
    p_cmp.add_argument("golden", help="golden directory")

    sub.add_parser("list-catalog", help="list potentials and profiles")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            run_scenario(args.config, out_root=args.out, force=args.force)
            return 0
        if args.command == "compare":
            failures = compare_golden(args.out, args.golden)
            if failures:
                for f in failures:
                    print(f"FAIL {f}", file=sys.stderr)
                return 1
            print("compare: pass")
            return 0
        list_catalog()
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NullformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
