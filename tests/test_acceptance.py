"""End-to-end acceptance suite.

Each test exercises one headline capability at desk scale and prints a
single PASS/FAIL line (directly to the terminal, bypassing capture) so
a full run reads as a ten-line report.
"""

import sys

import numpy as np
import pytest

from nullform.cli import compare_golden, run_scenario
from nullform.fdtd import (WeightedNormSpec, check_energy_estimate,
                           picard_iterate, solve_semilinear)
from nullform.geoptics import (AnsatzSpec, a10_points, build_hierarchy,
                               dt_u_incident, measure_residual_order,
                               solve_transport, u_incident)
from nullform.grids import SpacetimeGrid
from nullform.minkowski import LightVector, phase_arg
from nullform.potential import get_potential, scalar_F, uniqueness_certificate
from nullform.profiles import bump, cos4_window, ramp, sbump
from nullform.recovery import (ExtractedAmplitude, ansatz_measurements,
                               fdtd_measurements, log_recover_ray_data,
                               recover_potential_2d)

V1 = LightVector(-1, (-1.0,))
W1 = LightVector(-1, (1.0,))
PHI = ramp(1.5, 0.5, 1.0)
CHI = bump(0.3, 1.0)


def _report(num, name, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# 1. null-form annihilation on plane-wave backgrounds


def test_criterion_1_null_form_annihilation():
    combos = [
        (ramp(1.5, 0.5, 1.0), LightVector(1, (0.0, 1.0))),
        (bump(1.2, 1.0), LightVector(-1, (1.0, 0.0))),
        (sbump(1.0, 0.7), LightVector(1, (0.6, 0.8))),
        (cos4_window(1.0, 1.3), LightVector(-1, (-0.8, 0.6))),
        (ramp(1.0, 0.5, 0.8), LightVector(1, (np.cos(1.1), np.sin(1.1)))),
    ]
    q = get_potential("bump_linear_u", 2)
    ax = np.linspace(-1.5, 1.5, 33)
    t = ax.reshape(-1, 1, 1)
    x = ax.reshape(1, -1, 1)
    y = ax.reshape(1, 1, -1)
    worst = 0.0
    for phi, V in combos:
        s = phase_arg(t, [x, y], V)
        u = phi.f(s)
        dp = phi.df(s)
        gt = dp * V.sign                      # analytic d_t phi_V
        g1 = dp * V.direction[0]
        g2 = dp * V.direction[1]
        Q = q.q(t, [x, y], u) * (gt ** 2 - g1 ** 2 - g2 ** 2)
        worst = max(worst, float(np.max(np.abs(Q))))
    _report(1, "null-form annihilation", worst < 1e-12,
            f"max |Q(x, phi_V, grad phi_V)| = {worst:.2e} over 5 combos")


# ----------------------------------------------------------------------
# 2. residual order of the hierarchy


def test_criterion_2_residual_order():
    q = get_potential("radial_bump", 1)
    hs = (1 / 16, 1 / 32, 1 / 64, 1 / 128)
    s0 = AnsatzSpec(V1, W1, PHI, CHI, 1.0, 0.5, 0, hs,
                    -2.0, 2.0, 1.5, 0.04, ((-4.0, 4.0),))
    r0 = measure_residual_order(s0, q)
    s1 = AnsatzSpec(V1, W1, PHI, CHI, 1.0, 0.5, 1, hs,
                    -2.0, 2.0, 1.5, 0.01, ((-4.0, 4.0),))
    r1 = measure_residual_order(s1, q)
    ok = r0.slope >= 0.75 and r1.slope >= 1.75
    _report(2, "residual order", ok,
            f"N=0 slope {r0.slope:.2f} (>= 0.75), "
            f"N=1 slope {r1.slope:.2f} (>= 1.75)")


# ----------------------------------------------------------------------
# 3. 1+2D transport solver vs closed-form leading amplitude


def test_criterion_3_transport_vs_closed_form():
    q = get_potential("radial_bump", 2)
    V = LightVector(1, (0.0, 1.0))
    W = LightVector(-1, (1.0, 0.0))
    d = 0.01
    nx = int(round(4.0 / d)) + 1          # x in (-1.6, 2.4)
    ny = int(round(1.6 / d)) + 1          # y in (-0.8, 0.8)
    nt = int(round(3.0 / d)) + 1          # t in (-2, 1)
    grid = SpacetimeGrid(-2.0, d, nt, (-1.6, -0.8), (d, d), (nx, ny))
    T, X, Y = grid.coords()
    F = scalar_F(q, PHI, V, W.direction, T, [X, Y]) + np.zeros(grid.shape)
    inflow = (0.5 * (1.0 - 0.5j) * CHI.f(-2.0 + grid.axis(0))[:, None]
              * np.ones((nx, ny)))
    A = solve_transport(0.0, F, (1.0, 0.0), inflow, grid)
    # reference on a strided subsample (the closed form re-integrates
    # every ray from scratch; the error field is smooth, so the strided
    # sup tracks the full-grid sup)
    kt, kx, ky = 5, 2, 2
    xs = grid.axis(0)[::kx]
    ys = grid.axis(1)[::ky]
    XY = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    xp = XY.reshape(-1, 2)
    err = 0.0
    ref_max = 0.0
    for k in range(0, nt, kt):
        ref = a10_points(q, PHI, CHI, V, W, 1.0, 0.5,
                         float(grid.t[k]), xp).reshape(len(xs), len(ys))
        err = max(err, float(np.max(np.abs(A[k, ::kx, ::ky] - ref))))
        ref_max = max(ref_max, float(np.max(np.abs(ref))))
    rel = err / ref_max
    _report(3, "transport vs closed form", rel < 1e-6,
            f"rel sup error {rel:.2e} on a 1+2D bump scenario")


# ----------------------------------------------------------------------
# 4. FDTD vs assembled ansatz at the measurement time


def test_criterion_4_fdtd_vs_ansatz_order():
    from scipy.interpolate import CubicSpline
    q = get_potential("radial_bump", 1)
    T0, TP = -1.2, 1.5
    hs = (1 / 16, 1 / 32, 1 / 64, 1 / 128)
    spec = AnsatzSpec(V1, W1, PHI, CHI, 1.0, 0.5, 1, hs,
                      -2.0, 2.0, TP, 0.01, ((-4.0, 4.0),))
    spec.validate_against(q)
    table = build_hierarchy(spec, q)
    grid = table.grid
    kT = int(round((TP - grid.t0) / grid.dt))
    xs_t = grid.axis(0)
    rows_T = {mp: arr[kT] for mp, arr in table.rows.items()}

    def uN_at(xf, h):
        acc = np.zeros_like(xf, dtype=complex)
        psi = TP + xf
        for (m, p), row in rows_T.items():
            g = (CubicSpline(xs_t, row.real)(xf)
                 + 1j * CubicSpline(xs_t, row.imag)(xf))
            acc += h ** (1 + p) * g * np.exp(1j * m * psi / h)
        return PHI.f(-TP * V1.sign + V1.direction[0] * xf) + acc.real

    errs = []
    for h in hs:
        # 4th-order interior stencils: dx ~ h^(3/2) keeps the solver's
        # dispersion error well below the O(h^2) model error measured
        dxf = 0.5 * h ** 1.5
        x = np.arange(-3.8, 3.55, dxf)
        u0 = u_incident(spec, h, T0, (x,))
        v0 = dt_u_incident(spec, h, T0, (x,))
        traj = solve_semilinear(q, u0, v0, (x[0],), (dxf,), T0, TP,
                                scheme="rk4", sample_every=10 ** 9)
        errs.append(float(np.sqrt(np.sum((traj.u[-1] - uN_at(x, h)) ** 2)
                                  * dxf)))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    _report(4, "FDTD vs u_N at T'", slope >= 1.75,
            f"observed order {slope:.2f} over h in {{1/16..1/128}} "
            f"(errors {', '.join(f'{e:.1e}' for e in errs)})")


# ----------------------------------------------------------------------
# 5. Picard contraction


def test_criterion_5_picard_contraction():
    q = get_potential("radial_bump", 1, amplitude=0.5)
    h = 1 / 32
    spec = AnsatzSpec(V1, W1, PHI, CHI, 1.0, 0.5, 0, (h,),
                      -2.0, 0.5, 0.0, 0.012, ((-4.5, 4.5),))
    spec.validate_against(q)
    x = np.arange(-4.5, 4.5 + 0.006, 0.012)
    u0 = u_incident(spec, h, -2.0, (x,))
    v0 = dt_u_incident(spec, h, -2.0, (x,))
    q0 = get_potential("zero", 1)
    v_traj = solve_semilinear(q0, u0, v0, (x[0],), (0.012,), -2.0, 0.5,
                              scheme="leapfrog", dt=0.45 * 0.012)
    norm_spec = WeightedNormSpec(m=2, mu=4.0, lam=8.0)
    trace, _ = picard_iterate(q, v_traj, spec=norm_spec, tol=1e-10,
                              j_max=12)
    ok = (trace.converged and trace.j_stop <= 12
          and all(r < 0.5 for r in trace.ratios))
    _report(5, "Picard contraction", ok,
            f"lam=8, h=1/32: converged in {trace.j_stop} iterates, "
            f"max ratio {max(trace.ratios):.2f} (< 0.5)")


# ----------------------------------------------------------------------
# 6. energy estimate constant


def test_criterion_6_energy_estimate():
    q = get_potential("zero", 1)
    dx = 0.02
    x = np.arange(-4.0, 4.0 + 0.5 * dx, dx)
    rng = np.random.default_rng(7)
    combos = [(lam, m) for m in (0, 1) for lam in (1.0, 2.0, 4.0, 8.0)]
    Cs = []
    for k in range(20):
        lam, m = combos[k % len(combos)]
        u0 = np.zeros_like(x)
        v0 = np.zeros_like(x)
        for _ in range(3):
            r = rng.uniform(0.3, 0.6)
            c = rng.uniform(-1.0, 1.0)
            x0 = rng.uniform(-(2.5 - r), 2.5 - r)
            p = bump(r, 1.0)
            u0 += c * p.f(x - x0)
            v0 += rng.uniform(-1.0, 1.0) * p.df(x - x0)
        traj = solve_semilinear(q, u0, v0, (x[0],), (dx,), 0.0, 1.0,
                                scheme="leapfrog", sample_every=4)
        Cs.append(check_energy_estimate(traj, lam, m).C)
    cmax = max(Cs)
    _report(6, "energy estimate", cmax <= 50.0,
            f"one constant C = {cmax:.2f} (<= 50) over 20 cases, "
            "lam in {1,2,4,8}, m in {0,1}")


# ----------------------------------------------------------------------
# 7. tomographic recovery (ansatz and full-FDTD measurements)


def test_criterion_7_tomographic_recovery():
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 161)
    angles = np.linspace(0, np.pi, 180, endpoint=False)
    ax = offsets
    truth = np.asarray(q.q(0.0, [ax[:, None], ax[None, :]], 0.0))
    truth = np.broadcast_to(truth, (161, 161))
    h = 1 / 64

    probes = ansatz_measurements(q, PHI, CHI, 1.0, 0.5, h, offsets,
                                 angles, 1.5, ppw=20)
    _, rep_a = recover_potential_2d(probes, (ax, ax), CHI, 1.0, 0.5,
                                    truth=truth)
    probe = fdtd_measurements(q, PHI, CHI, 1.0, 0.5, h, offsets,
                              angles, 1.2, -1.2, ppw=16)
    _, rep_f = recover_potential_2d([probe], (ax, ax), CHI, 1.0, 0.5,
                                    truth=truth)
    ea, ef = rep_a["rel_l2_error"], rep_f["rel_l2_error"]
    _report(7, "tomographic recovery", ea <= 0.10 and ef <= 0.15,
            f"rel L2 error: ansatz {ea:.3f} (<= 0.10), "
            f"FDTD {ef:.3f} (<= 0.15), h = 1/64, 180 angles")


# ----------------------------------------------------------------------
# 8. uniqueness certificate


def test_criterion_8_uniqueness_certificate():
    profs = [bump(0.4, 1.0), bump(0.65, 1.0), sbump(0.5, 1.0),
             cos4_window(0.6, 1.0)]
    dirs = [LightVector(1, (np.cos(a), np.sin(a)))
            for a in np.linspace(0, np.pi, 4, endpoint=False)]
    zero = uniqueness_certificate(get_potential("zero", 2), profs, dirs,
                                  grid_points_per_axis=64)
    certs = {}
    for key in ("radial_bump", "bump_t_xy", "gaussian_xy_cubic_u"):
        rep = uniqueness_certificate(get_potential(key, 2), profs, dirs,
                                     grid_points_per_axis=64)
        certs[key] = rep.max_abs
    ok = zero.max_abs == 0.0 and all(v > 1e-3 for v in certs.values())
    worst = min(certs.values())
    _report(8, "uniqueness certificate", ok,
            f"q=0 gives {zero.max_abs:.1e}, nonzero catalog minimum "
            f"{worst:.2e} (> 1e-3)")


# ----------------------------------------------------------------------
# 9. probe invariance and imaginary-part diagnostic


def test_criterion_9_probe_invariance():
    q = get_potential("radial_bump", 2)
    h, TP = 1 / 32, 1.5
    om = np.array([np.cos(0.4), np.sin(0.4)])
    th = np.array([-om[1], om[0]])
    V = LightVector(-1, tuple(th))
    W = LightVector(-1, tuple(om))
    offsets = np.linspace(-0.6, 0.6, 31)
    r = -TP + np.linspace(-0.25, 0.25, 21)
    base = None
    worst_rel = 0.0
    worst_imag = 0.0
    for c in (1.0, 3.0, -0.7):
        A, B = c * 1.0, c * 0.5
        vals = np.empty((len(offsets), len(r)), dtype=complex)
        for j, rr in enumerate(r):
            xp = offsets[:, None] * th + rr * om
            vals[:, j] = a10_points(q, PHI, CHI, V, W, A, B, TP, xp)
        amp = ExtractedAmplitude(vals, r, h, TP, 0.0)
        ray = log_recover_ray_data(amp, CHI, A, B)
        worst_imag = max(worst_imag,
                         float(np.max(np.abs(ray.imag_defect[ray.valid]))))
        if base is None:
            base = ray.values
            scale = float(np.max(np.abs(base)))
        else:
            worst_rel = max(worst_rel, float(
                np.max(np.abs(ray.values - base)) / scale))
    ok = worst_rel < 1e-8 and worst_imag < 1e-8
    _report(9, "probe invariance", ok,
            f"(A,B) scaling changes ray data by {worst_rel:.1e} "
            f"(rel, < 1e-8); imag diagnostic {worst_imag:.1e} (< 1e-8)")


# ----------------------------------------------------------------------
# 10. determinism of the scenario runner


def test_criterion_10_determinism(tmp_path):
    from pathlib import Path
    cfg = Path(__file__).resolve().parent.parent / "scenarios" \
        / "forward_bump2d.cfg"
    d1 = run_scenario(cfg, out_root=tmp_path / "a")
    d2 = run_scenario(cfg, out_root=tmp_path / "b")
    b1 = (d1 / "summary.json").read_bytes()
    b2 = (d2 / "summary.json").read_bytes()
    identical = b1 == b2
    clean = compare_golden(d1, d2) == []
    _report(10, "determinism", identical and clean,
            "repeated run produces byte-identical summary.json")
