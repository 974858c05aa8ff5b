"""Independent references the tests check the package against.

Each one recomputes a quantity by a second route that no pipeline runs:
the closed-form leading amplitude on a whole grid, straight-line
integrals of an arbitrary integrand, the ray quadrature, light-ray
sinogram and ansatz slices on interleaved (lines, nodes, n) points with
one evaluation per angle of everything in a slice, filtered
backprojection one angle at a time, demodulation by a full FFT, the
d'Alembertian from the one-axis 4th-order stencils, log ray data by the
complex log, the linear leapfrog step on a CFL-checked state, the
transport march with every shift made level by level, the
transport rows' ray defects from one shift per level, and the residual
series of the ansatz hierarchy from eagerly built factor lists and with
every t-factor formed again for each q-factor it meets, and the RLS
X-ray matrix with each angle's duplicate samples summed by scipy's COO to
CSR conversion.  It also holds the Minkowski pairing of component lists,
the reader of Sinogram.to_csv and the error of recovered ray data against
the X-ray transform of q, which only the tests use.
"""

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from nullform.constants import (CFL_LIMIT, CHI_FLOOR_FRACTION,
                                FBP_APODIZATION_NYQUIST, PPW_MIN,
                                RAY_QUAD_ABS_TOL, RAY_QUAD_MAX_DOUBLINGS,
                                RAY_QUAD_MAX_NODES)
from nullform.errors import (CFLError, ConfigError, QuadratureError,
                             UnresolvedCarrierError)
from nullform.geoptics import (_EDGE_LEVELS, _Frame, _ray_sigma_bounds,
                               a10_points)
from nullform.grids import (SpacetimeGrid, diff1, diff2, l2_norm, laplacian2,
                            shift)
from nullform.minkowski import phase_arg, twin_pairing
from nullform.raytransform import (_EDGE_TOL, Sinogram, _check_uniform,
                                   _line_bounds, _two_rule_stop, sweep_frame)
from nullform.recovery import (ExtractedAmplitude, TimeSliceMeasurement,
                               _r_window, _sweep_vectors)


def solve_A10_closed_form(q, phi, chi, V, W, A, B,
                          grid: SpacetimeGrid) -> np.ndarray:
    """Closed-form A_{1,0} on a spacetime grid (adaptive ray quadrature)."""
    axes = [grid.axis(j) for j in range(grid.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    xp = np.stack([m.ravel() for m in mesh], axis=-1)
    out = np.empty((grid.nt,) + grid.nx, dtype=complex)
    for k, t in enumerate(grid.t):
        out[k] = a10_points(q, phi, chi, V, W, A, B, float(t),
                            xp).reshape(grid.nx)
    return out


def xray_forward_2d(integrand, offsets, angles, support_center,
                    support_R) -> Sinogram:
    """Straight-line integrals of a scalar integrand (phantom path)."""
    def fvals(sig, pts, om):
        return integrand(pts[..., 0], pts[..., 1])

    return _sweep_by_angle(offsets, angles, support_center, support_R,
                           (-np.inf, np.inf), fvals)


def sinogram_rel_error(sino: Sinogram, q) -> float:
    """Relative l2 distance of a recovered sinogram from the X-ray
    transform of q(0, x', 0) on the same lines: the ray data checked
    before any inversion."""
    def integrand(x1, x2):
        return q.q(0.0, [x1, x2], 0.0)

    ref = xray_forward_2d(integrand, sino.offsets, sino.angles, q.center,
                          q.R).samples
    return float(np.linalg.norm(sino.samples - ref) / np.linalg.norm(ref))


def _recurrence_line_integral(at, length, simpson_only=False):
    """_adaptive_line_integral's trapezoid recurrence on lines of positive
    length, at(keep, xi) giving the integrand on the lines `keep` at the
    fractions xi of their length.  Each line leaves at its own first
    doubling where _two_rule_stop retires it (where Simpson's update is
    below RAY_QUAD_ABS_TOL if simpson_only), with the deciding rule's
    value."""
    out = np.zeros(length.shape)
    keep = np.arange(length.size)
    nseg = 16
    g = at(keep, np.linspace(0.0, 1.0, nseg + 1))
    quarter = (length / 4) * (0.5 * (g[:, 0] + g[:, -1])
                              + np.sum(g[:, 4:-1:4], axis=1))
    coarse = (length / 8) * (0.5 * (g[:, 0] + g[:, -1])
                             + np.sum(g[:, 2:-1:2], axis=1))
    trap = 0.5 * coarse + (length / nseg) * np.sum(g[:, 1::2], axis=1)
    simp = (4.0 * trap - coarse) / 3.0
    dt1, dt2 = np.abs(trap - coarse), np.abs(coarse - quarter)
    ds1 = np.abs(simp - (4.0 * coarse - quarter) / 3.0)
    for _ in range(RAY_QUAD_MAX_DOUBLINGS):
        if keep.size * (2 * nseg + 1) > RAY_QUAD_MAX_NODES:
            break
        nseg *= 2
        mid = at(keep, np.arange(1, nseg, 2) / nseg)
        t2 = 0.5 * trap + (length[keep] / nseg) * np.sum(mid, axis=1)
        if np.any(~np.isfinite(t2)):
            break
        s2 = (4.0 * t2 - trap) / 3.0
        dt, ds = np.abs(t2 - trap), np.abs(s2 - simp)
        if simpson_only:
            done, use_t = ds < RAY_QUAD_ABS_TOL, np.zeros(keep.size, bool)
        else:
            done, use_t = _two_rule_stop(dt, ds, dt1, ds1, dt2)
        out[keep[done]] = np.where(use_t, t2, s2)[done]
        if np.all(done):
            return out
        left = ~done
        keep, trap, simp = keep[left], t2[left], s2[left]
        dt1, ds1, dt2 = dt[left], ds[left], dt1[left]
    raise QuadratureError("line quadrature oracle: not converged")


def pts_line_integral(fvals, base, direction, lo, length):
    """_adaptive_line_integral with fvals(sig, pts) on the interleaved
    points pts = base + sig*direction of shape (lines, nodes, n)."""
    out = np.zeros(length.shape)
    act = np.flatnonzero(length > 0)
    if act.size == 0:
        return out
    lo, length, base = lo[act], length[act], base[act]

    def at(keep, xi):
        sig = lo[keep, None] + length[keep, None] * xi[None, :]
        return fvals(sig, base[keep, None, :] + sig[..., None] * direction)

    out[act] = _recurrence_line_integral(at, length)
    return out


def simpson_line_integral(fvals, base, direction, lo, length):
    """_adaptive_line_integral with Simpson's update alone deciding when
    a line leaves: the stop that spends about one doubling more per
    line on integrands flat at both ends."""
    out = np.zeros(length.shape)
    act = np.flatnonzero(length > 0)
    if act.size == 0:
        return out
    direction = np.broadcast_to(direction, base.shape)[act]
    lo, length, base = lo[act], length[act], base[act]

    def at(keep, xi):
        sig = lo[keep, None] + length[keep, None] * xi[None, :]
        return fvals(sig, [base[keep, j, None] + sig * direction[keep, j, None]
                           for j in range(base.shape[1])], act[keep])

    out[act] = _recurrence_line_integral(at, length, simpson_only=True)
    return out


def pts_a10_points(q, phi, chi, V, W, A, B, t, xp):
    """a10_points with the ray exponent integrated on interleaved points,
    <x',theta> taken as pts @ theta."""
    xp = np.atleast_2d(np.asarray(xp, dtype=float))
    th = np.array(V.direction)
    omega = np.array(W.direction)
    pairing = twin_pairing(V, omega)
    chiv = chi.f(t + np.sum(xp * omega, axis=-1))
    out = np.zeros(xp.shape[0], dtype=complex)
    live = chiv != 0.0
    if not np.any(live):
        return out

    def fvals(sig, pts):
        tt = t - sig
        s = -tt * V.sign + pts @ th
        f, df = phi.f_df(s)
        xs = [pts[..., j] for j in range(pts.shape[-1])]
        return q.q(tt, xs, f) * df * pairing

    lo, hi = _ray_sigma_bounds(q, t, xp[live], omega)
    I = pts_line_integral(fvals, xp[live], omega, lo, hi - lo)
    out[live] = 0.5 * (A - 1j * B) * chiv[live] * np.exp(I)
    return out


def _sweep_by_angle(offsets, angles, center, R, window, fvals) -> Sinogram:
    """Integrals of fvals(sig, pts, omega) along the sweep's lines, one
    pts_line_integral per angle, nu over the chord of the ball (center,
    R) clamped to window."""
    offsets = np.asarray(offsets, dtype=float)
    angles = np.asarray(angles, dtype=float)
    samples = np.zeros((offsets.size, angles.size))
    for ja, a in enumerate(angles):
        om = np.array([np.cos(a), np.sin(a)])
        perp = np.array([-np.sin(a), np.cos(a)])
        base = offsets[:, None] * perp[None, :]
        lo, hi = _line_bounds(np.asarray(center, dtype=float), R, base, om)
        lo = np.maximum(lo, window[0])
        length = np.maximum(np.minimum(hi, window[1]) - lo, 0.0)
        samples[:, ja] = pts_line_integral(
            lambda sig, pts: fvals(sig, pts, om), base, om, lo, length)
    return Sinogram(offsets, angles, samples)


def xray_matrix_coo(sino: Sinogram, axes):
    """raytransform._xray_matrix with each angle's block converted from
    COO by scipy, which sums the duplicate (row, column) samples."""
    from scipy import sparse
    x1, x2 = axes
    d1 = _check_uniform(x1, "axis 1")
    d2 = _check_uniform(x2, "axis 2")
    n1, n2 = x1.size, x2.size
    step = 0.5 * min(d1, d2)
    span = float(np.hypot(x1[-1] - x1[0], x2[-1] - x2[0]))
    nu = np.arange(-0.5 * span, 0.5 * span + step, step)
    off = sino.offsets[:, None]
    ray = np.broadcast_to(np.arange(off.size)[:, None], (off.size, nu.size))
    blocks = []
    for a in sino.angles:
        om, perp = sweep_frame(a)
        u = (nu * om[0] + off * perp[0] - x1[0]) / d1
        v = (off * perp[1] + nu * om[1] - x2[0]) / d2
        inside = ((u >= -_EDGE_TOL) & (u <= n1 - 1 + _EDGE_TOL)
                  & (v >= -_EDGE_TOL) & (v <= n2 - 1 + _EDGE_TOL))
        u, v, rows = u[inside], v[inside], ray[inside]
        i0 = np.clip(np.floor(u).astype(int), 0, n1 - 2)
        j0 = np.clip(np.floor(v).astype(int), 0, n2 - 2)
        fu = np.clip(u - i0, 0.0, 1.0)
        fv = np.clip(v - j0, 0.0, 1.0)
        col = i0 * n2 + j0
        wts = np.concatenate([(1 - fu) * (1 - fv), fu * (1 - fv),
                              (1 - fu) * fv, fu * fv]) * step
        cols = np.concatenate([col, col + n2, col + 1, col + n2 + 1])
        blocks.append(sparse.csr_matrix((wts, (np.tile(rows, 4), cols)),
                                        shape=(off.size, n1 * n2)))
    return sparse.vstack(blocks, format="csr")


def fbp_per_angle(sino: Sinogram, axes, ds) -> np.ndarray:
    """raytransform._fbp one angle at a time: each projection padded and
    ramp-filtered on its own, each pixel's offset formed as omega-perp.x,
    read by clipped linear interpolation and weighted as it is summed."""
    n = sino.offsets.size
    npad = 1 << int(np.ceil(np.log2(4 * n)))
    pad0 = (npad - n) // 2
    freqs = np.fft.rfftfreq(npad, d=ds)
    cut = FBP_APODIZATION_NYQUIST * (0.5 / ds)
    win = np.where(freqs <= cut, 0.5 * (1 + np.cos(np.pi * freqs / cut)),
                   0.0)
    filt = np.abs(freqs) * win
    x1, x2 = axes
    X1 = x1[:, None]
    X2 = x2[None, :]
    out = np.zeros((x1.size, x2.size))
    s0 = sino.offsets[0] - pad0 * ds
    ang = sino.angles
    ext = np.concatenate(([ang[-1] - np.pi], ang, [ang[0] + np.pi]))
    wa = 0.5 * (ext[2:] - ext[:-2])
    for ja, a in enumerate(ang):
        perp = (-np.sin(a), np.cos(a))
        p = np.zeros(npad)
        p[pad0:pad0 + n] = sino.samples[:, ja]
        q = np.fft.irfft(np.fft.rfft(p) * filt, npad)
        s = perp[0] * X1 + perp[1] * X2
        u = (s - s0) / ds
        i0 = np.clip(np.floor(u).astype(int), 0, npad - 2)
        w = np.clip(u - i0, 0.0, 1.0)
        out += wa[ja] * ((1 - w) * q[i0] + w * q[i0 + 1])
    return out


def pts_lightray_forward(q, phi, V, offsets, angles) -> Sinogram:
    """lightray_forward's sweep, one pts_line_integral per angle."""
    tr = q.time_radius
    window = (-np.inf, np.inf) if tr is None else (-tr, tr)

    def fvals(sig, pts, om):
        xs = [pts[..., 0], pts[..., 1]]
        f, df = phi.f_df(phase_arg(sig, xs, V))
        return q.q(sig, xs, f) * df * twin_pairing(V, om)

    return _sweep_by_angle(offsets, angles, q.center, q.R, window, fvals)


def ansatz_slices_by_angle(q, phi, chi, A, B, h, offsets, angles, Tprime,
                           ppw=20):
    """One slice per angle, as ansatz_measurements makes them but with
    every slice quantity formed again at each angle and the amplitude
    from pts_a10_points (no band check)."""
    offsets = np.asarray(offsets, dtype=float)
    chi0 = float(chi.f(0.0))
    slices = []
    for a in np.asarray(angles, dtype=float):
        om, th = sweep_frame(float(a))
        V, W = _sweep_vectors((om, th))
        r = _r_window(chi, Tprime, h, ppw)
        ctr = offsets[:, None] * th - Tprime * om
        a_ctr = pts_a10_points(q, phi, chi, V, W, A, B, Tprime, ctr)
        psi = Tprime + r
        amp = a_ctr[:, None] * (chi.f(psi) / chi0)[None, :]
        bg = np.broadcast_to(phi.f(-Tprime * V.sign + offsets)[:, None],
                             amp.shape).copy()
        osc = 2.0 * h * np.real(amp * np.exp(1j * psi / h))
        slices.append(TimeSliceMeasurement(bg + osc, r, h, Tprime, bg))
    return slices


def fft_demodulate(slc: TimeSliceMeasurement) -> ExtractedAmplitude:
    """demodulate by a full FFT along r: carrier off, every bin at or
    above half the carrier frequency masked out, inverse FFT; the removed
    power summed over the masked bins of |spec|^2."""
    h = float(slc.h)
    if 2.0 * np.pi * h / slc.dr < PPW_MIN - 1e-9:
        raise UnresolvedCarrierError("fft_demodulate: carrier unresolved")
    if slc.background is not None:
        w = slc.u - slc.background
    else:
        w = slc.u - np.mean(slc.u, axis=-1, keepdims=True)
    psi = slc.Tprime + slc.r
    spec = np.fft.fft(w * np.exp(-1j * psi / h), axis=-1)
    freq = np.fft.fftfreq(slc.r.size, d=slc.dr)
    keep = np.abs(freq) <= 0.5 / (2.0 * np.pi * h)
    power = np.abs(spec) ** 2
    total = float(np.sum(power))
    removed = float(np.sum(power[..., ~keep]))
    low = np.fft.ifft(np.where(keep, spec, 0.0), axis=-1)
    fit = np.sqrt(removed / total) if total > 0 else 0.0
    return ExtractedAmplitude(low / h, slc.r, h, slc.Tprime, fit)


def dalembertian(f, grid: SpacetimeGrid):
    """box f = -d_t^2 f + Laplacian f (signature (-,+,...,+))."""
    out = -diff2(f, grid.dt, 0)
    for j in range(grid.n):
        out = out + diff2(f, grid.dx[j], j + 1)
    return out


def complex_log_ray_data(amp, chi, A, B):
    """(Re, Im, valid) of the principal complex log of 2 amp/(chi (A - iB)).

    The same missing-point rule as log_recover_ray_data (|chi| below
    CHI_FLOOR_FRACTION of its window maximum, |ratio| <= 1e-300), with
    np.log of the whole complex ratio, log 1 at missing points.
    """
    chiv = chi.f(amp.Tprime + amp.r)
    floor = CHI_FLOOR_FRACTION * float(np.max(np.abs(chiv)))
    valid = np.broadcast_to(np.abs(chiv) >= floor, amp.values.shape).copy()
    ratio = np.ones_like(amp.values)
    np.divide(amp.values, chiv * (0.5 * (A - 1j * B)), out=ratio,
              where=valid)
    valid &= np.abs(ratio) > 1e-300
    logr = np.log(np.where(valid, ratio, 1.0))
    return logr.real, logr.imag, valid


@dataclass(frozen=True)
class WaveState:
    """Two leapfrog levels, u at `time` and u_prev one step earlier."""

    u: np.ndarray
    u_prev: np.ndarray
    dt: float
    dx: tuple
    time: float

    def __post_init__(self):
        n = len(self.dx)
        if self.dt * np.sqrt(n) / min(self.dx) > CFL_LIMIT * (1 + 1e-12):
            raise CFLError(
                f"CFL {self.dt * np.sqrt(n) / min(self.dx):.3f} > {CFL_LIMIT}"
            )
        if self.u.shape != self.u_prev.shape:
            raise ConfigError("WaveState: u and u_prev shapes differ")


def step_linear_wave(state: WaveState, source=None) -> WaveState:
    """One leapfrog step of u_tt = Lap u + f (2nd-order 3/5-point Laplacian):
    u^{k+1} = 2u^k - u^{k-1} + dt^2 (Lap_h u^k + f^k)."""
    lap = laplacian2(state.u, state.dx)
    acc = lap if source is None else lap + source
    unew = 2.0 * state.u - state.u_prev + state.dt**2 * acc
    return WaveState(unew, state.u, state.dt, state.dx, state.time + state.dt)


def transport_by_levels(source_field, F_field, omega, inflow_data,
                        grid: SpacetimeGrid) -> np.ndarray:
    """solve_transport's RK4 march along the rays, shifting the levels
    of F and the source onto each ray inside the march, one level at a
    time (omega a signed coordinate direction, dt = dx along it)."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    ax = int(np.argmax(np.abs(om)))
    w = int(round(om[ax]))
    nt, dt = grid.nt, grid.dt
    F = np.asarray(F_field)
    S = np.asarray(source_field)
    if S.ndim == 0:
        S = np.zeros(grid.shape, dtype=complex) + complex(S)
    A = np.zeros(grid.shape, dtype=complex)
    A[0] = inflow_data

    def sh(a, s):
        return shift(a, s, ax)

    ones = np.ones(grid.nx)
    gone = {r: sh(ones, -r * w) == 0 for r in (1, 2)}

    def ray_mid(G, k):
        g0 = sh(G[k], w)
        two = 0.5 * (g0 + G[k + 1])
        if 1 <= k <= nt - 3:
            return np.where(gone[1], two, (
                -sh(G[k - 1], 2 * w) + 9.0 * g0
                + 9.0 * G[k + 1] - sh(G[k + 2], -w)) / 16.0)
        if k == 0 and nt >= 4:
            return np.where(gone[2], two, (
                0.3125 * g0 + 0.9375 * G[1]
                - 0.3125 * sh(G[2], -w) + 0.0625 * sh(G[3], -2 * w)))
        if k == nt - 2 and nt >= 4:
            return (0.0625 * sh(G[nt - 4], 3 * w)
                    - 0.3125 * sh(G[nt - 3], 2 * w)
                    + 0.9375 * g0 + 0.3125 * G[nt - 1])
        return two

    for k in range(nt - 1):
        A0 = sh(A[k], w)
        F0 = sh(F[k], w)
        G0 = sh(S[k], w)
        F1, G1 = F[k + 1], S[k + 1]
        Fm = ray_mid(F, k)
        Gm = ray_mid(S, k)
        k1 = F0 * A0 + G0
        k2 = Fm * (A0 + 0.5 * dt * k1) + Gm
        k3 = Fm * (A0 + 0.5 * dt * k2) + Gm
        k4 = F1 * (A0 + dt * k3) + G1
        A[k + 1] = A0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return A


def ray_defects_by_levels(series, table, w):
    """residual_coefficients' transport defects: per checked row (m > 0),
    the sup over the inner levels of ||d_t A - T A||_L2 along the rays,
    each level k carried onto its ray by its own shift of -k w cells
    (T A = series[(p, m)] / 2im)."""
    grid = table.grid
    out = {}
    for (m, p), A in table.rows.items():
        if m <= 0:
            continue
        TA = series[(p, m)] / (2j * m)
        ray_A = np.stack([shift(A[k], -k * w) for k in range(grid.nt)])
        ray_T = np.stack([shift(TA[k], -k * w) for k in range(grid.nt)])
        D = diff1(ray_A, grid.dt, 0) - ray_T
        out[(m, p)] = max(l2_norm(D[k], grid.dx[0])
                          for k in range(_EDGE_LEVELS,
                                         grid.nt - _EDGE_LEVELS))
    return out


def _series_parts(cache, fr: _Frame):
    """Formal-series factors of the residual, as (order, bin, field) lists.

    The residual of the ansatz is  box u_N + q(x, u_N)(2<grad phi, G>_M
    + <G, G>_M)  with G = grad(u_N - phi_V).  Substituting the series and
    collecting h-powers and carrier bins gives three part lists:

      qparts — Taylor factors of q about phi_V (exact for polynomial-in-u
               potentials of degree <= 2);
      tparts — entries of 2<grad phi,G> + <G,G> (the -2im T A terms of
               box u_N are NOT included; they form the transport operator);
      boxparts — box A_{m,p} entries of box u_N at order p+1.

    A residual coefficient at (order, bin) is the matching boxparts plus
    all products qpart x tpart whose orders and bins add up to it.
    """
    qparts = [(0, 0, fr.q0)]
    items = list(cache.items())
    if np.max(np.abs(fr.q1)) > 0:
        for (k, r), rf in items:
            qparts.append((1 + r, k, fr.q1 * rf.A))
    if np.max(np.abs(fr.q2)) > 0:
        for (k1, r1), rf1 in items:
            for (k2, r2), rf2 in items:
                qparts.append((2 + r1 + r2, k1 + k2,
                               0.5 * fr.q2 * rf1.A * rf2.A))
    tparts = []
    for (l, s), rf in items:
        if l != 0:
            tparts.append((s, l, 2j * l * fr.phip * fr.pairing * rf.A))
        tparts.append((s + 1, l,
                       2.0 * fr.phip * (fr.sV * rf.At + fr.th * rf.Ax)))
    for (ma, sa), ra in items:
        for (mb, sb), rb in items:
            wb = -rb.At + fr.omega * rb.Ax   # <Wt, grad A_b>_M
            wa = -ra.At + fr.omega * ra.Ax
            if ma != 0 or mb != 0:
                tparts.append((1 + sa + sb, ma + mb,
                               1j * (ma * ra.A * wb + mb * rb.A * wa)))
            tparts.append((2 + sa + sb, ma + mb,
                           -ra.At * rb.At + ra.Ax * rb.Ax))
    boxparts = [(s + 1, m, rf.box) for (m, s), rf in items]
    return qparts, tparts, boxparts


def _series_at(parts, p, m, shape):
    """Sum of all series contributions landing at (order p, bin m)."""
    qparts, tparts, boxparts = parts
    contribs = [arr for (o, b, arr) in boxparts if o == p and b == m]
    for (qo, qm, qarr) in qparts:
        if qo > p:
            continue
        for (to, tm, tarr) in tparts:
            if qo + to == p and qm + tm == m:
                contribs.append(qarr * tarr)
    acc = np.zeros(shape, dtype=complex)
    for c in contribs:
        acc = acc + c
    return acc


def _series_above(parts, N, shape):
    """All series coefficients with order > N, keyed (order, bin)."""
    qparts, tparts, boxparts = parts
    out: Dict[Tuple[int, int], np.ndarray] = {}

    def put(o, b, arr):
        key = (o, b)
        if key in out:
            out[key] = out[key] + arr
        else:
            out[key] = arr.astype(complex)

    for (o, b, arr) in boxparts:
        if o > N:
            put(o, b, arr)
    for (qo, qm, qarr) in qparts:
        for (to, tm, tarr) in tparts:
            if qo + to > N:
                put(qo + to, qm + tm, qarr * tarr)
    return out


def series_per_q_factor(cache, fr: _Frame, want):
    """geoptics._series with a t-factor dropped after each product, so
    one that pairs with several q-factors is formed again each time."""
    items = list(cache.items())
    qf = [(0, 0, lambda: fr.q0)]
    if np.max(np.abs(fr.q1)) > 0:
        qf += [(1 + r, k, lambda a=a: fr.q1 * a.A) for (k, r), a in items]
    if np.max(np.abs(fr.q2)) > 0:
        qf += [(2 + r1 + r2, k1 + k2,
                lambda a=a, b=b: 0.5 * fr.q2 * a.A * b.A)
               for (k1, r1), a in items for (k2, r2), b in items]

    @functools.cache
    def wgrad(a):
        return -a.At + fr.omega * a.Ax

    tf = []
    for (l, s), a in items:
        if l != 0:
            tf.append((s, l, lambda l=l, a=a:
                       2j * l * fr.phip * fr.pairing * a.A))
        tf.append((s + 1, l, lambda a=a:
                   2.0 * fr.phip * (fr.sV * a.At + fr.th * a.Ax)))
    for (ma, sa), a in items:
        for (mb, sb), b in items:
            if ma != 0 or mb != 0:
                tf.append((1 + sa + sb, ma + mb, lambda ma=ma, mb=mb, a=a, b=b:
                           1j * (ma * a.A * wgrad(b) + mb * b.A * wgrad(a))))
            tf.append((2 + sa + sb, ma + mb, lambda a=a, b=b:
                       -a.At * b.At + a.Ax * b.Ax))

    out = defaultdict(lambda: np.zeros(fr.q0.shape, dtype=complex))

    def put(key, arr):
        if key in out:
            out[key] += arr
        else:
            out[key] = arr.astype(complex)

    for (m, s), a in items:
        if want(s + 1, m):
            put((s + 1, m), a.box)
    for qo, qm, qthunk in qf:
        qarr = None
        for to, tm, tthunk in tf:
            if want(qo + to, qm + tm):
                if qarr is None:
                    qarr = qthunk()
                put((qo + to, qm + tm), qarr * tthunk())
    return out


def mdot_vec(a, b) -> np.ndarray:
    """Minkowski pairing of two (n+1)-component objects.

    Components may be arrays (broadcast pointwise); index 0 is time.
    """
    out = -a[0] * b[0]
    for j in range(1, len(a)):
        out = out + a[j] * b[j]
    return out


def sinogram_from_csv(text: str) -> Sinogram:
    """The Sinogram that Sinogram.to_csv wrote as `text`."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    if not lines[0].startswith("#"):
        raise ConfigError("sinogram_from_csv: missing header")
    angles = np.array([float(v) for v in lines[1].split(",")[1:]])
    offsets, rows = [], []
    for ln in lines[2:]:
        vals = [float(v) for v in ln.split(",")]
        offsets.append(vals[0])
        rows.append(vals[1:])
    return Sinogram(np.array(offsets), angles, np.array(rows))
