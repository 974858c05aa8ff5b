"""Inverse pipeline: time-slice demodulation, logarithmic ray data, and
2-D potential reconstruction from a probe-direction sweep.

A measured slice u(T', x') of the semilinear wave contains the order-h
oscillatory coefficient

    u = phi_V + h (A_{1,0} e^{i psi/h} + c.c.) + O(h^2),
    A_{1,0}(T', x') = 1/2 chi(psi) (A - iB) exp(I(T', x')),

with psi = T' + omega.x' and I the forward ray integral of the scalar
transport coefficient F = q phi' <Vt,Wt>_M.  Once the pulse band has fully
crossed supp q, I equals the complete light-ray transform sample of F, so

    Re log( 2 Ahat / (chi (A - iB)) )

is a sinogram entry.  Sweeping omega over >= 90 directions in the reduced
(time-independent, u-independent, theta _|_ omega) configuration turns the
collection into an X-ray sinogram of q, inverted by raytransform.

Measurement conventions: a slice stores real samples on a (offsets, r)
grid, where the last axis runs along omega through x' = s theta + r omega
with theta = omega-perp, so the carrier phase is psi = T' + r on every row.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import (BAND_PAD, CHI_FLOOR_FRACTION, FBP_MIN_ANGLES,
                        MISSING_ANGLE_FRACTION, PPW_MIN)
from .errors import ConfigError, UnresolvedCarrierError
from .fdtd import solve_semilinear
from .geoptics import AnsatzSpec, a10_points, dt_u_incident, u_incident
from .minkowski import LightVector
from .potential import Potential, SeparablePotential
from .profiles import Profile
from .raytransform import (Sinogram, invert_xray_2d, sweep_batches,
                           sweep_frame, sweep_frames, xray_reduce)


# ----------------------------------------------------------------------
# measurement containers


@dataclass
class TimeSliceMeasurement:
    """Real samples of u(T', .) along probe-aligned lines.

    u has shape (..., n_r); the last axis runs along the carrier
    direction omega with coordinate r = omega.x', so psi = Tprime + r.
    `background` optionally holds phi_V on the same points; subtracting
    it before filtering reduces low-pass leakage but is not required
    (the background sits at carrier frequency after demodulation).
    """

    u: np.ndarray
    r: np.ndarray
    h: float
    Tprime: float
    background: Optional[np.ndarray] = None

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        if self.u.shape[-1] != self.r.size:
            raise ConfigError("TimeSliceMeasurement: last axis of u must "
                              "match the r axis")
        if self.r.size < 4:
            raise ConfigError("TimeSliceMeasurement: need >= 4 samples "
                              "along omega")
        dr = np.diff(self.r)
        if np.any(dr <= 0) or np.max(np.abs(dr - dr[0])) > 1e-12 * dr[0]:
            raise ConfigError("TimeSliceMeasurement: r axis must be "
                              "uniform increasing")
        if self.h <= 0:
            raise ConfigError("TimeSliceMeasurement: h must be positive")
        for name, arr in (("u", self.u), ("background", self.background)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ConfigError(f"TimeSliceMeasurement: non-finite {name}")

    @property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])


@dataclass
class ExtractedAmplitude:
    """Complex Ahat_{1,0}(T', .) per measurement point plus a fit metric.

    fit_residual is the relative power of the demodulated signal removed
    by the low-pass filter (background carrier, conjugate band, higher
    harmonics); it is a diagnostic, not an error bound.
    """

    values: np.ndarray
    r: np.ndarray
    h: float
    Tprime: float
    fit_residual: float


@dataclass
class RayData:
    """Pointwise logarithmic ray-transform samples from one probe.

    values[i] is valid only where valid[i]; missing points (|chi| below
    floor or vanishing amplitude) are never filled in here.
    imag_defect holds the imaginary part of the log ratio, which should
    vanish for exact data since the transport coefficient F is real.
    """

    values: np.ndarray
    imag_defect: np.ndarray
    valid: np.ndarray
    r: np.ndarray


# ----------------------------------------------------------------------
# demodulation


def demodulate(slc: TimeSliceMeasurement) -> ExtractedAmplitude:
    """Extract the order-h oscillatory coefficient from a time slice.

    Multiplies by e^{-i psi/h} (psi = Tprime + r along the last axis, the
    phase of the incoming carrier W = (-1, omega)), removes everything at
    or above half the carrier frequency with a sharp DFT mask, and
    divides by h = slc.h.  The plane-wave background lands at -1/h after
    demodulation and is filtered out even when it is not subtracted
    explicitly.  Only the kept bins k are formed (a pruned DFT, k j taken
    mod n): spec = w @ (e^{-i psi_j/h} e^{-2 pi i k j/n}), real w times
    the basis' interleaved (re, im) view; the removed power is the
    Parseval total n sum w^2 minus the kept power.  The basis and the
    inverse map depend only on (r, h, Tprime) and are formed once for each
    (_kept_band_basis).
    """
    h = float(slc.h)
    ppw = 2.0 * np.pi * h / slc.dr
    if ppw < PPW_MIN - 1e-9:
        raise UnresolvedCarrierError(
            f"demodulate: {ppw:.1f} samples per carrier wavelength "
            f"(need >= {PPW_MIN}); refine the slice or increase h")

    if slc.background is not None:
        w = slc.u - slc.background
    else:
        # phi_V is constant along r in the probe geometry; removing the
        # row mean kills its finite-window leakage into the kept band
        w = slc.u - np.mean(slc.u, axis=-1, keepdims=True)
    n = slc.r.size
    basis, inverse = _kept_band_basis(slc.r.tobytes(), h, slc.Tprime)
    spec = (w @ basis).view(complex)
    values = spec @ inverse
    total = n * float(np.vdot(w, w))
    removed = max(total - float(np.vdot(spec, spec).real), 0.0)
    fit = np.sqrt(removed / total) if total > 0 else 0.0
    return ExtractedAmplitude(values, slc.r, h, slc.Tprime, fit)


@functools.lru_cache(maxsize=4)
def _kept_band_basis(r_bytes, h, Tprime):
    """demodulate's read-only pruned-DFT arrays for the r axis with bytes
    `r_bytes`: the real (n, 2 kept) view of the carrier-times-twiddle
    basis and the (kept, n) inverse map twiddle^H / (n h).  A sweep
    demodulates every slice on one (r, h) window."""
    r = np.frombuffer(r_bytes)
    n = r.size
    keep = np.flatnonzero(np.abs(np.fft.fftfreq(n, d=float(r[1] - r[0])))
                          <= 0.5 / (2.0 * np.pi * h))
    twiddle = np.exp(-2j * np.pi / n * (np.outer(np.arange(n), keep) % n))
    basis = (np.exp(-1j * (Tprime + r) / h)[:, None] * twiddle).view(float)
    inverse = twiddle.conj().T / (n * h)
    basis.flags.writeable = inverse.flags.writeable = False
    return basis, inverse


def backpropagate_amplitude(amp: ExtractedAmplitude, offsets,
                            distance: float) -> ExtractedAmplitude:
    """Undo transverse Fresnel diffraction accumulated over `distance`.

    Between the scatterer and the measurement slice the demodulated
    amplitude obeys the paraxial limit of the wave equation (box u = 0
    with u = A e^{i psi/h} gives the transport of A a Lap_perp A
    correction at order h), so a slice at distance L carries the phase
    e^{+i h L k_s^2 / 2} on each transverse mode k_s.  Left
    uncorrected this rings at the Fresnel scale sqrt(h L) and dominates
    the recovery error of full-wave measurements; closed-form ansatz
    amplitudes are eikonal (diffraction-free) and must not be corrected.
    The first axis of `amp.values` must be the uniform offsets axis.
    """
    offsets = np.asarray(offsets, dtype=float)
    if amp.values.shape[0] != offsets.size or offsets.size < 2:
        raise ConfigError("backpropagate_amplitude: offsets axis mismatch")
    ds = offsets[1] - offsets[0]
    ks = 2.0 * np.pi * np.fft.fftfreq(offsets.size, ds)
    phase = np.exp(-1j * 0.5 * amp.h * float(distance) * ks ** 2)
    vals = np.fft.ifft(np.fft.fft(amp.values, axis=0) * phase[:, None],
                       axis=0)
    return ExtractedAmplitude(vals, amp.r, amp.h, amp.Tprime,
                              amp.fit_residual)


# ----------------------------------------------------------------------
# logarithmic ray data


def log_recover_ray_data(amp: ExtractedAmplitude, chi: Profile,
                         A: float, B: float) -> RayData:
    """Ray data from ratio = 2 amp / (chi (A - iB)): values = log|ratio|,
    imag_defect = arg(ratio) on the principal branch [-pi, pi].

    Points where |chi(psi)| falls below CHI_FLOOR_FRACTION of its
    window maximum or |ratio| <= 1e-300 are
    marked missing, not extrapolated; both outputs hold 0 (log 1) there.
    imag_defect is a diagnostic: F is real, so it vanishes for exact data.
    """
    coeff = 0.5 * (A - 1j * B)
    if coeff == 0:
        raise ConfigError("log_recover_ray_data: pulse amplitude is zero")
    chiv = chi.f(amp.Tprime + amp.r)
    peak = float(np.max(np.abs(chiv)))
    if peak == 0.0:
        raise ConfigError("log_recover_ray_data: chi vanishes on the "
                          "whole measurement window")
    floor = CHI_FLOOR_FRACTION * peak
    denom = chiv * coeff
    valid = np.broadcast_to(np.abs(chiv) >= floor, amp.values.shape).copy()
    ratio = np.ones_like(amp.values)
    np.divide(amp.values, denom, out=ratio, where=valid)
    mag = np.abs(ratio)
    valid &= mag > 1e-300
    imag = np.arctan2(ratio.imag, ratio.real, out=np.zeros_like(mag),
                      where=valid)
    values = np.log(mag, out=mag, where=valid)
    values[~valid] = 0.0
    return RayData(values, imag, valid, amp.r)


# ----------------------------------------------------------------------
# probe sweep geometry


@dataclass(frozen=True)
class Probe:
    """One measured slice and the sweep angles its column stands for.

    The rows of `slc` run over the uniform `offsets`; `backpropagate` is
    the distance of diffraction to undo, None for eikonal slices.
    """

    angles: np.ndarray
    weight: float            # phi'(0) * <Vt,Wt>_M from the X-ray reduction
    offsets: np.ndarray
    slc: TimeSliceMeasurement
    backpropagate: Optional[float] = None


def _sweep_vectors(frame):
    """The probe light vectors V = (-1, theta), W = (-1, omega) of one
    sweep frame (omega, theta = omega-perp), or of the sweep's stack of
    frames with one direction per angle.

    sign(V) = -1 makes the background/probe interaction dissipative: the
    linearization of the null form around phi_V carries a first-order
    term -2 q phi' sign(V) d_t, and the +1 choice feeds a finite-time
    blow-up of the full solve for O(1) potentials.
    """
    frame = np.asarray(frame)
    om, th = frame[..., 0, :], frame[..., 1, :]
    return LightVector(-1, tuple(th.T)), LightVector(-1, tuple(om.T))


def _r_window(chi: Profile, Tprime: float, h: float, ppw: int):
    """Uniform r axis covering the pulse band at time Tprime."""
    half = chi.support_radius + BAND_PAD
    dr = 2.0 * np.pi * h / ppw
    n = 2 * int(np.ceil(half / dr)) + 1
    return -Tprime + dr * (np.arange(n) - (n - 1) // 2)


def ansatz_measurements(q: Potential, phi: Profile, chi: Profile,
                        A: float, B: float, h: float,
                        offsets, angles, Tprime: float,
                        ppw: int = 20):
    """Synthetic slices u = phi_V + 2h Re(A_{1,0} e^{i psi/h}) per angle.

    Uses the closed-form leading amplitude (adaptive ray quadrature).
    In the reduced configuration the ray exponent is constant across
    the measurement band once the pulse has fully crossed supp q, so
    A_{1,0}(s, r) = A_{1,0}(s, -Tprime) chi(Tprime + r) / chi(0); the
    quadrature runs once per offset, for several angles per call.
    ConfigError unless, at every angle, the band lies wholly behind
    supp q along omega.  The sweep's frames, light vectors, weights and
    configuration checks are formed once for all angles, and everything
    but the amplitude at the band centres is the same at every angle.

    When q is rotation invariant about the origin (_radial_failure),
    rotating omega rotates the whole problem with it, so every angle's
    slice is the slice at the canonical angle 0: the result is then one
    Probe carrying every angle, as fdtd_measurements returns, and the
    same bits for any part of the sweep.
    """
    offsets = np.asarray(offsets, dtype=float)
    chi0 = float(chi.f(0.0))
    if chi0 == 0.0:
        raise ConfigError("ansatz_measurements: chi must not vanish at "
                          "the band center")
    r = _r_window(chi, Tprime, h, ppw)
    psi = Tprime + r
    env = chi.f(psi) / chi0
    # phi_V is constant along r: s = -Tprime sign(V) + theta.x', and
    # sign(V) = -1 at every sweep angle; every slice shares this
    # read-only view as its background
    bg = np.broadcast_to(phi.f(Tprime + offsets)[:, None],
                         (offsets.size, r.size))
    carrier = np.exp(1j * psi / h)
    band_front = -Tprime + chi.support_radius + BAND_PAD
    angles = np.asarray(angles, dtype=float)
    frames = sweep_frames(angles)
    # validates the config at every angle
    weights = xray_reduce(q, phi, *_sweep_vectors(frames))
    # the band must lie wholly behind supp q, whose back edge along omega
    # is omega.c - R
    if np.any(band_front >= frames[:, 0] @ np.asarray(q.center) - q.R):
        raise ConfigError("ansatz_measurements: band overlaps supp q at "
                          "Tprime; increase Tprime")

    def band_centres(fr):
        ctr = offsets[:, None] * fr[:, None, 1] - Tprime * fr[:, None, 0]
        V, W = _sweep_vectors(np.repeat(fr, offsets.size, axis=0))
        return a10_points(q, phi, chi, V, W, A, B, Tprime,
                          ctr.reshape(-1, 2))

    def probe(a_ctr, angs, weight):
        amp = a_ctr[:, None] * env[None, :]
        osc = 2.0 * h * np.real(amp * carrier)
        return Probe(angs, weight, offsets,
                     TimeSliceMeasurement(bg + osc, r, h, Tprime, bg))

    if _radial_failure(q) is None:
        frame0 = sweep_frames([0.0])
        ((_, a_ctr),) = sweep_batches(np.zeros(1), offsets,
                                      lambda js: band_centres(frame0[js]))
        weight = xray_reduce(q, phi, *_sweep_vectors(frame0[0]))
        return [probe(a_ctr[0], angles, weight)]
    return [probe(ac, np.array([a]), weight)
            for js, a_ctr in sweep_batches(
                angles, offsets, lambda js: band_centres(frames[js]))
            for a, weight, ac in zip(angles[js], weights[js], a_ctr)]


def _radial_failure(q: Potential) -> Optional[str]:
    """None when q is rotation invariant about the origin, else the
    condition it fails.  The check is structural: a SeparablePotential
    S(|x'-c|^2) tau(t) U(u) with c = 0 (to 1e-14), no time factor and
    U constant depends on |x'| alone.  Samples of q cannot show this: a
    potential that vanishes at every sample would pass."""
    if q.time_radius is not None or q.u_degree != 0:
        return "need a time-independent, u-independent potential"
    if np.max(np.abs(np.asarray(q.center))) > 1e-14:
        return ("potential must be centered at the origin for the "
                "rotational reduction")
    if not isinstance(q, SeparablePotential):
        return "potential is not radially symmetric"
    return None


def fdtd_measurements(q: Potential, phi: Profile, chi: Profile,
                      A: float, B: float, h: float,
                      offsets, angles, Tprime: float, T0: float,
                      ppw: int = PPW_MIN):
    """One probe for the whole sweep, from one full semilinear solve.

    Requires a radially symmetric (time- and u-independent) potential:
    rotating the probe direction then rotates the exact solution with
    it, so every angle's slice equals the canonical omega = (1,0) slice.
    This is an exact symmetry of the continuum problem, checked on the
    structure of q (_radial_failure), and avoids one large 2+1D solve
    per direction.

    The rk4 solve is told which cells of u(Tprime) are read (the x1
    rows of the r window, and along x2 the two columns around each
    offset), so it advances only their backward light cone plus
    FDTD_CONE_MARGIN cells; on the read cells this agrees with the
    whole-box solve to within about 1e-15 at h = 1/16 and 3e-13 at
    h = 1/64.
    """
    why = _radial_failure(q)
    if why is not None:
        raise ConfigError(f"fdtd_measurements: {why}")
    offsets = np.asarray(offsets, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if Tprime - chi.support_radius <= q.R:
        raise ConfigError("fdtd_measurements: Tprime too small; pulse has "
                          "not fully crossed supp q")
    if -T0 - chi.support_radius <= q.R:
        raise ConfigError("fdtd_measurements: T0 too late; pulse overlaps "
                          "supp q at the initial time")

    V0, W0 = _sweep_vectors(sweep_frame(0.0))
    weight = xray_reduce(q, phi, V0, W0)
    d = 2.0 * np.pi * h / ppw
    span = Tprime - T0
    band = chi.support_radius + BAND_PAD
    # x1 runs along omega; left edge far enough that boundary garbage
    # (phi_V is nonzero there) cannot reach the sampled band by Tprime.
    # This box is the bounding box of the band's backward light cone at
    # T0; the solve's window shrinks inside it as t nears Tprime.
    x1_lo = -Tprime - band - span - 6 * d
    x1_hi = -T0 + band + 6 * d
    # x2 edges sit outside the phi_V slab |t + x2| < support (sign V = -1)
    x2_hi = -T0 + phi.support_radius + 6 * d
    x2_lo = -Tprime - phi.support_radius - 6 * d
    if np.max(offsets) + 2 * d > x2_hi or np.min(offsets) - 2 * d < x2_lo:
        raise ConfigError("fdtd_measurements: offsets outside the box")
    n1 = int(np.ceil((x1_hi - x1_lo) / d)) + 1
    n2 = int(np.ceil((x2_hi - x2_lo) / d)) + 1
    x1 = x1_lo + d * np.arange(n1)
    x2 = x2_lo + d * np.arange(n2)

    spec = AnsatzSpec(V0, W0, phi, chi, A, B, 0, (h,), T0, Tprime + 1.0,
                      Tprime, d, ((x1_lo, x1_hi), (x2_lo, x2_hi)))
    spec.validate_against(q)
    r = _r_window(chi, Tprime, h, ppw)
    ir = np.clip(np.round((r - x1_lo) / d).astype(int), 0, n1 - 1)
    r = x1[ir]  # snap to solver columns; spacing preserved (same grid)
    # linear interpolation across x2 onto the requested offsets
    pos = (offsets - x2_lo) / d
    j = np.clip(pos.astype(int), 0, n2 - 2)
    wts = pos - j

    xs = (x1[:, None], x2[None, :])
    u0 = u_incident(spec, h, T0, xs)
    v0 = dt_u_incident(spec, h, T0, xs)
    # only the backward light cone of the cells read below is solved
    read = (slice(int(ir.min()), int(ir.max()) + 1),
            slice(int(j.min()), int(j.max()) + 2))
    traj = solve_semilinear(q, u0, v0, (x1_lo, x2_lo), (d, d), T0, Tprime,
                            scheme="rk4", sample_every=10 ** 9, region=read)
    uT = traj.u[-1]
    rows = (1.0 - wts)[:, None] * uT[ir, :].T[j, :] \
        + wts[:, None] * uT[ir, :].T[j + 1, :]
    bg = np.broadcast_to(phi.f(-Tprime * V0.sign + offsets)[:, None],
                         rows.shape).copy()
    # the pulse band crosses the scatterer plane omega.x = 0 at t = 0
    return Probe(angles, weight, offsets,
                 TimeSliceMeasurement(rows, r, h, Tprime, bg),
                 backpropagate=Tprime)


# ----------------------------------------------------------------------
# full 2-D recovery


def recover_potential_2d(probes, axes, chi: Profile, A: float, B: float,
                         method: str = "fbp", reg: float = 1e-8, truth=None):
    """Reconstruct the spatial factor of q from a probe sweep.

    Each probe's slice is demodulated, backpropagated when it carries a
    diffraction distance, turned into logarithmic ray data and averaged
    over the valid band points per offset.  The column, divided by the
    reduction weight, enters the sinogram once for each of the probe's
    angles, and the sinogram is then inverted.

    Angles with more than MISSING_ANGLE_FRACTION missing offsets are
    dropped with a warning; isolated missing offsets are interpolated
    from their neighbours and counted in the report once per angle.

    Returns (Reconstruction, report dict); report["sinogram"] is the
    Sinogram that was inverted.
    """
    probes = list(probes)
    angles = np.concatenate([p.angles for p in probes])
    if angles.size < FBP_MIN_ANGLES:
        raise ConfigError(f"recover_potential_2d: {angles.size} probe "
                          f"directions; the sweep needs >= {FBP_MIN_ANGLES}")
    if np.any(np.diff(angles) <= 0):
        raise ConfigError("recover_potential_2d: probe angles must be "
                          "strictly increasing")
    for p in probes[1:]:
        if not np.array_equal(p.offsets, probes[0].offsets):
            raise ConfigError(f"recover_potential_2d: the probe at angle "
                              f"{p.angles[0]:.6g} has other offsets than "
                              f"the first probe")

    columns, kept, dropped = [], [], []
    interpolated = 0
    imag_defect = 0.0
    fit_residual = 0.0
    # each probe allocates demodulate's complex (offsets x r) arrays, the
    # complex ratio and the real log|ratio| and arg; the work stays
    # inline, as a helper freeing them per slice doubled the page faults.
    for p in probes:
        amp = demodulate(p.slc)
        if p.backpropagate is not None:
            amp = backpropagate_amplitude(amp, p.offsets, p.backpropagate)
        fit_residual = max(fit_residual, amp.fit_residual)
        ray = log_recover_ray_data(amp, chi, A, B)
        have = np.any(ray.valid, axis=-1)
        if np.mean(~have) > MISSING_ANGLE_FRACTION:
            dropped += [float(a) for a in p.angles]
            continue
        # chi^2-weighted average over the valid band points (the weight
        # damps the edges, where dividing by chi adds noise), summed by
        # einsum without an (offsets x r) temporary
        chi2 = chi.f(p.slc.Tprime + ray.r) ** 2
        col = np.zeros(ray.values.shape[0])
        np.divide(np.einsum("ij,ij,j->i", ray.valid, ray.values, chi2),
                  np.einsum("ij,j->i", ray.valid, chi2), out=col, where=have)
        imag_defect = max(imag_defect, float(np.max(
            np.abs(ray.imag_defect), initial=0.0, where=ray.valid)))
        idx = np.arange(col.size)
        col[~have] = np.interp(idx[~have], idx[have], col[have])
        interpolated += int(np.sum(~have)) * p.angles.size
        if abs(p.weight) < 1e-14:
            raise ConfigError("recover_potential_2d: degenerate probe "
                              "weight")
        columns += [col / p.weight] * p.angles.size
        kept.extend(p.angles)
    if dropped:
        warnings.warn(f"recover_potential_2d: dropped {len(dropped)} "
                      "angles with too many missing samples")
    if not columns:
        raise ConfigError("recover_potential_2d: every angle was dropped")
    sino = Sinogram(probes[0].offsets, np.array(kept),
                    np.stack(columns, axis=-1))
    rec = invert_xray_2d(sino, axes, method=method, reg=reg, truth=truth)
    report = {
        "n_angles": angles.size,
        "n_angles_used": len(kept),
        "dropped_angles": dropped,
        "interpolated_offsets": interpolated,
        "imag_defect_max": imag_defect,
        "fit_residual_max": fit_residual,
        "method": rec.method,
        "rel_l2_error": rec.rel_l2_error,
        "sinogram": sino,
    }
    return rec, report
