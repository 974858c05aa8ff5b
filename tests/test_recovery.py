"""Time-slice demodulation, log ray data, and 2-D potential recovery."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from nullform.constants import PPW_MIN, RAY_QUAD_BATCH_LINES
from nullform.errors import ConfigError, QuadratureError, \
    UnresolvedCarrierError
from nullform.geoptics import AnsatzSpec, a10_points, assemble_uN, \
    background_field, build_hierarchy
from nullform.minkowski import LightVector
from nullform.potential import Potential, get_potential
from nullform.profiles import bump, ramp
import nullform.recovery as recovery
from nullform.recovery import (
    ExtractedAmplitude, TimeSliceMeasurement, ansatz_measurements,
    backpropagate_amplitude, demodulate, fdtd_measurements,
    log_recover_ray_data, recover_potential_2d,
)
from nullform.raytransform import (_xray_matrix, lightray_forward,
                                   sweep_frame, xray_reduce)
from oracles import (ansatz_slices_by_angle, complex_log_ray_data,
                     fft_demodulate, pts_lightray_forward,
                     sinogram_rel_error)

PHI = ramp(1.5, 0.5, 1.0)
CHI = bump(0.3, 1.0)
A, B = 1.0, 0.5
TP = 1.5
W1 = LightVector(-1, (1.0,))


def _q0_slice(h, chi=CHI, bg_value=0.8, with_bg=True, ppw=20):
    dr = 2 * np.pi * h / ppw
    half = int(np.ceil((chi.support_radius + 0.2) / dr))
    r = -TP + dr * (np.arange(2 * half + 1) - half)
    psi = TP + r
    u = bg_value + h * chi.f(psi) * (A * np.cos(psi / h)
                                     + B * np.sin(psi / h))
    bg = np.full((1, r.size), bg_value) if with_bg else None
    return TimeSliceMeasurement(u[None, :], r, h, TP, bg), psi


# ----------------------------------------------------------------------
# demodulation


def test_demodulate_recovers_pulse_coefficient():
    chi = bump(0.5, 1.0)
    slc, psi = _q0_slice(1 / 64, chi=chi)
    amp = demodulate(slc)
    exact = 0.5 * (A - 1j * B) * chi.f(psi)
    assert np.max(np.abs(amp.values[0] - exact)) < 2e-2


def test_demodulate_background_only_is_zero():
    dr = 2 * np.pi / 64 / 20
    r = -TP + dr * (np.arange(101) - 50)
    bg = np.full((1, r.size), 1.3)
    slc = TimeSliceMeasurement(bg.copy(), r, 1 / 64, TP, bg)
    amp = demodulate(slc)
    assert np.max(np.abs(amp.values)) < 1e-10


def test_demodulate_mean_subtraction_matches_explicit_background():
    got, _ = _q0_slice(1 / 32, with_bg=True)
    auto, _ = _q0_slice(1 / 32, with_bg=False)
    a = demodulate(got)
    b = demodulate(auto)
    assert np.max(np.abs(a.values - b.values)) < 5e-3


def test_demodulate_unresolved_carrier_rejected():
    slc, _ = _q0_slice(1 / 32, ppw=8)
    with pytest.raises(UnresolvedCarrierError):
        demodulate(slc)


@settings(deadline=None, max_examples=80)
@given(n=st.integers(24, 301), rows=st.integers(0, 5),
       h=st.sampled_from([1 / 16, 1 / 32, 1 / 64, 1 / 128, 0.05]),
       ppw=st.floats(PPW_MIN, 40.0), with_bg=st.booleans(),
       noise=st.sampled_from([0.0, 1e-6, 1e-3, 0.1]),
       seed=st.integers(0, 2**32 - 1))
def test_pruned_dft_demodulate_matches_full_fft(n, rows, h, ppw, with_bg,
                                                noise, seed):
    # odd and even n, a 1-D slice (rows = 0) and stacked rows
    rng = np.random.default_rng(seed)
    tp = rng.uniform(-2.0, 2.0)
    dr = 2 * np.pi * h / ppw
    r = -tp + dr * (np.arange(n) - n // 2)
    psi = tp + r
    shape = (rows, n) if rows else (n,)
    coeff = rng.normal(size=shape[:-1] + (1,)) \
        + 1j * rng.normal(size=shape[:-1] + (1,))
    half = 0.5 * n * dr  # the envelope spans the window
    amp = coeff * CHI.f(0.9 * CHI.support_radius * (r + tp) / half)
    bg = np.broadcast_to(rng.uniform(-1.0, 1.0, shape[:-1] + (1,)), shape)
    u = bg + 2 * h * np.real(amp * np.exp(1j * psi / h)) \
        + noise * h * rng.normal(size=shape)
    slc = TimeSliceMeasurement(u, r, h, tp, bg if with_bg else None)
    got, want = demodulate(slc), fft_demodulate(slc)
    assert got.values.shape == want.values.shape
    scale = np.max(np.abs(want.values))
    assert scale > 0.0
    assert np.max(np.abs(got.values - want.values)) <= 1e-12 * scale
    assert abs(got.fit_residual - want.fit_residual) <= 1e-12
    assert (got.h, got.Tprime) == (want.h, want.Tprime)


def test_demodulate_alternating_windows_match_full_fft():
    # slices alternate between two (r, h) windows; a third slice shares
    # the first one's r and h at another Tprime.  Every call matches the
    # full FFT and repeats its first result exactly, and the shared basis
    # arrays cannot be written to
    s1, _ = _q0_slice(1 / 32)
    s2, _ = _q0_slice(1 / 64)
    s3 = dataclasses.replace(s1, Tprime=TP + 0.1)
    first = {}
    for _ in range(3):
        for k, slc in enumerate((s1, s2, s3)):
            got, want = demodulate(slc), fft_demodulate(slc)
            scale = np.max(np.abs(want.values))
            assert np.max(np.abs(got.values - want.values)) <= 1e-12 * scale
            assert abs(got.fit_residual - want.fit_residual) <= 1e-12
            assert np.array_equal(first.setdefault(k, got.values),
                                  got.values)
    for arr in recovery._kept_band_basis(s2.r.tobytes(), s2.h, s2.Tprime):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


@pytest.mark.parametrize("name", ["u", "background"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_slice_rejects_non_finite_samples(name, bad):
    # a NaN would read as fit_residual 0.0 and an invalid row that
    # recovery interpolates without a word
    slc, _ = _q0_slice(1 / 32)
    arrays = {"u": slc.u.copy(), "background": slc.background.copy()}
    arrays[name][0, 5] = bad
    with pytest.raises(ConfigError, match=f"non-finite {name}"):
        TimeSliceMeasurement(arrays["u"], slc.r, slc.h, slc.Tprime,
                             arrays["background"])
    if name == "u":
        with pytest.raises(ConfigError, match="non-finite u"):
            TimeSliceMeasurement(arrays["u"], slc.r, slc.h, slc.Tprime)


# ----------------------------------------------------------------------
# logarithmic ray data


def _amp(values, r, h):
    return ExtractedAmplitude(values, r, h, TP, 0.0)


def test_log_recover_zero_potential():
    r = np.linspace(-0.45, 0.45, 181) - TP
    chiv = CHI.f(TP + r)
    amp = _amp((0.5 * (A - 1j * B) * chiv)[None, :], r, 1 / 32)
    ray = log_recover_ray_data(amp, CHI, A, B)
    assert np.any(ray.valid)
    assert np.max(np.abs(ray.values[ray.valid])) < 1e-12
    assert np.max(np.abs(ray.imag_defect[ray.valid])) < 1e-12


def test_log_recover_floor_masks_band_edges():
    r = np.linspace(-0.45, 0.45, 181) - TP
    chiv = CHI.f(TP + r)
    amp = _amp((0.5 * (A - 1j * B) * chiv)[None, :], r, 1 / 32)
    ray = log_recover_ray_data(amp, CHI, A, B)
    small = np.abs(chiv) < 0.1 * np.max(np.abs(chiv))
    assert not np.any(ray.valid[0][small])


def test_log_recover_missing_samples_never_fabricated():
    r = np.linspace(-0.45, 0.45, 181) - TP
    amp = _amp(np.zeros((1, r.size), dtype=complex), r, 1 / 32)
    ray = log_recover_ray_data(amp, CHI, A, B)
    assert not np.any(ray.valid)


def test_log_recover_rejects_zero_pulse():
    r = np.linspace(-0.45, 0.45, 21) - TP
    amp = _amp(np.ones((1, r.size), dtype=complex), r, 1 / 32)
    with pytest.raises(ConfigError):
        log_recover_ray_data(amp, CHI, 0.0, 0.0)


# one sample of the log-ratio test: log10 |amp| in [-200, 200], a kind and
# a phase.  "real" puts amp on the real axis with a signed-zero imaginary
# part; with B = 0 the ratio then lies on the branch cut for one sign of A
# (A > 0: amp < 0 gives ratio (-, +0); A < 0: amp > 0 gives ratio (-, -0)).
_LOG_SAMPLE = st.tuples(
    st.floats(-200.0, 200.0),
    st.sampled_from(["polar", "real", "zero", "tiny"]),
    st.floats(-np.pi, np.pi), st.booleans(), st.booleans(),
    st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]))


@settings(deadline=None, max_examples=60)
@given(st.lists(_LOG_SAMPLE, min_size=2 * 41, max_size=2 * 41),
       st.sampled_from([2.0, -2.0]), st.sampled_from([0.0, 0.5]))
def test_log_ratio_matches_complex_log(samples, a_amp, b_amp):
    # |r| reaches past the chi support, so chi-floor-masked points and
    # chi == 0 points are always present; "tiny" puts |ratio| at
    # fac * 1e-300, on both sides of the missing-point threshold
    r = np.linspace(-0.45, 0.45, 41) - TP
    denom = np.tile(CHI.f(TP + r) * (0.5 * (a_amp - 1j * b_amp)), 2)
    vals = np.empty(len(samples), dtype=complex)
    for k, (e, kind, th, neg, negzero, fac) in enumerate(samples):
        mag = 10.0 ** e
        if kind == "polar":
            vals[k] = mag * np.exp(1j * th)
        elif kind == "real":
            vals[k] = complex(-mag if neg else mag, -0.0 if negzero else 0.0)
        elif kind == "zero":
            vals[k] = 0.0
        else:
            vals[k] = fac * 1e-300 * denom[k]
    amp = _amp(vals.reshape(2, 41), r, 1 / 32)
    ray = log_recover_ray_data(amp, CHI, a_amp, b_amp)
    want_re, want_im, want_valid = complex_log_ray_data(amp, CHI, a_amp,
                                                        b_amp)
    assert np.array_equal(ray.valid, want_valid)
    assert not np.any(ray.values[~ray.valid])
    assert not np.any(ray.imag_defect[~ray.valid])
    np.testing.assert_array_max_ulp(ray.imag_defect, want_im, 4)
    # log(|ratio|) carries hypot's absolute rounding (~eps) where the log
    # is near 0, which the complex log avoids, so near |ratio| = 1 its ulps
    # are counted at 1: |diff| <= 4 ulp of max(|log|, 1)
    scale = np.spacing(np.maximum(np.abs(want_re), 1.0))
    assert np.all(np.abs(ray.values - want_re) <= 4 * scale)


def test_log_ratio_branch_cut_signs():
    # ratio (-x, +0) has arg +pi and (-x, -0) has arg -pi, as the complex log
    r = np.linspace(-0.1, 0.1, 5) - TP
    for a_amp, amp_re, sign in ((2.0, -3.0, 1.0), (-2.0, 3.0, -1.0)):
        for zero in (0.0, -0.0):
            amp = _amp(np.full((1, 5), complex(amp_re, zero)), r, 1 / 32)
            ray = log_recover_ray_data(amp, CHI, a_amp, 0.0)
            _, want_im, _ = complex_log_ray_data(amp, CHI, a_amp, 0.0)
            assert np.all(ray.valid)
            assert np.all(ray.imag_defect == sign * np.pi)
            assert np.array_equal(ray.imag_defect, want_im)


def test_probe_invariance_under_amplitude_scaling():
    # (A, B) -> (cA, cB) cancels in the ratio inside the log
    r = np.linspace(-0.45, 0.45, 181) - TP
    chiv = CHI.f(TP + r)
    envelope = np.exp(-0.3 + 0.2 * np.sin(2 * r))
    for c in (3.0, -0.7):
        amp1 = _amp((0.5 * (A - 1j * B) * chiv * envelope)[None, :],
                    r, 1 / 32)
        amp2 = _amp(c * amp1.values, r, 1 / 32)
        ray1 = log_recover_ray_data(amp1, CHI, A, B)
        ray2 = log_recover_ray_data(amp2, CHI, c * A, c * B)
        assert np.array_equal(ray1.valid, ray2.valid)
        d = np.max(np.abs(ray1.values[ray1.valid] - ray2.values[ray2.valid]))
        assert d < 1e-12


# ----------------------------------------------------------------------
# diffraction backpropagation


def test_backpropagate_roundtrip():
    rng = np.random.default_rng(3)
    offsets = np.linspace(-0.8, 0.8, 33)
    r = np.linspace(-0.3, 0.3, 21) - TP
    vals = rng.standard_normal((33, 21)) + 1j * rng.standard_normal((33, 21))
    h, L = 1 / 32, 1.2
    ks = 2 * np.pi * np.fft.fftfreq(33, offsets[1] - offsets[0])
    blurred = np.fft.ifft(np.fft.fft(vals, axis=0)
                          * np.exp(1j * 0.5 * h * L * ks ** 2)[:, None],
                          axis=0)
    amp = backpropagate_amplitude(_amp(blurred, r, h), offsets, L)
    assert np.max(np.abs(amp.values - vals)) < 1e-12


# ----------------------------------------------------------------------
# measurement providers


class _TiltedBump(Potential):
    """radial_bump times 1 + x1/2: centred at the origin like radial_bump,
    but not rotation invariant, so its ansatz sweep takes the per-angle
    path (one probe per angle)."""

    key = "tilted_bump"
    R = 0.5
    center = (0.0, 0.0)
    n = 2
    u_degree = 0
    _bump = get_potential("radial_bump", 2)

    def q(self, t, xs, u):
        return self._bump.q(t, xs, u) * (1.0 + 0.5 * xs[0])


_PER_ANGLE_Q = {"tilted_bump": _TiltedBump(),
                "offset_bump": get_potential("offset_bump", 2)}


def test_ansatz_provider_zero_potential_slice():
    q = get_potential("zero", 2)
    offsets = np.linspace(-0.5, 0.5, 5)
    probes = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets,
                                 [0.0, 0.5], TP)
    assert len(probes) == 2
    p = probes[0]
    assert p.weight == pytest.approx(-1.0)  # phi'(0) * (sign V + theta.omega)
    psi = TP + p.slc.r
    expect = p.slc.background + (1 / 32) * CHI.f(psi) * (
        A * np.cos(psi * 32) + B * np.sin(psi * 32))
    assert np.max(np.abs(p.slc.u - expect)) < 1e-12


def test_ansatz_provider_rejects_unreduced_config():
    offsets = np.linspace(-0.5, 0.5, 5)
    with pytest.raises(ConfigError):  # time-dependent potential
        ansatz_measurements(get_potential("bump_t_xy", 2), PHI, CHI, A, B,
                            1 / 32, offsets, [0.0], TP)
    with pytest.raises(ConfigError):  # band still inside supp q
        ansatz_measurements(get_potential("radial_bump", 2), PHI, CHI, A, B,
                            1 / 32, offsets, [0.0], 0.6)


@pytest.mark.parametrize("key", ["tilted_bump", "offset_bump"])
def test_ansatz_slices_match_per_angle_oracle_bit_for_bit(key):
    # every slice quantity formed once for the sweep, the amplitude on
    # coordinate planes: the bits of the per-angle loop on interleaved
    # points
    q = _PER_ANGLE_Q[key]
    offsets = np.linspace(-0.8, 0.8, 17)
    angles = np.linspace(0.0, np.pi, 36, endpoint=False)
    probes = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets, angles,
                                 TP)
    want = ansatz_slices_by_angle(q, PHI, CHI, A, B, 1 / 32, offsets,
                                  angles, TP)
    assert len(probes) == len(want) == angles.size
    for a, p, ref in zip(angles, probes, want):
        weight = xray_reduce(q, PHI, *recovery._sweep_vectors(sweep_frame(a)))
        assert p.weight == weight and type(p.weight) is type(weight)
        got = p.slc
        assert (got.h, got.Tprime) == (ref.h, ref.Tprime)
        for name in ("u", "r", "background"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))


@settings(deadline=None, max_examples=12)
@given(scale=st.floats(0.9, 1.1),
       offsets=st.lists(st.floats(-0.85, 0.85), min_size=1, max_size=9),
       angles=st.lists(st.floats(-np.pi, 2 * np.pi), min_size=1,
                       max_size=6),
       h=st.sampled_from([1 / 16, 1 / 32, 1 / 64]))
def test_radial_ansatz_sweep_is_one_probe(scale, offsets, angles, h):
    # probe invariance: for q radial about the origin every angle's slice
    # is the slice at angle 0, so the sweep is one probe carrying every
    # angle, with the bits of the per-angle oracle at angle 0 and within
    # rounding of the oracle's slice at each drawn angle
    q = get_potential("radial_bump", 2, amplitude=scale)
    angles = np.array(angles)
    (p,) = ansatz_measurements(q, PHI, CHI, A, B, h, offsets, angles, TP)
    assert np.array_equal(p.angles, angles)
    assert p.weight == xray_reduce(
        q, PHI, *recovery._sweep_vectors(sweep_frame(0.0)))
    slc = p.slc
    (ref,) = ansatz_slices_by_angle(q, PHI, CHI, A, B, h, offsets, [0.0], TP)
    assert (slc.h, slc.Tprime) == (ref.h, ref.Tprime)
    for name in ("u", "r", "background"):
        assert np.array_equal(getattr(slc, name), getattr(ref, name))
    for ref in ansatz_slices_by_angle(q, PHI, CHI, A, B, h, offsets, angles,
                                      TP):
        tol = 1e-12 * np.max(np.abs(ref.u - ref.background))
        assert np.max(np.abs(slc.u - ref.u)) <= tol


def test_ansatz_sweep_is_set_up_once():
    # one reduced-configuration check for the whole sweep, and the probe
    # light vectors built once for it and once per quadrature batch, never
    # per angle
    q = get_potential("offset_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 17)
    angles = np.linspace(0.0, np.pi, 36, endpoint=False)
    with mock.patch.object(recovery, "xray_reduce",
                           wraps=xray_reduce) as reduce, \
            mock.patch.object(recovery, "LightVector",
                              wraps=LightVector) as light:
        probes = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets,
                                     angles, TP)
    assert len(probes) == angles.size
    assert reduce.call_count == 1
    batches = -(-angles.size // (RAY_QUAD_BATCH_LINES // offsets.size))
    assert 1 < batches < angles.size
    assert light.call_count == 2 + 2 * batches


def test_ansatz_band_check_uses_back_edge_of_support():
    # offset_bump (centre (0.35, 0.15), R = 0.4) at angle 3.1: supp q ends
    # at omega.c - R = -0.74 along omega, and at Tprime 0.9 the band
    # reaches -0.9 + 0.3 + BAND_PAD = -0.45, inside supp q
    q = get_potential("offset_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 17)
    h = 1 / 32
    with pytest.raises(ConfigError, match="band overlaps"):
        ansatz_measurements(q, PHI, CHI, A, B, h, offsets, [3.1], 0.9)
    # at angle 0 the band is behind supp q (omega.c - R = -0.05): one
    # overlapping angle of the sweep is enough
    with pytest.raises(ConfigError, match="band overlaps"):
        ansatz_measurements(q, PHI, CHI, A, B, h, offsets, [0.0, 3.1], 0.9)
    ansatz_measurements(q, PHI, CHI, A, B, h, offsets, [0.0], 0.9)
    # once the band is behind that edge, the amplitude carried from the
    # band centre is the closed form at every band point
    tp = 1.2
    (p,) = ansatz_measurements(q, PHI, CHI, A, B, h, offsets, [3.1], tp)
    om, th = sweep_frame(3.1)
    V, W = recovery._sweep_vectors((om, th))
    pts = offsets[:, None, None] * th + p.slc.r[None, :, None] * om
    direct = a10_points(q, PHI, CHI, V, W, A, B, tp,
                        pts.reshape(-1, 2)).reshape(p.slc.u.shape)
    u = p.slc.background + 2 * h * np.real(
        direct * np.exp(1j * (tp + p.slc.r) / h))
    assert np.max(np.abs(u - p.slc.u)) < 1e-12


def _sweeps_at(batch, q, offsets, angles):
    """Both sweeps' samples with RAY_QUAD_BATCH_LINES = batch: the
    light-ray sinogram and the ansatz slices stacked by angle."""
    with mock.patch("nullform.raytransform.RAY_QUAD_BATCH_LINES", batch):
        sino = lightray_forward(q, PHI, LightVector(1, (0.6, 0.8)), offsets,
                                angles)
        probes = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets,
                                     angles, TP)
    return sino.samples, np.array([p.slc.u for p in probes])


@settings(deadline=None, max_examples=25)
@given(key=st.sampled_from(sorted(_PER_ANGLE_Q)),
       n_off=st.integers(1, 9), n_ang=st.integers(1, 7),
       batch=st.integers(1, 70), start=st.floats(0.0, np.pi))
def test_sweeps_do_not_depend_on_batch_size(key, n_off, n_ang, batch,
                                            start):
    # a line's value does not depend on the lines sharing its quadrature
    # call: the same bits at one line per call (one angle per batch), at
    # any batch size whether or not it divides the sweep, and with the
    # whole sweep in one call; and the per-angle loops to rounding.  Both
    # potentials keep one ansatz probe per angle.
    q = _PER_ANGLE_Q[key]
    offsets = np.linspace(-0.85, 0.85, n_off)
    angles = start + np.pi * np.arange(n_ang) / max(n_ang, 2)
    got = _sweeps_at(batch, q, offsets, angles)
    for other in (1, n_off * n_ang):
        for a, b in zip(got, _sweeps_at(other, q, offsets, angles)):
            assert np.array_equal(a, b)
    sino, slices = got
    assert slices.shape[0] == n_ang
    want = pts_lightray_forward(q, PHI, LightVector(1, (0.6, 0.8)), offsets,
                                angles).samples
    assert np.max(np.abs(sino - want)) <= 1e-15 * np.max(np.abs(want))
    want = np.array([s.u for s in ansatz_slices_by_angle(
        q, PHI, CHI, A, B, 1 / 32, offsets, angles, TP)])
    assert np.max(np.abs(slices - want)) <= 1e-15 * np.max(np.abs(want))


class _SpeckPotential(Potential):
    """q = 10 x1 on the disk of radius 0.03 about (0.3, 0) and 0 elsewhere
    in |x'| < 0.5: a jump that one sweep line of _SPECK_SWEEP crosses."""

    key = "speck"
    R = 0.5
    center = (0.0, 0.0)
    n = 2
    u_degree = 0

    def q(self, t, xs, u):
        inside = (xs[0] - 0.3) ** 2 + xs[1] ** 2 < 0.03 ** 2
        return np.broadcast_to(np.where(inside, 10.0 * xs[0], 0.0),
                               np.broadcast(t, *xs, u).shape)


# theta.(0.3, 0) = -0.3 sin a is -0.15, -0.2 and -0.25 at these angles:
# only the line at the second angle and offset -0.2 meets the speck
_SPECK_SWEEP = (np.linspace(-0.5, 0.5, 11),
                np.arcsin(np.array([0.5, 2.0 / 3.0, 5.0 / 6.0])))


def test_quadrature_error_names_the_failing_line_of_a_batch(monkeypatch):
    import nullform.raytransform as rt
    monkeypatch.setattr(rt, "RAY_QUAD_MAX_DOUBLINGS", 4)
    offsets, angles = _SPECK_SWEEP
    line = 1 * offsets.size + 3  # angle 1, offset -0.2, mid-batch
    with pytest.raises(QuadratureError, match="not converged") as exc:
        lightray_forward(_SpeckPotential(), PHI, LightVector(1, (0.6, 0.8)),
                         offsets, angles)
    assert exc.value.ray == line
    assert str(exc.value).startswith(
        f"sweep angle {angles[1]!r}, offset {offsets[3]!r}: ")
    with pytest.raises(QuadratureError, match="not converged") as exc:
        ansatz_measurements(_SpeckPotential(), PHI, CHI, A, B, 1 / 32,
                            offsets, angles, TP)
    assert exc.value.ray == line
    om, th = sweep_frame(angles[1])
    xp = offsets[3] * th - TP * om
    assert str(exc.value).startswith(
        f"sweep angle {angles[1]!r}, offset {offsets[3]!r}: "
        f"ray quadrature at x'={xp} (t={TP}): ")


def test_radial_check_reads_the_structure_of_q():
    # _SpeckPotential is centred, static and u-independent, and zero
    # wherever a check sampling a few radii would read it: the FDTD
    # provider still rejects it, and the ansatz sweep keeps one probe per
    # angle (its lines at the first and last angle miss the speck)
    offsets, angles = _SPECK_SWEEP
    with pytest.raises(ConfigError, match="fdtd_measurements: potential "
                                          "is not radially symmetric"):
        fdtd_measurements(_SpeckPotential(), PHI, CHI, A, B, 1 / 16,
                          offsets, np.linspace(0, np.pi, 90, endpoint=False),
                          1.2, -1.2)
    probes = ansatz_measurements(_SpeckPotential(), PHI, CHI, A, B, 1 / 32,
                                 offsets, angles[[0, 2]], TP)
    assert [p.angles.tolist() for p in probes] == [[angles[0]], [angles[2]]]


def test_fdtd_provider_validations():
    offsets = np.linspace(-0.5, 0.5, 5)
    angles = np.linspace(0, np.pi, 90, endpoint=False)
    with pytest.raises(ConfigError):  # not centered at the origin
        fdtd_measurements(get_potential("offset_bump", 2), PHI, CHI, A, B,
                          1 / 16, offsets, angles, 1.2, -1.2)
    with pytest.raises(ConfigError):  # time-dependent
        fdtd_measurements(get_potential("bump_t_xy", 2), PHI, CHI, A, B,
                          1 / 16, offsets, angles, 1.2, -1.2)
    with pytest.raises(ConfigError):  # pulse has not crossed supp q
        fdtd_measurements(get_potential("radial_bump", 2), PHI, CHI, A, B,
                          1 / 16, offsets, angles, 0.7, -1.2)


# ----------------------------------------------------------------------
# full recovery


def test_recover_requires_probe_sweep():
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 9)
    probes = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets,
                                 np.linspace(0, np.pi, 10, endpoint=False),
                                 TP)
    ax = np.linspace(-0.8, 0.8, 9)
    with pytest.raises(ConfigError):
        recover_potential_2d(probes, (ax, ax), CHI, A, B)


def test_recover_rejects_probes_on_other_offsets():
    # the sinogram has one offset axis: a probe measured on another one
    # would land its column at the wrong offsets
    q = get_potential("radial_bump", 2)
    angles = np.linspace(0, np.pi, 90, endpoint=False)
    probes = [p for half, lim in ((angles[:45], 0.8), (angles[45:], 0.4))
              for p in ansatz_measurements(q, PHI, CHI, A, B, 1 / 32,
                                           np.linspace(-lim, lim, 17),
                                           half, TP)]
    ax = np.linspace(-0.8, 0.8, 17)
    with pytest.raises(ConfigError, match=f"angle {angles[45]:.6g} "):
        recover_potential_2d(probes, (ax, ax), CHI, A, B)


def test_recover_ansatz_pipeline():
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 49)
    angles = np.linspace(0, np.pi, 90, endpoint=False)
    probes = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets,
                                 angles, TP)
    ax = np.linspace(-0.8, 0.8, 49)
    truth = q.q(0.0, [ax[:, None], ax[None, :]], 0.0)
    rec, report = recover_potential_2d(probes, (ax, ax), CHI, A, B,
                                       method="fbp", truth=truth)
    assert rec.rel_l2_error < 0.08
    assert report["n_angles_used"] == 90
    assert report["dropped_angles"] == []


def test_ansatz_sinogram_error_falls_with_h():
    # the ray data before inversion against the X-ray transform of q.
    # Measured: 4.822 % at h = 1/32 and 0.7659 % at 1/64, a 6.30x fall.
    # The bounds leave 3.7 % and 4.5 % of headroom on the errors and 26 %
    # on the fall
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 33)
    angles = np.linspace(0, np.pi, 90, endpoint=False)
    err = {}
    for h in (1 / 32, 1 / 64):
        probes = ansatz_measurements(q, PHI, CHI, A, B, h, offsets, angles,
                                     TP)
        _, report = recover_potential_2d(probes, (offsets, offsets), CHI,
                                         A, B)
        err[h] = sinogram_rel_error(report["sinogram"], q)
    assert err[1 / 32] <= 0.050
    assert err[1 / 64] <= 0.0080
    assert err[1 / 32] >= 5.0 * err[1 / 64]


def test_recover_drops_dead_angle_with_warning():
    q = _TiltedBump()
    offsets = np.linspace(-0.8, 0.8, 33)
    angles = np.linspace(0, np.pi, 91, endpoint=False)
    probes = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets,
                                 angles, TP)
    bad = probes[7]
    bad.slc.u[...] = bad.slc.background  # pulse wiped out -> all missing
    ax = np.linspace(-0.8, 0.8, 33)
    with pytest.warns(UserWarning):
        rec, report = recover_potential_2d(probes, (ax, ax), CHI, A, B,
                                           method="fbp")
    assert report["n_angles_used"] == 90
    assert report["dropped_angles"] == [pytest.approx(bad.angles[0])]


def test_recover_processes_each_shared_slice_once(monkeypatch):
    # one slice standing for every angle, as the FDTD provider builds it
    # (radial_bump is radially symmetric, so it is the right slice), with
    # one missing offset so the interpolation count is exercised
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 17)
    angles = np.linspace(0, np.pi, 90, endpoint=False)
    p0 = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets, [0.0],
                             TP)[0]
    p0.slc.u[7] = p0.slc.background[7]
    shared = dataclasses.replace(p0, angles=angles)
    own = [dataclasses.replace(p0, angles=np.array([a]),
                               slc=copy.deepcopy(p0.slc)) for a in angles]
    calls = []

    def counted(slc):
        calls.append(id(slc))
        return demodulate(slc)

    monkeypatch.setattr(recovery, "demodulate", counted)
    ax = np.linspace(-0.8, 0.8, 17)
    rec, report = recover_potential_2d([shared], (ax, ax), CHI, A, B)
    assert calls == [id(p0.slc)]
    calls.clear()
    rec_own, report_own = recover_potential_2d(own, (ax, ax), CHI, A, B)
    assert len(calls) == len(angles)
    assert np.array_equal(rec.values, rec_own.values)
    sino, sino_own = report.pop("sinogram"), report_own.pop("sinogram")
    for name in ("offsets", "angles", "samples"):
        assert np.array_equal(getattr(sino, name), getattr(sino_own, name))
    assert report == report_own
    assert report["interpolated_offsets"] == len(angles)
    assert report["n_angles"] == report["n_angles_used"] == len(angles)


def test_recover_interpolates_a_missing_offset():
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 17)
    angles = np.linspace(0, np.pi, 90, endpoint=False)
    probes = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets,
                                 angles, TP)
    i = 7  # offset -0.1, over supp q
    for p in probes:
        p.slc.u[i] = p.slc.background[i]  # row demodulates to exactly 0
    ax = np.linspace(-0.8, 0.8, 17)
    rec, report = recover_potential_2d(probes, (ax, ax), CHI, A, B)
    assert report["interpolated_offsets"] == len(angles)
    assert report["n_angles_used"] == len(angles)
    sino = report["sinogram"].samples
    assert np.min(np.abs(sino[i])) > 0.1
    np.testing.assert_allclose(sino[i], 0.5 * (sino[i - 1] + sino[i + 1]),
                               rtol=1e-14, atol=0)


def test_recover_band_average_over_ragged_valid_points(monkeypatch):
    # clear a random ragged subset of the valid points of every slice and
    # check each column against a per-row chi^2-weighted average
    q = _TiltedBump()
    offsets = np.linspace(-0.8, 0.8, 17)
    angles = np.linspace(0, np.pi, 90, endpoint=False)
    probes = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets,
                                 angles, TP)
    rng = np.random.default_rng(11)
    rays = []

    def ragged(amp, chi, A, B):
        ray = log_recover_ray_data(amp, chi, A, B)
        ray.valid &= rng.random(ray.valid.shape) < 0.6
        ray.valid[5] = False  # one row with no valid point left
        rays.append(ray)
        return ray

    monkeypatch.setattr(recovery, "log_recover_ray_data", ragged)
    ax = np.linspace(-0.8, 0.8, 17)
    rec, report = recover_potential_2d(probes, (ax, ax), CHI, A, B)
    assert report["interpolated_offsets"] == len(angles)
    assert report["imag_defect_max"] == max(
        np.max(np.abs(ray.imag_defect[ray.valid])) for ray in rays)
    want = np.zeros((offsets.size, len(angles)))
    for k, (p, ray) in enumerate(zip(probes, rays)):
        wts = CHI.f(TP + ray.r) ** 2
        for j in range(offsets.size):
            v = ray.valid[j]
            if np.any(v):
                want[j, k] = np.sum(wts[v] * ray.values[j, v]) / np.sum(wts[v])
        want[5, k] = 0.5 * (want[4, k] + want[6, k])
        want[:, k] /= p.weight
    np.testing.assert_allclose(report["sinogram"].samples, want, rtol=1e-14,
                               atol=1e-14 * np.max(np.abs(want)))


def test_rls_fits_its_data_better_than_fbp():
    # data consistency ||A x - b|| / ||b|| with A the RLS operator and b
    # the sinogram the recovery inverted: least squares minimises it, so
    # RLS reads below FBP (0.0019 against 0.0298 on this setup).  It is a
    # fit, not a quality figure: the true image reads 0.0471 here.
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 33)
    angles = np.linspace(0, np.pi, 90, endpoint=False)
    probes = ansatz_measurements(q, PHI, CHI, A, B, 1 / 32, offsets,
                                 angles, TP)
    misfit = {}
    for method in ("fbp", "rls"):
        rec, report = recover_potential_2d(probes, (offsets, offsets), CHI,
                                           A, B, method=method, reg=1e-8)
        sino = report["sinogram"]
        assert np.array_equal(sino.angles, angles)
        b = sino.samples.T.ravel()
        Ax = _xray_matrix(sino, (offsets, offsets)) @ rec.values.ravel()
        misfit[method] = np.linalg.norm(Ax - b) / np.linalg.norm(b)
    assert misfit["rls"] < 0.5 * misfit["fbp"]


def test_recover_fdtd_small():
    # coarse full-wave end-to-end run; the h = 1/64 version is exercised
    # by the acceptance suite
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 49)
    angles = np.linspace(0, np.pi, 90, endpoint=False)
    probe = fdtd_measurements(q, PHI, CHI, A, B, 1 / 16, offsets, angles,
                              1.2, -1.2)
    assert np.array_equal(probe.angles, angles)
    assert probe.backpropagate == 1.2
    ax = np.linspace(-0.8, 0.8, 49)
    truth = q.q(0.0, [ax[:, None], ax[None, :]], 0.0)
    rec, report = recover_potential_2d([probe], (ax, ax), CHI, A, B,
                                       method="fbp", truth=truth)
    assert rec.rel_l2_error < 0.45
    flat_r = rec.values.ravel()
    flat_t = truth.ravel()
    corr = np.corrcoef(flat_r, flat_t)[0, 1]
    assert corr > 0.85


def test_pipeline_consistency_slope():
    # demodulate(assemble_uN) returns A_{1,0} up to O(h): halving h about
    # halves the mid-band extraction error
    q1 = get_potential("radial_bump", 1)
    V1 = LightVector(-1, (-1.0,))
    spec = AnsatzSpec(V1, W1, PHI, CHI, A, B, 1, (1 / 8, 1 / 16), -2.0,
                      2.0, TP, 0.01, ((-4.0, 4.0),))
    table = build_hierarchy(spec, q1)
    grid = table.grid
    k = int(round((TP - grid.t0) / grid.dt))
    x = grid.axis(0)
    tv = float(grid.t[k])
    bg = background_field(spec, tv, [x])
    a10 = table.rows[(1, 0)][k]
    band = np.abs(CHI.f(tv + x)) > 0.3
    errs = []
    for h in spec.h_list:
        slc = TimeSliceMeasurement(assemble_uN(table, h)[k][None, :], x, h,
                                   tv, bg[None, :])
        amp = demodulate(slc)
        errs.append(np.max(np.abs(amp.values[0] - a10)[band]))
    slope = np.log2(errs[0] / errs[1])
    assert slope > 0.8
