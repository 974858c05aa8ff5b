"""Light-ray transform, X-ray reduction, FBP/RLS inversion."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullform.constants import FBP_MIN_ANGLES
from nullform.errors import ConfigError, QuadratureError
from nullform.geoptics import ray_exponent
from nullform.minkowski import LightVector
from nullform.potential import Potential, get_potential, scalar_F
from nullform.profiles import bump, ramp
from nullform.raytransform import (
    Sinogram, _adaptive_line_integral, _fbp, _xray_matrix, invert_xray_2d,
    lightray_forward, sweep_frame, sweep_frames, xray_reduce,
)
from oracles import (fbp_per_angle, pts_lightray_forward,
                     simpson_line_integral, sinogram_from_csv,
                     xray_forward_2d, xray_matrix_coo)

PHI = ramp(1.5, 0.5, 1.0)
W0 = LightVector(-1, (1.0, 0.0))
V1 = LightVector(1, (0.0, 1.0))


def _forward(offsets, angles, key="radial_bump", amplitude=None):
    q = get_potential(key, 2, amplitude=amplitude)
    return lightray_forward(q, PHI, V1, offsets, angles)


def _phantom_integrand(q):
    def f(x1, x2):
        return q.q(0.0, [np.asarray(x1, float), np.asarray(x2, float)], 0.0)
    return f


# ----------------------------------------------------------------------
# forward transform


def test_zero_potential_zero_sinogram():
    sino = _forward(np.linspace(-1, 1, 11),
                    np.linspace(0, np.pi, 8, endpoint=False), "zero")
    assert np.all(sino.samples == 0.0)


def test_rays_missing_support_vanish():
    # supp q = ball of radius 0.5
    sino = _forward(np.array([-0.9, 0.7, 1.5]),
                    np.linspace(0, np.pi, 12, endpoint=False))
    assert np.max(np.abs(sino.samples)) == 0.0


def test_axis_ray_matches_dense_quadrature():
    # oracle: Simpson at 10x the node density of the adaptive pass
    from scipy.integrate import simpson
    q = get_potential("radial_bump", 2)
    offsets = np.array([0.0, 0.15, -0.3])
    sino = _forward(offsets, np.array([0.0]))
    for i, s in enumerate(offsets):
        nu = np.linspace(-0.6, 0.6, 20001)
        # ray (nu, nu, s): t = nu, x1 = nu, x2 = s; pairing = 1 + 0
        vals = scalar_F(q, PHI, V1, W0.direction, nu,
                        [nu, np.full_like(nu, s)])
        assert sino.samples[i, 0] == pytest.approx(
            simpson(vals, x=nu), abs=1e-8)


def test_forward_linearity_in_amplitude():
    offsets = np.linspace(-0.5, 0.5, 9)
    angles = np.linspace(0, np.pi, 6, endpoint=False)
    a = _forward(offsets, angles)
    b = _forward(offsets, angles, amplitude=3.0)
    assert np.allclose(b.samples, 3.0 * a.samples, atol=1e-10)


@pytest.mark.parametrize("key,phi", [("radial_bump", PHI),
                                     ("offset_bump", bump(2.0)),
                                     ("bump_t_xy", PHI)])
def test_sinogram_matches_interleaved_points_bit_for_bit(key, phi):
    q = get_potential(key, 2)
    V = LightVector(1, (0.6, 0.8))
    offsets = np.linspace(-0.9, 0.9, 19)
    angles = np.linspace(0.0, np.pi, 16, endpoint=False)
    got = lightray_forward(q, phi, V, offsets, angles)
    want = pts_lightray_forward(q, phi, V, offsets, angles)
    assert np.max(np.abs(got.samples)) > 0.01
    assert np.array_equal(got.samples, want.samples)


class _HalfDisk(Potential):
    """q = 1 on the half of the disk |x'| < 0.5 with x1 > 0: a jump."""

    key = "half_disk"
    R = 0.5
    center = (0.0, 0.0)
    n = 2

    def q(self, t, xs, u):
        return np.where(np.asarray(xs[0]) > 0.0, 1.0, 0.0)


def test_line_integral_reports_nonconvergence(monkeypatch):
    import nullform.raytransform as rt
    monkeypatch.setattr(rt, "RAY_QUAD_MAX_DOUBLINGS", 1)

    def step(sig, xs, rows):
        return (xs[0] > 0.3).astype(float)

    # line 1 crosses the jump; line 0 is empty and line 2 sees a constant
    base = np.zeros((3, 2))
    with pytest.raises(QuadratureError) as exc:
        _adaptive_line_integral(step, base, np.array([1.0, 0.0]),
                                np.zeros(3), np.array([0.0, 1.0, 0.1]))
    assert exc.value.ray == 1
    xp = np.array([[-0.4, 0.0]])  # crosses the jump at sigma = 0.4
    with pytest.raises(QuadratureError) as exc:
        ray_exponent(_HalfDisk(), PHI, LightVector(1, (0.0, 1.0)), W0,
                     0.25, xp)
    msg = str(exc.value)
    assert "x'=[-0.4" in msg and "t=0.25" in msg


def _reevaluating_line_integral(fvals, base, direction, lo, length):
    """Reference: the trapezoid recurrence that evaluates every node of
    the active lines at each doubling and takes the odd ones as the new
    midpoints, each line leaving at its own first doubling where
    _two_rule_stop retires it.  Returns the integrals and each line's final
    segment count (0 for lines never evaluated)."""
    from nullform.raytransform import RAY_QUAD_MAX_DOUBLINGS, _two_rule_stop
    out = np.zeros(length.shape)
    nsegs = np.zeros(length.shape, dtype=int)
    act = np.flatnonzero(length > 0)
    if act.size == 0:
        return out, nsegs
    lo, length, base = lo[act], length[act], base[act]

    def nodes(nseg):
        sig = lo[:, None] + length[:, None] * np.linspace(0.0, 1.0, nseg + 1)
        return fvals(sig, [base[:, j, None] + sig * d
                           for j, d in enumerate(direction)], act)

    nseg = 16
    g = nodes(nseg)
    quarter = (length / 4) * (0.5 * (g[:, 0] + g[:, -1])
                              + np.sum(g[:, 4:-1:4], axis=1))
    coarse = (length / 8) * (0.5 * (g[:, 0] + g[:, -1])
                             + np.sum(g[:, 2:-1:2], axis=1))
    trap = 0.5 * coarse + (length / nseg) * np.sum(g[:, 1::2], axis=1)
    simp = (4.0 * trap - coarse) / 3.0
    dt1, dt2 = np.abs(trap - coarse), np.abs(coarse - quarter)
    ds1 = np.abs(simp - (4.0 * coarse - quarter) / 3.0)
    for _ in range(RAY_QUAD_MAX_DOUBLINGS):
        nseg *= 2
        t2 = 0.5 * trap + (length / nseg) * np.sum(nodes(nseg)[:, 1::2],
                                                   axis=1)
        s2 = (4.0 * t2 - trap) / 3.0
        dt, ds = np.abs(t2 - trap), np.abs(s2 - simp)
        done, use_t = _two_rule_stop(dt, ds, dt1, ds1, dt2)
        out[act[done]] = np.where(use_t, t2, s2)[done]
        nsegs[act[done]] = nseg
        if np.all(done):
            return out, nsegs
        left = ~done
        lo, length, base = lo[left], length[left], base[left]
        act, trap, simp = act[left], t2[left], s2[left]
        dt1, ds1, dt2 = dt[left], ds[left], dt1[left]
    raise AssertionError("reference did not converge")


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 3), nlines=st.integers(1, 12),
       k=st.floats(0.0, 40.0), seed=st.integers(0, 2**32 - 1),
       zero_share=st.floats(0.0, 1.0))
def test_nested_simpson_matches_reevaluating_loop(n, nlines, k, seed,
                                                  zero_share):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (nlines, n))
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    lo = rng.uniform(-1.0, 1.0, nlines)
    length = rng.uniform(0.0, 2.0, nlines)
    length[rng.random(nlines) < zero_share] = 0.0
    length[rng.random(nlines) < 0.1] *= -1.0
    th = rng.normal(size=n)

    def fvals(sig, xs, rows):
        s = sum(x * c for x, c in zip(xs, th))
        return np.exp(-s**2) * np.cos(k * sig) + np.sin(3.0 * s) * sig

    seen = []

    def counted(sig, xs, rows):
        seen.append(sig.size)
        return fvals(sig, xs, rows)

    # 12 doublings (65,537 nodes a line) bound the memory of a broken
    # quadrature; these integrands converge well before that
    with mock.patch("nullform.raytransform.RAY_QUAD_MAX_DOUBLINGS", 12):
        want, nsegs = _reevaluating_line_integral(fvals, base, direction,
                                                  lo, length)
        got = _adaptive_line_integral(counted, base, direction, lo, length)
    assert np.array_equal(got, want)
    assert np.all(got[length <= 0] == 0.0)
    assert sum(seen) == int(np.sum(nsegs[length > 0] + 1))


@settings(deadline=None, max_examples=40)
@given(nlines=st.integers(1, 24), k=st.floats(0.0, 40.0),
       seed=st.integers(0, 2**32 - 1))
def test_each_line_stops_at_its_own_first_converged_doubling(nlines, k,
                                                              seed):
    # a line's integral does not depend on the other lines of the call:
    # it is a fresh one-line trapezoid or Simpson sum at the first
    # doubling where the two-rule stop retires it, up to rounding (the
    # batch builds T_n by the recurrence over the new midpoints, one line
    # here by a fresh sum over all its nodes)
    from nullform.raytransform import _two_rule_stop
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (nlines, 2))
    direction = np.array([0.6, -0.8])
    lo = rng.uniform(-1.0, 1.0, nlines)
    length = rng.uniform(0.0, 2.0, nlines)
    th = rng.normal(size=2)

    def fvals(sig, xs, rows=None):
        s = xs[0] * th[0] + xs[1] * th[1]
        return np.exp(-s**2) * np.cos(k * sig) + np.sin(3.0 * s) * sig

    seen = []

    def counted(sig, xs, rows):
        seen.append(sig.size)
        return fvals(sig, xs)

    def one_line(i, nseg):
        """(trapezoid sum, bound on its rounding) on line i alone."""
        wts = np.ones(nseg + 1)
        wts[[0, -1]] = 0.5
        sig = lo[i] + length[i] * np.linspace(0.0, 1.0, nseg + 1)
        g = fvals(sig, [base[i, 0] + sig * direction[0],
                        base[i, 1] + sig * direction[1]])
        scale = length[i] / nseg
        return scale * (g @ wts), \
            (nseg + 1) * np.finfo(float).eps * scale * (np.abs(g) @ wts)

    with mock.patch("nullform.raytransform.RAY_QUAD_MAX_DOUBLINGS", 12):
        got = _adaptive_line_integral(counted, base, direction, lo, length)
    nodes = 0
    for i in range(nlines):
        nseg = 16
        t4, t8, trap = (one_line(i, m)[0] for m in (4, 8, nseg))
        simp = (4.0 * trap - t8) / 3.0
        dt1, dt2 = abs(trap - t8), abs(t8 - t4)
        ds1 = abs(simp - (4.0 * t8 - t4) / 3.0)
        while True:
            nseg *= 2
            t2, err = one_line(i, nseg)
            s2 = (4.0 * t2 - trap) / 3.0
            dt, ds = abs(t2 - trap), abs(s2 - simp)
            done, use_t = _two_rule_stop(dt, ds, dt1, ds1, dt2)
            if done:
                cur = t2 if use_t else s2
                break
            trap, simp = t2, s2
            dt1, ds1, dt2 = dt, ds, dt1
        assert abs(got[i] - cur) <= err
        nodes += nseg + 1
    assert sum(seen) == nodes


def _counted(fvals, seen):
    def fn(sig, xs, rows):
        seen.append(sig.size)
        return fvals(sig, xs, rows)
    return fn


@settings(deadline=None, max_examples=40)
@given(radius=st.floats(0.01, 2.0), amplitude=st.floats(0.1, 3.0),
       shift=st.floats(-1.0, 1.0), a=st.floats(0.0, np.pi))
@example(radius=0.25, amplitude=0.125, shift=0.1484375, a=0.0)
@example(radius=0.041, amplitude=0.676, shift=-0.176, a=2.16)
def test_flat_ended_chords_stop_before_simpson(radius, amplitude, shift, a):
    # the radial bump is C^inf-flat at the rim, so on its chords the
    # trapezoid update falls below tolerance before Simpson's: the value
    # is within tolerance of a 2^14-segment trapezoid sum, for fewer
    # nodes than Simpson's update alone deciding.  In the first example
    # Simpson's update dips to 9.6e-10 on one chord while its value is
    # 2.1e-9 off; in the second the trapezoid's falls from above 1e-6 to
    # below tolerance while its value is 5.5e-9 off: neither may retire
    from nullform.potential import radial_bump_factor
    from nullform.raytransform import RAY_QUAD_ABS_TOL, _line_bounds
    rf = radial_bump_factor(radius, amplitude)
    om, perp = sweep_frame(a)
    base = radius * (np.linspace(-0.9, 0.9, 9) + 0.1 * shift)[:, None] * perp
    lo, hi = _line_bounds(np.zeros(2), radius, base, om)

    def fvals(sig, xs, rows=None):
        return rf.value(xs[0] ** 2 + xs[1] ** 2)

    seen, seen_simpson = [], []
    got = _adaptive_line_integral(_counted(fvals, seen), base, om, lo,
                                  hi - lo)
    simpson_line_integral(_counted(fvals, seen_simpson), base, om, lo,
                          hi - lo)
    nseg = 2 ** 14
    sig = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, nseg + 1)
    g = fvals(sig, [base[:, j, None] + sig * om[j] for j in range(2)])
    want = (hi - lo) / nseg * (np.sum(g[:, 1:-1], axis=1)
                               + 0.5 * (g[:, 0] + g[:, -1]))
    assert np.max(np.abs(got - want)) < RAY_QUAD_ABS_TOL
    assert sum(seen) < sum(seen_simpson)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 3), nlines=st.integers(1, 12),
       k=st.floats(0.0, 40.0), seed=st.integers(0, 2**32 - 1),
       degree=st.integers(0, 7))
def test_two_rule_stop_never_costs_more_than_simpson(n, nlines, k, seed,
                                                     degree):
    # where the integrand is not flat at the ends Simpson's update decides
    # as it alone would: never more nodes than that stop, and the value
    # within tolerance of a 2^14-segment Simpson sum (the nested test's
    # family) or of the exact integral (a polynomial on intervals clipped
    # to a window, some empty)
    from numpy.polynomial import polynomial as P

    from nullform.raytransform import RAY_QUAD_ABS_TOL
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (nlines, n))
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    lo = rng.uniform(-1.0, 1.0, nlines)
    length = rng.uniform(0.0, 2.0, nlines)
    th = rng.normal(size=n)
    coef = rng.normal(size=degree + 1)

    def nested(sig, xs, rows=None):
        s = sum(x * c for x, c in zip(xs, th))
        return np.exp(-s**2) * np.cos(k * sig) + np.sin(3.0 * s) * sig

    def poly(sig, xs, rows):
        return P.polyval(sig, coef)

    nseg = 2 ** 14
    wts = np.ones(nseg + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    sig = lo[:, None] + length[:, None] * np.linspace(0.0, 1.0, nseg + 1)
    xs = [base[:, j, None] + sig * direction[j] for j in range(n)]
    anti = P.polyint(coef)
    clip_lo = np.maximum(lo, -0.5)
    clip_len = np.minimum(lo + length, 0.5) - clip_lo
    exact = P.polyval(clip_lo + clip_len, anti) - P.polyval(clip_lo, anti)
    cases = [(nested, lo, length,
              length / (3.0 * nseg) * (nested(sig, xs) @ wts)),
             (poly, clip_lo, clip_len, np.where(clip_len > 0, exact, 0.0))]
    with mock.patch("nullform.raytransform.RAY_QUAD_MAX_DOUBLINGS", 12):
        for fvals, a, ln, want in cases:
            seen, seen_simpson = [], []
            got = _adaptive_line_integral(_counted(fvals, seen), base,
                                          direction, a, ln)
            simpson_line_integral(_counted(fvals, seen_simpson), base,
                                  direction, a, ln)
            assert np.max(np.abs(got - want)) < RAY_QUAD_ABS_TOL
            assert sum(seen) <= sum(seen_simpson)


def test_bump_sweep_node_count_guard():
    # the two-rule stop saves about a doubling per line on the radial
    # bump's chords (0.53 of the Simpson-only nodes when written); the
    # one-rule stop coming back fails here
    import nullform.raytransform as rt
    counts = []

    def run(quad):
        seen = []

        def counted_F(q, phi, V, om, sig, xs):
            seen.append(xs[0].size)
            return scalar_F(q, phi, V, om, sig, xs)

        with mock.patch.object(rt, "scalar_F", counted_F), \
                mock.patch.object(rt, "_adaptive_line_integral", quad):
            _forward(np.linspace(-0.8, 0.8, 33),
                     np.linspace(0.0, np.pi, 12, endpoint=False))
        counts.append(sum(seen))

    run(_adaptive_line_integral)
    run(simpson_line_integral)
    assert counts[0] <= 0.7 * counts[1]


def test_line_integral_rejects_non_finite_integrand(monkeypatch):
    import nullform.raytransform as rt
    monkeypatch.setattr(rt, "RAY_QUAD_MAX_DOUBLINGS", 3)
    calls = []

    def nan_on_line_2(sig, xs, rows):
        calls.append(sig.shape)
        out = np.cos(sig)
        out[xs[1][:, 0] == 2.0] = np.nan
        return out

    base = np.array([[0.0, 1.0], [0.0, 5.0], [0.0, 2.0]])
    with pytest.raises(QuadratureError, match="non-finite") as exc:
        _adaptive_line_integral(nan_on_line_2, base, np.array([1.0, 0.0]),
                                np.zeros(3), np.array([1.0, 0.0, 1.0]))
    assert exc.value.ray == 2
    assert len(calls) == 2  # raised at the first doubling


def test_line_integral_stops_at_node_budget(monkeypatch):
    # a finite integrand that never converges (fresh noise on every call)
    # must stop at the node budget, well before RAY_QUAD_MAX_DOUBLINGS;
    # the doubling cap is lowered too, so a broken budget check cannot
    # exhaust memory here
    import nullform.raytransform as rt
    monkeypatch.setattr(rt, "RAY_QUAD_MAX_NODES", 3000)
    monkeypatch.setattr(rt, "RAY_QUAD_MAX_DOUBLINGS", 14)
    rng = np.random.default_rng(3)
    nodes = []

    def noise(sig, xs, rows):
        nodes.append(sig.size)
        return rng.normal(size=sig.shape)

    base = np.zeros((4, 2))
    length = np.array([1.0, 0.0, 2.0, 1.5])
    with pytest.raises(QuadratureError, match="not converged") as exc:
        _adaptive_line_integral(noise, base, np.array([1.0, 0.0]),
                                np.zeros(4), length)
    assert exc.value.ray in (0, 2, 3)
    held = sum(nodes)  # 3 active lines x (nseg + 1) nodes
    assert held <= 3000 < 2 * held - 3
    assert held == 3 * 513  # 5 doublings from 16 segments


def test_forward_rejects_bad_args():
    with pytest.raises(ConfigError):  # the sweep is 2-D only
        lightray_forward(get_potential("radial_bump", 1), PHI,
                         LightVector(1, (1.0,)), np.zeros(3), np.zeros(2))


# ----------------------------------------------------------------------
# X-ray reduction


def test_reduce_weight_by_hand():
    # V = (+1,(0,1)), omega = (1,0): <Vt,Wt>_M = 1, phi'(0) = 1
    q = get_potential("radial_bump", 2)
    assert xray_reduce(q, PHI, V1, W0) == pytest.approx(1.0)


def test_reduce_rejections():
    with pytest.raises(ConfigError):  # time-dependent
        xray_reduce(get_potential("bump_t_xy", 2), PHI,
                    LightVector(1, (0.0, 1.0)), W0)
    with pytest.raises(ConfigError):  # u-dependent
        xray_reduce(get_potential("bump_linear_u", 2), PHI,
                    LightVector(1, (0.0, 1.0)), W0)
    with pytest.raises(ConfigError):  # theta not perpendicular to omega
        xray_reduce(get_potential("radial_bump", 2), PHI,
                    LightVector(1, (1.0, 0.0)), W0)


@pytest.mark.parametrize("sign", [-1, 1])
def test_reduce_over_a_sweep_equals_the_per_angle_calls(sign):
    # one direction per sweep angle: each weight has the bits of that
    # angle's own call, and one non-perpendicular pair rejects the sweep
    q = get_potential("offset_bump", 2)
    om, th = sweep_frames(np.linspace(0.0, np.pi, 12, endpoint=False)
                          ).transpose(1, 0, 2)
    got = xray_reduce(q, PHI, LightVector(sign, tuple(th.T)),
                      LightVector(-1, tuple(om.T)))
    want = [xray_reduce(q, PHI, LightVector(sign, tuple(t)),
                        LightVector(-1, tuple(o))) for t, o in zip(th, om)]
    assert got.shape == (12,) and np.array_equal(got, want)
    th[5] = om[5]
    with pytest.raises(ConfigError, match="perpendicular"):
        xray_reduce(q, PHI, LightVector(sign, tuple(th.T)),
                    LightVector(-1, tuple(om.T)))


def test_reduced_xray_matches_lightray():
    # per-angle V with theta = omega-perp keeps the reduced configuration
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.6, 0.6, 13)
    for a in (0.0, 0.7, 2.0):
        om = (np.cos(a), np.sin(a))
        th = (-np.sin(a), np.cos(a))
        V = LightVector(1, th)
        W = LightVector(-1, om)
        weight = xray_reduce(q, PHI, V, W)
        lray = lightray_forward(q, PHI, V, offsets, np.array([a]))

        def reduced(x1, x2):
            return weight * _phantom_integrand(q)(x1, x2)

        xray = xray_forward_2d(reduced, offsets, np.array([a]), q.center,
                               q.R)
        scale = np.max(np.abs(xray.samples))
        assert np.max(np.abs(lray.samples - xray.samples)) < 1e-6 * scale


# ----------------------------------------------------------------------
# sinogram serialization


def test_sinogram_csv_roundtrip():
    sino = Sinogram(np.linspace(-1, 1, 5), np.linspace(0, np.pi, 4,
                                                       endpoint=False),
                    np.arange(20.0).reshape(5, 4))
    back = sinogram_from_csv(sino.to_csv())
    assert np.array_equal(back.offsets, sino.offsets)
    assert np.array_equal(back.angles, sino.angles)
    assert np.array_equal(back.samples, sino.samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sinogram_rejects_non_finite_samples(bad):
    # unchecked, one inf makes RLS return an all-zero image (CG's first
    # stop test reads inf <= inf * 1e-20) and FBP an all-NaN one
    samples = np.ones((9, 4))
    samples[6, 2] = samples[7, 3] = bad
    with pytest.raises(ConfigError, match=f"sample {bad} at offset 0.5, "
                                          f"angle 1.5708 is not finite"):
        Sinogram(np.linspace(-1, 1, 9),
                 np.linspace(0, np.pi, 4, endpoint=False), samples)


# ----------------------------------------------------------------------
# inversion


@pytest.mark.parametrize("method", ["fbp", "rls"])
def test_zero_sinogram_zero_reconstruction(method):
    # both methods give exact +0.0 with no special case for zero data
    sino = Sinogram(np.linspace(-1, 1, 32),
                    np.linspace(0, np.pi, 100, endpoint=False),
                    np.zeros((32, 100)))
    ax = np.linspace(-1, 1, 33)
    rec = invert_xray_2d(sino, (ax, ax), method=method)
    assert rec.method == method
    assert np.all(rec.values == 0.0) and not np.any(np.signbit(rec.values))


@pytest.mark.parametrize("method", ["fbp", "rls"])
@pytest.mark.parametrize("offsets", [np.linspace(0.8, -0.8, 33),
                                     np.full(33, 0.5)])
def test_invert_rejects_decreasing_or_repeated_offsets(method, offsets):
    sino = Sinogram(offsets, np.linspace(0, np.pi, 100, endpoint=False),
                    np.ones((33, 100)))
    ax = np.linspace(-0.8, 0.8, 17)
    with pytest.raises(ConfigError, match="offsets must be uniform and "
                                          "increasing"):
        invert_xray_2d(sino, (ax, ax), method=method)


def test_fbp_phantom_accuracy():
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 161)
    angles = np.linspace(0, np.pi, 180, endpoint=False)
    sino = xray_forward_2d(_phantom_integrand(q), offsets, angles,
                           q.center, q.R)
    ax = np.linspace(-0.8, 0.8, 161)
    truth = _phantom_integrand(q)(ax[:, None], ax[None, :])
    rec = invert_xray_2d(sino, (ax, ax), method="fbp", truth=truth)
    assert rec.rel_l2_error < 0.05


def test_rls_approaches_fbp():
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 81)
    angles = np.linspace(0, np.pi, 100, endpoint=False)
    sino = xray_forward_2d(_phantom_integrand(q), offsets, angles,
                           q.center, q.R)
    ax = np.linspace(-0.8, 0.8, 81)
    fbp = invert_xray_2d(sino, (ax, ax), method="fbp")
    rls = invert_xray_2d(sino, (ax, ax), method="rls", reg=1e-8)
    rel = np.sqrt(np.sum((fbp.values - rls.values) ** 2)
                  / np.sum(fbp.values ** 2))
    assert rel < 0.02


def test_fbp_angle_fallback_warns():
    sino = Sinogram(np.linspace(-1, 1, 17),
                    np.linspace(0, np.pi, 10, endpoint=False),
                    np.ones((17, 10)))
    ax = np.linspace(-1, 1, 9)
    with pytest.warns(UserWarning):
        rec = invert_xray_2d(sino, (ax, ax), method="fbp")
    assert rec.method == "rls"


def test_angle_doubling_non_increasing_error():
    q = get_potential("radial_bump", 2)
    offsets = np.linspace(-0.8, 0.8, 81)
    ax = np.linspace(-0.8, 0.8, 81)
    truth = _phantom_integrand(q)(ax[:, None], ax[None, :])
    errs = []
    for n_ang in (45, 90, 180):
        angles = np.linspace(0, np.pi, n_ang, endpoint=False)
        sino = xray_forward_2d(_phantom_integrand(q), offsets, angles,
                               q.center, q.R)
        rec = invert_xray_2d(sino, (ax, ax), method="rls", reg=1e-8,
                             truth=truth)
        errs.append(rec.rel_l2_error)
    assert errs[0] >= errs[1] >= errs[2]


def test_xray_matrix_matches_interpolator():
    # independent reference: scipy's bilinear interpolator, zero outside
    # the pixel box, sampled every half pixel along each ray.  Dyadic
    # spacings keep the sample positions exact, so at angles 0 and pi/2
    # the edge offsets put samples exactly on the first and last grid
    # lines of both axes.
    from scipy.interpolate import RegularGridInterpolator
    rng = np.random.default_rng(7)
    ax = (np.linspace(-1.25, 1.25, 21), np.linspace(-1.125, 1.125, 19))
    offsets = np.linspace(-1.25, 1.25, 21)
    angles = np.array([0.0, 0.4, np.pi / 2, 2.0, 2.9])
    sino = Sinogram(offsets, angles, np.zeros((21, angles.size)))
    img = rng.standard_normal((21, 19))
    interp = RegularGridInterpolator(ax, img, bounds_error=False,
                                     fill_value=0.0)
    step = 0.5 * 0.125
    span = np.hypot(2.5, 2.25)
    nu = np.arange(-0.5 * span, 0.5 * span + step, step)
    want = np.zeros(sino.samples.shape)
    for ja, a in enumerate(angles):
        for i, s in enumerate(offsets):
            pts = np.stack([-s * np.sin(a) + nu * np.cos(a),
                            s * np.cos(a) + nu * np.sin(a)], axis=-1)
            want[i, ja] = np.sum(interp(pts)) * step
    assert np.all(want[[0, -1], 2] != 0) and np.all(want[[1, -2], 0] != 0)
    A = _xray_matrix(sino, ax)
    assert A.shape == (21 * angles.size, 21 * 19)
    got = (A @ img.ravel()).reshape(angles.size, 21).T
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_xray_matrix_matches_stacked_angle_blocks():
    # the operator assembled in place equals scipy's vstack of the
    # one-angle operators, entry for entry in canonical CSR form
    from scipy import sparse
    ax = (np.linspace(-0.8, 0.8, 17), np.linspace(-0.6, 0.6, 13))
    offsets = np.linspace(-0.8, 0.8, 15)
    angles = np.linspace(0, np.pi, 24, endpoint=False) + 0.01
    A = _xray_matrix(Sinogram(offsets, angles,
                              np.zeros((15, angles.size))), ax)
    want = sparse.vstack(
        [_xray_matrix(Sinogram(offsets, [a], np.zeros((15, 1))), ax)
         for a in angles], format="csr")
    assert A.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(want, name))


def _dyadic_axis(n, k, start):
    return start / 16 + 2.0 ** -k * np.arange(n)


@settings(deadline=None, max_examples=60)
@given(n=st.tuples(st.integers(2, 24), st.integers(2, 24)),
       k=st.tuples(st.integers(2, 5), st.integers(0, 1)),
       start=st.tuples(*[st.integers(-40, 4)] * 3),
       noff=st.integers(1, 19), koff=st.integers(2, 5),
       edge=st.lists(st.sampled_from([0.0, np.pi / 2]), max_size=2),
       tilt=st.lists(st.floats(0.0, 3.14), max_size=3),
       group=st.sampled_from([1, 2, 5]))
def test_xray_matrix_matches_coo_oracle(n, k, start, noff, koff, edge, tilt,
                                        group):
    # dyadic spacings and starts put samples exactly on grid lines at
    # angles 0 and pi/2, so the pixel box's edge lines are hit; the two
    # axes differ in size and by up to 2x in spacing.  Only the order in
    # which duplicate samples are summed differs from scipy's conversion:
    # at most 4 ulps in a scan of 3,000 random grids.  Row groups of
    # `group` offsets give the same bits as one block per angle.
    ax = (_dyadic_axis(n[0], k[0], start[0]),
          _dyadic_axis(n[1], k[0] + k[1], start[1]))
    angles = np.array(edge + tilt) if edge + tilt else np.zeros(1)
    sino = Sinogram(_dyadic_axis(noff, koff, start[2]), angles,
                    np.zeros((noff, angles.size)))
    got, want = _xray_matrix(sino, ax), xray_matrix_coo(sino, ax)
    assert got.has_canonical_format
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.all(np.abs(got.data - want.data)
                  <= 8 * np.spacing(np.abs(want.data)))
    with mock.patch("nullform.raytransform._BLOCK_BINS",
                    group * n[0] * n[1]):
        split = _xray_matrix(sino, ax)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(split, name), getattr(got, name))


def test_xray_matrix_one_angle_memory():
    # one angle at 161 offsets x 161^2 pixels: 4.2M (offset, pixel) bins,
    # a 33 MB block in one piece (tracemalloc peak 49 MB) and 12.4 MB
    # through scipy's COO conversion; in row groups of at most
    # _BLOCK_BINS bins it peaks at 6.4 MB
    x = np.linspace(-0.8, 0.8, 161)
    sino = Sinogram(x, [0.3], np.zeros((161, 1)))
    tracemalloc.start()
    try:
        _xray_matrix(sino, (x, x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_sweep_frame_is_the_sinogram_convention():
    # omega = (cos a, sin a) and omega-perp = (-sin a, cos a), bit for bit
    for a in np.linspace(0.0, np.pi, 7):
        om, perp = sweep_frame(a)
        assert np.array_equal(om, [np.cos(a), np.sin(a)])
        assert np.array_equal(perp, [-np.sin(a), np.cos(a)])


def _sweep(n, lo, drop):
    """n uniform angles over [lo, lo + pi) less those that `drop` marks."""
    angles = lo + np.linspace(0.0, np.pi, n, endpoint=False)
    return angles[~np.resize(np.asarray(drop, bool), n)]


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 400), lo=st.sampled_from([0.0, 0.3]) | st.floats(
    0.0, np.pi), drop=st.lists(st.booleans(), min_size=1, max_size=7))
def test_sweep_frames_match_one_angle_frames(n, lo, drop):
    # uniform (drop all False, lo 0), seed-rotated and gapped sweeps: the
    # vectorised frames are the one-angle frames and the scalar cos/sin,
    # bit for bit
    angles = _sweep(n, lo, drop)
    frames = sweep_frames(angles)
    assert frames.shape == (angles.size, 2, 2)
    for k, a in enumerate(angles):
        c, s = np.cos(float(a)), np.sin(float(a))
        assert np.array_equal(frames[k], sweep_frame(a))
        assert np.array_equal(frames[k], [[c, s], [-s, c]])


@settings(deadline=None, max_examples=40)
@example(noff=81, nang=FBP_MIN_ANGLES + 7, lo=0.0, drop=[False], n1=190,
         n2=181, reach=1.0, block=1 << 15, seed=0,
         path=None)  # one angle a block
@example(noff=160, nang=FBP_MIN_ANGLES, lo=0.2, drop=[False, True], n1=9,
         n2=12, reach=8.0, block=512, seed=1, path=None)  # corners clamped
@example(noff=161, nang=FBP_MIN_ANGLES + 1, lo=0.0, drop=[False], n1=40,
         n2=40, reach=1.0, block=1 << 15, seed=2,
         path=None)  # 20-angle blocks of 1024 padded samples, one a call
@example(noff=5, nang=FBP_MIN_ANGLES + 7, lo=0.0, drop=[False], n1=16,
         n2=16, reach=1.0, block=2000, seed=3,
         path=None)  # 7-angle blocks, 2 a call; the last call has 7 + 6
@example(noff=40, nang=FBP_MIN_ANGLES, lo=0.0, drop=[False, False, True],
         n1=7, n2=30, reach=1.0, block=37, seed=4, path="exact")
@example(noff=7, nang=FBP_MIN_ANGLES, lo=0.3, drop=[False], n1=3, n2=2,
         reach=1.0, block=1 << 15, seed=5, path="beyond")
@given(noff=st.integers(5, 161), nang=st.integers(FBP_MIN_ANGLES, 181),
       lo=st.floats(0.0, np.pi), drop=st.lists(st.booleans(), min_size=1,
                                                max_size=7),
       n1=st.integers(2, 40), n2=st.integers(2, 40),
       reach=st.floats(0.2, 8.0),
       block=st.sampled_from([1, 37, 512, 2000, 1 << 15]),
       seed=st.integers(0, 2**32 - 1),
       path=st.sampled_from([None, None, "exact", "beyond"]))
def test_fbp_matches_per_angle_oracle(noff, nang, lo, drop, n1, n2, reach,
                                      block, seed, path):
    # blocks of whole angles, with angle counts the block does not divide,
    # filter calls of one or several blocks with a partial last call,
    # gapped sweeps (uneven angle weights), rectangular pixel grids and
    # pixels beyond the padded offsets (from reach ~4 on at most offset
    # counts), which read the end value.  path "exact": offsets a unit
    # apart and centred in the padding, an x1 axis too small to move any
    # offset and an x2 axis whose ends, at angle 0, read exactly padded
    # offsets 0 and npad - 1, so no read needs the clamp.  path "beyond":
    # a box wider than the padded range at every angle, so the clamp runs
    angles = _sweep(nang, lo, [False] + list(drop))  # keeps the first
    offsets = np.linspace(-0.8, 0.8, noff)
    reach = 12.0 if path == "beyond" else reach
    axes = (reach * np.linspace(-0.8, 0.8, n1),
            reach * np.linspace(-0.7, 0.9, n2))
    if path == "exact":
        noff += noff % 2  # even, so the padding is symmetric
        npad = 1 << int(np.ceil(np.log2(4 * noff)))
        angles = _sweep(nang, 0.0, [False] + list(drop))
        offsets = np.arange(noff) - (noff - 1) / 2
        axes = (1e-20 * np.linspace(-1, 1, n1),
                np.linspace(-(npad - 1) / 2, (npad - 1) / 2, n2))
    rng = np.random.default_rng(seed)
    sino = Sinogram(offsets, angles, rng.standard_normal((noff,
                                                          angles.size)))
    ds = offsets[1] - offsets[0]
    want = fbp_per_angle(sino, axes, ds)
    with mock.patch("nullform.raytransform._FBP_BLOCK", block), \
            mock.patch.object(np, "clip", wraps=np.clip) as clip:
        got = _fbp(sino, axes, ds)
    if path is not None:
        assert clip.called == (path == "beyond")
    assert got.shape == (n1, n2)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_fbp_memory():
    # 81 offsets x 720 angles on 81^2 pixels: one block of all angles
    # would hold (angle, pixel) arrays of >= 38 MB each; blocks of at
    # most _FBP_BLOCK pairs keep the tracemalloc peak near 2 MB
    x = np.linspace(-0.8, 0.8, 81)
    angles = np.linspace(0.0, np.pi, 720, endpoint=False)
    sino = Sinogram(x, angles, np.ones((81, 720)))
    tracemalloc.start()
    try:
        _fbp(sino, (x, x), x[1] - x[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_xray_matrix_keeps_edge_rays():
    # on 21 points over [-1, 1], (1 - x0) / d rounds to just above 20, so
    # the rays along the last grid lines sit a hair outside the pixel box;
    # they must still see the whole unit image, like the interior ray
    x = np.linspace(-1.0, 1.0, 21)
    sino = Sinogram(np.array([-1.0, 0.0, 1.0]), np.array([0.0, np.pi / 2]),
                    np.zeros((3, 2)))
    got = _xray_matrix(sino, (x, x)) @ np.ones(x.size**2)
    np.testing.assert_allclose(got, 2.0, rtol=1e-12)


@pytest.mark.parametrize("reg", [np.nan, np.inf, -1e-8])
def test_invert_rejects_bad_reg(reg):
    sino = Sinogram(np.linspace(-1, 1, 9),
                    np.linspace(0, np.pi, 4, endpoint=False),
                    np.ones((9, 4)))
    ax = np.linspace(-1, 1, 9)
    with pytest.raises(ConfigError, match="reg"):
        invert_xray_2d(sino, (ax, ax), method="rls", reg=reg)
