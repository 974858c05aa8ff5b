"""Null-vector algebra, profiles, and plane-wave backgrounds."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullform.errors import ConfigError
from nullform.minkowski import LightVector, phase_arg, twin_pairing
from nullform.profiles import (PROFILE_CATALOG, bump, cos4_window, get_profile,
                               ramp, sbump)
from oracles import mdot_vec

ALL_PROFILES = [bump(0.7, 1.3), sbump(0.9, 0.8), cos4_window(1.1, 2.0),
                ramp(1.5, 0.5, 1.0)]

# central-difference steps of the O(delta^2) consistency probes
FD_DELTAS = (1e-3, 5e-4)


def _pt(t, *x):
    """A spacetime point as 0-d coordinate arrays: (t, [x1, ..., xn])."""
    return np.array(t), [np.array(v) for v in x]


def _covector(V):
    """V = (sign, theta) as an (n+1,) array."""
    return np.array([float(V.sign), *V.direction])


def test_minkowski_dot_examples():
    # <x,V>_M = -sign*x0 + theta.x' at single points
    # point on the characteristic plane
    assert phase_arg(*_pt(1.0, 1.0, 0.0), LightVector(1, (1.0, 0.0))) == 0.0
    # origin
    for V in [LightVector(1, (0.0, 1.0)), LightVector(-1, (1.0, 0.0))]:
        assert phase_arg(*_pt(0.0, 0.0, 0.0), V) == 0.0
    # hand evaluation of +x0 + x'.theta
    assert phase_arg(*_pt(2.0, 1.0, 0.0), LightVector(-1, (0.0, 1.0))) == \
        pytest.approx(2.0)
    # the pairing of the point with the covector, for both signs
    x = np.array([0.3, -0.7, 0.4])
    for V in [LightVector(1, (0.6, 0.8)), LightVector(-1, (0.6, 0.8))]:
        assert phase_arg(*_pt(*x), V) == pytest.approx(
            mdot_vec(x, _covector(V)), abs=1e-15)


_unit_components = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@given(n=st.integers(1, 3), sign=st.sampled_from((-1, 1)),
       theta=_unit_components, omega=_unit_components)
def test_twin_pairing_is_the_metric_pairing(n, sign, theta, omega):
    # <Vt,Wt>_M for the carrier's twin Wt = (1, omega); both sides are O(1)
    th, om = np.array(theta[:n]), np.array(omega[:n])
    assume(min(np.linalg.norm(th), np.linalg.norm(om)) > 0.1)
    V = LightVector(sign, tuple(th / np.linalg.norm(th)))
    om = om / np.linalg.norm(om)
    want = mdot_vec(V.twin_array(), [1.0, *om])
    assert abs(twin_pairing(V, om) - want) <= 4 * np.finfo(float).eps


def test_lightvector_invariants():
    V = LightVector(1, (0.6, 0.8))
    # the twin Vt = (-sign, theta)
    assert np.array_equal(V.twin_array(), _covector(V) * [-1.0, 1.0, 1.0])
    # null conditions (exact up to one rounding of |theta|^2)
    assert abs(mdot_vec(_covector(V), _covector(V))) < 1e-15
    assert abs(mdot_vec(V.twin_array(), V.twin_array())) < 1e-15
    # axis-aligned directions are exactly null
    E = LightVector(-1, (0.0, 1.0))
    assert mdot_vec(_covector(E), _covector(E)) == 0.0
    with pytest.raises(ConfigError):
        LightVector(1, (0.5, 0.5))
    with pytest.raises(ConfigError):
        LightVector(2, (1.0, 0.0))


@pytest.mark.parametrize("prof", ALL_PROFILES, ids=lambda p: p.key)
def test_profile_compact_support(prof):
    R = prof.support_radius
    s = np.array([-2 * R, -R, R, 1.0001 * R, 3 * R])
    # the rim inside [-R, R] where the support mask already reads 0
    rim = np.array([np.nextafter(R, 0.0), -R * (1.0 - 1e-14)])
    for x in (s, rim):
        assert np.all(prof.f(x) == 0.0)
        assert np.all(prof.df(x) == 0.0)
        assert np.all(prof.d2f(x) == 0.0)


@pytest.mark.parametrize("prof", ALL_PROFILES, ids=lambda p: p.key)
def test_profile_derivative_consistency(prof):
    # |(f(s+d)-f(s-d))/2d - f'(s)| = O(d^2) on sampled s
    R = prof.support_radius
    s = np.linspace(-0.85 * R, 0.85 * R, 41)
    errs, errs2 = [], []
    for d in FD_DELTAS:
        fd = (prof.f(s + d) - prof.f(s - d)) / (2 * d)
        errs.append(np.max(np.abs(fd - prof.df(s))))
        fd2 = (prof.df(s + d) - prof.df(s - d)) / (2 * d)
        errs2.append(np.max(np.abs(fd2 - prof.d2f(s))))
    # quadratic reduction between deltas 1e-3 and 5e-4 (ratio 4 within slack)
    for e in (errs, errs2):
        if e[0] > 1e-10:
            assert e[1] < 0.45 * e[0]
    scale = max(1.0, np.max(np.abs(prof.d2f(s))))
    assert errs[0] < 1e2 * FD_DELTAS[0] ** 2 * scale


def test_profile_pair_is_f_and_df_bit_for_bit():
    # f_df(s) == (f(s), df(s)) on arrays straddling the support, arrays
    # wholly inside it, 0-d inputs, +-support radius and ramp's +-flat
    assert {p.key.split(":")[0] for p in ALL_PROFILES} == set(PROFILE_CATALOG)
    rng = np.random.default_rng(5)
    for prof in ALL_PROFILES:
        R = prof.support_radius
        edge = [0.0, -0.0, R, -R, np.nextafter(R, 0.0), -np.nextafter(R, 0.0)]
        if prof.key.startswith("ramp"):
            up = np.nextafter(1.5, np.inf)
            edge += [1.5, -1.5, up, -up]
        cases = [rng.uniform(-1.2 * R, 1.2 * R, 300), np.array(edge),
                 rng.uniform(-0.99 * R, 0.99 * R, (6, 7)),
                 rng.uniform(-0.99 * R, 0.99 * R, (4, 9)).T]
        cases += [np.float64(v) for v in edge] + [np.array(0.3 * R), 0.3 * R]
        for s in cases:
            f, df = prof.f_df(s)
            for got, ref in ((f, prof.f(s)), (df, prof.df(s))):
                assert type(got) is type(ref)
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))


def _same_bits(got, ref):
    return (np.shape(got) == np.shape(ref) and got.dtype == ref.dtype
            and got.tobytes() == ref.tobytes())


@settings(deadline=None, max_examples=60)
@given(case=st.sampled_from([(p, None) for p in ALL_PROFILES[:3]]
                            + [(ramp(1.5, 0.5, 1.0), 1.5),
                               (ramp(0.4, 0.3, -2.0), 0.4)]),
       frac=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
       on_flat=st.booleans(), as_row=st.booleans())
def test_profile_fast_paths_give_straddling_bits(case, frac, on_flat, as_row):
    # an array wholly inside the support goes to the evaluator unmasked
    # (and ramp's on its flat window skips the window): each output must
    # have the bits, signbit of +-0 included, of the same values inside an
    # array that also reaches outside the support and into ramp's taper
    prof, flat = case
    R = prof.support_radius
    reach = flat if on_flat and flat is not None else \
        np.nextafter(R * (1.0 - 1e-14), 0.0)
    s = np.array(frac + [0.0, -0.0]) * reach
    if as_row:
        s = s[None, :]
    wide = np.concatenate([s.ravel(), [0.999 * R, -0.999 * R, 1.5 * R]])
    for name in ("f", "df", "f_df", "d2f"):
        got, ref = getattr(prof, name)(s), getattr(prof, name)(wide)
        pairs = zip(got, ref) if name == "f_df" else [(got, ref)]
        for g, r in pairs:
            assert _same_bits(g, r[:s.size].reshape(s.shape))


def test_ramp_flat_window():
    p = ramp(1.5, 0.5, 1.0)
    s = np.linspace(-1.5, 1.5, 101)
    assert np.allclose(p.df(s), 1.0, atol=1e-14)
    assert np.allclose(p.f(s), s, atol=1e-14)


def test_profile_catalog_parser():
    p = get_profile("bump:r=0.3,a=2.0")
    assert p.support_radius == 0.3
    assert p.f(0.0) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        get_profile("nosuch")
    with pytest.raises(ConfigError):
        get_profile("bump:r=0.3,zz=1")


@pytest.mark.parametrize("key", [
    "bump:r=0", "bump:r=-1", "bump:r=inf", "bump:a=nan", "sbump:r=0",
    "sbump:a=inf", "cos4:r=0", "cos4:r=nan", "cos4:a=-inf", "ramp:flat=-1",
    "ramp:flat=nan", "ramp:taper=0", "ramp:taper=-0.5", "ramp:taper=nan",
    "ramp:taper=inf", "ramp:a=nan", "bump:r=abc"])
def test_profile_rejects_bad_parameters(key):
    with pytest.raises(ConfigError):
        get_profile(key)


def test_profile_constructors_validate():
    with pytest.raises(ConfigError, match="radius"):
        bump(0.0)
    with pytest.raises(ConfigError, match="radius"):
        cos4_window(-1.0)
    with pytest.raises(ConfigError, match="taper"):
        ramp(1.5, 0.0)
    with pytest.raises(ConfigError, match="flat"):
        ramp(-1e-300, 0.5)
    with pytest.raises(ConfigError, match="amplitude"):
        sbump(1.0, float("nan"))
    # the boundary values that stay legal
    assert ramp(0.0, 0.5).df(0.0) == 1.0
    assert bump(1e-3, -2.0).f(0.0) == -2.0


def _smooth(t, d):
    t = np.clip(t, 0.0, 1.0)
    return (t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3),
            t**3 * (140.0 - 420.0 * t + 420.0 * t**2 - 140.0 * t**3),
            t**2 * (420.0 - 1680.0 * t + 2100.0 * t**2 - 840.0 * t**3))[d]


def _ramp_joint_window(flat, taper, a, s):
    """Reference: (f, f', f'') with all three windows on every cell."""
    s = np.asarray(s, dtype=float)
    L1 = flat + taper

    def one(s):
        s_abs = np.abs(s)
        tau = (s_abs - flat) / taper
        w = np.where(s_abs <= flat, 1.0, 1.0 - _smooth(tau, 0))
        w1 = np.where(s_abs <= flat, 0.0,
                      -_smooth(tau, 1) * np.sign(s) / taper)
        w2 = np.where(s_abs <= flat, 0.0, -_smooth(tau, 2) / taper**2)
        return a * s * w, a * (w + s * w1), a * (2.0 * w1 + s * w2)

    inside = np.abs(s) < L1 * (1.0 - 1e-14)
    outs = [np.zeros_like(s) for _ in range(3)]
    if np.any(inside):
        for o, v in zip(outs, one(s[inside])):
            o[inside] = v
    return [float(o) if o.ndim == 0 else o for o in outs]


@pytest.mark.parametrize("flat,taper,a", [
    (1.5, 0.5, 1.0), (0.0, 0.3, -2.0), (0.7, 1e-3, 0.5), (2.0, 3.0, -1.0)])
def test_ramp_matches_joint_window(flat, taper, a):
    p = ramp(flat, taper, a)
    L1 = flat + taper
    up = np.nextafter(flat, np.inf)
    edge = np.array([0.0, -0.0, flat, -flat, L1, -L1, up, -up,
                     np.nextafter(flat, -np.inf), np.nextafter(L1, 0.0)])
    rng = np.random.default_rng(3)
    cases = [rng.uniform(-1.2 * L1, 1.2 * L1, 500), edge,
             rng.uniform(-L1, L1, (6, 7)), edge.reshape(2, 5)]
    cases += [np.float64(v) for v in edge] + [0.3]
    for s in cases:
        want = _ramp_joint_window(flat, taper, a, s)
        for got, ref in zip((p.f(s), p.df(s), p.d2f(s)), want):
            assert type(got) is type(ref)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_ramp_flat_window_skips_taper_polynomials(monkeypatch):
    import nullform.profiles as profiles

    def boom(tau):
        raise AssertionError("taper polynomial evaluated on the flat window")

    for name in ("_smoothstep7", "_smoothstep7_d1", "_smoothstep7_d2"):
        monkeypatch.setattr(profiles, name, boom)
    p = ramp(1.5, 0.5, 2.0)
    s = np.array([-1.5, -0.2, -0.0, 0.0, 0.7, 1.5])
    assert np.array_equal(p.f(s), 2.0 * s)
    assert np.all(p.df(s) == 2.0) and np.all(p.d2f(s) == 0.0)
    assert p.df(1.5) == 2.0
    with pytest.raises(AssertionError, match="taper"):
        p.f(1.6)


@pytest.mark.parametrize("prof", ALL_PROFILES[:2], ids=lambda p: p.key)
def test_eval_background(prof):
    # phi_V = phi(<x,V>_M) from phase_arg and the profile evaluators:
    # its gradient is phi'_V Vt (central differences in each coordinate)
    V = LightVector(1, (3 / 5, 4 / 5))
    x = [0.2, -0.1, 0.3]
    s = phase_arg(*_pt(*x), V)
    grad = prof.df(s) * V.twin_array()
    assert np.max(np.abs(grad)) > 0.1
    d = 1e-5
    for m in range(3):
        up, dn = list(x), list(x)
        up[m] += d
        dn[m] -= d
        fd = (prof.f(phase_arg(*_pt(*up), V))
              - prof.f(phase_arg(*_pt(*dn), V))) / (2 * d)
        assert fd == pytest.approx(grad[m], abs=1e-8)
    # null gradient: Minkowski self-pairing vanishes
    assert abs(mdot_vec(grad, grad)) < 1e-15
    # outside support translate
    far = phase_arg(*_pt(50.0, 0.0, 0.0), V)
    assert prof.f(far) == 0.0 and prof.df(far) == 0.0


def test_transport_annihilates_carrier_functions():
    # f(x) = g(<x,W>_M) with W=(-1,omega) satisfies Tf = 0
    W = LightVector(-1, (0.6, 0.8))
    omega = np.array(W.direction)
    g = bump(2.0, 1.0)
    t = np.linspace(-1, 1, 7).reshape(-1, 1, 1)
    x1 = np.linspace(-1, 1, 5).reshape(1, -1, 1)
    x2 = np.linspace(-1, 1, 6).reshape(1, 1, -1)
    s = phase_arg(t, [x1, x2], W)
    dfdt = g.df(s) * 1.0          # d psi/dt = 1
    grads = [g.df(s) * omega[0], g.df(s) * omega[1]]
    out = dfdt - omega[0] * grads[0] - omega[1] * grads[1]  # T = d_t - omega.grad'
    assert np.max(np.abs(out)) < 1e-15


def test_transport_on_time_coordinate():
    # f = x0 - t0 solves T f = 1 with zero inflow.  The source is 1 on the
    # rays that start on the grid and 0 on those that enter through the
    # inflow edge (zeros flow in there), so on every column the solver
    # must march t - t0 or 0 exactly, through the outflow edge included
    from nullform.geoptics import solve_transport
    from nullform.grids import SpacetimeGrid

    nt, nx = 9, 24
    g = SpacetimeGrid(-1.0, 0.05, nt, (0.0,), (0.05,), (nx,))
    for w in (1, -1):
        # column j at level k lies on the ray that starts at column j + k w
        start = np.arange(nx)[None, :] + w * np.arange(nt)[:, None]
        on_grid = (start >= 0) & (start < nx)
        A = solve_transport(on_grid + 0j, np.zeros(g.shape), (float(w),),
                            np.zeros(nx), g)
        want = np.where(on_grid, (g.t - g.t0)[:, None], 0.0)
        assert np.allclose(A, want, rtol=0, atol=1e-14)


def test_background_discrete_dalembertian_converges():
    # discrete box of phi_V -> 0 at second order in spacing
    from nullform.grids import SpacetimeGrid
    from oracles import dalembertian

    prof = bump(1.0, 1.0)
    V = LightVector(1, (1.0,))
    errs = []
    for nx in (256, 512):
        g = SpacetimeGrid(-1.0, 2.0 / nx, nx + 1, (-2.0,), (4.0 / nx,), (2 * nx + 1,))
        T, X = g.coords()
        f = prof.f(phase_arg(T, [X], V))
        box = dalembertian(f, g)
        errs.append(np.max(np.abs(box)))
    # 4th-order stencils: expect at least 2nd-order decay once resolved
    assert errs[1] < errs[0] / 4.0
