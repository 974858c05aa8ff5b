"""Hierarchy build, closed-form leading amplitude, residual measurement."""

import functools
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from nullform import geoptics
from nullform.errors import CFLError, ConfigError, UnresolvedCarrierError
from nullform.geoptics import (
    _NORM_BLOCK, AnsatzSpec, CoeffTable, ResidualReport, _bin_slopes,
    _Frame, _hermite_coeffs, _norms_from_coeffs, _not_a_knot_slopes,
    _RowFields, assemble_uN, a10_points, background_field, build_hierarchy,
    measure_residual_order, ray_exponent, residual_coefficients,
    solve_m0_wave, solve_transport, u_incident,
)
from nullform.grids import SpacetimeGrid
from nullform.minkowski import LightVector
from nullform.potential import (SeparablePotential, get_potential,
                                radial_bump_factor)
from nullform.profiles import bump, get_profile, ramp
from nullform.raytransform import sweep_frame
from nullform.recovery import _sweep_vectors
from oracles import (_series_above, _series_at, _series_parts,
                     pts_a10_points, ray_defects_by_levels,
                     series_per_q_factor, solve_A10_closed_form,
                     transport_by_levels)


V1 = LightVector(-1, (-1.0,))
W1 = LightVector(-1, (1.0,))
PHI = ramp(1.5, 0.5, 1.0)
CHI = bump(0.3, 1.0)


def _spec(N=0, dx=0.04, h_list=(1 / 8, 1 / 16, 1 / 32, 1 / 64)):
    return AnsatzSpec(V1, W1, PHI, CHI, 1.0, 0.5, N, h_list,
                      -2.0, 2.0, 1.5, dx, ((-4.0, 4.0),))


def _potential(key):
    """A catalog potential, or the test-local one quadratic in u."""
    if key == "bump_quadratic_u":
        return SeparablePotential(key, radial_bump_factor(0.5, 1.0), 1,
                                  u_coeffs=(1.0, 0.5, 0.25))
    return get_potential(key, 1)


# radial_bump is static in u; the other two exercise the q1 (and q2)
# Taylor factors of the residual series
U_POTENTIALS = ["bump_linear_u", "bump_quadratic_u"]


# ----------------------------------------------------------------------
# spec validation


def test_spec_validation_errors():
    good = _spec()
    assert good.pairing == pytest.approx(-2.0)
    assert good.pulse_coeff == pytest.approx(0.5 - 0.25j)
    with pytest.raises(ConfigError):   # carrier must be incoming
        AnsatzSpec(V1, LightVector(1, (1.0,)), PHI, CHI, 1.0, 0.5, 0,
                   (0.1,), -2.0, 2.0, 1.5, 0.04, ((-4.0, 4.0),))
    with pytest.raises(ConfigError):   # h_list must decrease
        _spec(h_list=(1 / 16, 1 / 8))
    with pytest.raises(ConfigError):   # N in {0, 1}
        _spec(N=2)
    with pytest.raises(ConfigError):   # time ordering
        AnsatzSpec(V1, W1, PHI, CHI, 1.0, 0.5, 0, (0.1,),
                   -2.0, 1.0, 1.5, 0.04, ((-4.0, 4.0),))
    with pytest.raises(ConfigError):   # V parallel to W: pairing = 0
        AnsatzSpec(LightVector(-1, (1.0,)), W1, PHI, CHI, 1.0, 0.5, 0,
                   (0.1,), -2.0, 2.0, 1.5, 0.04, ((-4.0, 4.0),))


def test_inflow_separation_check():
    q = get_potential("radial_bump", 1)
    _spec().validate_against(q)
    late = AnsatzSpec(V1, W1, PHI, CHI, 1.0, 0.5, 0, (0.1,),
                      -0.7, 2.0, 1.5, 0.04, ((-4.0, 4.0),))
    with pytest.raises(ConfigError):
        late.validate_against(q)  # pulse overlaps supp q at t = T0


# ----------------------------------------------------------------------
# closed-form leading amplitude


def test_ray_exponent_zero_potential():
    q = get_potential("zero", 1)
    xp = np.array([[0.0], [1.0], [-2.0]])
    assert np.all(ray_exponent(q, PHI, V1, W1, 0.5, xp) == 0.0)


def test_ray_exponent_matches_dense_quadrature():
    # oracle: brute-force Simpson along the ray with 20000 nodes
    from scipy.integrate import simpson
    q = get_potential("radial_bump", 1)
    t = 0.8
    for x0 in (-0.3, 0.1, 0.6):
        xp = np.array([[x0]])
        got = ray_exponent(q, PHI, V1, W1, t, xp)[0]
        sig = np.linspace(0.0, 6.0, 20001)
        pts = x0 + sig  # omega = +1
        s = (t - sig) - pts  # <x,V>_M at (t - sig, x0 + sig)
        F = q.q(t - sig, [pts], PHI.f(s)) * PHI.df(s) * (-2.0)
        assert got == pytest.approx(simpson(F, x=sig), abs=1e-8)


def test_a10_zero_potential_is_windowed_pulse():
    q = get_potential("zero", 1)
    xp = np.linspace(-2.0, 2.0, 41)[:, None]
    t = 0.25
    got = a10_points(q, PHI, CHI, V1, W1, 1.0, 0.5, t, xp)
    want = 0.5 * (1.0 - 0.5j) * CHI.f(t + xp[:, 0])
    assert np.allclose(got, want, atol=1e-14)


def test_a10_pre_interaction_equals_inflow():
    # at t = T0 the pulse has not met the potential: e^I = 1
    q = get_potential("radial_bump", 1)
    xp = np.linspace(1.4, 2.6, 25)[:, None]
    got = a10_points(q, PHI, CHI, V1, W1, 1.0, 0.5, -2.0, xp)
    want = 0.5 * (1.0 - 0.5j) * CHI.f(-2.0 + xp[:, 0])
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("key", ["radial_bump", "offset_bump", "bump_t_xy"])
def test_a10_sweep_matches_interleaved_points_bit_for_bit(key):
    # the ansatz sweep's points (offsets x the band centre, Tprime 1.5),
    # a single point and points where chi vanishes (no live line), against
    # the quadrature on interleaved (lines, nodes, 2) points
    q = get_potential(key, 2)
    offsets = np.linspace(-0.8, 0.8, 33)
    for a in np.linspace(0.0, np.pi, 24, endpoint=False):
        om, th = sweep_frame(a)
        V, W = _sweep_vectors((om, th))
        for t, xp in ((1.5, offsets[:, None] * th - 1.5 * om),
                      (1.5, 0.1 * th - 1.5 * om),
                      (0.2, offsets[:, None] * th - 1.5 * om)):
            got = a10_points(q, PHI, CHI, V, W, 1.0, 0.5, t, xp)
            want = pts_a10_points(q, PHI, CHI, V, W, 1.0, 0.5, t, xp)
            assert np.array_equal(got, want)
    assert not np.any(got)  # the last case had no live line


@pytest.mark.parametrize("key,phi", [("radial_bump", bump(2.0)),
                                     ("bump_linear_u", PHI)])
def test_a10_where_the_phase_reaches_the_integrand(key, phi):
    # with phi' sloped on the rays, or q depending on u, <x,V>_M enters F;
    # it is summed term by term, where pts @ theta may go through a fused
    # multiply-add: the two agree to rounding
    q = get_potential(key, 2)
    offsets = np.linspace(-0.8, 0.8, 33)
    for a in (0.3, 1.9):
        om, th = sweep_frame(a)
        V, W = _sweep_vectors((om, th))
        xp = offsets[:, None] * th - 1.5 * om
        got = a10_points(q, phi, CHI, V, W, 1.0, 0.5, 1.5, xp)
        want = pts_a10_points(q, phi, CHI, V, W, 1.0, 0.5, 1.5, xp)
        assert np.max(np.abs(got)) > 0.1
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_a10_one_dimensional_matches_interleaved_points_bit_for_bit():
    # one space axis: <x,V>_M has one term either way
    xp = np.linspace(-1.0, 1.0, 21)[:, None]
    for key in ("radial_bump", "bump_linear_u"):
        q = get_potential(key, 1)
        for phi in (PHI, bump(2.0)):
            got = a10_points(q, phi, CHI, V1, W1, 1.0, 0.5, 0.4, xp)
            want = pts_a10_points(q, phi, CHI, V1, W1, 1.0, 0.5, 0.4, xp)
            assert np.array_equal(got, want)


def _ray_exponent_and_scalar_F_calls(*args, general=False):
    """ray_exponent(*args) and how many integrand calls went through
    scalar_F; general=True takes the scalar_F path on every call."""
    with mock.patch.object(geoptics, "scalar_F",
                           wraps=geoptics.scalar_F) as spy:
        if general:
            with mock.patch.object(geoptics, "_flat_slope",
                                   return_value=None):
                out = ray_exponent(*args)
        else:
            out = ray_exponent(*args)
    return out, spy.call_count


@settings(deadline=None, max_examples=40)
@given(a=st.sampled_from([0.7, 1.0, 2.0]),
       key=st.sampled_from(["radial_bump", "offset_bump"]),
       angle=st.floats(0.0, np.pi), tilt=st.floats(-0.3, 0.3),
       t=st.floats(1.0, 2.0), n=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_reduced_ray_exponent_equals_scalar_F_path_bit_for_bit(
        a, key, angle, tilt, t, n, seed):
    # theta at angle + pi/2 + tilt; each line x' = s theta0 - t omega meets
    # supp q at time tau = -omega.x, so its phases tau + theta.x stay
    # within |omega.c| + |theta.c| + 2R < 1.5, the ramp's flat window.  A
    # last line at offset 2 misses supp q; its phase at sigma = 0 is past
    # the window and must not turn the reduced branch off.  A first line
    # through the centre of supp q keeps the call from being empty
    q = get_potential(key, 2)
    phi = ramp(1.5, 0.5, a)
    om, th0 = sweep_frame(angle)
    th = np.array([np.cos(angle + np.pi / 2 + tilt),
                   np.sin(angle + np.pi / 2 + tilt)])
    V, W = LightVector(-1, tuple(th)), LightVector(-1, tuple(om))
    offs = np.r_[th0 @ q.center,
                 np.random.default_rng(seed).uniform(-0.8, 0.8, n), 2.0]
    xp = offs[:, None] * th0 - t * om
    got, calls = _ray_exponent_and_scalar_F_calls(q, phi, V, W, t, xp)
    want, general = _ray_exponent_and_scalar_F_calls(q, phi, V, W, t, xp,
                                                     general=True)
    assert calls == 0 and general > 0
    assert np.array_equal(got, want)
    assert got[-1] == 0.0


@pytest.mark.parametrize("key,phi,t", [
    ("radial_bump", bump(2.0), 1.5),     # phi' not constant
    ("bump_linear_u", PHI, 1.5),         # q depends on u
    ("bump_t_xy", PHI, 1.5),             # q depends on t
    ("radial_bump", PHI, 2.7)])          # the phases reach the taper
def test_ray_exponent_keeps_scalar_F_path_off_the_reduced_configuration(
        key, phi, t):
    q = get_potential(key, 2)
    om, th = sweep_frame(0.3)
    V, W = _sweep_vectors((om, th))
    xp = np.linspace(-0.3, 0.3, 7)[:, None] * th - 1.5 * om
    got, calls = _ray_exponent_and_scalar_F_calls(q, phi, V, W, t, xp)
    assert calls > 0 and np.all(got != 0.0)


# ----------------------------------------------------------------------
# transport solver


def _ray_grid(nx=201, nt=41, x0=-4.0, t0=-1.0, d=0.04):
    return SpacetimeGrid(t0, d, nt, (x0,), (d,), (nx,))


def test_transport_rigid_translation():
    grid = _ray_grid()
    x = grid.axis(0)
    inflow = bump(0.5, 1.0).f(x + 2.0).astype(complex)
    A = solve_transport(0.0, np.zeros(grid.shape), 1.0, inflow, grid)
    k = grid.nt - 1
    # omega = +1: rays move toward -x, one cell per level
    want = np.zeros_like(inflow)
    want[:-k] = inflow[k:]
    assert np.allclose(A[k], want, atol=1e-14)


@pytest.mark.parametrize("nt", [2, 3, 4, 5, 6, 9, 40])
def test_transport_matches_level_by_level_march(nt):
    # the whole-trajectory shifts and midpoints give the bits of the march
    # that shifts every level on its own: both edges, tiny grids, 1-D and
    # 2-D grids, array, scalar and zero sources
    rng = np.random.default_rng(nt)
    d = 0.05
    for nx in (5, 8, 24):
        for n, ax in ((1, 0), (2, 0), (2, 1)):
            nxs = (nx, 7)[:n] if ax == 0 else (6, nx)
            grid = SpacetimeGrid(-0.3, d, nt, (-1.0,) * n, (d,) * n, nxs)
            F = rng.normal(size=grid.shape)
            inflow = rng.normal(size=nxs) + 1j * rng.normal(size=nxs)
            for w in (1.0, -1.0):
                omega = np.eye(n)[ax] * w
                for S in (rng.normal(size=grid.shape)
                          + 1j * rng.normal(size=grid.shape),
                          0.3 - 0.2j, 0.0):
                    got = solve_transport(S, F, omega, inflow, grid)
                    want = transport_by_levels(S, F, omega, inflow, grid)
                    assert np.array_equal(got, want), (nx, n, ax, w)


def test_transport_constant_coefficient_growth():
    grid = _ray_grid()
    x = grid.axis(0)
    c = 0.5
    inflow = bump(0.5, 1.0).f(x + 2.0).astype(complex)
    A = solve_transport(0.0, np.full(grid.shape, c), 1.0, inflow, grid)
    k = grid.nt - 1
    want = np.zeros_like(inflow)
    want[:-k] = inflow[k:] * np.exp(c * k * grid.dt)
    assert np.allclose(A[k], want, atol=1e-8)


def test_transport_duhamel_source():
    # F = 0, source g(t): along each full ray A(t) = int_{t0}^t g
    grid = _ray_grid()
    tcol = grid.t[:, None]
    S = (np.cos(tcol) + 0j) * np.ones((1, grid.nx[0]))
    A = solve_transport(S, np.zeros(grid.shape), 1.0, np.zeros(grid.nx[0]),
                        grid)
    k = grid.nt - 1
    want = np.sin(grid.t[k]) - np.sin(grid.t0)
    # columns whose ray stayed inside the domain since level 0
    assert np.allclose(A[k, : grid.nx[0] - grid.nt], want, atol=1e-7)


# ----------------------------------------------------------------------
# bin-0 wave solver


def test_m0_wave_zero_source():
    grid = _ray_grid(nx=101, nt=21)
    A = solve_m0_wave((0.0, 0.0), np.zeros(grid.shape), grid)
    assert np.all(A == 0.0)


def test_m0_wave_substep_cfl_guard():
    # two sub-steps of dt = 2 dx still step at dx, past the CFL bound
    d = 0.04
    grid = SpacetimeGrid(-1.0, 2 * d, 11, (-1.0,), (d,), (51,))
    with pytest.raises(CFLError):
        solve_m0_wave((0.0, 0.0), np.zeros(grid.shape), grid)


def test_m0_wave_manufactured_convergence():
    # A = (t - t0)^2 g(x), c_t = 1:  S = 2g - (t-t0)^2 g'' - 2(t-t0) g
    prof = bump(1.0, 1.0)
    errs = []
    for d in (0.04, 0.02):
        nx = int(round(8.0 / d)) + 1
        nt = int(round(1.2 / d)) + 1
        grid = SpacetimeGrid(0.0, d, nt, (-4.0,), (d,), (nx,))
        x = grid.axis(0)
        tc = grid.t[:, None]
        g, g2 = prof.f(x)[None, :], prof.d2f(x)[None, :]
        S = 2.0 * g - tc**2 * g2 - 2.0 * tc * g
        A = solve_m0_wave((np.ones(grid.shape), 0.0), S, grid)
        errs.append(np.max(np.abs(A[-1] - grid.t[-1] ** 2 * g[0])))
    assert errs[0] < 5e-3
    assert errs[1] < 0.5 * errs[0]  # ~2nd order


# ----------------------------------------------------------------------
# hierarchy build


def test_build_zero_potential_table():
    spec = _spec(N=0)
    q = get_potential("zero", 1)
    tb = build_hierarchy(spec, q)
    assert set(tb.rows) == {(1, 0), (-1, 0), (0, 0)}
    Tg, Xg = tb.grid.coords()
    want = spec.pulse_coeff * CHI.f(Tg + Xg)
    assert np.max(np.abs(tb.row(1, 0) - want)) < 1e-12
    assert np.max(np.abs(tb.row(0, 0))) < 1e-10


def test_build_leading_row_matches_closed_form():
    spec = _spec(N=0, dx=0.02)
    q = get_potential("radial_bump", 1)
    tb = build_hierarchy(spec, q)
    exact = solve_A10_closed_form(q, PHI, CHI, V1, W1, 1.0, 0.5, tb.grid)
    assert np.max(np.abs(tb.row(1, 0) - exact)) < 2e-5


def test_build_phase_preserved_and_nonvanishing():
    # real potential: e^I > 0, so arg A_{1,0} = arg(pulse coeff) on supp chi
    spec = _spec(N=0)
    q = get_potential("radial_bump", 1)
    tb = build_hierarchy(spec, q)
    A = tb.row(1, 0)
    Tg, Xg = tb.grid.coords()
    on = np.broadcast_to(np.abs(CHI.f(Tg + Xg)), tb.grid.shape) > 1e-10
    assert np.min(np.abs(A[on])) > 0.0
    args = np.angle(A[on])
    assert np.max(np.abs(args - np.angle(spec.pulse_coeff))) < 1e-10


def test_build_conjugate_symmetry():
    spec = _spec(N=1)
    q = get_potential("radial_bump", 1)
    tb = build_hierarchy(spec, q)
    assert tb.conjugate_symmetry_defect() == 0.0


def test_build_first_correction_rows():
    spec = _spec(N=1)
    q = get_potential("radial_bump", 1)
    tb = build_hierarchy(spec, q)
    assert set(tb.rows) == {(1, 0), (-1, 0), (0, 0), (1, 1), (-1, 1),
                            (2, 1), (-2, 1), (0, 1)}
    assert np.max(np.abs(tb.row(2, 1))) > 1e-4  # genuinely excited


# ----------------------------------------------------------------------
# assembly


def test_assemble_zero_potential_matches_exact_wave():
    spec = _spec(N=0)
    q = get_potential("zero", 1)
    tb = build_hierarchy(spec, q)
    h = 1 / 16
    uN = assemble_uN(tb, h)
    Tg, Xg = tb.grid.coords()
    exact = u_incident(spec, h, Tg, [Xg])
    assert np.max(np.abs(uN - np.broadcast_to(exact, tb.grid.shape))) < 1e-9


def test_assemble_empty_rows_gives_background():
    spec = _spec(N=0)
    grid = spec.make_grid()
    tb = CoeffTable(grid, {}, V1, W1, PHI, 1.0, 0.5, 0)
    u = assemble_uN(tb, 0.1)
    Tg, Xg = grid.coords()
    assert np.allclose(u, background_field(spec, Tg, [Xg]), atol=1e-14)


def test_assemble_rejects_bad_h():
    spec = _spec(N=0)
    tb = CoeffTable(spec.make_grid(), {}, V1, W1, PHI, 1.0, 0.5, 0)
    with pytest.raises(ConfigError):
        assemble_uN(tb, 0.0)


# ----------------------------------------------------------------------
# table serialization


def test_coefftable_roundtrip(tmp_path):
    spec = _spec(N=0)
    q = get_potential("radial_bump", 1)
    tb = build_hierarchy(spec, q)
    path = tmp_path / "table.nfb"
    tb.save(path)
    back = CoeffTable.load(path)
    assert back.grid == tb.grid
    assert set(back.rows) == set(tb.rows)
    for k in tb.rows:
        assert np.array_equal(back.rows[k], tb.rows[k])
    assert back.N == tb.N and back.W == tb.W
    x = np.linspace(-2, 2, 9)
    assert np.allclose(back.phi.f(x), tb.phi.f(x))


# ----------------------------------------------------------------------
# residual measurement


def test_residual_report_csv():
    rep = ResidualReport((0.5, 0.25), (1.0, 0.5), (2.0, 1.0), 1.0,
                         (0.01, 0.01), (0, 1), 0)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "h,l2,linf"
    assert lines[1].split(",")[0] == "0.5"
    assert len(lines) == 3


def test_residual_order_leading(tmp_path=None):
    spec = _spec(N=0, dx=0.04)
    q = get_potential("radial_bump", 1)
    rep = measure_residual_order(spec, q)
    assert rep.passed  # slope >= 0.75
    assert len(rep.used) >= 2
    # residual decays monotonically across the sweep
    assert all(a > b for a, b in zip(rep.l2, rep.l2[1:]))


@pytest.mark.parametrize("key", U_POTENTIALS)
def test_residual_order_u_dependent(key):
    rep = measure_residual_order(_spec(N=0, dx=0.04), _potential(key))
    assert rep.passed  # slope >= 0.75
    assert len(rep.used) >= 2


@pytest.mark.parametrize("N", [0, 1])
@pytest.mark.parametrize("key", ["radial_bump"] + U_POTENTIALS)
def test_series_matches_eager_oracle(monkeypatch, key, N):
    # _series against the eager part lists it replaced, bit for bit: each
    # one-key request of build_hierarchy, then residual_coefficients'
    # order > N request (whose m < 0 rows are conjugated fields)
    spec, q = _spec(N=N, dx=0.08), _potential(key)
    calls = []
    series = geoptics._series

    def spy(cache, fr, want):
        out = series(cache, fr, want)
        calls.append((dict(cache), fr, want, out))
        return out

    monkeypatch.setattr(geoptics, "_series", spy)
    table = build_hierarchy(spec, q)
    shape = table.grid.shape
    assert len(calls) == (2 if N == 0 else 5)
    for cache, fr, want, out in calls:
        parts = _series_parts(cache, fr)
        (key_read,) = out           # the one key build_hierarchy read
        assert [k for k in _series_above(parts, -1, shape)
                if want(*k)] in ([], [key_read])
        assert np.array_equal(out[key_read],
                              _series_at(parts, *key_read, shape))

    coeffs, _ = residual_coefficients(spec, q, table)
    w = int(round(W1.direction[0]))
    cache = {key: _RowFields(arr, table.grid, ray_shift=w if key[0] else None)
             for key, arr in table.rows.items()}
    oracle = _series_above(_series_parts(cache, _Frame(spec, q, table.grid)),
                           N, shape)
    assert list(coeffs) == list(oracle)
    assert all(np.array_equal(coeffs[k], oracle[k]) for k in oracle)


@pytest.mark.parametrize("key", U_POTENTIALS)
def test_residual_keeps_t_factors_bit_for_bit(monkeypatch, key):
    # several q-factors: each t-factor is formed once per _series call,
    # with the bits of forming it again for every q-factor it meets
    spec, q = _spec(N=1, dx=0.08), _potential(key)
    table = build_hierarchy(spec, q)
    coeffs, defects = residual_coefficients(spec, q, table)
    monkeypatch.setattr(geoptics, "_series", series_per_q_factor)
    want, want_defects = residual_coefficients(spec, q, table)
    assert list(coeffs) == list(want)
    assert all(np.array_equal(coeffs[k], want[k]) for k in want)
    assert defects == want_defects


@pytest.mark.parametrize("w", [1, -1])
@pytest.mark.parametrize("N", [0, 1])
@pytest.mark.parametrize("key", ["radial_bump"] + U_POTENTIALS)
def test_ray_defects_match_level_by_level_shifts(monkeypatch, key, N, w):
    # the defects residual_coefficients returns, bit for bit, against one
    # shift per time level of each checked row and its transport term;
    # noise on the rows makes them nonzero up to the grid edges, where a
    # ray enters or leaves the grid
    spec = AnsatzSpec(LightVector(-1, (-w,)), LightVector(-1, (w,)), PHI,
                      CHI, 1.0, 0.5, N, (1 / 8, 1 / 16, 1 / 32, 1 / 64),
                      -2.0, 2.0, 1.5, 0.08, ((-4.0, 4.0),))
    q = _potential(key)
    table = build_hierarchy(spec, q)
    rng = np.random.default_rng(5)
    for k, row in table.rows.items():
        table.rows[k] = row + 1e-3 * rng.standard_normal(row.shape)
    seen = []
    series = geoptics._series

    def spy(cache, fr, want):
        seen.append(series(cache, fr, want))
        return seen[-1]

    monkeypatch.setattr(geoptics, "_series", spy)
    _, defects = residual_coefficients(spec, q, table)
    want = ray_defects_by_levels(seen[-1], table, w)
    assert list(defects) == list(want) and len(want) == 1 + 2 * N
    assert defects == want
    assert all(d > 0 for d in defects.values())


@settings(deadline=None, max_examples=60)
@given(n=st.integers(4, 1000), rhs=st.integers(1, 50),
       uniform=st.booleans(), cplx=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_not_a_knot_matches_cubic_spline(n, rhs, uniform, cplx, seed):
    rng = np.random.default_rng(seed)
    x = (np.linspace(-1.0, 2.0, n) if uniform
         else np.cumsum(rng.uniform(0.1, 1.0, n)))
    y = rng.standard_normal((n, rhs))
    if cplx:
        y = y + 1j * rng.standard_normal((n, rhs))
    dx = np.diff(x)
    s = _not_a_knot_slopes(dx, np.diff(y, axis=0) / dx[:, None])
    got = _hermite_coeffs(dx, y, s)
    want = CubicSpline(x, y, axis=0).c
    # c[k, i] (x - x[i])^(3-k) is compared on its interval, against the
    # data's size: a single cubic (n = 4) can have a tiny leading term
    powers = np.arange(3, -1, -1)[:, None, None]
    scale = np.abs(want) + np.max(np.abs(y)) / dx[:, None] ** powers
    assert np.max(np.abs(got - want) / scale) <= 1e-12


def test_not_a_knot_needs_four_points():
    with pytest.raises(ValueError):
        _not_a_knot_slopes(np.ones(2), np.ones(2))


def _norms_per_level(coeffs, table, h, refine, margin=2):
    # reference: one spline per level and bin, one exp per level and bin
    grid = table.grid
    x = grid.axis(0)
    xf = np.linspace(x[0], x[-1], (len(x) - 1) * refine + 1)
    om = table.W.direction[0]
    bins = {}
    for (p, m), arr in coeffs.items():
        bins[m] = bins.get(m, 0) + h**p * arr
    sup_l2 = sup_linf = 0.0
    for k in range(margin, grid.nt - margin):
        psi = grid.t[k] + om * xf
        R = np.zeros_like(xf, dtype=complex)
        for m, g in bins.items():
            R += np.exp(1j * m * psi / h) * CubicSpline(x, g[k])(xf)
        sup_l2 = max(sup_l2, np.sqrt(np.sum(R.real**2) * (xf[1] - xf[0])))
        sup_linf = max(sup_linf, np.max(np.abs(R.real)))
    return sup_l2, sup_linf


@functools.lru_cache(maxsize=None)
def _residual_table(N, mirrored=False):
    # N = 1 has carrier bins up to |m| = 4; the mirrored pair W = (-1, -1),
    # V = (-1, 1) has omega = -1
    spec = _spec(N=N, dx=0.04)
    if mirrored:
        spec = replace(spec, V=W1, W=V1)
    q = get_potential("radial_bump", 1)
    table = build_hierarchy(spec, q)
    coeffs, _ = residual_coefficients(spec, q, table)
    return coeffs, table


@pytest.fixture(scope="module", params=[(0, False), (1, False), (1, True)],
                ids=["0", "1", "1-mirrored"])
def residual_table(request):
    return _residual_table(*request.param)


def test_residual_coefficients_conjugate_symmetric(residual_table):
    # the half-sum over bins m >= 0 in _norms_from_coeffs rests on this
    coeffs, _ = residual_table
    assert any(m > 0 for (_, m) in coeffs)
    for (p, m), arr in coeffs.items():
        scale = max(np.max(np.abs(arr)), 1e-300)
        if m == 0:
            assert np.max(np.abs(arr.imag)) <= 1e-13 * scale
        else:
            mirror = coeffs[(p, -m)]
            assert np.max(np.abs(mirror - np.conj(arr))) <= 1e-13 * scale


@pytest.mark.parametrize("h", [1 / 8, 1 / 32])
def test_norms_from_coeffs_match_per_level_splines(residual_table, h):
    coeffs, table = residual_table
    # the last block of measured levels is a partial one
    assert (table.grid.nt - 4) % _NORM_BLOCK != 0
    slopes = _bin_slopes(coeffs, table.grid)
    # refine = 27 (odd, not a power of two) is the benchmark's value;
    # refine = 1 puts the fine points on the knots
    for refine in (1, 4, 27):
        got = _norms_from_coeffs(coeffs, slopes, table, h, refine=refine)
        want = _norms_per_level(coeffs, table, h, refine=refine)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_norms_from_coeffs_read_the_last_fine_point(residual_table):
    # bin fields largest at x[-1], where the sup norm is then attained
    _, table = residual_table
    T, X = table.grid.coords()
    g = np.broadcast_to((1 + 0.1 * T) * np.exp(4 * (X - X.max())),
                        table.grid.shape)
    coeffs = {(1, 0): g + 0j, (1, 1): (0.5 - 0.3j) * g,
              (1, -1): (0.5 + 0.3j) * g}
    slopes = _bin_slopes(coeffs, table.grid)
    for refine in (4, 27):
        got = _norms_from_coeffs(coeffs, slopes, table, 1 / 8, refine=refine)
        want = _norms_per_level(coeffs, table, 1 / 8, refine=refine)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_norms_from_coeffs_with_only_the_m0_bin(residual_table):
    # no carrier at all: the (level, cell) factor and the basis are real
    coeffs, table = residual_table
    only_m0 = {k: arr for k, arr in coeffs.items() if k[1] == 0}
    assert 0 < len(only_m0) < len(coeffs)
    slopes = _bin_slopes(only_m0, table.grid)
    for refine in (1, 27):
        got = _norms_from_coeffs(only_m0, slopes, table, 1 / 8, refine=refine)
        want = _norms_per_level(only_m0, table, 1 / 8, refine=refine)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_norms_from_coeffs_peak_memory():
    # tracemalloc peak of one call on the N = 1 table (97 measured levels,
    # 201 knots, bins m = 0..4) at refine = 27: 14,102,552 bytes when every
    # bin had its own fine-grid matmul and carrier, 5,687,328 bytes with
    # the carrier factored into level, cell and sub-cell parts
    coeffs, table = _residual_table(1)
    slopes = _bin_slopes(coeffs, table.grid)
    _norms_from_coeffs(coeffs, slopes, table, 1 / 32, refine=27)
    tracemalloc.start()
    try:
        _norms_from_coeffs(coeffs, slopes, table, 1 / 32, refine=27)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14_102_552


def test_residual_needs_polynomial_potential():
    spec = _spec(N=0)
    q = get_potential("radial_bump", 1)
    tb = build_hierarchy(spec, q)
    q.u_degree = 3
    try:
        with pytest.raises(ConfigError):
            residual_coefficients(spec, q, tb)
    finally:
        q.u_degree = 2


def test_unresolved_carrier_guard():
    spec = _spec(N=0, dx=0.04,
                 h_list=(1 / 256, 1 / 512, 1 / 1024, 1 / 2048))
    q = get_potential("radial_bump", 1)
    with pytest.raises(UnresolvedCarrierError):
        measure_residual_order(spec, q)
