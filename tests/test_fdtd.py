"""Leapfrog/RK4 solvers, weighted norms, energy check, Picard iteration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullform.fdtd as fdtd
from nullform.constants import FDTD_CONE_MARGIN
from nullform.errors import BlowUpError, CFLError, ConfigError
from nullform.fdtd import (
    IterationTrace, Trajectory, WeightedNormSpec, check_energy_estimate,
    leapfrog_first_step, leapfrog_levels, picard_iterate, sobolev_norm,
    solve_semilinear, spacetime_norm, weighted_norm,
)
from nullform.grids import diff1, grad1_4, laplacian4
from nullform.potential import Potential, get_potential
from nullform.profiles import bump
from oracles import WaveState, step_linear_wave


def _bump_arrays(x, prof, shift=0.0):
    return prof.f(x - shift), prof.df(x - shift)


def test_wavestate_cfl_guard():
    u = np.zeros((8, 8))
    with pytest.raises(CFLError):
        WaveState(u, u, dt=0.1, dx=(0.1, 0.1), time=0.0)
    WaveState(u, u, dt=0.063, dx=(0.1, 0.1), time=0.0)  # under the limit


def test_zero_data_stays_zero():
    u = np.zeros(101)
    st = WaveState(u, u, dt=0.004, dx=(0.01,), time=0.0)
    for _ in range(20):
        st = step_linear_wave(st)
    assert np.all(st.u == 0.0)


def test_plane_pulse_translation():
    # u(t,x) = b(x - t) solves the 1D wave equation; leapfrog is O(dx^2)
    prof = bump(0.8, 1.0)
    errs = []
    for nx in (200, 400):
        dx = 6.0 / nx
        x = -3.0 + dx * np.arange(nx + 1)
        dt = 0.4 * dx
        nsteps = int(round(1.0 / dt))
        t_end = nsteps * dt
        u0 = prof.f(x + 1.0)
        v0 = -prof.df(x + 1.0)
        st = WaveState(leapfrog_first_step(u0, v0, dt, (dx,)), u0, dt, (dx,), dt)
        for _ in range(nsteps - 1):
            st = step_linear_wave(st)
        errs.append(np.max(np.abs(st.u - prof.f(x - t_end + 1.0))))
    assert errs[0] < 0.05
    assert errs[1] < 0.4 * errs[0]  # ~2nd order


def test_manufactured_source_convergence():
    # u(t,x) = (1 + t^2) b(x); f = u_tt - u_xx = 2 b - (1+t^2) b''
    prof = bump(0.8, 1.0)
    errs = []
    for nx in (200, 400):
        dx = 4.0 / nx
        x = -2.0 + dx * np.arange(nx + 1)
        b, db2 = prof.f(x), prof.d2f(x)
        dt = 0.4 * dx
        nsteps = int(round(0.8 / dt))

        def f_at(t):
            return 2.0 * b - (1 + t**2) * db2

        u0, v0 = b.copy(), np.zeros_like(b)
        st = WaveState(leapfrog_first_step(u0, v0, dt, (dx,), f_at(0.0)),
                       u0, dt, (dx,), dt)
        for k in range(1, nsteps):
            st = step_linear_wave(st, f_at(k * dt))
        # the kernel Picard's forced waves run, bit for bit
        U = leapfrog_levels(u0, v0, dt, (dx,), nsteps,
                            [f_at(k * dt) for k in range(nsteps)])
        assert np.array_equal(U[-1], st.u)
        t_end = nsteps * dt
        errs.append(np.max(np.abs(st.u - (1 + t_end**2) * b)))
    assert errs[1] < 0.35 * errs[0]  # ~2nd order


def test_semilinear_zero_potential_matches_linear_kernel():
    # with q == 0 the nonlinear driver reduces to the bare kernel, bit for bit
    prof = bump(0.5, 1.0)
    nx = 160
    dx = 4.0 / nx
    x = -2.0 + dx * np.arange(nx + 1)
    u0 = prof.f(x)
    v0 = -prof.df(x)
    q0 = get_potential("zero", 1)
    traj = solve_semilinear(q0, u0, v0, (-2.0,), (dx,), 0.0, 0.5,
                            scheme="leapfrog", dt=0.4 * dx)
    nsteps = len(traj.times) - 1
    dt = traj.times[1] - traj.times[0]
    st = WaveState(leapfrog_first_step(u0, v0, dt, (dx,)), u0, dt, (dx,), dt)
    for _ in range(nsteps - 1):
        st = step_linear_wave(st)
    assert np.array_equal(traj.u[-1], st.u)


def test_semilinear_rk4_linear_accuracy():
    # rk4 + 4th-order stencils: faster decay than the 2nd-order kernel
    prof = bump(0.8, 1.0)
    q0 = get_potential("zero", 1)
    errs = []
    for nx in (200, 400):
        dx = 6.0 / nx
        x = -3.0 + dx * np.arange(nx + 1)
        traj = solve_semilinear(q0, prof.f(x + 1.0), -prof.df(x + 1.0),
                                (-3.0,), (dx,), 0.0, 1.0, scheme="rk4")
        errs.append(np.max(np.abs(traj.u[-1] - prof.f(x - traj.times[-1] + 1.0))))
    assert errs[0] < 5e-3
    assert errs[1] < 0.25 * errs[0]


def test_semilinear_nonlinearity_changes_solution():
    prof = bump(0.5, 0.5)
    nx = 240
    dx = 6.0 / nx
    x = -3.0 + dx * np.arange(nx + 1)
    u0, v0 = prof.f(x + 1.2), -prof.df(x + 1.2)
    q0 = get_potential("zero", 1)
    qb = get_potential("radial_bump", 1, amplitude=5.0)
    a = solve_semilinear(q0, u0, v0, (-3.0,), (dx,), 0.0, 1.5, scheme="rk4")
    b = solve_semilinear(qb, u0, v0, (-3.0,), (dx,), 0.0, 1.5, scheme="rk4")
    assert np.max(np.abs(a.u[-1] - b.u[-1])) > 1e-4


class _WholeBox(Potential):
    """`inner` re-declared with a support box that covers any test grid."""

    def __init__(self, inner):
        self.inner = inner
        self.center = inner.center
        self.R = 1e9

    def q(self, t, xs, u):
        return self.inner.q(t, xs, u)


@pytest.mark.parametrize("key, x1_lo, t0, scheme", [
    ("offset_bump", -1.5, 0.0, "rk4"),     # support box off-centre
    ("bump_linear_u", -1.5, 0.0, "rk4"),   # q depends on u
    ("bump_t_xy", -1.5, -0.3, "rk4"),      # q depends on t
    ("radial_bump", 0.2, 0.0, "rk4"),      # box clipped at the x1 edge
])
def test_semilinear_support_window_is_exact(key, x1_lo, t0, scheme):
    # Q evaluated on supp q's box only must match the whole-grid evaluation
    # bit for bit; the zero-potential solve shows Q is not negligible
    prof = bump(0.6, 1.0)
    d = 0.05
    x1 = x1_lo + d * np.arange(61)
    x2 = -1.5 + d * np.arange(61)
    u0 = 0.5 * prof.f(x1[:, None] - 0.3) * prof.f(x2[None, :])
    x0, dx = (x1_lo, -1.5), (d, d)
    n = len(dx)
    v0 = np.zeros_like(u0)
    q = get_potential(key, n)

    def solve(pot):
        return solve_semilinear(pot, u0, v0, x0, dx, t0, t0 + 0.6,
                                scheme=scheme, sample_every=4)

    win, full = solve(q), solve(_WholeBox(q))
    assert np.array_equal(win.u, full.u)
    assert np.array_equal(win.ut, full.ut)
    free = solve(get_potential("zero", n))
    assert np.max(np.abs(win.u[-1] - free.u[-1])) > 1e-3


class _PerStage(Potential):
    """`inner` with the same support box but no declared t or u
    dependence, so solve_semilinear evaluates it at every stage."""

    def __init__(self, inner):
        self.inner = inner
        self.center = inner.center
        self.R = inner.R

    def q(self, t, xs, u):
        return self.inner.q(t, xs, u)


@pytest.mark.parametrize("scheme", ["rk4"])
def test_semilinear_static_q_evaluated_once(scheme, monkeypatch):
    # radial_bump depends on neither t nor u: q on its box is computed
    # once and sliced per step window, and every sampled step matches
    # the per-stage evaluation bit for bit
    prof = bump(0.6, 1.0)
    d = 0.05
    x1 = -1.5 + d * np.arange(61)
    x2 = -1.2 + d * np.arange(49)
    u0 = 0.5 * prof.f(x1[:, None] - 0.3) * prof.f(x2[None, :])
    v0 = -0.5 * prof.df(x1[:, None] - 0.3) * prof.f(x2[None, :])
    q = get_potential("radial_bump", 2)
    assert q.time_radius is None and q.u_degree == 0
    # a region: the step window shrinks across supp q's box
    region = (slice(28, 32), slice(20, 26))

    def solve(pot):
        return solve_semilinear(pot, u0, v0, (-1.5, -1.2), (d, d), 0.0,
                                1.2, scheme=scheme, region=region)

    calls = []
    inner_q = q.q
    monkeypatch.setattr(q, "q", lambda *a: calls.append(a) or inner_q(*a))
    static = solve(q)
    assert len(calls) == 1
    calls.clear()
    per_stage = solve(_PerStage(q))
    assert len(calls) >= len(per_stage.times) - 1  # at least once a step
    assert np.array_equal(static.u, per_stage.u)
    assert np.array_equal(static.ut, per_stage.ut)
    free = solve(get_potential("zero", 2))
    assert np.max(np.abs(static.u[-1] - free.u[-1])) > 1e-3


@pytest.mark.parametrize("name", ["u0", "v0"])
def test_semilinear_rejects_nonfinite_data(name):
    data = {"u0": np.zeros(41), "v0": np.zeros(41)}
    data[name][20] = np.nan
    with pytest.raises(ConfigError, match=name):
        solve_semilinear(get_potential("zero", 1), data["u0"], data["v0"],
                         (-1.0,), (0.05,), 0.0, 0.1)


@pytest.mark.parametrize("scheme", ["rk4", "leapfrog"])
def test_semilinear_blowup_guard(scheme):
    # rk4: standing data (v0 = 0) is no null solution: Q = -q u_x^2
    # overflows within a few steps.  leapfrog (q = 0): data at the float
    # limit overflow the first Laplacian.  The field turns NaN, which must
    # not pass
    dx = 0.02
    x = -1.5 + dx * np.arange(151)
    if scheme == "rk4":
        q = get_potential("radial_bump", 1, amplitude=1e300)
        u0 = bump(0.5, 1.0).f(x)
    else:
        q = get_potential("zero", 1)
        u0 = np.where(np.abs(x) < 0.3, 1e308, 0.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(BlowUpError):
        solve_semilinear(q, u0, np.zeros_like(x), (x[0],), (dx,),
                         0.0, 0.5, scheme=scheme)


def test_leapfrog_rejects_nonzero_potential():
    # the leapfrog scheme is the linear kernel: a potential needs rk4
    x = -1.5 + 0.02 * np.arange(151)
    q = get_potential("radial_bump", 1)
    with pytest.raises(ConfigError, match="radial_bump.*rk4"):
        solve_semilinear(q, np.zeros_like(x), np.zeros_like(x), (x[0],),
                         (0.02,), 0.0, 0.5, scheme="leapfrog")


def _rk4_whole_grid(q, u0, v0, x0, dx, t0, t_end):
    """Reference rk4 loop whose state always spans the whole grid; Q is
    evaluated on supp q's box plus a 2-cell halo, as solve_semilinear
    does.  Returns the final (u, v)."""
    win, xw = [], []
    for j, (o, d, m) in enumerate(zip(x0, dx, u0.shape)):
        x = o + d * np.arange(m)
        inside = np.flatnonzero(np.abs(x - q.center[j]) < q.R)
        s = slice(max(inside[0] - 2, 0), min(inside[-1] + 3, m))
        shape = [1] * len(dx)
        shape[j] = s.stop - s.start
        win.append(s)
        xw.append(x[s].reshape(shape))
    win = tuple(win)

    def rhs(t, u, v):
        dv = laplacian4(u, dx)
        uw = u[win]
        dv[win] -= fdtd.null_form_grid(q.q(t, xw, uw), v[win],
                                       grad1_4(uw, dx))
        return v, dv

    nsteps = int(np.ceil((t_end - t0) / (0.5 * min(dx)) - 1e-12))
    dtv = (t_end - t0) / nsteps
    u, v = u0.copy(), v0.copy()
    for k in range(nsteps):
        t = t0 + k * dtv
        k1u, k1v = rhs(t, u, v)
        k2u, k2v = rhs(t + dtv / 2, u + dtv / 2 * k1u, v + dtv / 2 * k1v)
        k3u, k3v = rhs(t + dtv / 2, u + dtv / 2 * k2u, v + dtv / 2 * k2v)
        k4u, k4v = rhs(t + dtv, u + dtv * k3u, v + dtv * k3v)
        u = u + dtv / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + dtv / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return u, v


def _cone_problem(n=121, d=0.05):
    """A right-moving pulse, wide across x2, through radial_bump: the
    field is nonzero at every window edge the light cone cuts."""
    prof = bump(0.6, 1.0)
    x = d * (np.arange(n) - (n - 1) // 2)
    across = bump(2.8, 1.0).f(x)[None, :]
    u0 = prof.f(x[:, None] + 1.0) * across
    v0 = -prof.df(x[:, None] + 1.0) * across
    q = get_potential("radial_bump", 2, amplitude=2.0)
    return q, u0, v0, (x[0], x[0]), (d, d)


def test_rk4_without_region_matches_whole_grid_loop():
    q, u0, v0, x0, dx = _cone_problem(n=61, d=0.1)
    traj = solve_semilinear(q, u0, v0, x0, dx, 0.0, 1.2, scheme="rk4",
                            sample_every=10 ** 9)
    u, v = _rk4_whole_grid(q, u0, v0, x0, dx, 0.0, 1.2)
    assert np.array_equal(traj.u[-1], u)
    assert np.array_equal(traj.ut[-1], v)


def test_rk4_region_matches_full_box(monkeypatch):
    q, u0, v0, x0, dx = _cone_problem()
    region = (slice(72, 80), slice(55, 66))
    full = solve_semilinear(q, u0, v0, x0, dx, 0.0, 1.5, scheme="rk4",
                            sample_every=10 ** 9).u[-1][region]
    cells = []

    def counted(u, dx, out=None):
        cells.append(u.size)
        return laplacian4(u, dx, out=out)

    monkeypatch.setattr(fdtd, "laplacian4", counted)
    cone = solve_semilinear(q, u0, v0, x0, dx, 0.0, 1.5, scheme="rk4",
                            sample_every=10 ** 9, region=region).u[-1]
    scale = np.max(np.abs(full))
    assert np.max(np.abs(cone[region] - full)) <= 1e-12 * scale
    # the window shrank: fewer cells updated than the whole grid's
    assert sum(cells) < 0.8 * len(cells) * u0.size
    # and the margin is what keeps the region exact
    monkeypatch.setattr(fdtd, "FDTD_CONE_MARGIN", 0)
    bare = solve_semilinear(q, u0, v0, x0, dx, 0.0, 1.5, scheme="rk4",
                            sample_every=10 ** 9, region=region).u[-1]
    assert np.max(np.abs(bare[region] - full)) > 1e-12 * scale
    assert FDTD_CONE_MARGIN > 0


@pytest.mark.parametrize("name", ["u0", "v0"])
def test_rk4_region_rejects_nonfinite_data(name):
    q, u0, v0, x0, dx = _cone_problem(n=41)
    data = {"u0": u0.copy(), "v0": v0.copy()}
    data[name][20, 20] = np.inf
    with pytest.raises(ConfigError, match=name):
        solve_semilinear(q, data["u0"], data["v0"], x0, dx, 0.0, 0.2,
                         scheme="rk4", region=(slice(18, 22), slice(18, 22)))


def test_rk4_region_blowup_guard():
    # standing data under a huge potential overflows within a few steps
    _, u0, v0, x0, dx = _cone_problem(n=41)
    q = get_potential("radial_bump", 2, amplitude=1e300)
    u0 = np.roll(u0, -20, axis=0)  # pulse centred on supp q
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(BlowUpError):
        solve_semilinear(q, u0, np.zeros_like(v0), x0, dx, 0.0, 0.5,
                         scheme="rk4", region=(slice(18, 22), slice(18, 22)))


@pytest.mark.parametrize("region", [
    (slice(5, 5), slice(0, 4)),        # empty
    (slice(6, 2), slice(0, 4)),        # reversed
    (slice(0, 42), slice(0, 4)),       # past the last cell
    (slice(-3, 2), slice(0, 4)),       # before the first cell
    (slice(0, 4),),                    # one axis missing
    (slice(0, 4, 2), slice(0, 4)),     # strided
    (slice(None, 4), slice(0, 4)),     # open start
])
def test_rk4_rejects_bad_region(region):
    q, u0, v0, x0, dx = _cone_problem(n=41)
    with pytest.raises(ConfigError, match="region"):
        solve_semilinear(q, u0, v0, x0, dx, 0.0, 0.2, scheme="rk4",
                         region=region)


def test_region_needs_rk4():
    q, u0, v0, x0, dx = _cone_problem(n=41)
    with pytest.raises(ConfigError, match="rk4"):
        solve_semilinear(q, u0, v0, x0, dx, 0.0, 0.2,
                         region=(slice(18, 22), slice(18, 22)))


def test_weighted_norm_examples():
    # constant field: ||u||_{1,mu} = mu ||u||_{L2} exactly (derivative = 0)
    nx, dx = 50, 0.1
    u = np.full(nx, 3.0)
    l2 = 3.0 * np.sqrt(nx * dx)
    assert weighted_norm(u, (dx,), 0, 7.0) == pytest.approx(l2)
    assert weighted_norm(u, (dx,), 1, 2.5) == pytest.approx(2.5 * l2, rel=1e-12)
    # linearity in mu for m = 1: a0 mu + a1
    x = dx * np.arange(nx)
    f = np.sin(x)
    n1 = weighted_norm(f, (dx,), 1, 1.0)
    n2 = weighted_norm(f, (dx,), 1, 2.0)
    n3 = weighted_norm(f, (dx,), 1, 3.0)
    assert n3 - n2 == pytest.approx(n2 - n1, rel=1e-12)


def _weighted_norm_one_level(u, dx, m, mu):
    # reference: every D^alpha by repeated diff1 from u itself
    total = 0.0
    for alpha in itertools.product(range(m + 1), repeat=len(dx)):
        if sum(alpha) > m:
            continue
        d = u
        for ax, k in enumerate(alpha):
            for _ in range(k):
                d = diff1(d, dx[ax], ax)
        total += mu ** (m - sum(alpha)) * np.sqrt(np.sum(d**2) * np.prod(dx))
    return total


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 2), m=st.integers(0, 3), mu=st.floats(0.1, 10.0),
       lead=st.lists(st.integers(1, 4), max_size=2),
       space=st.lists(st.integers(6, 14), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_weighted_norm_batched_matches_per_level(n, m, mu, lead, space, seed):
    rng = np.random.default_rng(seed)
    dx = tuple(rng.uniform(0.01, 0.5, n))
    u = rng.standard_normal(tuple(lead) + tuple(space[:n]))
    got = weighted_norm(u, dx, m, mu)
    want = np.array([_weighted_norm_one_level(u[i], dx, m, mu)
                     for i in np.ndindex(*lead)]).reshape(lead)
    if not lead:
        assert isinstance(got, float)
    else:
        assert got.shape == tuple(lead)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_weighted_norm_spec_validation():
    with pytest.raises(ConfigError):
        WeightedNormSpec(m=-1, mu=1.0, lam=1.0)
    with pytest.raises(ConfigError):
        WeightedNormSpec(m=2, mu=0.0, lam=1.0)


def test_spacetime_norm_constant_in_time():
    # N for u(t) = const c: ||c|| sqrt((1 - e^{-2 lam T})/(2 lam)), ut = 0
    nx, dx = 64, 0.05
    c = np.full(nx, 2.0)
    nt, T = 401, 2.0
    times = np.linspace(0.0, T, nt)
    traj = Trajectory(times, np.broadcast_to(c, (nt, nx)).copy(),
                      np.zeros((nt, nx)), (0.0,), (dx,))
    lam = 1.5
    spec = WeightedNormSpec(m=0, mu=1.0, lam=lam)
    expect = 2.0 * np.sqrt(nx * dx) * np.sqrt((1 - np.exp(-2 * lam * T)) / (2 * lam))
    assert spacetime_norm(traj, spec) == pytest.approx(expect, rel=1e-3)


def test_cumulative_trapezoid_matches_scipy():
    from scipy.integrate import cumulative_trapezoid
    rng = np.random.default_rng(3)
    t = np.cumsum(rng.uniform(0.01, 0.1, 57))
    for y in (rng.standard_normal(57), np.zeros(57)):
        want = cumulative_trapezoid(y, t, initial=0.0)
        assert np.array_equal(fdtd._cumulative_trapezoid(y, t), want)


def test_energy_estimate_linear_wave():
    # homogeneous wave solution: empirical constant stays O(1) across lambda
    prof = bump(0.5, 1.0)
    nx = 200
    dx = 6.0 / nx
    x = -3.0 + dx * np.arange(nx + 1)
    q0 = get_potential("zero", 1)
    traj = solve_semilinear(q0, prof.f(x), -prof.df(x), (-3.0,), (dx,),
                            0.0, 1.5, scheme="leapfrog", sample_every=5)
    for lam in (1.0, 2.0, 4.0):
        rep = check_energy_estimate(traj, lam, m=1)
        assert rep.C < 10.0
        assert rep.C >= 1.0 - 1e-12  # LHS(0)/RHS(0) = 1


def _energy_prefix_loop(traj, lam, m, box_u):
    """check_energy_estimate's LHS/RHS as one trapezoid per prefix."""
    t = traj.times - traj.times[0]
    nt = len(t)
    E = (sobolev_norm(traj.ut, traj.dx, m)
         + sobolev_norm(traj.u, traj.dx, m + 1)
         + lam * sobolev_norm(traj.u, traj.dx, m))
    boxn = (np.zeros(nt) if box_u is None
            else sobolev_norm(box_u, traj.dx, m))
    w = np.exp(-2.0 * lam * t)
    lhs = np.empty(nt)
    rhs = np.empty(nt)
    for k in range(nt):
        ie = np.trapezoid((w * E**2)[: k + 1], t[: k + 1]) if k else 0.0
        ib = np.trapezoid((w * boxn**2)[: k + 1], t[: k + 1]) if k else 0.0
        lhs[k] = np.exp(-lam * t[k]) * E[k] + np.sqrt(lam) * np.sqrt(ie)
        rhs[k] = E[0] + np.sqrt(ib) / np.sqrt(lam)
    return lhs, rhs, float(np.max(lhs / rhs))


@pytest.mark.parametrize("with_box", [False, True])
def test_energy_estimate_matches_prefix_loop(with_box):
    prof = bump(0.5, 1.0)
    dx = 0.03
    x = -3.0 + dx * np.arange(201)
    q = get_potential("radial_bump", 1, amplitude=0.5)
    traj = solve_semilinear(q, prof.f(x + 0.8), -prof.df(x + 0.8), (-3.0,),
                            (dx,), 0.0, 1.5, scheme="rk4")
    box_u = None
    if with_box:
        box_u = np.random.default_rng(2).standard_normal(traj.u.shape)
    for lam, m in ((1.0, 0), (4.0, 1)):
        rep = check_energy_estimate(traj, lam, m, box_u)
        lhs, rhs, C = _energy_prefix_loop(traj, lam, m, box_u)
        np.testing.assert_allclose(rep.lhs, lhs, rtol=1e-13)
        np.testing.assert_allclose(rep.rhs, rhs, rtol=1e-13)
        assert rep.C == pytest.approx(C, rel=1e-13)


def _pulse_trajectory(eps, nx=240, t1=1.0):
    """Discrete linear-wave pulse: leapfrog solve with data eps b(x + 1.2).

    Using the solver's own output makes the discrete residual of v pure
    nonlinearity (the leapfrog recurrence is satisfied exactly).
    """
    prof = bump(0.4, 1.0)
    dx = 6.0 / nx
    x = -3.0 + dx * np.arange(nx + 1)
    q0 = get_potential("zero", 1)
    return solve_semilinear(q0, eps * prof.f(x + 1.2), -eps * prof.df(x + 1.2),
                            (-3.0,), (dx,), 0.0, t1, scheme="leapfrog",
                            dt=0.45 * dx)


def test_picard_zero_residual_trivial():
    q0 = get_potential("zero", 1)
    traj = _pulse_trajectory(0.0, nx=80, t1=0.3)
    spec = WeightedNormSpec(m=2, mu=4.0, lam=2.0)
    trace, w = picard_iterate(q0, traj, residual=np.zeros_like(traj.u),
                              spec=spec)
    assert trace.converged and trace.j_stop == 1
    assert np.all(w.u == 0.0)


def test_picard_upgrades_approximate_solution():
    # v solves the linear equation; with a potential switched on it misses
    # the semilinear one by O(eps^2).  Picard contracts onto a discrete
    # exact solution: diffs decay geometrically, limit residual ~ tol.
    q = get_potential("radial_bump", 1, amplitude=2.0)
    traj = _pulse_trajectory(0.05)
    spec = WeightedNormSpec(m=2, mu=4.0, lam=2.0)
    trace, w = picard_iterate(q, traj, spec=spec, tol=1e-10, j_max=12)
    assert trace.converged
    assert all(r < 0.5 for r in trace.ratios)
    assert trace.limit_residual < 1e-7
    # the correction is genuinely nonzero but small relative to v
    assert 0.0 < trace.norms[-1] < 0.2 * spacetime_norm(traj, spec)
