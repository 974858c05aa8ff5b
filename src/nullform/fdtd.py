"""Finite-difference solvers, weighted norms, energy checks, Picard iteration.

Wave operator convention (package-wide): box u = -d_t^2 u + Laplacian u,
so the semilinear equation box u = Q(x,u,grad u) steps as
u_tt = Lap u - Q.

One linear kernel, leapfrog_levels, steps u_tt = Lap_h u + f as
u^{k+1} = 2u^k - u^{k-1} + dt^2 (Lap_h u^k + f^k) with the 2nd-order
3/5-point Laplacian.  It is solve_semilinear's "leapfrog" scheme
(q == 0, dt = 0.45 dx / sqrt(n)) and the forced wave of each Picard
iterate.  The semilinear scheme is "rk4": method-of-lines classical RK4
on (u, v=u_t) with 4th-order spatial stencils, dt = 0.5 dx -- used
where 2nd-order dispersion on the h-carrier would swamp the O(h^2)
quantities being measured.

Potentials are compactly supported: q must vanish wherever some
|x_j - center_j| >= R (its declared `center` and `R`).  The rk4 scheme
relies on this and evaluates the gradient and the null form only on that
box plus a stencil halo; a q that depends on neither t nor u is
evaluated there once per solve.  Given the cells a caller reads at the
final time, the rk4 scheme also updates, Laplacian included, only the
cells of their backward light cone (plus FDTD_CONE_MARGIN cells), so the
grid it advances shrinks as the solve nears t_end.  Its stages run in six
work arrays allocated once per solve and reshaped, contiguous, to each
step's window; they sum k1 + 2k2 + 2k3 + k4 as they go, in the order of
the textbook formula, so a step rounds exactly as that formula does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import (BLOWUP_FACTOR, CFL_LEAPFROG, CFL_LIMIT, CFL_RK4,
                        FDTD_CONE_MARGIN)
from .errors import BlowUpError, CFLError, ConfigError
from .grids import diff1, grad1_2, grad1_4, l2_norm, laplacian2, laplacian4
from .potential import Potential


# ----------------------------------------------------------------------
# linear leapfrog kernel


def leapfrog_first_step(u0, v0, dt, dx, source0=None):
    """Start-up level: u^1 = u^0 + dt v^0 + dt^2/2 (Lap u^0 + f^0)."""
    lap = laplacian2(u0, dx)
    acc = lap if source0 is None else lap + source0
    return u0 + dt * v0 + 0.5 * dt**2 * acc


def leapfrog_levels(u0, v0, dt, dx, nsteps, source=None):
    """Levels u^0..u^nsteps of u_tt = Lap_h u + f from (u0, v0), as one
    array: u^{k+1} = 2u^k - u^{k-1} + dt^2 (Lap_h u^k + f^k) after
    leapfrog_first_step.  f^k = source[k]; f = 0 when source is None."""
    U = np.empty((nsteps + 1,) + np.shape(u0))
    U[0] = u0
    U[1] = leapfrog_first_step(u0, v0, dt, dx,
                               None if source is None else source[0])
    for k in range(1, nsteps):
        acc = laplacian2(U[k], dx)
        if source is not None:
            acc += source[k]
        U[k + 1] = 2.0 * U[k] - U[k - 1] + dt**2 * acc
    return U


# ----------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Fields sampled at time levels: u[k] at times[k], ut[k] = d_t u."""

    times: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    x0: tuple
    dx: tuple


def null_form_grid(qv, ut, grad_u):
    """Q = q(x,u) (ut^2 - |grad' u|^2) on grid arrays, qv = q(x,u) there."""
    g2 = ut * ut
    for g in grad_u:
        g2 = g2 - g * g
    return qv * g2


def _space_coords(shape, x0, dx):
    out = []
    for j, (o, d, m) in enumerate(zip(x0, dx, shape)):
        sl = [1] * len(shape)
        sl[j] = m
        out.append((o + d * np.arange(m)).reshape(sl))
    return tuple(out)


def _support_window(q: Potential, xs, halo=2):
    """Per-axis slices of the box |x_j - center_j| < q.R, widened by `halo`
    stencil cells and clipped to the grid.

    Stencils of half-width <= halo evaluated on the window are exact on
    the box itself.  None when the box holds no grid point (Q == 0).
    """
    win = []
    for c, x in zip(q.center, xs):
        inside = np.flatnonzero(np.abs(x.ravel() - c) < q.R)
        if inside.size == 0:
            return None
        win.append(slice(max(inside[0] - halo, 0),
                         min(inside[-1] + 1 + halo, x.size)))
    return tuple(win)


def _null_form_window(support, w, xs, q_box=None):
    """The part of `support` inside the step window `w`: its slices
    relative to w, the coordinates on it and the values of `q_box` (q on
    the support box, or None) there; None when it is empty."""
    if support is None:
        return None
    lo = [max(a.start, b.start) for a, b in zip(support, w)]
    hi = [min(a.stop, b.stop) for a, b in zip(support, w)]
    if any(a >= b for a, b in zip(lo, hi)):
        return None
    rel = tuple(slice(a - b.start, c - b.start)
                for a, c, b in zip(lo, hi, w))
    xn = tuple(x[(slice(None),) * j + (slice(a, c),)]
               for j, (x, a, c) in enumerate(zip(xs, lo, hi)))
    if q_box is not None:
        q_box = q_box[tuple(slice(a - b.start, c - b.start)
                            for a, c, b in zip(lo, hi, support))]
    return rel, xn, q_box


def _region_bounds(region, shape):
    """(start, stop) per axis of `region`, a tuple of one unit-step slice
    per space axis; ConfigError unless each is a non-empty range inside
    the grid."""
    try:
        idx = [s.indices(m) for s, m in zip(region, shape, strict=True)]
    except (AttributeError, TypeError, ValueError):
        idx = None
    if idx is None or any((s.start, s.stop, 1) != i or i[0] >= i[1]
                          for s, i in zip(region, idx)):
        raise ConfigError(f"solve_semilinear: region {region} is empty, "
                          f"strided or outside the grid {shape}")
    return [i[:2] for i in idx]


def solve_semilinear(q: Potential, u0, v0, x0, dx, t0, t_end,
                     scheme="leapfrog", sample_every=1,
                     dt=None, region=None) -> Trajectory:
    """Explicit solve of box u = Q(x,u,grad u) on [t0, t_end].

    Initial data (u0, v0) at t0; the box must be sized so supports never
    reach the boundary (zero-padding stencils).  The leapfrog scheme
    solves the linear equation only: it is leapfrog_levels with f = 0,
    keeps every level while stepping and returns the sampled ones, with
    centered d_t u (one-sided at t_end, v0 at t0).  Any q but the zero
    potential raises ConfigError there.

    q must vanish wherever some |x_j - q.center_j| >= q.R: the gradient
    and Q are evaluated only on that box (plus a stencil halo), and Q is
    taken as zero elsewhere.  A static q (time_radius None, u_degree 0)
    is evaluated on the box once and sliced to each step's window; any
    other q is evaluated at every stage.  Non-finite u0 or v0 raise
    ConfigError; a solution that leaves BLOWUP_FACTOR * max|u0| or turns
    non-finite raises BlowUpError.

    `region` (rk4 only), a tuple of one unit-step slice per space axis,
    names the cells the caller reads at t_end.  A step from t then
    updates only the window of cells within ceil((t_end - t) / dx_j) +
    FDTD_CONE_MARGIN of the region on each axis, clipped to the grid,
    with zero padding at its edges; the cells outside it keep the value
    of their last update.  Only the region's cells of the last sample
    are then the solution.  Without a region the window is the whole
    grid.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    for name, arr in (("u0", u0), ("v0", v0)):
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"solve_semilinear: {name} is not finite")
    n = len(dx)
    xs = _space_coords(u0.shape, x0, dx)
    support = _support_window(q, xs)
    q_box = None  # q on the support box, when it depends on neither t nor u
    if support is not None and q.time_radius is None and q.u_degree == 0:
        box = _null_form_window(support, support, xs)
        q_box = q.q(t0, box[1], u0[support])
    span = t_end - t0
    if span <= 0:
        raise ConfigError("solve_semilinear: empty time window")
    if scheme == "leapfrog":
        dt_target = dt or CFL_LEAPFROG * min(dx) / np.sqrt(n)
    elif scheme == "rk4":
        dt_target = dt or CFL_RK4 * min(dx)
    else:
        raise ConfigError(f"unknown scheme '{scheme}'")
    if region is None:
        bounds = [(0, m) for m in u0.shape]
    elif scheme == "rk4":
        bounds = _region_bounds(region, u0.shape)
    else:
        raise ConfigError("solve_semilinear: a region needs scheme 'rk4'")
    if scheme == "leapfrog" and q.key != "zero":
        raise ConfigError(f"solve_semilinear: potential '{q.key}' is not "
                          "zero; the leapfrog scheme is linear, use 'rk4'")
    nsteps = max(1, int(np.ceil(span / dt_target - 1e-12)))
    dtv = span / nsteps
    guard = BLOWUP_FACTOR * (np.max(np.abs(u0)) + 1e-30)
    keep = set(range(0, nsteps + 1, sample_every)) | {nsteps}
    if scheme == "rk4":
        times, us, uts = [], [], []
        nf = None  # (slices, coordinates, static q) of the null-form window
        u, v = u0.copy(), v0.copy()
        w = None
        # stage arguments (su, sv), right side dv, k1 + 2k2 + 2k3 + k4 sums
        # (au, av) and a scratch product, each reshaped to the step window
        flat = [np.empty(u0.size) for _ in range(6)]

        def rhs(t, u, v, dv):
            laplacian4(u, dx, out=dv)
            if nf is not None:
                win, xw, qw = nf
                uw = u[win]
                if qw is None:
                    qw = q.q(t, xw, uw)
                dv[win] -= null_form_grid(qw, v[win], grad1_4(uw, dx))

        def stage_args(c, ku, kv):
            # (uw + c ku, vw + c kv), written into (su, sv); ku may be sv
            np.add(uw, np.multiply(c, ku, out=tmp), out=su)
            np.add(vw, np.multiply(c, kv, out=tmp), out=sv)

        for k in range(nsteps + 1):
            t = t0 + k * dtv
            if k in keep:
                times.append(t)
                us.append(u.copy())
                uts.append(v.copy())
            if k == nsteps:
                break
            # the region's backward light cone at t, plus the margin
            reach = [int(np.ceil((t_end - t) / d)) + FDTD_CONE_MARGIN
                     for d in dx]
            step_win = tuple(slice(max(a - r, 0), min(b + r, m))
                             for (a, b), r, m in zip(bounds, reach, u0.shape))
            if step_win != w:
                w = step_win
                nf = _null_form_window(support, w, xs, q_box)
                cells = [sl.stop - sl.start for sl in w]
                su, sv, dv, au, av, tmp = (
                    b[:int(np.prod(cells))].reshape(cells) for b in flat)
            # views: the in-place updates below write the window of u, v
            uw, vw = u[w], v[w]
            rhs(t, uw, vw, dv)                    # k1 = (vw, dv)
            np.copyto(au, vw)
            np.copyto(av, dv)
            stage_args(dtv / 2, vw, dv)
            for c in (dtv / 2, dtv):              # k2, then k3 = (sv, dv)
                rhs(t + dtv / 2, su, sv, dv)
                au += np.multiply(2, sv, out=tmp)
                av += np.multiply(2, dv, out=tmp)
                stage_args(c, sv, dv)
            rhs(t + dtv, su, sv, dv)              # k4 = (sv, dv)
            au += sv
            av += dv
            uw += np.multiply(dtv / 6, au, out=tmp)
            vw += np.multiply(dtv / 6, av, out=tmp)
            if not np.max(np.abs(uw, out=tmp)) <= guard:
                raise BlowUpError(f"blow-up guard tripped at t={t + dtv:.4f}")
        return Trajectory(np.array(times), np.array(us), np.array(uts), x0, dx)

    # leapfrog
    if dtv * np.sqrt(n) / min(dx) > CFL_LIMIT:
        raise CFLError("leapfrog time step violates CFL")
    U = leapfrog_levels(u0, v0, dtv, dx, nsteps)
    for k in range(1, nsteps + 1):
        if not np.max(np.abs(U[k])) <= guard:
            raise BlowUpError(f"blow-up guard tripped at t={t0 + k * dtv:.4f}")
    ut = _centered_ut(U, dtv)
    ut[0] = v0
    idx = sorted(keep)
    return Trajectory(t0 + np.array(idx) * dtv, U[idx], ut[idx], x0, dx)


# ----------------------------------------------------------------------
# weighted norms


@dataclass(frozen=True)
class WeightedNormSpec:
    m: int
    mu: float
    lam: float

    def __post_init__(self):
        if self.m < 0 or self.mu <= 0 or self.lam <= 0:
            raise ConfigError("WeightedNormSpec: need m >= 0, mu > 0, lam > 0")


def _multi_indices(n, m):
    """All spatial multi-indices with |alpha| <= m, lexicographic."""
    out = []
    for total in range(m + 1):
        for alpha in itertools.product(range(total + 1), repeat=n):
            if sum(alpha) == total:
                out.append(alpha)
    return out


def weighted_norm(u, dx, m, mu):
    """||u||_{m,mu} = sum_{|alpha|<=m} mu^(m-|alpha|) ||D^alpha u||_{L2}.

    The last len(dx) axes of u are space; any leading axes index levels
    and one norm per level is returned (a float when there are none).
    D^alpha is one diff1 of its parent D^(alpha - e_j), j the last axis
    alpha differentiates, taken along axis j of the whole array; only
    the previous order's derivatives are kept.
    """
    u = np.asarray(u)
    n = len(dx)
    lead = u.shape[:u.ndim - n]
    vol = float(np.prod(dx))
    total = 0.0
    prev = {}
    for order, alphas in itertools.groupby(_multi_indices(n, m), key=sum):
        cur = {}
        for alpha in alphas:
            if order == 0:
                d = u
            else:
                j = max(ax for ax, k in enumerate(alpha) if k)
                parent = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
                d = diff1(prev[parent], dx[j], len(lead) + j)
            cur[alpha] = d
            s = np.sum(np.abs(d.reshape(lead + (-1,))) ** 2, axis=-1)
            total = total + mu ** (m - order) * np.sqrt(s * vol)
        prev = cur
    return float(total) if not lead else total


def sobolev_norm(u, dx, m):
    """H^m norm in the paper's summed form (weighted_norm with mu = 1)."""
    return weighted_norm(u, dx, m, 1.0)


def spacetime_norm(traj: Trajectory, spec: WeightedNormSpec) -> float:
    """N_{m,mu,lam}(u): exp-weighted L2-in-time of ||u||_{m,mu} plus same
    for d_t u.  Times are measured from the trajectory start."""
    t = traj.times - traj.times[0]
    w = np.exp(-2.0 * spec.lam * t)
    nu = weighted_norm(traj.u, traj.dx, spec.m, spec.mu)
    nut = weighted_norm(traj.ut, traj.dx, spec.m, spec.mu)
    iu = np.sqrt(np.trapezoid(w * nu**2, t))
    iut = np.sqrt(np.trapezoid(w * nut**2, t))
    return float(iu + iut)


# ----------------------------------------------------------------------
# energy estimate check


@dataclass
class EnergyReport:
    C: float
    lam: float
    m: int
    lhs: np.ndarray
    rhs: np.ndarray
    times: np.ndarray


def _cumulative_trapezoid(y, t):
    """Running trapezoid integral of y over t, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1])
                                            / 2.0)))


def check_energy_estimate(traj: Trajectory, lam: float, m: int,
                          box_u: Optional[np.ndarray] = None) -> EnergyReport:
    """Empirical constant of the exp-weighted energy inequality.

    E(t) = ||d_t u||_{H^m} + ||u||_{H^{m+1}} + lam ||u||_{H^m};
    LHS(t) = e^{-lam t} E(t) + sqrt(lam) (int_0^t e^{-2 lam s} E^2 ds)^{1/2};
    RHS(t) = E(0) + lam^{-1/2} (int_0^t e^{-2 lam s} ||box u||_{H^m}^2)^{1/2}.
    Returns C = max_t LHS/RHS.  box_u defaults to zero (homogeneous solve).
    """
    t = traj.times - traj.times[0]
    E = (sobolev_norm(traj.ut, traj.dx, m)
         + sobolev_norm(traj.u, traj.dx, m + 1)
         + lam * sobolev_norm(traj.u, traj.dx, m))
    boxn = 0.0 if box_u is None else sobolev_norm(box_u, traj.dx, m)
    w = np.exp(-2.0 * lam * t)
    ie = _cumulative_trapezoid(w * E**2, t)
    ib = _cumulative_trapezoid(w * boxn**2, t)
    lhs = np.exp(-lam * t) * E + np.sqrt(lam) * np.sqrt(ie)
    rhs = E[0] + np.sqrt(ib) / np.sqrt(lam)
    C = float(np.max(lhs / rhs))
    return EnergyReport(C, lam, m, lhs, rhs, traj.times)


# ----------------------------------------------------------------------
# Picard iteration


@dataclass
class IterationTrace:
    norms: list
    diffs: list
    ratios: list
    converged: bool
    j_stop: int
    limit_residual: float = float("nan")


def _centered_ut(A, dt):
    """Centered d_t along axis 0, one-sided at the ends."""
    out = np.empty_like(A)
    out[1:-1] = (A[2:] - A[:-2]) / (2 * dt)
    out[0] = (A[1] - A[0]) / dt
    out[-1] = (A[-1] - A[-2]) / dt
    return out


def _discrete_box(A, dt, dx):
    """box_h = -(2nd time difference) + Lap_h, leapfrog-consistent."""
    out = laplacian2(A, dx)
    out[1:-1] -= (A[2:] - 2 * A[1:-1] + A[:-2]) / dt**2
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def _nullform_traj(q, times, xs, A, dt, dx):
    """Q(x, A, grad A) with leapfrog-consistent centered differences."""
    t = np.reshape(times, (-1,) + (1,) * len(dx))
    return null_form_grid(q.q(t, xs, A), _centered_ut(A, dt), grad1_2(A, dx))


def picard_iterate(q: Potential, v_traj: Trajectory, spec: WeightedNormSpec,
                   residual=None, tol: float = 1e-10, j_max: int = 12):
    """Fixed-point iteration upgrading v to a discrete exact solution.

    box w_0 = -r;  box w_j = [Q(v+w_{j-1}) - Q(v)] - r,  zero data,
    where r = box_h v - Q_h(v) is the leapfrog-consistent discrete
    residual (supplied or computed here).  Each w_j is leapfrog_levels
    on v's time levels with zero data and f = -(box w_j), the kernel
    that box_h and Q_h are consistent with, so the limit satisfies the
    discrete equation to iteration tolerance.

    Returns (IterationTrace, limit Trajectory).
    """
    times = v_traj.times
    dt = float(times[1] - times[0])
    dx = v_traj.dx
    xs = _space_coords(v_traj.u.shape[1:], v_traj.x0, dx)
    v = v_traj.u
    Qv = _nullform_traj(q, times, xs, v, dt, dx)
    if residual is None:
        residual = _discrete_box(v, dt, dx) - Qv

    def wrap(warr):
        return Trajectory(times, warr, _centered_ut(warr, dt), v_traj.x0, dx)

    zero = np.zeros_like(v[0])

    def forced(f):
        return leapfrog_levels(zero, zero, dt, dx, len(times) - 1, f)

    norms, diffs, ratios = [], [], []
    w_prev = forced(residual)
    norms.append(spacetime_norm(wrap(w_prev), spec))
    converged = False
    j_stop = 0
    w = w_prev
    for j in range(1, j_max + 1):
        Qvw = _nullform_traj(q, times, xs, v + w_prev, dt, dx)
        w = forced(-(Qvw - Qv - residual))
        norms.append(spacetime_norm(wrap(w), spec))
        d = spacetime_norm(wrap(w - w_prev), spec)
        diffs.append(d)
        if len(diffs) >= 2 and diffs[-2] > 0:
            ratios.append(diffs[-1] / diffs[-2])
        j_stop = j
        if d < tol:
            converged = True
            break
        w_prev = w
    # residual of the limit in the discrete equation
    lim = v + w
    rlim = (_discrete_box(lim, dt, dx)
            - _nullform_traj(q, times, xs, lim, dt, dx))
    interior = rlim[2:-2]
    vol = float(np.prod(dx))
    limres = l2_norm(interior, vol * dt) if interior.size else float("nan")
    trace = IterationTrace(norms, diffs, ratios, converged, j_stop, limres)
    return trace, wrap(w)
