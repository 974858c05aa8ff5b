"""Oscillatory-ansatz hierarchy: transport/wave coefficient rows, assembly,
and residual-order measurement.

The approximate solution is

    u_N = phi_V(x) + sum_{p=0..N} h^{1+p} sum_m A_{m,p}(x) e^{i m psi / h},

with carrier phase psi = <x,W>_M = t + omega.x' (W = (-1, omega)) and a
plane-wave background phi_V.  Plugging into box u = Q(x, u, grad u) with
box = -d_t^2 + Lap and matching powers of h and carrier bins m gives

  * bin m != 0, order p:  T A_{m,p} = F A_{m,p} + S_{p,m} / (2 i m),
    with T = d_t - omega.grad' and F = q(x, phi_V) phi' <Vt,Wt>_M;
  * bin 0, order p+1:     box A_{0,p} + 2 q phi' <Vt, grad A_{0,p}>_M
                          = -S_{p+1,0},

where S collects the already-known rows (products of amplitudes, their
gradients, and the u-Taylor expansion of q about phi_V).  The hierarchy is
h-independent: one CoeffTable serves a whole wavelength sweep.

Grids here are 1+1D with dt = dx and omega = +-1, so characteristics pass
through grid points and the transport solves are exact index shifts plus a
4th-order Runge-Kutta update along each ray.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Dict, Tuple

import numpy as np

from .constants import CFL_LIMIT, PPW_MIN
from .errors import CFLError, ConfigError, QuadratureError, \
    UnresolvedCarrierError
from .grids import (SpacetimeGrid, diff1, diff2, grad1_2, l2_norm,
                    laplacian2, shift)
from .minkowski import LightVector, phase_arg, twin_pairing
from .potential import Potential, scalar_F
from .profiles import Profile
from .raytransform import _adaptive_line_integral, _flat_slope, _line_bounds


# ----------------------------------------------------------------------
# ansatz specification


@dataclass(frozen=True)
class AnsatzSpec:
    """Everything needed to build one hierarchy and sweep wavelengths.

    The carrier light vector W must have sign -1 (incoming pulse); the
    pulse plane omega.x' = -t moves in the -omega direction.
    """

    V: LightVector
    W: LightVector
    phi: Profile
    chi: Profile
    amp_cos: float
    amp_sin: float
    N: int
    h_list: tuple
    T0: float
    T: float
    Tprime: float
    dx: float
    xlim: tuple  # ((lo, hi),) per spatial axis

    def __post_init__(self):
        if self.W.sign != -1:
            raise ConfigError("AnsatzSpec: carrier W must have sign -1")
        if self.V.n != self.W.n:
            raise ConfigError("AnsatzSpec: V and W dimensions differ")
        if not (self.T0 < self.Tprime < self.T):
            raise ConfigError("AnsatzSpec: need T0 < Tprime < T")
        hs = tuple(self.h_list)
        if any(h <= 0 for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
            raise ConfigError("AnsatzSpec: h_list must be positive, "
                              "strictly decreasing")
        if self.N not in (0, 1):
            raise ConfigError("AnsatzSpec: truncation order N must be 0 or 1")
        if abs(self.pairing) < 1e-8:
            raise ConfigError("AnsatzSpec: V and W are not transverse "
                              "(<Vt,Wt>_M = 0); choose distinct directions")
        if len(self.xlim) != self.V.n:
            raise ConfigError("AnsatzSpec: xlim rank mismatch")

    @property
    def pairing(self) -> float:
        """<Vt,Wt>_M = sign(V) + theta.omega (the transversality factor)."""
        return twin_pairing(self.V, self.W.direction)

    @property
    def pulse_coeff(self) -> complex:
        """Inflow datum scale: A_{1,0} = 1/2 (A - iB) chi."""
        return 0.5 * (self.amp_cos - 1j * self.amp_sin)

    def validate_against(self, q: Potential):
        """Checks that must hold for a specific potential."""
        if q.n != self.V.n:
            raise ConfigError("AnsatzSpec: potential dimension mismatch")
        # inflow separation: at t = T0 the pulse support (omega.x' in
        # -T0 +- chi radius) must sit strictly ahead of supp q
        om = np.array(self.W.direction)
        proj_q = float(om @ np.array(q.center))
        gap = (-self.T0 - self.chi.support_radius) - (proj_q + q.R)
        if gap < 2 * self.dx:
            raise ConfigError(
                f"AnsatzSpec: pulse at t=T0 within {gap:.3f} of supp q; "
                "need separation >= 2 grid cells")

    def make_grid(self) -> SpacetimeGrid:
        """Ray-aligned 1+1D hierarchy grid (dt = dx)."""
        if self.V.n != 1:
            raise ConfigError("hierarchy grid is 1+1D only")
        if abs(abs(self.W.direction[0]) - 1.0) > 1e-14:
            raise ConfigError("hierarchy grid needs omega = +-1")
        lo, hi = self.xlim[0]
        nx = int(round((hi - lo) / self.dx)) + 1
        nt = int(np.ceil((self.T - self.T0) / self.dx)) + 1
        return SpacetimeGrid(self.T0, self.dx, nt, (lo,), (self.dx,), (nx,))


# ----------------------------------------------------------------------
# closed-form leading amplitude


def _ray_sigma_bounds(q: Potential, t, xp, omega):
    """sigma range where (t - sigma, xp + sigma omega) can meet supp q."""
    lo, hi = _line_bounds(np.array(q.center), q.R, xp, omega)
    lo = np.maximum(lo, 0.0)
    if q.time_radius is not None:
        # q vanishes for |t - sigma| > time support radius
        lo = np.maximum(lo, t - q.time_radius)
        hi = np.minimum(hi, t + q.time_radius)
    hi = np.maximum(hi, lo)
    return lo, hi


def ray_exponent(q: Potential, phi: Profile, V: LightVector,
                 W: LightVector, t, xp) -> np.ndarray:
    """I(t,x') = int_0^inf F(t - sigma, x' + sigma omega) d sigma.

    The adaptive line integral of raytransform over the sigma interval
    where the ray meets supp q.  t is a scalar; xp has shape (npts, n),
    and V and W hold one light vector or one per point.

    Reduced configuration: when q depends on neither t nor u and phi' is
    one constant over the phases <x,V>_M = s0 + sigma <Vt,Wt>_M of every
    line that meets supp q, F is (q(x') phi') <Vt,Wt>_M, evaluated in
    scalar_F's order without the phase, the profile or a LightVector per
    node.  Its node values are scalar_F's wherever phi' equals that
    constant, so the quadrature takes the same steps.
    """
    theta, omega = V.rows(len(xp)), W.rows(len(xp))
    lo, hi = _ray_sigma_bounds(q, t, xp, omega)
    slope = None
    live = hi > lo
    if q.time_radius is None and q.u_degree == 0 and np.any(live):
        pairing = twin_pairing(V, omega.T)
        s0 = (-V.sign * t + np.sum(xp * theta, axis=-1))[live]
        ends = s0 + np.stack([lo[live], hi[live]]) * pairing[live]
        slope = _flat_slope(phi, np.min(ends), np.max(ends))

    if slope is None:
        def fvals(sig, xs, rows):
            return scalar_F(q, phi,
                            LightVector(V.sign, theta[rows].T[..., None]),
                            omega[rows].T[..., None], t - sig, xs)
    else:
        def fvals(_sig, xs, rows):
            return q.q(t, xs, 0.0) * slope * pairing[rows, None]

    try:
        return _adaptive_line_integral(fvals, xp, omega, lo, hi - lo)
    except QuadratureError as exc:
        raise QuadratureError(f"ray quadrature at x'={xp[exc.ray]} "
                              f"(t={t}): {exc}", exc.ray) from None


def a10_points(q: Potential, phi: Profile, chi: Profile, V: LightVector,
               W: LightVector, A: float, B: float, t, xp) -> np.ndarray:
    """Closed-form leading amplitude at points: 1/2 chi (A - iB) e^I;
    V and W hold one light vector or one per point."""
    xp = np.atleast_2d(np.asarray(xp, dtype=float))
    theta, omega = V.rows(len(xp)), W.rows(len(xp))
    chiv = chi.f(t + np.sum(xp * omega, axis=-1))
    out = np.zeros(xp.shape[0], dtype=complex)
    live = np.flatnonzero(chiv != 0.0)
    if live.size:
        try:
            I = ray_exponent(q, phi, LightVector(V.sign, theta[live].T),
                             LightVector(W.sign, omega[live].T), t, xp[live])
        except QuadratureError as exc:
            raise QuadratureError(str(exc), int(live[exc.ray])) from None
        out[live] = 0.5 * (A - 1j * B) * chiv[live] * np.exp(I)
    return out


# ----------------------------------------------------------------------
# transport along characteristics (1+1D, dt = dx, omega = +-1)


def solve_transport(source_field, F_field, omega, inflow_data,
                    grid: SpacetimeGrid) -> np.ndarray:
    """March dA/dt = F A + source along rays x(t) = x0 - omega t.

    Ray-aligned grid: omega is a signed coordinate direction and
    dt equals the spacing along it, so each ray advances one cell per
    level (transverse coordinates are spectators).  Classical RK4 with
    midpoint coefficients from a 4-point cubic along the ray; O(dt^4).
    Where the cubic would read the ray's later points beyond the outflow
    edge, the midpoint is the two-point average instead.  F and the
    source are carried onto the rays and their midpoints formed for all
    levels before the march, which then shifts only A.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if om.size != grid.n:
        raise ConfigError("solve_transport: omega dimension mismatch")
    ax = int(np.argmax(np.abs(om)))
    w = int(round(om[ax]))
    rest = np.delete(om, ax)
    if w not in (-1, 1) or abs(om[ax] - w) > 1e-14 or \
            (rest.size and np.max(np.abs(rest)) > 1e-14):
        raise ConfigError("solve_transport: omega must be a signed "
                          "coordinate direction")
    if abs(grid.dt - grid.dx[ax]) > 1e-14 * grid.dt:
        raise ConfigError("solve_transport: need dt = dx along omega")
    nt = grid.nt
    dt = grid.dt
    F = np.asarray(F_field)
    S = np.asarray(source_field)
    if S.ndim == 0:
        S = np.zeros(grid.shape, dtype=complex) + complex(S)
    A = np.zeros(grid.shape, dtype=complex)
    A[0] = inflow_data

    def sh(a, s):
        return shift(a, s, ax)

    def tsh(a, s):  # the same shift on every level of a trajectory
        return shift(a, s, ax + 1)

    # columns whose ray has left the grid 1 and 2 levels later
    ones = np.ones(grid.nx)
    gone = {r: sh(ones, -r * w) == 0 for r in (1, 2)}

    def ray_mid(G, Gs):
        """G on the rays at levels k + 1/2, k = 0 .. nt-2, for rays
        indexed at level k+1; Gs is G carried one cell along the ray."""
        two = 0.5 * (Gs[:-1] + G[1:])
        if nt < 4:
            return two  # tiny grids
        mid = np.empty_like(two)
        mid[1:-1] = np.where(gone[1], two[1:-1], (
            -tsh(G[:-3], 2 * w) + 9.0 * Gs[1:-2]
            + 9.0 * G[2:-1] - tsh(G[3:], -w)) / 16.0)
        mid[0] = np.where(gone[2], two[0], (
            0.3125 * Gs[0] + 0.9375 * G[1]
            - 0.3125 * sh(G[2], -w) + 0.0625 * sh(G[3], -2 * w)))
        mid[-1] = (0.0625 * sh(G[-4], 3 * w) - 0.3125 * sh(G[-3], 2 * w)
                   + 0.9375 * Gs[-2] + 0.3125 * G[-1])
        return mid

    Fs, Ss = tsh(F, w), tsh(S, w)
    Fm, Sm = ray_mid(F, Fs), ray_mid(S, Ss)
    for k in range(nt - 1):
        A0 = sh(A[k], w)
        k1 = Fs[k] * A0 + Ss[k]
        k2 = Fm[k] * (A0 + 0.5 * dt * k1) + Sm[k]
        k3 = Fm[k] * (A0 + 0.5 * dt * k2) + Sm[k]
        k4 = F[k + 1] * (A0 + dt * k3) + S[k + 1]
        A[k + 1] = A0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return A


# ----------------------------------------------------------------------
# bin-0 wave solve with first-order coupling


_M0_SUBSTEPS = 2   # leapfrog sub-steps per level: dt = dx needs >= 2


def solve_m0_wave(coupling_fields, source, grid: SpacetimeGrid) -> np.ndarray:
    """Solve  A_tt = A_xx + c_t A_t + c_x A_x + S  with zero data.

    coupling_fields = (c_t, c_x) on the grid (either may be scalar 0).
    The hierarchy grid has dt = dx, so the solve takes _M0_SUBSTEPS
    sub-steps per level to satisfy the CFL bound; the c_t term is handled
    implicitly (scalar division), keeping the update 2nd-order.  Returns
    the field sampled at the grid's own time levels.
    """
    if grid.n != 1:
        raise ConfigError("solve_m0_wave: 1+1D only")
    dx = grid.dx[0]
    dts = grid.dt / _M0_SUBSTEPS
    if dts / dx > CFL_LIMIT:
        raise CFLError("solve_m0_wave: sub-step violates the CFL bound")
    c_t, c_x = coupling_fields
    c_t = np.zeros(grid.shape) + np.asarray(c_t, dtype=float)
    c_x = np.zeros(grid.shape) + np.asarray(c_x, dtype=float)
    S = np.zeros(grid.shape) + np.asarray(source, dtype=float)
    nt = grid.nt
    nsub = (nt - 1) * _M0_SUBSTEPS

    def level_interp(G, j):
        """Linear-in-time sample of a per-level field at sub-level j."""
        tau = j / _M0_SUBSTEPS
        k = min(int(tau), nt - 2)
        a = tau - k
        return (1 - a) * G[k] + a * G[k + 1]

    out = np.zeros(grid.shape)
    A_prev = np.zeros(grid.nx)
    # start-up from zero data: A(dts) = dts^2/2 * S(0)
    A_cur = 0.5 * dts**2 * S[0]
    for j in range(1, nsub):
        ct = level_interp(c_t, j)
        cx = level_interp(c_x, j)
        s = level_interp(S, j)
        lap = laplacian2(A_cur, (dx,))
        ax = grad1_2(A_cur, (dx,))[0]
        rhs = (2 * A_cur - A_prev + dts**2 * (lap + cx * ax + s)
               - 0.5 * dts * ct * A_prev)
        A_next = rhs / (1.0 - 0.5 * dts * ct)
        A_prev, A_cur = A_cur, A_next
        if (j + 1) % _M0_SUBSTEPS == 0:
            out[(j + 1) // _M0_SUBSTEPS] = A_cur
    return out


# ----------------------------------------------------------------------
# coefficient table


@dataclass
class CoeffTable:
    """Hierarchy coefficients A_{m,p} on a shared 1+1D grid.

    rows maps (m, p) -> complex array of grid shape; conjugate symmetry
    A_{-m,p} = conj(A_{m,p}) holds row by row so the assembled series is
    real.  The table carries no h: one build serves a wavelength sweep.
    """

    grid: SpacetimeGrid
    rows: Dict[Tuple[int, int], np.ndarray]
    V: LightVector
    W: LightVector
    phi: Profile
    amp_cos: float
    amp_sin: float
    N: int
    F: np.ndarray = None

    def row(self, m, p):
        return self.rows[(m, p)]

    def conjugate_symmetry_defect(self) -> float:
        worst = 0.0
        for (m, p), arr in self.rows.items():
            if (-m, p) in self.rows:
                worst = max(worst, float(np.max(np.abs(
                    arr - np.conj(self.rows[(-m, p)])))))
        return worst

    def save(self, path):
        from .gridio import write_bundle
        arrays = {f"A_{m}_{p}": arr for (m, p), arr in self.rows.items()}
        if self.F is not None:
            arrays["F"] = self.F
        meta = {
            "t0": self.grid.t0, "dt": self.grid.dt, "nt": self.grid.nt,
            "x0": list(self.grid.x0), "dx": list(self.grid.dx),
            "nx": list(self.grid.nx),
            "V": [self.V.sign, list(self.V.direction)],
            "W": [self.W.sign, list(self.W.direction)],
            "phi": self.phi.key,
            "amp_cos": self.amp_cos, "amp_sin": self.amp_sin, "N": self.N,
        }
        write_bundle(path, arrays, meta)

    @classmethod
    def load(cls, path):
        from .gridio import read_bundle
        arrays, meta = read_bundle(path)
        grid = SpacetimeGrid(meta["t0"], meta["dt"], meta["nt"],
                             tuple(meta["x0"]), tuple(meta["dx"]),
                             tuple(meta["nx"]))
        rows = {}
        F = None
        for name, arr in arrays.items():
            if name == "F":
                F = arr
                continue
            _, m, p = name.split("_")
            rows[(int(m), int(p))] = arr
        from .profiles import get_profile
        return cls(grid, rows, LightVector(meta["V"][0], tuple(meta["V"][1])),
                   LightVector(meta["W"][0], tuple(meta["W"][1])),
                   get_profile(meta["phi"]),
                   meta["amp_cos"], meta["amp_sin"], meta["N"], F)


# ----------------------------------------------------------------------
# hierarchy build


class _RowFields:
    """Cached derivatives of one coefficient row on the table grid.

    For transported rows (`ray_shift` = cells per level the row moves,
    i.e. +-1) the time stencils act on an array extended by two ghost
    levels of rigid ray translation at each end.  Near the time
    boundaries the row is outside the interaction region (guaranteed by
    the inflow-separation check below and by the finite speed of
    propagation at the top), so the translation is exact there and every
    time stencil stays central.  One-sided time stencils would otherwise
    break the exact cancellation between -d_t^2 and d_x^2 on the
    ray-aligned pulse envelope, whose sixth derivative is enormous, and
    inject O(1) garbage into the first and last source levels.
    """

    def __init__(self, A, grid, ray_shift=None):
        self.A = A
        if ray_shift is None:
            self.At = diff1(A, grid.dt, 0)
            d2t = diff2(A, grid.dt, 0)
        else:
            w = int(ray_shift)
            ext = np.concatenate([
                shift(A[0], -2 * w)[None], shift(A[0], -w)[None],
                A,
                shift(A[-1], w)[None], shift(A[-1], 2 * w)[None],
            ])
            self.At = diff1(ext, grid.dt, 0)[2:-2]
            d2t = diff2(ext, grid.dt, 0)[2:-2]
        self.Ax = diff1(A, grid.dx[0], 1)
        self.box = -d2t + diff2(A, grid.dx[0], 1)

    def conj(self):
        """Fields of the conjugate row: the stencils are real, so this
        equals building them from conj(A)."""
        cf = _RowFields.__new__(_RowFields)
        cf.A, cf.At, cf.Ax, cf.box = (np.conj(f) for f in
                                      (self.A, self.At, self.Ax, self.box))
        return cf


class _Frame:
    """Background fields shared by the build and the residual measurement."""

    def __init__(self, spec: AnsatzSpec, q: Potential, grid: SpacetimeGrid):
        Tgrid, Xgrid = grid.coords()
        Tb = np.broadcast_to(Tgrid, grid.shape)
        self.sV = spec.V.sign
        self.th = spec.V.direction[0]
        self.omega = spec.W.direction[0]
        self.pairing = spec.pairing
        sarg = phase_arg(Tgrid, [Xgrid], spec.V)
        self.phi_v, self.phip = (np.broadcast_to(v, grid.shape)
                                 for v in spec.phi.f_df(sarg))
        xs = [Xgrid]
        self.q0 = np.broadcast_to(q.q(Tb, xs, self.phi_v), grid.shape)
        self.q1 = np.broadcast_to(q.q_u(Tb, xs, self.phi_v), grid.shape)
        self.q2 = np.broadcast_to(q.q_uu(Tb, xs, self.phi_v), grid.shape)
        self.F = self.q0 * self.phip * self.pairing
        self.psi = phase_arg(Tgrid, [Xgrid], spec.W)


def _series(cache, fr: _Frame, want):
    """Residual series coefficients at the (order, bin) keys `want` accepts.

    The residual  box u_N + q(x, u_N)(2<grad phi, G>_M + <G, G>_M),
    G = grad(u_N - phi_V), expands into (order, bin, thunk) factors: the
    Taylor factors of q about phi_V (exact for polynomial-in-u potentials
    of degree <= 2) and the entries of 2<grad phi,G> + <G,G> (the -2im T A
    terms of box u_N form the transport operator and are left out).  A key
    sums box A_{m,p} at (p+1, m), then every q-factor x t-factor product
    landing on it, q outer and t inner.  Only the factors and products of
    wanted keys are formed, each factor once per call; a t-factor is kept
    from its first wanted product to its last.  A key nothing lands on
    reads as zeros.
    """
    items = list(cache.items())
    qf = [(0, 0, lambda: fr.q0)]
    if np.max(np.abs(fr.q1)) > 0:
        qf += [(1 + r, k, lambda a=a: fr.q1 * a.A) for (k, r), a in items]
    if np.max(np.abs(fr.q2)) > 0:
        qf += [(2 + r1 + r2, k1 + k2,
                lambda a=a, b=b: 0.5 * fr.q2 * a.A * b.A)
               for (k1, r1), a in items for (k2, r2), b in items]

    @functools.cache
    def wgrad(a):   # <Wt, grad A>_M: a row field, formed once per call
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
    pairs = [(i, j) for i, (qo, qm, _) in enumerate(qf)
             for j, (to, tm, _) in enumerate(tf) if want(qo + to, qm + tm)]
    last = {j: i for i, j in pairs}     # the last q-factor a t-factor meets
    kept = {}
    qi = None
    for i, j in pairs:
        qo, qm, qthunk = qf[i]
        to, tm, tthunk = tf[j]
        if i != qi:
            qi, qarr = i, qthunk()
        tarr = kept.pop(j) if j in kept else tthunk()
        if last[j] != i:
            kept[j] = tarr
        put((qo + to, qm + tm), qarr * tarr)
    return out


def build_hierarchy(spec: AnsatzSpec, q: Potential) -> CoeffTable:
    """Fill the coefficient rows for p = 0..N (see module docstring)."""
    spec.validate_against(q)
    grid = spec.make_grid()
    fr = _Frame(spec, q, grid)
    inflow_10 = spec.pulse_coeff * spec.chi.f(fr.psi[0])

    rows: Dict[Tuple[int, int], np.ndarray] = {}
    cache: Dict[Tuple[int, int], _RowFields] = {}

    w = int(round(fr.omega))

    def add_row(m, p, arr):
        rows[(m, p)] = arr
        cache[(m, p)] = _RowFields(arr, grid, ray_shift=w if m else None)
        if m != 0:
            cache[(-m, p)] = cache[(m, p)].conj()
            rows[(-m, p)] = cache[(-m, p)].A

    def series_at(o, b):
        return _series(cache, fr, lambda *key: key == (o, b))[(o, b)]

    for p in range(spec.N + 1):
        for m in range(1, p + 2):
            if p == 0 and m >= 2:
                continue  # homogeneous transport, zero inflow -> zero
            # source from rows already known; the unknown row enters only
            # through the transport operator T - F
            src = series_at(p, m) / (2j * m)
            inflow = inflow_10 if (m == 1 and p == 0) \
                else np.zeros(grid.nx, dtype=complex)
            A = solve_transport(src, fr.F, fr.omega, inflow, grid)
            add_row(m, p, A)
        # bin-0 row at this order: box A + 2 q0 phi' <Vt, grad A>_M = -S
        S0 = series_at(p + 1, 0)
        if np.max(np.abs(S0.imag)) > 1e-10 * max(1.0, np.max(np.abs(S0))):
            raise ConfigError("bin-0 source has a non-real part; "
                              "conjugate symmetry broken upstream")
        c = 2.0 * fr.q0 * fr.phip
        A0 = solve_m0_wave((c * fr.sV, c * fr.th), S0.real, grid)
        add_row(0, p, A0.astype(complex))

    return CoeffTable(grid, rows, spec.V, spec.W, spec.phi, spec.amp_cos,
                      spec.amp_sin, spec.N, fr.F)


# ----------------------------------------------------------------------
# assembly and incident wave


def assemble_uN(table: CoeffTable, h: float) -> np.ndarray:
    """u_N = phi_V + sum h^{1+p} A_{m,p} e^{im psi/h}; real by symmetry."""
    if h <= 0:
        raise ConfigError("assemble_uN: h must be positive")
    grid = table.grid
    Tgrid, Xgrid = grid.coords()
    psi = phase_arg(Tgrid, [Xgrid], table.W)
    acc = np.zeros(grid.shape, dtype=complex)
    for (m, p), arr in table.rows.items():
        acc = acc + h ** (1 + p) * arr * np.exp(1j * m * psi / h)
    defect = np.max(np.abs(acc.imag))
    scale = max(np.max(np.abs(acc)), 1e-30)
    if defect > 1e-12 * scale:
        raise ConfigError("assemble_uN: conjugate symmetry violated "
                          f"(imag part {defect:.2e})")
    sarg = phase_arg(Tgrid, [Xgrid], table.V)
    return np.broadcast_to(table.phi.f(sarg), grid.shape) + acc.real


def background_field(spec: AnsatzSpec, t, xs):
    """phi_V at arbitrary points (broadcasting arrays)."""
    return spec.phi.f(phase_arg(t, xs, spec.V))


def u_incident(spec: AnsatzSpec, h: float, t, xs):
    """Exact incoming wave: phi_V + h chi(psi)(A cos(psi/h) + B sin(psi/h)).

    Solves the full equation wherever q has not yet been met (the pulse
    and background are both exact null-phase solutions and Q vanishes
    off supp q).
    """
    psi = phase_arg(t, xs, spec.W)
    osc = spec.amp_cos * np.cos(psi / h) + spec.amp_sin * np.sin(psi / h)
    return background_field(spec, t, xs) + h * spec.chi.f(psi) * osc


def dt_u_incident(spec: AnsatzSpec, h: float, t, xs):
    """Exact d_t of u_incident (d psi/dt = 1, d<x,V>/dt = -sign V)."""
    s = phase_arg(t, xs, spec.V)
    psi = phase_arg(t, xs, spec.W)
    ph = psi / h
    sn, cs = np.sin(ph), np.cos(ph)
    dosc = -spec.amp_cos * sn + spec.amp_sin * cs
    osc = spec.amp_cos * cs + spec.amp_sin * sn
    return (-spec.V.sign * spec.phi.df(s)
            + h * spec.chi.df(psi) * osc + spec.chi.f(psi) * dosc)


# ----------------------------------------------------------------------
# residual measurement


# time levels left out at each end of the grid by the transport defects
# and the residual norms, clear of the edge rows of the time stencils
_EDGE_LEVELS = 2


@dataclass
class ResidualReport:
    h_list: tuple
    l2: tuple        # sup-in-time L2_x of box u_N - Q per h
    linf: tuple
    slope: float
    floor: tuple     # grid-error floor estimate per h
    used: tuple      # which h entered the slope fit
    N: int

    @property
    def passed(self) -> bool:
        return self.slope >= self.N + 1 - 0.25

    def to_csv(self) -> str:
        lines = ["h,l2,linf"]
        for h, a, b in zip(self.h_list, self.l2, self.linf):
            lines.append(f"{h!r},{a!r},{b!r}")
        return "\n".join(lines) + "\n"


def residual_coefficients(spec: AnsatzSpec, q: Potential, table: CoeffTable):
    """Exact per-bin residual coefficients and transport solver defects.

    For polynomial-in-u potentials (degree <= 2) the residual of the
    assembled ansatz is exactly

        box u_N - Q = sum_{p,m} h^p e^{im psi/h} C_{p,m}(x),

    and the coefficients with p <= N vanish identically because the rows
    are defined as the solutions of the hierarchy equations; what remains
    is (i) the computable coefficients C_{p,m}, p > N (returned as a dict
    keyed (p, m)) and (ii) the defect with which each transport row
    satisfies its ODE.  The defect is measured along rays, where the
    amplitudes are smooth with O(1) derivatives, and is reported so the
    caller can fold 2|m| h^p ||defect|| into the error floor.
    """
    deg = getattr(q, "u_degree", None)
    if deg is None or deg > 2:
        raise ConfigError(
            "residual measurement needs a potential polynomial in u of "
            "degree <= 2 (exact Taylor factors)")
    grid = table.grid
    fr = _Frame(spec, q, grid)
    w = int(round(fr.omega))
    fields = {key: _RowFields(arr, grid, ray_shift=w if key[0] else None)
              for key, arr in table.rows.items() if key[0] >= 0}
    cache = {(m, p): fields[(m, p)] if m >= 0 else fields[(-m, p)].conj()
             for (m, p) in table.rows}
    N = table.N
    checked = [(m, p) for (m, p) in table.rows if m > 0]
    series = _series(cache, fr, lambda o, b: o > N or (b, o) in checked)
    coeffs = {key: arr for key, arr in series.items() if key[0] > N}

    # row k of a field read along the rays: level k shifted by -k w cells
    (nx,) = grid.nx
    lev = np.arange(grid.nt)[:, None]
    col = np.arange(nx) - w * lev
    on = (col >= 0) & (col < nx)
    col = np.clip(col, 0, nx - 1)
    defects = {}
    for (m, p) in checked:
        TA = series[(p, m)] / (2j * m)  # = F A + src
        ray_A = np.where(on, table.rows[(m, p)][lev, col], 0)
        ray_T = np.where(on, TA[lev, col], 0)
        D = diff1(ray_A, grid.dt, 0) - ray_T
        worst = 0.0
        for k in range(_EDGE_LEVELS, grid.nt - _EDGE_LEVELS):
            worst = max(worst, l2_norm(D[k], grid.dx[0]))
        defects[(m, p)] = worst
    return coeffs, defects


def _not_a_knot_slopes(dx, chord):
    """Knot slopes of the not-a-knot cubic spline along the first axis,
    from its n - 1 >= 3 interval widths dx > 0 and chord slopes
    `chord` = diff(y) / dx.

    The slopes solve the tridiagonal system of de Boor, A Practical Guide
    to Splines, ch. IV, in scipy's CubicSpline form: the interior rows
    match the second derivative at x[i], the end rows the third
    derivative at x[1] and x[n-2].  One Thomas sweep along the first
    axis solves it for every trailing column at once; for dx > 0 every
    pivot is positive, so it needs no pivoting.
    """
    n = len(dx) + 1
    if n < 4:
        raise ValueError(f"not-a-knot spline needs >= 4 points, got {n}")
    dxr = dx.reshape((-1,) + (1,) * (chord.ndim - 1))
    d0, d1 = dx[0] + dx[1], dx[-2] + dx[-1]
    lower = np.r_[0.0, dx[1:], d1].tolist()
    diag = np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]].tolist()
    upper = np.r_[d0, dx[:-1], 0.0].tolist()
    s = np.empty((n,) + chord.shape[1:], dtype=chord.dtype)
    s[0] = ((dx[0] + 2 * d0) * dx[1] * chord[0] + dx[0]**2 * chord[1]) / d0
    np.multiply(dxr[1:], chord[:-1], out=s[1:-1])
    s[1:-1] += dxr[:-1] * chord[1:]
    s[1:-1] *= 3
    s[-1] = (dx[-1]**2 * chord[-2]
             + (2 * d1 + dx[-1]) * dx[-2] * chord[-1]) / d1
    cp = [0.0] * n  # upper diagonal after elimination
    for i in range(n):
        piv = diag[i]
        if i:
            piv -= lower[i] * cp[i - 1]
            s[i] -= lower[i] * s[i - 1]
        cp[i] = upper[i] / piv
        s[i] /= piv
    for i in range(n - 2, -1, -1):
        s[i] -= cp[i] * s[i + 1]
    return s


def _hermite_coeffs(dx, y, s):
    """PPoly coefficients (4, n-1, ...) of the piecewise cubic with values
    y and slopes s at the knots, along the first axis: c[k, i]
    multiplies (x - x[i])^(3-k) on [x[i], x[i+1]]."""
    dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    chord = np.diff(y, axis=0) / dxr
    t = (s[:-1] + s[1:] - 2 * chord) / dxr
    return np.stack([t / dxr, (chord - s[:-1]) / dxr - t, s[:-1], y[:-1]])


def _bin_slopes(coeffs, grid: SpacetimeGrid):
    """Not-a-knot knot slopes in x of every C_{p,m}, m >= 0, at every
    time level: {(p, m): (level, x) array}.

    Knot slopes and spline coefficients are linear in the data, so the
    spline of a bin sum_p h^p C_{p,m} is built from the same sums of
    values and slopes: one sweep serves every bin, level and h of a
    table, and only the values-and-slopes step runs per bin and h.
    """
    dx = np.diff(grid.axis(0))
    keys = [k for k in coeffs if k[1] >= 0]
    chord = np.stack([np.diff(coeffs[k], axis=1).T for k in keys], axis=1)
    chord /= dx[:, None, None]
    s = _not_a_knot_slopes(dx, chord)  # (x, key, level)
    return {k: s[:, i].T for i, k in enumerate(keys)}


# time levels per block in _norms_from_coeffs: a block's carrier-times-
# coefficient planes (level, cell, bin, power) and its (level, fine x)
# residual stay in cache, and no fine-grid array spans all levels;
# blocks of 16 levels, or one of all, measured slower
_NORM_BLOCK = 8


def _norms_from_coeffs(coeffs, slopes, table: CoeffTable, h: float,
                       refine: int):
    """sup-in-time L2 and global Linf of sum_m e^{im psi/h} g_m(h, x).

    With g_m = sum_p h^p C_{p,m} and C_{p,-m} = conj(C_{p,m}), the real
    residual is g_0 + 2 sum_{m>0} Re(e^{im psi/h} g_m).  Each g_m, m >= 0,
    is one not-a-knot cubic spline in x over all measured levels, with
    the same sums of the C_{p,m} and of their knot `slopes`
    (_bin_slopes).  The fine points sit at refine fixed offsets o_r in
    each cell, so with psi = t + omega x and c_{m,k}(l, i) the spline
    coefficients of cell i at level l,

        R(t_l, x_i + o_r) = sum_{m>=0, k} Re(e^{im(t_l + omega x_i)/h}
                            c_{m,k}(l, i) o_r^(3-k) e^{im omega o_r/h}).

    The carrier's (level, cell) factor multiplies the coefficients; the
    (m, k, offset) basis is shared by every cell and level, so a block of
    levels is one real matmul of the basis with the real and imaginary
    parts of those products, in fine-grid order.  A last constant cell
    gives the knot value at x[-1].
    """
    grid = table.grid
    x = grid.axis(0)
    dx = np.diff(x)
    nf = (len(x) - 1) * refine + 1  # fine points, x[0] to x[-1]
    dxf = (x[-1] - x[0]) / (nf - 1)
    om = table.W.direction[0]
    levels = slice(_EDGE_LEVELS, grid.nt - _EDGE_LEVELS)
    t = grid.t[levels]
    ms = sorted({m for _, m in slopes})
    # (values/slopes, x, level, bin): the spline sweep runs along x on
    # the real and imaginary planes
    g = np.zeros((2, len(x), t.size, len(ms)), complex)
    for (p, m), s in slopes.items():
        w = (2 if m else 1) * h ** p
        g[0, :, :, ms.index(m)] += w * coeffs[(p, m)][levels].T
        g[1, :, :, ms.index(m)] += w * s[levels].T
    mf = np.array(ms, float)
    cell = np.exp(1j * om / h * np.multiply.outer(x, mf))
    level = np.exp(1j / h * np.multiply.outer(t, mf))
    o = np.arange(refine) * dxf
    basis = (o ** np.arange(3, -1, -1)[:, None]
             * np.exp(1j * om / h * np.multiply.outer(mf, o))[:, None])
    # rows (bin, power, re/im) against the real view of `prod`
    basis = np.stack([basis.real, -basis.imag], axis=2).reshape(-1, refine)
    prod = np.zeros((_NORM_BLOCK, len(x), len(ms), 4), complex)
    sup_l2 = sup_linf = 0.0
    for k0 in range(0, t.size, _NORM_BLOCK):
        blk = slice(k0, k0 + _NORM_BLOCK)
        carrier = cell[:, None] * level[blk]  # (cell, level, bin)
        c = _hermite_coeffs(dx, g[0, :, blk].view(float),
                            g[1, :, blk].view(float)).view(complex)
        d = prod[:carrier.shape[1]]  # c is (power, cell, level, bin)
        np.multiply(c, carrier[:-1], out=d[:, :-1].transpose(3, 1, 0, 2))
        d[:, -1, :, 3] = g[0, -1, blk] * carrier[-1]
        R = d.view(float).reshape(-1, len(basis)) @ basis
        R = R.reshape(len(d), -1)[:, :nf]
        sup_l2 = max(sup_l2, float(np.max(np.einsum("lx,lx->l", R, R))))
        sup_linf = max(sup_linf, float(np.max(np.abs(R))))
    return float(np.sqrt(sup_l2 * dxf)), sup_linf


def measure_residual_order(spec: AnsatzSpec, q: Potential) -> ResidualReport:
    """Wavelength sweep of ||box u_N - Q(x, u_N, grad u_N)||.

    One h-independent table is built; the residual is
    assembled per h from its exact bin coefficients (see
    residual_coefficients).  The error floor per h combines the
    ray-defect of the transport rows (amplified by 2|m|/h as it appears
    in the residual) with a Richardson difference against a table built
    at twice the spacing; wavelengths whose residual is within 3x the
    floor are excluded from the least-squares slope.
    """
    hs = tuple(spec.h_list)
    if len(hs) < 4:
        raise ConfigError("measure_residual_order: need >= 4 wavelengths")
    table = build_hierarchy(spec, q)
    coeffs, defects = residual_coefficients(spec, q, table)
    h_min = hs[-1]
    # fine-grid resolution against the fastest carrier present
    mmax = max([abs(m) for (_, m) in coeffs] + [1])
    wavelength = 2 * np.pi * h_min / mmax
    refine = max(1, int(np.ceil(PPW_MIN * spec.dx / wavelength)))
    if refine > 64:
        raise UnresolvedCarrierError(
            "measure_residual_order: smallest wavelength needs an x "
            f"refinement of {refine} (> 64); coarsen h_list or the grid")

    l2s, linfs, floors = [], [], []
    slopes = _bin_slopes(coeffs, table.grid)
    for h in hs:
        a, b = _norms_from_coeffs(coeffs, slopes, table, h, refine)
        l2s.append(a)
        linfs.append(b)
        # both +-m rows carry the same defect magnitude
        floors.append(sum(4.0 * m * h**p * d
                          for (m, p), d in defects.items()))

    coarse_spec = replace(spec, dx=2 * spec.dx)
    coarse = build_hierarchy(coarse_spec, q)
    ccoeffs, _ = residual_coefficients(coarse_spec, q, coarse)
    cslopes = _bin_slopes(ccoeffs, coarse.grid)
    for i, h in enumerate(hs):
        a, _ = _norms_from_coeffs(ccoeffs, cslopes, coarse, h, 2 * refine)
        # |coarse - fine| tracks the coarse table's error; for an
        # order >= 2 method the fine error is at most a third of it
        floors[i] += abs(a - l2s[i]) / 3.0

    used = [i for i in range(len(hs)) if l2s[i] > 3 * floors[i]]
    if len(used) < 2:
        slope = float("nan")
    else:
        lx = np.log([hs[i] for i in used])
        ly = np.log([l2s[i] for i in used])
        slope = float(np.polyfit(lx, ly, 1)[0])
    return ResidualReport(hs, tuple(l2s), tuple(linfs), slope,
                          tuple(floors), tuple(used), spec.N)
