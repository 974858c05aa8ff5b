"""Semilinear potentials q(x,u), the null form, and the dη uniqueness test.

Analytic catalog potentials are separable,

    q(x, u) = S(|x' - c|^2) * τ(t) * U(u),

with S a radial factor given as a function of w = |x'-c|^2 (so partials
are smooth through the origin), τ an optional time profile (absent for
time-independent potentials) and U a polynomial in u.  All partials are
hand-coded.

The induced objects of the inverse problem live here too: the vector
field  F(V,x) = q(x, φ_V) φ'_V Vt, the scalar F(V,W,x) = <F, Wt>_M, the
one-form η with components q φ'_V Vt_j, and the certificate
max |dη| which vanishes iff q does (sampled over profile/direction
families).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import FD_STEP_CAP
from .errors import ConfigError
from .minkowski import LightVector, as_point, mdot_vec, phase_arg
from .profiles import Profile, bump, cos4_window, get_profile, ramp, sbump


# ----------------------------------------------------------------------
# radial factors as functions of w = |x' - c|^2


@dataclass(frozen=True)
class RadialFactor:
    """h(w) with dh/dw, supported in w < R^2."""

    R: float
    h: Callable
    dh: Callable

    def value(self, w):
        w = np.asarray(w, dtype=float)
        inside = w < self.R**2 * (1.0 - 1e-14)
        out = np.zeros_like(w)
        if np.any(inside):
            out[inside] = self.h(w[inside])
        return out

    def deriv(self, w):
        w = np.asarray(w, dtype=float)
        inside = w < self.R**2 * (1.0 - 1e-14)
        out = np.zeros_like(w)
        if np.any(inside):
            out[inside] = self.dh(w[inside])
        return out


def radial_bump_factor(radius=0.5, amplitude=1.0) -> RadialFactor:
    r2 = float(radius) ** 2
    a = float(amplitude)

    def h(w):
        v = 1.0 - w / r2
        return a * np.exp(1.0 - 1.0 / v)

    def dh(w):
        v = 1.0 - w / r2
        return -h(w) / (r2 * v**2)

    return RadialFactor(float(radius), h, dh)


def gaussian_cut_factor(sigma=0.25, radius=0.8, amplitude=1.0) -> RadialFactor:
    """Gaussian times a C^inf cutoff so the support is exactly |y| < radius."""
    s2, R2, a = 2.0 * float(sigma) ** 2, float(radius) ** 2, float(amplitude)

    def h(w):
        v = 1.0 - w / R2
        return a * np.exp(-w / s2) * np.exp(1.0 - 1.0 / v)

    def dh(w):
        v = 1.0 - w / R2
        return h(w) * (-1.0 / s2 - 1.0 / (R2 * v**2))

    return RadialFactor(float(radius), h, dh)


# ----------------------------------------------------------------------
# potentials


class Potential:
    """Interface: q(t, xs, u) with explicit partials; xs = list of space arrays.

    q vanishes wherever some |x_j - center_j| >= R; solvers rely on it.
    """

    key: str = "abstract"
    R: float = 0.0
    center: tuple = ()
    time_independent: bool = True
    time_radius: Optional[float] = None
    u_degree: Optional[int] = None  # polynomial degree in u, if known

    def q(self, t, xs, u):
        raise NotImplementedError

    def q_u(self, t, xs, u):
        raise NotImplementedError

    def q_uu(self, t, xs, u):
        raise NotImplementedError

    def grad_x(self, t, xs, u):
        """Explicit spacetime partials [d_t q, d_1 q, ..., d_n q] at fixed u."""
        raise NotImplementedError

    def q_point(self, x, u):
        xa = as_point(x)
        val = self.q(xa[0], [np.asarray(c) for c in xa[1:]], u)
        return float(np.asarray(val))


class ZeroPotential(Potential):
    key = "zero"
    R = 0.0
    time_independent = True
    u_degree = 0

    def __init__(self, n: int = 1):
        self.n = n
        self.center = (0.0,) * n

    def q(self, t, xs, u):
        return np.zeros(np.broadcast(t, *xs, u).shape)

    q_u = q
    q_uu = q

    def grad_x(self, t, xs, u):
        z = np.zeros(np.broadcast(t, *xs, u).shape)
        return [z.copy() for _ in range(len(xs) + 1)]


class SeparablePotential(Potential):
    """q = S(|x'-c|^2) * tau(t) * U(u) with polynomial U."""

    def __init__(self, key, radial: RadialFactor, n: int,
                 u_coeffs: Sequence[float] = (1.0,),
                 tprof: Optional[Profile] = None,
                 center: Sequence[float] = ()):
        self.key = key
        self.radial = radial
        self.n = n
        self.R = radial.R
        self.center = tuple(center) if center else (0.0,) * n
        if len(self.center) != n:
            raise ConfigError(f"potential '{key}': center has wrong dimension")
        self.u_coeffs = tuple(float(c) for c in u_coeffs)
        self.u_degree = len(self.u_coeffs) - 1
        self.tprof = tprof
        self.time_independent = tprof is None
        self.time_radius = None if tprof is None else tprof.support_radius

    # polynomial U and derivatives
    def _U(self, u, order=0):
        dc = list(self.u_coeffs)
        for _ in range(order):
            dc = [k * dc[k] for k in range(1, len(dc))]
        if not dc:
            return np.zeros(np.shape(u))
        u = np.asarray(u, dtype=float)
        out = np.full(u.shape, dc[-1])
        for ck in dc[-2::-1]:
            out = out * u + ck
        return out if out.shape else float(out)

    def _w(self, xs):
        w = 0.0
        for c, xj in zip(self.center, xs):
            w = w + (xj - c) ** 2
        return w

    def _tau(self, t):
        return 1.0 if self.tprof is None else self.tprof.f(t)

    def q(self, t, xs, u):
        return self.radial.value(self._w(xs)) * self._tau(t) * self._U(u, 0)

    def q_u(self, t, xs, u):
        return self.radial.value(self._w(xs)) * self._tau(t) * self._U(u, 1)

    def q_uu(self, t, xs, u):
        return self.radial.value(self._w(xs)) * self._tau(t) * self._U(u, 2)

    def grad_x(self, t, xs, u):
        w = self._w(xs)
        S, dS = self.radial.value(w), self.radial.deriv(w)
        tau = self._tau(t)
        dtau = 0.0 if self.tprof is None else self.tprof.df(t)
        U = self._U(u, 0)
        out = [S * dtau * U if self.tprof is not None
               else np.zeros(np.broadcast(t, *xs, np.asarray(u)).shape)]
        for c, xj in zip(self.center, xs):
            out.append(dS * 2.0 * (xj - c) * tau * U)
        return out


# ----------------------------------------------------------------------
# catalog

def _catalog(n: int):
    return {
        "zero": lambda: ZeroPotential(n),
        "radial_bump": lambda: SeparablePotential(
            "radial_bump", radial_bump_factor(0.5, 1.0), n),
        "offset_bump": lambda: SeparablePotential(
            "offset_bump", radial_bump_factor(0.4, 1.0), n,
            center=(0.35,) + (0.15,) * (n - 1)),
        "bump_linear_u": lambda: SeparablePotential(
            "bump_linear_u", radial_bump_factor(0.5, 1.0), n,
            u_coeffs=(1.0, 0.5)),
        "gaussian_xy_cubic_u": lambda: SeparablePotential(
            "gaussian_xy_cubic_u", gaussian_cut_factor(0.25, 0.8, 1.0), n,
            u_coeffs=(0.0, 0.0, 0.0, 1.0)),
        "bump_t_xy": lambda: SeparablePotential(
            "bump_t_xy", radial_bump_factor(0.6, 1.0), n,
            tprof=bump(0.5, 1.0)),
    }


def get_potential(key: str, n: int, amplitude: float | None = None) -> Potential:
    cat = _catalog(n)
    if key not in cat:
        raise ConfigError(f"unknown potential '{key}' (have {sorted(cat)})")
    p = cat[key]()
    if amplitude is not None and isinstance(p, SeparablePotential):
        p = SeparablePotential(
            p.key, RadialFactor(p.radial.R,
                                lambda w, _h=p.radial.h, s=amplitude: s * _h(w),
                                lambda w, _d=p.radial.dh, s=amplitude: s * _d(w)),
            n, u_coeffs=p.u_coeffs, tprof=p.tprof, center=p.center)
    return p


def list_potentials(n: int = 2):
    return sorted(_catalog(n))


# ----------------------------------------------------------------------
# null form, F, eta, certificate


def null_form(q: Potential, x, u, grad_u) -> float:
    """Q(x,u,grad u) = q(x,u) * ((d_t u)^2 - |grad' u|^2)."""
    g = np.asarray(grad_u, dtype=float)
    return q.q_point(x, u) * (g[0] ** 2 - float(np.sum(g[1:] ** 2)))


@dataclass(frozen=True)
class VectorFieldF:
    """F(V,x) = q(x, φ_V(x)) φ'_V(x) Vt, a rank-one covector field."""

    q: Potential
    phi: Profile
    V: LightVector

    def scalar_prefactor(self, t, xs):
        """q(x, φ_V) φ'_V on broadcast coordinates."""
        s = phase_arg(t, xs, self.V)
        return self.q.q(t, xs, self.phi.f(s)) * self.phi.df(s)

    def components(self, t, xs):
        pref = self.scalar_prefactor(t, xs)
        vt = self.V.twin_array()
        return [pref * vt[j] for j in range(len(vt))]

    def at_point(self, x):
        xa = as_point(x)
        return np.array(
            [c for c in self.components(xa[0], [np.asarray(v) for v in xa[1:]])]
        ).reshape(-1)


def scalar_F(q: Potential, phi: Profile, V: LightVector, W: LightVector, x) -> float:
    """F(V,W,x) = <q(x,φ_V) φ'_V Vt, Wt>_M (real)."""
    if W.sign != -1:
        raise ConfigError("scalar_F: W must have sign -1 (forward convention)")
    xa = as_point(x)
    pref = VectorFieldF(q, phi, V).scalar_prefactor(
        xa[0], [np.asarray(v) for v in xa[1:]]
    )
    return float(pref) * float(mdot_vec(V.twin_array(), W.twin_array()))


def scalar_F_grid(q: Potential, phi: Profile, V: LightVector, W: LightVector,
                  t, xs):
    """Vectorized scalar F on broadcast coordinates."""
    pair = float(mdot_vec(V.twin_array(), W.twin_array()))
    return VectorFieldF(q, phi, V).scalar_prefactor(t, xs) * pair


@dataclass(frozen=True)
class OneForm:
    """η with components η_j(x) = q(x,φ_V) φ'_V Vt_j."""

    q: Potential
    phi: Profile
    V: LightVector

    def components(self, x):
        xa = as_point(x)
        return np.array(VectorFieldF(self.q, self.phi, self.V).at_point(xa))


def exterior_derivative(eta: OneForm, x, method="analytic", delta=None):
    """(dη)_{mj} = d_m η_j - d_j η_m at a point; exactly antisymmetric.

    Analytic path: the u-chain-rule and φ'' terms are symmetric and cancel,
    leaving (dη)_{mj} = φ'_V (D_m q · Vt_j - D_j q · Vt_m) with D the
    explicit x-partials of q at u = φ_V(x).
    """
    xa = as_point(x)
    np1 = len(xa)
    out = np.zeros((np1, np1))
    if method == "analytic":
        t, xs = xa[0], [np.asarray(v) for v in xa[1:]]
        s = phase_arg(t, xs, eta.V)
        u0 = eta.phi.f(s)
        dq = [float(np.asarray(g)) for g in eta.q.grad_x(t, xs, u0)]
        phip = float(eta.phi.df(s))
        vt = eta.V.twin_array()
        for m in range(np1):
            for j in range(m + 1, np1):
                val = phip * (dq[m] * vt[j] - dq[j] * vt[m])
                out[m, j] = val
                out[j, m] = -val
        return out
    if method == "fd":
        if delta is None:
            delta = FD_STEP_CAP
        for m in range(np1):
            for j in range(m + 1, np1):
                val = (_eta_partial(eta, xa, m, j, delta)
                       - _eta_partial(eta, xa, j, m, delta))
                out[m, j] = val
                out[j, m] = -val
        return out
    raise ConfigError(f"exterior_derivative: unknown method '{method}'")


def _eta_partial(eta: OneForm, xa, m, j, delta):
    xp = xa.copy()
    xp[m] += delta
    xm = xa.copy()
    xm[m] -= delta
    return (eta.components(xp)[j] - eta.components(xm)[j]) / (2.0 * delta)


@dataclass
class CertificateReport:
    max_abs: float
    per_pair: dict
    grid_spacing: float
    inconclusive: bool
    note: str = ""


def uniqueness_certificate(q: Potential, profile_set, lightvector_set,
                           grid_points_per_axis=64, box=None) -> CertificateReport:
    """max over families and a spacetime grid of |dη| entries.

    Vanishes exactly for q = 0; a small value with q != 0 is a resolution
    warning, not a proof (finitely many profiles/directions sampled).
    """
    if not profile_set or not lightvector_set:
        raise ConfigError("uniqueness_certificate: empty profile or vector family")
    n = lightvector_set[0].n
    if box is None:
        R = max(q.R, 0.25)
        Rt = q.time_radius if q.time_radius else R
        box = [(-Rt * 1.2, Rt * 1.2)] + [(-R * 1.2 + c, R * 1.2 + c)
                                         for c in (q.center or (0.0,) * n)]
    axes = [np.linspace(lo, hi, grid_points_per_axis) for lo, hi in box]
    # broadcastable coordinates
    t = axes[0].reshape((-1,) + (1,) * n)
    xs = []
    for j in range(n):
        shape = [1] * (n + 1)
        shape[j + 1] = grid_points_per_axis
        xs.append(axes[j + 1].reshape(shape))

    per_pair = {}
    best = 0.0
    degenerate = True
    for phi in profile_set:
        for V in lightvector_set:
            s = phase_arg(t, xs, V)
            u0 = phi.f(s)
            phip = phi.df(s)
            qsupp = np.abs(q.q(t, xs, np.zeros_like(s) + u0)) > 0
            if np.any(np.abs(phip) * qsupp > 1e-14):
                degenerate = False
            dq = q.grad_x(t, xs, u0)
            vt = V.twin_array()
            pair_max = 0.0
            for m in range(n + 1):
                for j in range(m + 1, n + 1):
                    entry = phip * (np.asarray(dq[m]) * vt[j]
                                    - np.asarray(dq[j]) * vt[m])
                    pair_max = max(pair_max, float(np.max(np.abs(entry))))
            per_pair[(phi.key, (V.sign, V.direction))] = pair_max
            best = max(best, pair_max)
    spacing = float(max((hi - lo) / (grid_points_per_axis - 1) for lo, hi in box))
    note = ""
    if degenerate and best == 0.0:
        note = "all sampled profiles have phi' = 0 on supp q: inconclusive"
    return CertificateReport(best, per_pair, spacing, degenerate and best == 0.0, note)
