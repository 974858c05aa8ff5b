"""Semilinear potentials q(x,u), the field F, and the dη uniqueness test.

Analytic catalog potentials are separable,

    q(x, u) = S(|x' - c|^2) * τ(t) * U(u),

with S a radial factor given as a function of w = |x'-c|^2 (so partials
are smooth through the origin), τ an optional time profile (absent for
time-independent potentials) and U a polynomial in u.  All partials are
hand-coded.

The induced objects of the inverse problem live here too, each as one
kernel on broadcast coordinates (t, xs); a single point is 0-d arrays.
They are the scalar F(V,W,x) = <F(V,x), Wt>_M, which pairs the field
F(V,x) = q(x, φ_V) φ'_V Vt with the carrier's twin, and dη for the
one-form η with components q φ'_V Vt_j.  The certificate max |dη|
vanishes iff q does (sampled over profile/direction families).  The null
form q(x,u) ((d_t u)^2 - |grad' u|^2) is fdtd.null_form_grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .minkowski import LightVector, phase_arg, twin_pairing
from .profiles import Profile, _masked, bump


# ----------------------------------------------------------------------
# radial factors as functions of w = |x' - c|^2


@dataclass(frozen=True)
class RadialFactor:
    """h(w) with dh/dw, supported in w < R^2."""

    R: float
    h: Callable
    dh: Callable

    def value(self, w):
        return _masked(self.R**2, self.h)(w)

    def deriv(self, w):
        return _masked(self.R**2, self.dh)(w)


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


class ZeroPotential(Potential):
    key = "zero"
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
        # the bits of 0.0 + sum (xj - c)^2: no square is -0.0
        w = None
        for c, xj in zip(self.center, xs):
            d2 = (xj if c == 0.0 else xj - c) ** 2
            w = d2 if w is None else w + d2
        return w

    def _tau(self, t):
        return 1.0 if self.tprof is None else self.tprof.f(t)

    def q(self, t, xs, u):
        S = self.radial.value(self._w(xs))
        if self.tprof is None and self.u_coeffs == (1.0,):
            # tau = 1 and U = 1: the product would only copy S, broadcast
            # against u
            shape = np.broadcast_shapes(np.shape(S), np.shape(u))
            return S if shape == np.shape(S) else \
                np.broadcast_to(S, shape).copy()
        return S * self._tau(t) * self._U(u, 0)

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
# F, dη, certificate


def scalar_F(q: Potential, phi: Profile, V: LightVector, omega, t, xs):
    """F = q(x, φ_V) φ'_V <Vt,Wt>_M on broadcast coordinates, for the
    carrier W = (-1, omega): the transport coefficient that the ray
    exponent and the light-ray transform integrate."""
    f, df = phi.f_df(phase_arg(t, xs, V))
    return q.q(t, xs, f) * df * twin_pairing(V, omega)


def exterior_derivative(q: Potential, phi: Profile, V: LightVector, t, xs):
    """(dη)_{mj} = d_m η_j - d_j η_m for η_j = q(x,φ_V) φ'_V Vt_j.

    The u-chain-rule and φ'' terms are symmetric and cancel, leaving
    (dη)_{mj} = φ'_V (D_m q · Vt_j - D_j q · Vt_m) with D the explicit
    spacetime partials of q at u = φ_V(x).  Returns an array of shape
    (n+1, n+1) + the broadcast shape of (t, xs), exactly antisymmetric
    in its first two axes.
    """
    f, phip = phi.f_df(phase_arg(t, xs, V))
    dq = [np.asarray(g) for g in q.grad_x(t, xs, f)]
    vt = V.twin_array()
    np1 = len(vt)
    out = np.zeros((np1, np1) + np.broadcast(phip, *dq).shape)
    for m in range(np1):
        for j in range(m + 1, np1):
            out[m, j] = phip * (dq[m] * vt[j] - dq[j] * vt[m])
            out[j, m] = -out[m, j]
    return out


@dataclass
class CertificateReport:
    max_abs: float
    per_pair: dict
    inconclusive: bool


def _phi_prime_on_supp_q(q, phi, V, t, xs) -> bool:
    """Whether φ'_V is nonzero somewhere q is; only then does dη = 0
    show anything about q."""
    f, df = phi.f_df(phase_arg(t, xs, V))
    qsupp = np.abs(q.q(t, xs, np.zeros_like(f) + f)) > 0
    return bool(np.any(np.abs(df) * qsupp > 1e-14))


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
    t, *xs = np.meshgrid(*axes, indexing="ij", sparse=True)  # broadcastable

    per_pair = {}
    best = 0.0
    upper = np.triu_indices(n + 1, 1)  # dη is antisymmetric, zero diagonal
    for phi in profile_set:
        for V in lightvector_set:
            deta = exterior_derivative(q, phi, V, t, xs)
            pair_max = float(np.max(np.abs(deta[upper])))
            per_pair[(phi.key, (V.sign, V.direction))] = pair_max
            best = max(best, pair_max)
    inconclusive = best == 0.0 and not any(
        _phi_prime_on_supp_q(q, phi, V, t, xs)
        for phi in profile_set for V in lightvector_set)
    return CertificateReport(best, per_pair, inconclusive)
