"""Uniform spacetime grids and finite-difference stencils.

Fields live on arrays of shape (nt, nx1, ..., nxn); axis 0 is time.
Interior derivative stencils are 4th-order central with 4th-order
one-sided rows at the boundary (fields are compactly supported away
from the box edges, so the edge rows rarely matter, but they keep the
operators honest on manufactured solutions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# first derivative, accuracy 4
_D1_CENTRAL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0          # offsets -2..2
_D1_EDGE0 = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25])   # offsets 0..4
_D1_EDGE1 = np.array([-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0])    # offsets -1..3

# second derivative, accuracy 4
_D2_CENTRAL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0      # offsets -2..2
_D2_EDGE0 = np.array([15.0 / 4.0, -77.0 / 6.0, 107.0 / 6.0, -13.0,
                      61.0 / 12.0, -5.0 / 6.0])                     # offsets 0..5
_D2_EDGE1 = np.array([5.0 / 6.0, -1.25, -1.0 / 3.0, 7.0 / 6.0,
                      -0.5, 1.0 / 12.0])                            # offsets -1..4


@dataclass(frozen=True)
class SpacetimeGrid:
    """Uniform grid on [t0, t0+(nt-1)dt] x prod_j [x0_j, x0_j+(nx_j-1)dx_j]."""

    t0: float
    dt: float
    nt: int
    x0: tuple
    dx: tuple
    nx: tuple

    def __post_init__(self):
        if len(self.x0) != len(self.dx) or len(self.dx) != len(self.nx):
            raise ConfigError("grid: x0/dx/nx lengths differ")
        if self.dt <= 0 or any(d <= 0 for d in self.dx):
            raise ConfigError("grid: spacings must be positive")

    @property
    def n(self) -> int:
        return len(self.nx)

    @property
    def shape(self) -> tuple:
        return (self.nt, *self.nx)

    @property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)

    def axis(self, j: int) -> np.ndarray:
        """Spatial axis j (0-based among space axes)."""
        return self.x0[j] + self.dx[j] * np.arange(self.nx[j])

    def coords(self):
        """Broadcastable (T, X1, ..., Xn) arrays covering the grid."""
        n = self.n
        arrs = [self.t.reshape((self.nt,) + (1,) * n)]
        for j in range(n):
            shape = [1] * (n + 1)
            shape[j + 1] = self.nx[j]
            arrs.append(self.axis(j).reshape(shape))
        return tuple(arrs)

    def cell_volume(self) -> float:
        v = 1.0
        for d in self.dx:
            v *= d
        return v


def _apply(f, h, axis, central, edge0, edge1, power):
    f = np.asarray(f)
    g = np.moveaxis(f, axis, 0)
    m = g.shape[0]
    w = len(edge0)
    if m < w:
        raise ConfigError(f"axis of length {m} too short for 4th-order stencil")
    out = np.empty_like(g)
    # interior
    out[2:m - 2] = (
        central[0] * g[0:m - 4]
        + central[1] * g[1:m - 3]
        + central[2] * g[2:m - 2]
        + central[3] * g[3:m - 1]
        + central[4] * g[4:m]
    )
    # edges
    out[0] = np.tensordot(edge0, g[0:w], axes=(0, 0))
    out[1] = np.tensordot(edge1, g[0:w], axes=(0, 0))
    sgn = -1.0 if power == 1 else 1.0
    out[m - 1] = sgn * np.tensordot(edge0, g[m - 1:m - 1 - w:-1], axes=(0, 0))
    out[m - 2] = sgn * np.tensordot(edge1, g[m - 1:m - 1 - w:-1], axes=(0, 0))
    out /= h ** power
    return np.moveaxis(out, 0, axis)


def diff1(f, h, axis):
    """4th-order first derivative along `axis` with spacing `h`."""
    return _apply(f, h, axis, _D1_CENTRAL, _D1_EDGE0, _D1_EDGE1, 1)


def diff2(f, h, axis):
    """4th-order second derivative along `axis` with spacing `h`."""
    return _apply(f, h, axis, _D2_CENTRAL, _D2_EDGE0, _D2_EDGE1, 2)


def spacetime_gradient(f, grid: SpacetimeGrid):
    """[d_t f, d_1 f, ..., d_n f] on the full spacetime array."""
    out = [diff1(f, grid.dt, 0)]
    for j in range(grid.n):
        out.append(diff1(f, grid.dx[j], j + 1))
    return out


def dalembertian(f, grid: SpacetimeGrid):
    """box f = -d_t^2 f + Laplacian f (signature (-,+,...,+))."""
    out = -diff2(f, grid.dt, 0)
    for j in range(grid.n):
        out = out + diff2(f, grid.dx[j], j + 1)
    return out


def laplacian2(u, dx):
    """2nd-order 3/5/7-point Laplacian with zero Dirichlet padding.

    `u` is a spatial array (one time level); `dx` a tuple of spacings.
    """
    out = np.zeros_like(u)
    for ax, d in enumerate(dx):
        m = u.shape[ax]
        sl = [slice(None)] * u.ndim

        def at(a, b):
            s = list(sl)
            s[ax] = slice(a, b)
            return tuple(s)

        out[at(0, m)] -= 2.0 * u / d**2
        out[at(1, m)] += u[at(0, m - 1)] / d**2
        out[at(0, m - 1)] += u[at(1, m)] / d**2
    return out


def laplacian4(u, dx):
    """4th-order Laplacian with zero Dirichlet padding (compact supports)."""
    out = np.zeros_like(u)
    c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    for ax, d in enumerate(dx):
        m = u.shape[ax]

        def at(a, b):
            s = [slice(None)] * u.ndim
            s[ax] = slice(a, b)
            return tuple(s)

        acc = c[2] * u
        pieces = [
            (c[0], 2), (c[1], 1), (c[3], -1), (c[4], -2),
        ]
        for coef, shift in pieces:
            # u shifted by `shift` cells along ax, zeros flowing in
            if shift > 0:
                acc[at(shift, m)] += coef * u[at(0, m - shift)]
            else:
                acc[at(0, m + shift)] += coef * u[at(-shift, m)]
        out += acc / d**2
    return out


def grad1_4(u, dx):
    """4th-order spatial gradient components with zero padding."""
    c = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    shifts = [2, 1, -1, -2]
    out = []
    for ax, d in enumerate(dx):
        m = u.shape[ax]

        def at(a, b):
            s = [slice(None)] * u.ndim
            s[ax] = slice(a, b)
            return tuple(s)

        acc = np.zeros_like(u)
        for coef, shift in zip(c, shifts):
            if shift > 0:
                acc[at(shift, m)] += coef * u[at(0, m - shift)]
            else:
                acc[at(0, m + shift)] += coef * u[at(-shift, m)]
        out.append(acc / d)
    return out


def grad1_2(u, dx):
    """2nd-order centered spatial gradient with zero Dirichlet padding."""
    out = []
    for ax, d in enumerate(dx):
        m = u.shape[ax]

        def at(a, b):
            s = [slice(None)] * u.ndim
            s[ax] = slice(a, b)
            return tuple(s)

        acc = np.zeros_like(u)
        acc[at(1, m)] += u[at(0, m - 1)] * (-0.5)
        acc[at(0, m - 1)] += u[at(1, m)] * 0.5
        out.append(acc / d)
    return out


def l2_norm(f, cell_volume: float) -> float:
    """Discrete L^2 norm with fixed (C-order) summation for determinism."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(f)) ** 2) * cell_volume))
