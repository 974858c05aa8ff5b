"""Uniform spacetime grids and finite-difference stencils.

Fields live on arrays of shape (nt, nx1, ..., nxn); axis 0 is time.
diff1/diff2 act along one given axis: 4th-order central in the interior
with 4th-order one-sided rows at the boundary (fields are compactly
supported away from the box edges, so the edge rows rarely matter, but
they keep the operators honest on manufactured solutions).

The zero-padded stencils (laplacian2, laplacian4, grad1_2, grad1_4) act
on the last len(dx) axes, so one call covers a single level or a whole
trajectory.  laplacian2, grad1_2 and `shift` take every zero-filled
shift from one slice helper, `_shift_slices`.  The 4th-order pair
laplacian4/grad1_4, the RK4 solver's hot path, shares one kernel,
`_pair_stencil`: u[j + s] +- u[j - s] as one pass over the flattened
array per axis and s, so no pass runs over a strided last-axis view.
"""

from __future__ import annotations

import functools
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
    # edges: explicit sums in coefficient order, so a row rounds the same
    # whatever the other axes hold
    sgn = -1.0 if power == 1 else 1.0
    out[0] = sum(edge0[k] * g[k] for k in range(w))
    out[1] = sum(edge1[k] * g[k] for k in range(w))
    out[m - 1] = sgn * sum(edge0[k] * g[m - 1 - k] for k in range(w))
    out[m - 2] = sgn * sum(edge1[k] * g[m - 1 - k] for k in range(w))
    out /= h ** power
    return np.moveaxis(out, 0, axis)


def diff1(f, h, axis):
    """4th-order first derivative along `axis` with spacing `h`."""
    return _apply(f, h, axis, _D1_CENTRAL, _D1_EDGE0, _D1_EDGE1, 1)


def diff2(f, h, axis):
    """4th-order second derivative along `axis` with spacing `h`."""
    return _apply(f, h, axis, _D2_CENTRAL, _D2_EDGE0, _D2_EDGE1, 2)


@functools.cache
def _shift_slices(ndim, s, axis):
    """(dst, src) index tuples with out[dst] = a[src] meaning
    out[j] = a[j + s] along `axis`; cells with no source are left alone.
    They do not depend on the array's shape, so a few are cached for all
    calls (small-grid solves make hundreds of thousands)."""
    dst = [slice(None)] * ndim
    src = [slice(None)] * ndim
    if s >= 0:
        dst[axis], src[axis] = slice(None, -s or None), slice(s, None)
    else:
        dst[axis], src[axis] = slice(-s, None), slice(None, s)
    return tuple(dst), tuple(src)


def shift(a, s, axis=-1):
    """out[j] = a[j + s] along `axis`, zeros flowing in at the boundary."""
    out = np.zeros_like(a)
    dst, src = _shift_slices(a.ndim, s, axis)
    out[dst] = a[src]
    return out


# 2nd-order zero-padded stencils as (coefficient, shift) terms, summed in
# this order
_LAP2 = ((-2.0, 0), (1.0, -1), (1.0, 1))
_GRAD2 = ((-0.5, -1), (0.5, 1))
# 4th-order central coefficients (Fornberg 1988) of the pairs at distance
# s = 1, 2; the second derivative's centre coefficient is -30/12
_D2_PAIRS = (16.0 / 12.0, -1.0 / 12.0)
_D1_PAIRS = (8.0 / 12.0, -1.0 / 12.0)


def _space_axes(u, dx):
    """(axis, spacing) pairs for the last len(dx) axes of u."""
    return zip(range(u.ndim - len(dx), u.ndim), dx)


def _add_shifted(acc, u, terms, axis):
    """acc += coef * shift(u, s, axis) for each (coef, s) of `terms`."""
    for coef, s in terms:
        dst, src = _shift_slices(u.ndim, s, axis)
        acc[dst] += coef * u[src]


def _pair_stencil(u, axis, s, sign, out):
    """out[j] = u[j + s] + sign * u[j - s] along `axis` (sign +1 or -1),
    zeros flowing in; u and out are C-contiguous and of one shape.

    Seen as (A, m, B) blocks, the interior is one pass over the flat
    arrays shifted by s*B cells, contiguous whatever the axis.  On the
    rows' first and last s cells that pass reads a neighbouring row, so
    they are overwritten with the one term that exists there.
    """
    m = u.shape[axis]
    shape = (functools.reduce(int.__mul__, u.shape[:axis], 1), m,
             functools.reduce(int.__mul__, u.shape[axis + 1:], 1))
    a, o = u.reshape(shape), out.reshape(shape)
    if m > 2 * s:
        f, g = u.reshape(-1), out.reshape(-1)
        n, b = u.size, s * shape[2]
        (np.add if sign > 0 else np.subtract)(f[2 * b:], f[:n - 2 * b],
                                              out=g[b:n - b])
        o[:, :s] = a[:, s:2 * s]
        lo = a[:, m - 2 * s:m - s]
    else:
        # no cell has both terms: the ends meet or overlap
        o[...] = 0.0
        o[:, :max(m - s, 0)] = a[:, s:]
        lo = a[:, :max(m - s, 0)]
    # assignment, not np.negative(out=): numpy 2.4 writes a unary ufunc
    # wrongly into a view whose last axis has length 1
    o[:, m - lo.shape[1]:] = lo if sign > 0 else -lo


def laplacian2(u, dx):
    """2nd-order 3/5/7-point Laplacian with zero Dirichlet padding."""
    out = np.zeros_like(u)
    for ax, d in _space_axes(u, dx):
        _add_shifted(out, u / d**2, _LAP2, ax)
    return out


def laplacian4(u, dx, out=None):
    """4th-order Laplacian with zero Dirichlet padding (compact supports),
    written into `out` (which must not overlap u) when given: the centre
    term of every axis in one multiply, then (u[j - s] + u[j + s]) c_s /
    d^2 per axis and s."""
    u = np.ascontiguousarray(u)
    centre = -30.0 / 12.0 * sum(1.0 / d**2 for d in dx)
    out = np.multiply(u, centre, out=out)
    pair = np.empty_like(u)
    for ax, d in _space_axes(u, dx):
        for s, c in enumerate(_D2_PAIRS, 1):
            _pair_stencil(u, ax, s, 1, pair)
            pair *= c / d**2
            out += pair
    return out


def grad1_4(u, dx):
    """4th-order spatial gradient components with zero padding:
    sum_s (u[j + s] - u[j - s]) c_s / d per axis."""
    u = np.ascontiguousarray(u)
    out = []
    pair = np.empty_like(u)
    for ax, d in _space_axes(u, dx):
        g = np.empty_like(u)
        _pair_stencil(u, ax, 1, -1, g)
        g *= _D1_PAIRS[0] / d
        _pair_stencil(u, ax, 2, -1, pair)
        pair *= _D1_PAIRS[1] / d
        g += pair
        out.append(g)
    return out


def grad1_2(u, dx):
    """2nd-order centered spatial gradient with zero Dirichlet padding."""
    out = []
    for ax, d in _space_axes(u, dx):
        acc = np.zeros_like(u)
        _add_shifted(acc, u, _GRAD2, ax)
        out.append(acc / d)
    return out


def l2_norm(f, cell_volume: float) -> float:
    """Discrete L^2 norm with fixed (C-order) summation for determinism."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(f)) ** 2) * cell_volume))
