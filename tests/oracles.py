"""Independent references the tests check the package against.

Each one recomputes a quantity by a second route that no pipeline runs:
the closed-form leading amplitude on a whole grid, straight-line
integrals of an arbitrary integrand, the d'Alembertian from the
one-axis 4th-order stencils, log ray data by the complex log, and the
linear leapfrog step on a CFL-checked state.
"""

from dataclasses import dataclass

import numpy as np

from nullform.constants import (CFL_LIMIT, CHI_FLOOR_FRACTION,
                                RAY_QUAD_ABS_TOL)
from nullform.errors import CFLError, ConfigError
from nullform.geoptics import a10_points
from nullform.grids import SpacetimeGrid, diff2, laplacian2
from nullform.raytransform import Sinogram, _sweep


def solve_A10_closed_form(q, phi, chi, V, W, A, B,
                          grid: SpacetimeGrid) -> np.ndarray:
    """Closed-form A_{1,0} on a spacetime grid (adaptive ray quadrature)."""
    axes = [grid.axis(j) for j in range(grid.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    xp = np.stack([m.ravel() for m in mesh], axis=-1)
    out = np.empty((grid.nt,) + grid.nx, dtype=complex)
    for k, t in enumerate(grid.t):
        out[k] = a10_points(q, phi, chi, V, W, A, B, float(t),
                            xp).reshape(grid.nx)
    return out


def xray_forward_2d(integrand, offsets, angles, support_center,
                    support_R, abs_tol: float = RAY_QUAD_ABS_TOL) -> Sinogram:
    """Straight-line integrals of a scalar integrand (phantom path)."""
    def fvals(sig, pts, om):
        return integrand(pts[..., 0], pts[..., 1])

    samples = _sweep(offsets, angles,
                     np.asarray(support_center, dtype=float), support_R,
                     fvals, (-np.inf, np.inf), abs_tol)
    return Sinogram(offsets, angles, samples, {"kind": "xray"})


def dalembertian(f, grid: SpacetimeGrid):
    """box f = -d_t^2 f + Laplacian f (signature (-,+,...,+))."""
    out = -diff2(f, grid.dt, 0)
    for j in range(grid.n):
        out = out + diff2(f, grid.dx[j], j + 1)
    return out


def complex_log_ray_data(amp, chi, A, B):
    """(Re, Im, valid) of the principal complex log of 2 amp/(chi (A - iB)).

    The same missing-point rule as log_recover_ray_data (|chi| below
    CHI_FLOOR_FRACTION of its window maximum, |ratio| <= 1e-300), with
    np.log of the whole complex ratio, log 1 at missing points.
    """
    chiv = chi.f(amp.Tprime + amp.r)
    floor = CHI_FLOOR_FRACTION * float(np.max(np.abs(chiv)))
    valid = np.broadcast_to(np.abs(chiv) >= floor, amp.values.shape).copy()
    ratio = np.ones_like(amp.values)
    np.divide(amp.values, chiv * (0.5 * (A - 1j * B)), out=ratio,
              where=valid)
    valid &= np.abs(ratio) > 1e-300
    logr = np.log(np.where(valid, ratio, 1.0))
    return logr.real, logr.imag, valid


@dataclass(frozen=True)
class WaveState:
    """Two leapfrog levels, u at `time` and u_prev one step earlier."""

    u: np.ndarray
    u_prev: np.ndarray
    dt: float
    dx: tuple
    time: float

    def __post_init__(self):
        n = len(self.dx)
        if self.dt * np.sqrt(n) / min(self.dx) > CFL_LIMIT * (1 + 1e-12):
            raise CFLError(
                f"CFL {self.dt * np.sqrt(n) / min(self.dx):.3f} > {CFL_LIMIT}"
            )
        if self.u.shape != self.u_prev.shape:
            raise ConfigError("WaveState: u and u_prev shapes differ")


def step_linear_wave(state: WaveState, source=None) -> WaveState:
    """One leapfrog step of u_tt = Lap u + f (2nd-order 3/5-point Laplacian):
    u^{k+1} = 2u^k - u^{k-1} + dt^2 (Lap_h u^k + f^k)."""
    lap = laplacian2(state.u, state.dx)
    acc = lap if source is None else lap + source
    unew = 2.0 * state.u - state.u_prev + state.dt**2 * acc
    return WaveState(unew, state.u, state.dt, state.dx, state.time + state.dt)
