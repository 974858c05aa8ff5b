"""Independent references the tests check the package against.

Each one recomputes a quantity by a second route that no pipeline runs:
the closed-form leading amplitude on a whole grid, straight-line
integrals of an arbitrary integrand, and the d'Alembertian from the
one-axis 4th-order stencils.
"""

import numpy as np

from nullform.constants import RAY_QUAD_ABS_TOL
from nullform.geoptics import a10_points
from nullform.grids import SpacetimeGrid, diff2
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
