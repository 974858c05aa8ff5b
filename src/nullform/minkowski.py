"""Null-vector algebra and the plane-wave phase on Minkowski space.

Conventions used throughout the package (fixed here once):

* metric signature (-1, +1, ..., +1); pairing <a,b>_M = -a0*b0 + a'.b'
* a light vector V = (s, theta) with s = +-1 and |theta| = 1; its twin is
  Vt = (-s, theta).  Both are null.
* phase_arg(t, xs, V) is <x,V>_M on broadcast coordinates; the
  hierarchy fields, the incident pulse and scalar_F use it.  Code that
  holds its points in another layout (point lists, the rows of a probe
  slice) writes the same sum inline.
* twin_pairing(V, omega) is <Vt,Wt>_M = sign(V) + theta.omega for the
  twin Wt = (1, omega) of a carrier W = (-1, omega): the transversality
  factor of the transport coefficient and of the ray integrand.
* for a profile g, the background g_V(x) = g(<x,V>_M) satisfies
  grad g_V = g'_V * Vt  and  box g_V = 0  with box = -d_t^2 + Laplacian,
  so the null form q*((d_t u)^2 - |grad' u|^2) annihilates it exactly.
* the carrier phase is psi(x) = <x,W>_M with W = (-1, omega), i.e.
  psi = t + omega.x'; the transport operator T = d_t - omega.grad'
  annihilates any function of psi, and its characteristics are
  s -> (s, y - s*omega).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import UNIT_NORM_TOL
from .errors import ConfigError


@dataclass(frozen=True)
class LightVector:
    """Null covector V = (sign, theta) with |theta| = 1; theta's
    components may be arrays of one shape, one light vector per entry."""

    sign: int
    direction: tuple

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ConfigError("LightVector.sign must be +-1")
        d = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "direction",
                           tuple(d.tolist()) if d.ndim == 1 else tuple(d))
        if np.any(np.abs(np.linalg.norm(d, axis=0) - 1.0) > UNIT_NORM_TOL):
            raise ConfigError("LightVector.direction must be a unit vector")

    @property
    def n(self) -> int:
        return len(self.direction)

    def rows(self, npts: int) -> np.ndarray:
        """theta as (npts, n) rows; a single light vector is repeated."""
        return np.broadcast_to(np.transpose(self.direction), (npts, self.n))

    def twin_array(self) -> np.ndarray:
        return np.array([-float(self.sign), *self.direction])


def phase_arg(t, xs, V: LightVector):
    """<x,V>_M for gridded coordinates: t and xs = [x1, x2, ...] broadcast."""
    out = -float(V.sign) * t
    for th, xj in zip(V.direction, xs):
        out = out + th * xj
    return out


def twin_pairing(V: LightVector, omega):
    """<Vt,Wt>_M = sign(V) + theta.omega, Wt = (1, omega), term by term."""
    return V.sign + sum(th * om for th, om in zip(V.direction, omega))
