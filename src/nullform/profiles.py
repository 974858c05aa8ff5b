"""Compactly supported smooth profiles with hand-coded exact derivatives.

A small closed family (no symbolic differentiation): the classic C^inf
bump, an odd bump, a cos^4 window, and a plateau ramp whose derivative
is exactly the amplitude on a flat inner window (the probe profile used
for the X-ray reduction).  All evaluators are vectorized and vanish
identically outside [-support_radius, support_radius].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Profile:
    """One-variable C^k compactly supported function with two derivatives;
    f_df(s) is (f(s), f'(s)) from one support mask and one gather."""

    key: str
    support_radius: float
    _f: Callable
    _f_df: Callable
    _d2f: Callable

    def f(self, s):
        return self._f(np.asarray(s, dtype=float))

    def df(self, s):
        return self._f_df(np.asarray(s, dtype=float))[1]

    def f_df(self, s):
        return self._f_df(np.asarray(s, dtype=float))

    def d2f(self, s):
        return self._d2f(np.asarray(s, dtype=float))


def _masked(radius, raw, n=1):
    """Wrap a raw evaluator of n outputs to be exactly 0 off the support.

    An array wholly inside the support goes to raw as it is: the raw
    evaluators are elementwise, so gathering the inside points first
    would give the same bits.
    """
    edge = radius * (1.0 - 1e-14)

    def ev(s):
        s = np.asarray(s, dtype=float)
        if s.size and s.ndim and np.max(np.abs(s)) < edge:
            return raw(s)
        inside = np.abs(s) < edge
        out = [np.zeros_like(s) for _ in range(n)]
        if np.any(inside):
            vals = raw(s[inside])
            for o, v in zip(out, vals if n > 1 else (vals,)):
                o[inside] = v
        out = [float(o) if s.ndim == 0 else o for o in out]
        return out[0] if n == 1 else tuple(out)

    return ev


def _param(name, value, lower=None, strict=True):
    """float(value); ConfigError unless finite and above `lower`.

    strict=True requires value > lower, strict=False value >= lower.
    """
    v = float(value)
    if np.isfinite(v) and (lower is None or v > lower
                           or (not strict and v == lower)):
        return v
    need = "finite" if lower is None else \
        f"finite and {'>' if strict else '>='} {lower:g}"
    raise ConfigError(f"{name} must be {need}, got {value!r}")


def _radius_amplitude(radius, amplitude):
    return _param("radius", radius, 0.0), _param("amplitude", amplitude)


def bump(radius=1.0, amplitude=1.0, key=None):
    """C^inf bump a*exp(1 - 1/(1-(s/r)^2)), normalized to `amplitude` at 0."""
    r, a = _radius_amplitude(radius, amplitude)

    def val(s):
        u = (s / r) ** 2
        return a * np.exp(1.0 - 1.0 / (1.0 - u))

    def fdval(s):
        v = val(s)
        u = (s / r) ** 2
        w = 1.0 - u
        return v, v * (-(2.0 * s / r**2) / w**2)

    def d2val(s):
        u = (s / r) ** 2
        w = 1.0 - u
        g = 2.0 * s / r**2
        return val(s) * (g**2 / w**4 - (2.0 / r**2) / w**2 - 2.0 * g**2 / w**3)

    key = key or f"bump:r={r:g},a={a:g}"
    return Profile(key, r, _masked(r, val), _masked(r, fdval, 2),
                   _masked(r, d2val))


def sbump(radius=1.0, amplitude=1.0, key=None):
    """Odd profile (s/r)*bump(s); useful as a second certificate profile."""
    r, a = _radius_amplitude(radius, amplitude)
    b = bump(r, a)

    def val(s):
        return (s / r) * b.f(s)

    def fdval(s):
        bf, bdf = b.f_df(s)
        return (s / r) * bf, bf / r + (s / r) * bdf

    def d2val(s):
        return 2.0 * b.df(s) / r + (s / r) * b.d2f(s)

    key = key or f"sbump:r={r:g},a={a:g}"
    return Profile(key, r, _masked(r, val), _masked(r, fdval, 2),
                   _masked(r, d2val))


def cos4_window(radius=1.0, amplitude=1.0, key=None):
    """a*cos^4(pi*s/(2r)) on |s| < r; C^3 at the support boundary."""
    r, a = _radius_amplitude(radius, amplitude)
    k = np.pi / (2.0 * r)

    def val(s):
        return a * np.cos(k * s) ** 4

    def fdval(s):
        c = np.cos(k * s)
        return a * c ** 4, -4.0 * a * k * c ** 3 * np.sin(k * s)

    def d2val(s):
        c, sn = np.cos(k * s), np.sin(k * s)
        return -4.0 * a * k**2 * c**2 * (c**2 - 3.0 * sn**2)

    key = key or f"cos4:r={r:g},a={a:g}"
    return Profile(key, r, _masked(r, val), _masked(r, fdval, 2),
                   _masked(r, d2val))


def _smoothstep7(tau):
    """7th-order smoothstep: 0->1 on [0,1] with three zero derivatives at ends."""
    t = np.clip(tau, 0.0, 1.0)
    return t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)


def _smoothstep7_d1(tau):
    t = np.clip(tau, 0.0, 1.0)
    return t**3 * (140.0 - 420.0 * t + 420.0 * t**2 - 140.0 * t**3)


def _smoothstep7_d2(tau):
    t = np.clip(tau, 0.0, 1.0)
    return t**2 * (420.0 - 1680.0 * t + 2100.0 * t**2 - 840.0 * t**3)


def ramp(flat=1.5, taper=0.5, amplitude=1.0, key=None):
    """Plateau ramp f(s) = a*s*w(s) with window w == 1 on |s| <= flat.

    f'(s) = a exactly on the flat window, f compactly supported in
    [-(flat+taper), flat+taper]; C^3 overall.  Each derivative of w
    evaluates its smoothstep polynomial only on the taper, |s| > flat,
    and fills in its flat value (1, 0, 0) elsewhere.
    """
    L0 = _param("flat", flat, 0.0, strict=False)
    tp = _param("taper", taper, 0.0)
    a = _param("amplitude", amplitude)
    L1 = L0 + tp

    def window(s, k):
        """k-th derivative of w, k = 0, 1, 2."""
        out = np.full_like(s, 1.0 if k == 0 else 0.0)
        s_abs = np.abs(s)
        cut = s_abs > L0
        if np.any(cut):
            tau = (s_abs[cut] - L0) / tp
            if k == 0:
                out[cut] = 1.0 - _smoothstep7(tau)
            elif k == 1:
                out[cut] = -_smoothstep7_d1(tau) * np.sign(s[cut]) / tp
            else:
                out[cut] = -_smoothstep7_d2(tau) / tp**2
        return out

    def val(s):
        return a * s * window(s, 0)

    def fdval(s):
        if not np.any(np.abs(s) > L0):
            # the bits of a*s*1.0 and a*(1.0 + s*0.0) for finite s
            return a * s, np.full_like(s, a)
        w0 = window(s, 0)
        return a * s * w0, a * (w0 + s * window(s, 1))

    def d2val(s):
        return a * (2.0 * window(s, 1) + s * window(s, 2))

    key = key or f"ramp:flat={L0:g},taper={tp:g},a={a:g}"
    return Profile(key, L1, _masked(L1, val), _masked(L1, fdval, 2),
                   _masked(L1, d2val))


PROFILE_CATALOG = {
    "bump": bump,
    "sbump": sbump,
    "cos4": cos4_window,
    "ramp": ramp,
}


def get_profile(key: str) -> Profile:
    """Construct a catalog profile from a string key.

    Format: ``name`` or ``name:param=value,param=value``, e.g.
    ``bump:r=0.3,a=1.0`` or ``ramp:flat=1.5,taper=0.5``.
    """
    name, _, argstr = key.partition(":")
    if name not in PROFILE_CATALOG:
        raise ConfigError(f"unknown profile '{name}' (have {sorted(PROFILE_CATALOG)})")
    kwargs = {}
    alias = {"r": "radius", "a": "amplitude"}
    if argstr:
        for item in argstr.split(","):
            k, _, v = item.partition("=")
            if not _:
                raise ConfigError(f"bad profile parameter '{item}' in '{key}'")
            try:
                kwargs[alias.get(k.strip(), k.strip())] = float(v)
            except ValueError:
                raise ConfigError(f"bad profile parameter '{item}' in "
                                  f"'{key}': not a number") from None
    try:
        return PROFILE_CATALOG[name](**kwargs, key=key)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for profile '{key}': {exc}") from None
