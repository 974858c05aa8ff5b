"""Light-ray transform of the rank-one field, X-ray reduction, 2-D tomography.

The forward transform integrates the covector field F(V,x) = q(x, phi_V)
phi'_V Vt along null lines nu -> (nu, x' + nu omega), paired with
Wt = (1, omega).  The pairing is the metric one, <Vt, Wt>_M = sign(V) +
theta.omega — the same factor that drives the transport hierarchy and the
closed-form amplitude exponent, so sinogram samples equal the log of the
recovered amplitude ratio by construction.

For time-independent potentials with theta perpendicular to omega and a
profile whose slope is constant over the interaction window, the line
integrals reduce to the Euclidean X-ray transform of a fixed integrand on
R^2, which is inverted here by filtered backprojection or regularized
least squares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .constants import (FBP_APODIZATION_NYQUIST, FBP_MIN_ANGLES,
                        RAY_QUAD_ABS_TOL, RAY_QUAD_BATCH_LINES,
                        RAY_QUAD_MAX_DOUBLINGS, RAY_QUAD_MAX_NODES,
                        RAY_QUAD_TRAP_PRIOR_MAX)
from .errors import ConfigError, QuadratureError
from .minkowski import LightVector, twin_pairing
from .potential import Potential, scalar_F
from .profiles import Profile


# ----------------------------------------------------------------------
# domain types


@dataclass
class Sinogram:
    """Samples L(s, a): signed detector offset s, ray angle a in [0, pi).

    The ray for (s, a) passes through s*(-sin a, cos a) with direction
    omega = (cos a, sin a).
    """

    offsets: np.ndarray
    angles: np.ndarray
    samples: np.ndarray  # (n_offsets, n_angles)

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.angles = np.asarray(self.angles, dtype=float)
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.offsets.size, self.angles.size):
            raise ConfigError("Sinogram: samples shape mismatch")
        bad = np.argwhere(~np.isfinite(self.samples))
        if bad.size:
            i, j = bad[0]
            raise ConfigError(f"Sinogram: sample {self.samples[i, j]} at "
                              f"offset {self.offsets[i]:.6g}, angle "
                              f"{self.angles[j]:.6g} is not finite")

    def to_csv(self) -> str:
        ds = self.offsets[1] - self.offsets[0] if self.offsets.size > 1 \
            else 0.0
        lines = [f"# n_offsets={self.offsets.size},"
                 f"n_angles={self.angles.size},spacing={float(ds)!r}"]
        lines.append("offset," + ",".join(repr(float(a))
                                          for a in self.angles))
        for i, s in enumerate(self.offsets):
            row = ",".join(repr(float(v)) for v in self.samples[i])
            lines.append(f"{float(s)!r},{row}")
        return "\n".join(lines) + "\n"


@dataclass
class Reconstruction:
    """Gridded scalar field over the support box."""

    values: np.ndarray
    method: str
    rel_l2_error: float = None


# ----------------------------------------------------------------------
# forward light-ray transform


def _line_bounds(center, R, base, direction):
    """nu-interval where base + nu*direction meets the ball (center, R)."""
    d = base - center  # (..., 2)
    b = np.sum(d * direction, axis=-1)
    cc = np.sum(d * d, axis=-1) - R**2
    disc = b * b - cc
    ok = disc > 0
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.where(ok, -b - root, 0.0)
    hi = np.where(ok, -b + root, 0.0)
    return lo, hi


def _two_rule_stop(dt, ds, dt1, ds1, dt2):
    """(done, use_t) for lines whose trapezoid and Simpson updates at this
    doubling are dt = |T_2n - T_n| and ds = |S_2n - S_n|, with dt1, ds1 the
    updates of the doubling before and dt2 the trapezoid's of the one before
    that.  The smaller trusted update retires a line once it is below
    RAY_QUAD_ABS_TOL, and use_t is where that is the trapezoid's.

    On a chord of a support whose integrand is C^inf-flat at both ends T
    converges faster than any power of n, elsewhere Simpson's update is the
    smaller; either can dip below tolerance by a cancellation while the
    value is still off by more.  Simpson's update is not trusted where the
    trapezoid's was the smaller one doubling before after falling more than
    16-fold, faster than Simpson's own h^4: the ends are flat there, and
    S_2n = T_2n + (T_2n - T_n)/3 carries T_n's error.  The trapezoid's is
    not trusted right after one of RAY_QUAD_TRAP_PRIOR_MAX or more, a fall
    of over three decades that on coarse grids can be an alias.
    """
    dt = np.where(dt1 < RAY_QUAD_TRAP_PRIOR_MAX, dt, np.inf)
    ds = np.where((dt1 < ds1) & (dt2 > 16.0 * dt1), np.inf, ds)
    use_t = dt < ds
    return np.minimum(dt, ds) < RAY_QUAD_ABS_TOL, use_t


def _adaptive_line_integral(fvals, base, direction, lo, length):
    """Integrals of fvals(sig, xs, rows) along the lines base + sig*direction.

    direction is one row per line or one for all.  sig has shape (lines,
    nodes), xs is the list of coordinate planes xs[j] = base[:, j] +
    sig*direction[:, j], each of sig's shape, and rows indexes the lines
    evaluated among the call's.  Each line runs over lo <= sig <= lo +
    length; lines with length <= 0 give 0 and are never evaluated.  The
    composite trapezoid rule on n = 16, 32, ... segments follows the
    recurrence T_2n = T_n/2 + (length/2n)*sum(f at the n new midpoints), and
    Simpson's rule is S_2n = (4 T_2n - T_n)/3; the first call evaluates the
    17 nodes of T_16, T_8 and T_4.  A line leaves the active set, whose
    arrays are compacted, at the first doubling where _two_rule_stop
    retires it, with the value of the rule that decided.  Only the current
    doubling's midpoints are held, and they never fall on a line's ends.  A
    doubling that would take the active lines past RAY_QUAD_MAX_NODES nodes
    in all is not made: the quadrature stops unconverged.  On failure to
    converge, or on a non-finite integral, the QuadratureError's `ray`
    indexes the worst line.  A line's value does not depend on the other
    lines of the call.
    """
    out = np.zeros(length.shape)
    act = np.flatnonzero(length > 0)
    if act.size == 0:
        return out
    lo, length, base, direction = (v[act] for v in (
        lo, length, base, np.broadcast_to(direction, base.shape)))

    def at(xi):
        sig = lo[:, None] + length[:, None] * xi[None, :]
        return fvals(sig, [base[:, j, None] + sig * direction[:, j, None]
                           for j in range(base.shape[1])], act)

    def refine(trap, mid, nseg):
        return 0.5 * trap + (length / nseg) * np.sum(mid, axis=1)

    nseg = 16
    g = at(np.linspace(0.0, 1.0, nseg + 1))
    ends = 0.5 * (g[:, 0] + g[:, -1])
    quarter = (length / 4) * (ends + np.sum(g[:, 4:-1:4], axis=1))
    coarse = (length / 8) * (ends + np.sum(g[:, 2:-1:2], axis=1))
    trap = refine(coarse, g[:, 1::2], nseg)
    simp = (4.0 * trap - coarse) / 3.0
    # the updates of the doubling before (dt1, ds1) and the trapezoid's of
    # the one before that (dt2), here T_16 - T_8, S_16 - S_8 and T_8 - T_4
    dt1, dt2 = np.abs(trap - coarse), np.abs(coarse - quarter)
    ds1 = np.abs(simp - (4.0 * coarse - quarter) / 3.0)
    update = np.full(act.size, np.inf)
    for _ in range(RAY_QUAD_MAX_DOUBLINGS):
        if act.size * (2 * nseg + 1) > RAY_QUAD_MAX_NODES:
            break
        nseg *= 2
        t2 = refine(trap, at(np.arange(1, nseg, 2) / nseg), nseg)
        bad = ~np.isfinite(t2)
        if np.any(bad):  # doubling on would only exhaust memory
            raise QuadratureError("line quadrature: non-finite integrand",
                                  ray=int(act[np.argmax(bad)]))
        s2 = (4.0 * t2 - trap) / 3.0
        dt, ds = np.abs(t2 - trap), np.abs(s2 - simp)
        update = np.minimum(dt, ds)
        done, use_t = _two_rule_stop(dt, ds, dt1, ds1, dt2)
        if np.any(done):
            out[act[done]] = np.where(use_t, t2, s2)[done]
            if np.all(done):
                return out
            left = ~done
            lo, length, base, direction = lo[left], length[left], \
                base[left], direction[left]
            act, t2, s2, update = act[left], t2[left], s2[left], update[left]
            dt, ds, dt1 = dt[left], ds[left], dt1[left]
        trap, simp = t2, s2
        dt1, ds1, dt2 = dt, ds, dt1
    raise QuadratureError(
        f"line quadrature not converged (last update {np.max(update):.2e}, "
        f"{nseg + 1} nodes on each of {act.size} lines)",
        ray=int(act[np.argmax(update)]))


def sweep_frames(angles):
    """The sweep's frames stacked as (angles, (omega, omega-perp), 2):
    omega = (cos a, sin a) and omega-perp = (-sin a, cos a) at each sweep
    angle a, from one np.cos and one np.sin over the sweep; the line for
    (s, a) is s*omega-perp + nu*omega."""
    a = np.asarray(angles, dtype=float)
    c, s = np.cos(a), np.sin(a)
    return np.stack([np.stack([c, s], axis=-1),
                     np.stack([-s, c], axis=-1)], axis=-2)


def sweep_frame(a):
    """(omega, omega-perp) at the one sweep angle a: sweep_frames' case
    of a single angle, as a (2, 2) array."""
    return sweep_frames(a)


def sweep_batches(angles, offsets, integrate):
    """Yield (js, integrate(js) as (angles, offsets)) for slices js of whole
    angles, at most RAY_QUAD_BATCH_LINES lines or one angle, offsets inner;
    a QuadratureError is raised again naming the line's angle and offset."""
    n = len(offsets)
    step = max(1, RAY_QUAD_BATCH_LINES // n)
    for j in range(0, len(angles), step):
        js = slice(j, j + step)
        try:
            vals = integrate(js)
        except QuadratureError as exc:
            ja, i = divmod(exc.ray, n)
            raise QuadratureError(f"sweep angle {angles[j + ja]!r}, offset "
                                  f"{offsets[i]!r}: {exc}",
                                  j * n + exc.ray) from None
        yield js, vals.reshape(-1, n)


def lightray_forward(q: Potential, phi: Profile, V: LightVector,
                     offsets, angles) -> Sinogram:
    """Sinogram of the light-ray transform of scalar_F over an angle sweep.

    The carrier W = (-1, omega) takes each omega of the sweep in turn.
    Each line is at time 0 at nu = 0 and runs over supp q in space-time.
    """
    if q.n != 2:
        raise ConfigError("lightray_forward: sinogram sweep is 2-D only")
    offsets = np.asarray(offsets, dtype=float)
    angles = np.asarray(angles, dtype=float)
    frames = sweep_frames(angles)
    tr = np.inf if q.time_radius is None else q.time_radius

    def integrate(js):
        om = np.repeat(frames[js, 0], offsets.size, axis=0)
        base = (offsets[:, None] * frames[js, None, 1]).reshape(-1, 2)
        lo, hi = _line_bounds(np.array(q.center), q.R, base, om)
        lo = np.maximum(lo, -tr)
        length = np.maximum(np.minimum(hi, tr) - lo, 0.0)
        return _adaptive_line_integral(
            lambda sig, xs, rows: scalar_F(q, phi, V, om[rows].T[..., None],
                                           sig, xs), base, om, lo, length)

    samples = np.zeros((offsets.size, angles.size))
    for js, vals in sweep_batches(angles, offsets, integrate):
        samples[:, js] = vals.T
    return Sinogram(offsets, angles, samples)


# ----------------------------------------------------------------------
# reduction to the Euclidean X-ray transform


def xray_reduce(q: Potential, phi: Profile, V: LightVector,
                W: LightVector):
    """The weight phi'(0) <Vt,Wt>_M that reduces L_1 to an X-ray transform.

    Valid only in the reduced configuration, which is checked: q
    time-independent and u-independent, theta perpendicular to omega,
    and phi' constant over the interaction window.  Then scalar_F
    collapses to weight * q(x') on every ray.  V and W may hold one
    direction per sweep angle: each pair is checked on its own window
    and the weights come back per angle.
    """
    if q.n != 2:
        raise ConfigError("xray_reduce: 2-D potentials only")
    if q.time_radius is not None:
        raise ConfigError("xray_reduce: q must be time-independent")
    if getattr(q, "u_degree", None) != 0:
        raise ConfigError("xray_reduce: q must be u-independent "
                          "(unreduced configuration)")
    th = np.transpose(V.direction)
    om = np.transpose(W.direction)
    if np.any(np.abs(np.sum(th * om, axis=-1)) > 1e-12):
        raise ConfigError("xray_reduce: need theta perpendicular to omega "
                          "(unreduced configuration)")
    # phi' must be constant over every argument the rays can produce:
    # |<x,V>_M| <= |theta.c| + R + nu-span along the ray
    c = np.array(q.center)
    margin = np.abs(th @ c) + q.R + (np.abs(om @ c) + q.R)
    slope = _flat_slope(phi, -margin, margin)
    if slope is None:
        raise ConfigError("xray_reduce: phi' not constant over the "
                          "interaction window (unreduced configuration)")
    return slope * twin_pairing(V, om.T)


def _flat_slope(phi: Profile, lo, hi):
    """phi'(0) if phi' is within 1e-12 of it at 101 points across each
    phase interval [lo, hi] (scalars or arrays of ends), else None: the
    slope of a profile that is affine wherever the rays read it."""
    slope = float(phi.df(0.0))
    dev = np.abs(phi.df(np.linspace(lo, hi, 101)) - slope)
    return None if np.max(dev, initial=0.0) > 1e-12 else slope


# ----------------------------------------------------------------------
# 2-D inversion


def _check_uniform(v, what):
    d = np.diff(v)
    if v.size < 2 or not d[0] > 0 or np.max(np.abs(d - d[0])) > 1e-10 * d[0]:
        raise ConfigError(f"invert_xray_2d: {what} must be uniform and "
                          "increasing")
    return float(d[0])


# most (angle, pixel) pairs in one block of _fbp's backprojection
_FBP_BLOCK = 1 << 15


def _fbp(sino: Sinogram, axes, ds) -> np.ndarray:
    """Filtered backprojection in blocks of whole angles, at most
    _FBP_BLOCK (angle, pixel) pairs or one angle a block.

    Each block's projections are padded and ramp-filtered by one
    rfft/irfft, and scaled by their angle weights.  A pixel x reads its
    angle's filtered projection at the padded-offset coordinate
    u = (omega-perp . x - s0)/ds, the sum of a term in x1 and one in x2,
    clamped to the padded range, so a pixel beyond it reads the end
    value; the read interpolates linearly between the two nearest
    offsets, q[i0] + w*(q[i0 + 1] - q[i0]).  The block's reads are
    summed over its angles into the image.
    """
    n = sino.offsets.size
    # generous centered padding: the filtered projection's 1/s^2 tails
    # beyond the measured offsets matter for pixels near the box corners
    npad = 1 << int(np.ceil(np.log2(4 * n)))
    pad0 = (npad - n) // 2
    freqs = np.fft.rfftfreq(npad, d=ds)
    cut = FBP_APODIZATION_NYQUIST * (0.5 / ds)
    # ramp |nu| apodized by a raised cosine rolling off below Nyquist
    win = np.where(freqs <= cut, 0.5 * (1 + np.cos(np.pi * freqs / cut)),
                   0.0)
    filt = np.abs(freqs) * win
    x1, x2 = axes
    out = np.zeros((x1.size, x2.size))
    s0 = sino.offsets[0] - pad0 * ds
    # midpoint quadrature weights over the pi-periodic angle sweep; for a
    # uniform sweep every weight is pi/n, and gaps from dropped angles are
    # shared between their neighbours
    ang = sino.angles
    ext = np.concatenate(([ang[-1] - np.pi], ang, [ang[0] + np.pi]))
    wa = 0.5 * (ext[2:] - ext[:-2])
    perp = sweep_frames(ang)[:, 1]
    a1 = (perp[:, 0, None] * x1 - s0) / ds
    a2 = perp[:, 1, None] * x2 / ds
    step = max(1, _FBP_BLOCK // out.size)
    shape = (min(step, ang.size),) + out.shape
    u, i0, v = np.empty(shape), np.empty(shape, np.intp), np.empty(shape)
    row = npad * np.arange(shape[0])[:, None, None]  # each angle's q row
    for j in range(0, ang.size, step):
        nb = min(step, ang.size - j)
        js = slice(j, j + nb)
        p = np.zeros((nb, npad))
        p[:, pad0:pad0 + n] = sino.samples[:, js].T
        q = np.fft.irfft(np.fft.rfft(p) * filt, npad) * wa[js, None]
        # forward differences, 0 after each angle's last offset, so that
        # one flat index reads both q[i0] and q[i0 + 1] - q[i0]
        dq = np.zeros_like(q)
        dq[:, :-1] = q[:, 1:] - q[:, :-1]
        ub, ib, vb = u[:nb], i0[:nb], v[:nb]
        np.add(a1[js, :, None], a2[js, None, :], out=ub)
        np.clip(ub, 0.0, npad - 1, out=ub)
        ib[...] = ub  # truncates; ub >= 0, so this is its floor
        ub -= ib  # the weight w
        ib += row[:nb]
        # every index is in range; mode="clip" skips the buffered copy
        # that the default mode makes of `out`
        np.take(dq, ib, out=vb, mode="clip")
        vb *= ub
        vb += np.take(q, ib, out=ub, mode="clip")
        out += vb.sum(axis=0)
    return out


# tolerance, in cells, of the pixel-box edge test in _xray_matrix
_EDGE_TOL = 1e-9
# most (offset, pixel) bins in one dense block of _xray_matrix (2 MB)
_BLOCK_BINS = 1 << 18


def _xray_matrix(sino: Sinogram, axes) -> sparse.csr_matrix:
    """Discrete X-ray operator: bilinear samples every half pixel per ray.

    Columns index the image in C order; rows run over the offsets of one
    angle after another, so A @ img.ravel() is sinogram.samples.T.ravel().
    Samples outside the pixel box contribute nothing; samples within
    _EDGE_TOL cells of its edge lines count as on them, so whether a ray
    along an edge is kept does not hang on the rounding of (p - x0)/d.

    Each angle's duplicate samples are summed in input order by one
    np.bincount over row-major (offset, pixel) keys into a dense block of
    at most _BLOCK_BINS bins, in row groups when an angle needs more.
    The touched bins, explicit zeros included, come out of flatnonzero
    in canonical order and are copied into buffers sized for four
    entries per sample; their unused tail is then cut off.  Pages never
    written are never resident, so the operator is held in memory once.
    scipy only holds the finished CSR, for the matvecs.
    """
    x1, x2 = axes
    d1 = _check_uniform(x1, "axis 1")
    d2 = _check_uniform(x2, "axis 2")
    n1, n2 = x1.size, x2.size
    npix = n1 * n2
    step = 0.5 * min(d1, d2)
    span = float(np.hypot(x1[-1] - x1[0], x2[-1] - x2[0]))
    nu = np.arange(-0.5 * span, 0.5 * span + step, step)
    noff = sino.offsets.size
    group = min(noff, max(1, _BLOCK_BINS // npix))
    ray = np.broadcast_to(np.arange(group)[:, None], (group, nu.size))
    cap = 4 * noff * nu.size * sino.angles.size
    itype = np.int32 if max(cap, npix) < 2**31 else np.int64
    indptr = np.zeros(noff * sino.angles.size + 1, itype)
    indices = np.empty(cap, itype)
    data = np.empty(cap)
    nnz = 0
    for ja, (om, perp) in enumerate(sweep_frames(sino.angles)):
        for r0 in range(0, noff, group):
            off = sino.offsets[r0:r0 + group, None]
            u = (nu * om[0] + off * perp[0] - x1[0]) / d1
            v = (off * perp[1] + nu * om[1] - x2[0]) / d2
            inside = ((u >= -_EDGE_TOL) & (u <= n1 - 1 + _EDGE_TOL)
                      & (v >= -_EDGE_TOL) & (v <= n2 - 1 + _EDGE_TOL))
            u, v, rows = u[inside], v[inside], ray[:off.size][inside]
            i0 = np.clip(np.floor(u).astype(int), 0, n1 - 2)
            j0 = np.clip(np.floor(v).astype(int), 0, n2 - 2)
            fu = np.clip(u - i0, 0.0, 1.0)
            fv = np.clip(v - j0, 0.0, 1.0)
            key = rows * npix + i0 * n2 + j0
            wts = np.concatenate([(1 - fu) * (1 - fv), fu * (1 - fv),
                                  (1 - fu) * fv, fu * fv]) * step
            keys = np.concatenate([key, key + n2, key + 1, key + n2 + 1])
            bins = off.size * npix
            touched = np.zeros(bins, bool)
            touched[keys] = True
            hit = np.flatnonzero(touched)
            row, col = np.divmod(hit, npix)
            indices[nnz:nnz + hit.size] = col
            data[nnz:nnz + hit.size] = np.bincount(keys, wts,
                                                   minlength=bins)[hit]
            first = ja * noff + r0
            indptr[first + 1:first + off.size + 1] = nnz + np.cumsum(
                np.bincount(row, minlength=off.size))
            nnz += hit.size
    indices.resize(nnz, refcheck=False)  # no views of either remain
    data.resize(nnz, refcheck=False)
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(indptr.size - 1, npix))


def _rls(sino: Sinogram, axes, reg: float, iters: int = 60,
         tol: float = 1e-10) -> np.ndarray:
    """Conjugate gradients on the normal equations (A^T A + reg I) x =
    A^T b from x = 0, stopped at a relative residual of `tol` or after
    `iters` iterations, whichever comes first."""
    A = _xray_matrix(sino, axes)
    At = A.T

    def normal(x):
        return At @ (A @ x) + reg * x

    x = np.zeros(A.shape[1])
    r = At @ sino.samples.T.ravel()  # A^T b - N x0
    p = r.copy()
    rs = float(np.sum(r * r))
    rs0 = rs
    for _ in range(iters):
        if rs <= tol**2 * max(rs0, 1e-300):
            break
        np_ = normal(p)
        alpha = rs / float(np.sum(p * np_))
        x += alpha * p
        r -= alpha * np_
        rs_new = float(np.sum(r * r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x.reshape(axes[0].size, axes[1].size)


def invert_xray_2d(sino: Sinogram, axes, method: str = "fbp",
                   reg: float = 0.0, truth=None) -> Reconstruction:
    """Invert a 2-D parallel-beam sinogram on the pixel grid `axes`.

    Both methods need uniform increasing offsets (ConfigError otherwise).
    fbp: apodized ramp filter, then backprojection that reads each
    pixel's offset by linear interpolation in the offset alone, in blocks
    of whole angles (needs >= FBP_MIN_ANGLES angles, else falls back to
    rls with a warning; gaps in the sweep are absorbed by midpoint
    quadrature weights).
    rls: conjugate gradients, at most 60 iterations, on the normal
    equations with Tikhonov weight `reg` (finite, >= 0) of the sparse
    ray-sampling matrix.
    """
    if method not in ("fbp", "rls"):
        raise ConfigError(f"invert_xray_2d: unknown method '{method}'")
    if not (np.isfinite(reg) and reg >= 0):
        raise ConfigError(f"invert_xray_2d: reg must be finite and >= 0, "
                          f"got {reg!r}")
    axes = (np.asarray(axes[0], dtype=float), np.asarray(axes[1], dtype=float))
    ds = _check_uniform(sino.offsets, "offsets")
    if method == "fbp":
        if sino.angles.size < FBP_MIN_ANGLES:
            warnings.warn(f"invert_xray_2d: fewer than {FBP_MIN_ANGLES} "
                          "angles; falling back to rls")
            method = "rls"
        else:
            da = np.diff(sino.angles)
            if np.any(da <= 0) or sino.angles[-1] - sino.angles[0] >= np.pi:
                raise ConfigError("invert_xray_2d: angles must increase "
                                  "within one half-turn")
    if method == "fbp":
        values = _fbp(sino, axes, ds)
    else:
        values = _rls(sino, axes, reg)
    err = None
    if truth is not None:
        t = np.asarray(truth, dtype=float)
        denom = float(np.sqrt(np.sum(t * t)))
        if denom > 0:
            err = float(np.sqrt(np.sum((values - t) ** 2))) / denom
    return Reconstruction(values, method, err)
