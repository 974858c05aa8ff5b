"""Stencil operators and grid I/O."""

import numpy as np
import pytest

from nullform.grids import (
    SpacetimeGrid, dalembertian, diff1, diff2, grad1_4, l2_norm, laplacian2,
    laplacian4, spacetime_gradient,
)
from nullform.gridio import read_bundle, write_bundle, write_pgm


def test_diff_orders_on_polynomial():
    # 4th-order stencils are exact on cubics including boundaries
    x = np.linspace(0, 1, 17)
    f = 2 * x**3 - x**2 + 0.5 * x - 3
    d1 = diff1(f, x[1] - x[0], 0)
    d2 = diff2(f, x[1] - x[0], 0)
    assert np.allclose(d1, 6 * x**2 - 2 * x + 0.5, atol=1e-11)
    assert np.allclose(d2, 12 * x - 2, atol=1e-9)


def test_diff_convergence_on_smooth():
    errs = []
    for m in (64, 128):
        x = np.linspace(-1, 1, m + 1)
        f = np.sin(3 * x)
        d = diff1(f, x[1] - x[0], 0)
        errs.append(np.max(np.abs(d - 3 * np.cos(3 * x))))
    assert errs[1] < errs[0] / 12  # ~4th order


def test_dalembertian_plane_wave():
    g = SpacetimeGrid(0.0, 0.01, 32, (-1.0,), (0.01,), (201,))
    T, X = g.coords()
    f = np.sin(2.0 * (T + X))  # function of t + x: box f = 0
    box = dalembertian(f, g)
    interior = box[3:-3, 3:-3]
    assert np.max(np.abs(interior)) < 1e-6


def test_gradient_components():
    g = SpacetimeGrid(0.0, 0.02, 16, (0.0, 0.0), (0.02, 0.04), (20, 24))
    T, X, Y = g.coords()
    f = T + 2 * X + 3 * Y + 0 * (T + X + Y)
    f = np.broadcast_to(f, g.shape).copy()
    gt, gx, gy = spacetime_gradient(f, g)
    assert np.allclose(gt, 1.0, atol=1e-10)
    assert np.allclose(gx, 2.0, atol=1e-10)
    assert np.allclose(gy, 3.0, atol=1e-10)


def test_laplacians_zero_padding():
    u = np.zeros((21, 23))
    u[8:13, 9:14] = np.hanning(5)[:, None] * np.hanning(5)[None, :]
    l4 = laplacian4(u, (0.1, 0.1))
    # compare against diff2-based operator in the interior
    ref = diff2(u, 0.1, 0) + diff2(u, 0.1, 1)
    assert np.allclose(l4[3:-3, 3:-3], ref[3:-3, 3:-3], atol=1e-12)
    gx, gy = grad1_4(u, (0.1, 0.1))
    refx = diff1(u, 0.1, 0)
    assert np.allclose(gx[3:-3, 3:-3], refx[3:-3, 3:-3], atol=1e-12)
    # 2nd-order Laplacian exact on quadratics in the interior
    x = np.linspace(-1, 1, 21)[:, None]
    y = np.linspace(-1, 1, 23)[None, :]
    q = x**2 + 2 * y**2
    l2 = laplacian2(q * np.ones_like(u), (x[1, 0] - x[0, 0], y[0, 1] - y[0, 0]))
    assert np.allclose(l2[1:-1, 1:-1], 6.0, atol=1e-9)


def test_l2_norm_deterministic():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((40, 40))
    a = l2_norm(f, 0.01)
    b = l2_norm(f.copy(), 0.01)
    assert a == b


def test_grid_roundtrip(tmp_path):
    arr = np.arange(24, dtype=np.complex128).reshape(2, 3, 4) * (1 + 2j)
    meta = {"V": [1, 1.0, 0.0], "note": "x"}
    p = tmp_path / "a.nfg"
    write_bundle(p, {"data": arr}, meta)
    back, m2 = read_bundle(p)
    assert back["data"].dtype == arr.dtype
    assert np.array_equal(back["data"], arr)
    assert m2 == meta


def test_bundle_roundtrip(tmp_path):
    a = np.linspace(0, 1, 7)
    b = np.ones((2, 2), dtype=np.float64)
    p = tmp_path / "b.nfg"
    write_bundle(p, {"a": a, "b": b}, {"k": 1})
    arrs, meta = read_bundle(p)
    assert arrs.keys() == {"a", "b"}
    assert np.array_equal(arrs["a"], a) and np.array_equal(arrs["b"], b)
    assert meta == {"k": 1}


def test_pgm_preview(tmp_path):
    img = np.outer(np.arange(4), np.arange(5)).astype(float)
    p = tmp_path / "x.pgm"
    write_pgm(p, img)
    text = p.read_text().splitlines()
    assert text[0] == "P2" and text[1] == "5 4"
