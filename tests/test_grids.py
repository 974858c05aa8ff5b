"""Stencil operators and grid I/O."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nullform.grids import (
    SpacetimeGrid, diff1, diff2, grad1_2, grad1_4, l2_norm, laplacian2,
    laplacian4, shift,
)
from nullform.gridio import read_bundle, write_bundle, write_pgm
from oracles import dalembertian, pgm_text


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
    gt, gx, gy = [diff1(f, h, ax) for ax, h in enumerate((g.dt,) + g.dx)]
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


def _padded_stencil(u, ax, weights):
    """sum_k w_k u[j + k - r] along ax (r = len(weights) // 2), by np.pad."""
    r = len(weights) // 2
    widths = [(0, 0)] * u.ndim
    widths[ax] = (r, r)
    p = np.pad(u, widths)
    m = u.shape[ax]
    return sum(w * np.take(p, np.arange(k, k + m), axis=ax)
               for k, w in enumerate(weights))


_REFERENCE = {
    laplacian2: ([1.0, -2.0, 1.0], 2),
    laplacian4: (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, 2),
    grad1_2: ([-0.5, 0.0, 0.5], 1),
    grad1_4: (np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, 1),
}


def _reference(op, u, dx):
    weights, power = _REFERENCE[op]
    axes = range(u.ndim - len(dx), u.ndim)
    terms = [_padded_stencil(u, ax, weights) / d**power
             for ax, d in zip(axes, dx)]
    return sum(terms) if power == 2 else terms


def _zero_filled_roll(a, s, axis):
    out = np.roll(a, -s, axis)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(-s, None) if s > 0 else slice(None, -s)
    out[tuple(idx)] = 0
    return out


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 2), lead=st.lists(st.integers(1, 3), min_size=1,
                                          max_size=2),
       space=st.lists(st.integers(5, 13), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_stencils_match_padded_reference_and_stack(n, lead, space, seed):
    rng = np.random.default_rng(seed)
    dx = tuple(rng.uniform(0.01, 0.5, n))
    u = rng.standard_normal(tuple(lead) + tuple(space[:n]))
    for op in (laplacian2, laplacian4, grad1_2, grad1_4):
        got = np.array(op(u, dx))
        want = np.array(_reference(op, u, dx))
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(want)))
        # stacked levels are the per-level calls, bit for bit
        for i in np.ndindex(*lead):
            one = np.array(op(u[i], dx))
            stacked = got[(slice(None),) + i] if op in (grad1_2, grad1_4) \
                else got[i]
            assert np.array_equal(stacked, one)
    for ax in range(u.ndim):
        m = u.shape[ax]
        for s in range(-m - 1, m + 2):
            out = shift(u, s, ax)
            if abs(s) < m:
                assert np.array_equal(out, _zero_filled_roll(u, s, ax))
            else:
                assert not np.any(out)
            assert np.array_equal(shift(u, s, ax - u.ndim), out)


@pytest.mark.parametrize("lead", [(), (2,), (3, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stencils_on_short_axes(n, lead):
    # axes of 1-4 cells, shorter than a 4th-order stencil's five: both
    # ends of a row meet or overlap
    rng = np.random.default_rng(n + len(lead))
    dx = tuple(rng.uniform(0.05, 0.5, n))
    for space in np.ndindex(*(4,) * n):
        u = rng.standard_normal(lead + tuple(m + 1 for m in space))
        for op in (laplacian2, laplacian4, grad1_2, grad1_4):
            got = np.array(op(u, dx))
            want = np.array(_reference(op, u, dx))
            np.testing.assert_allclose(got, want, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(want)))
            for i in np.ndindex(*lead):
                one = np.array(op(u[i], dx))
                assert np.array_equal(got[(slice(None),) + i]
                                      if op in (grad1_2, grad1_4)
                                      else got[i], one)


def test_fourth_order_stencils_on_window_views():
    # a strided window of a larger array, as the RK4 step passes it, gives
    # the bits of its contiguous copy, into a fresh array or into out=
    rng = np.random.default_rng(3)
    dx = (0.05, 0.07)
    big = rng.standard_normal((40, 50))
    for win in ((slice(3, 31), slice(7, 45)), (slice(0, 40), slice(2, 3)),
                (slice(5, 7), slice(1, 50))):
        view = big[win]
        assert not view.flags.c_contiguous
        copy = view.copy()
        lap = laplacian4(copy, dx)
        assert np.array_equal(laplacian4(view, dx), lap)
        out = np.full_like(copy, np.nan)
        assert laplacian4(view, dx, out=out) is out
        assert np.array_equal(out, lap)
        strided_out = np.full((40, 50), np.nan)[win]
        laplacian4(view, dx, out=strided_out)
        assert np.array_equal(strided_out, lap)
        for got, want in zip(grad1_4(view, dx), grad1_4(copy, dx)):
            assert np.array_equal(got, want)


def test_diff_batched_rows_match_single_rows():
    # edge rows must not round differently on a stack of rows
    u = np.random.default_rng(4).standard_normal((50, 80))
    for op in (diff1, diff2):
        rows = np.array([op(u[k], 0.1, 0) for k in range(50)])
        assert np.array_equal(op(u, 0.1, 1), rows)
        cols = np.array([op(u[:, k], 0.1, 0) for k in range(80)]).T
        assert np.array_equal(op(u, 0.1, 0), cols)


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


@st.composite
def _pgm_images(draw):
    """1 x 1, 1 x n, n x 1 and m x n images: constant, of any finite
    values, or of values in [-1, 1] scaled and shifted into a narrow,
    negative or wide range."""
    shape = tuple(draw(st.integers(1, 12)) if k is None else k for k in
                  draw(st.sampled_from([(1, 1), (1, None), (None, 1),
                                        (None, None)])))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["constant", "any", "scaled"]))
    if kind == "constant":
        return np.full(shape, draw(finite))
    if kind == "any":
        return draw(arrays(float, shape, elements=finite))
    base = draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    scale = draw(st.sampled_from([1e-300, 1e-6, 1.0, 1e6, 1e300]))
    return base * scale + draw(st.floats(-1e300, 1e300))


@settings(deadline=None, max_examples=150)
@example(img=np.full((1, 1), -3.5))
@example(img=np.array([[-1e300, 0.0, 1e300]]))
@example(img=np.array([[0.0], [2.2250738585072014e-308]]))  # range too narrow
@example(img=np.array([[-1.7e308, 1.7e308]]))  # range overflows
@given(img=_pgm_images())
def test_pgm_bytes_match_per_pixel_formatter(tmp_path_factory, img):
    # the grey-level table writes the bytes that formatting each pixel
    # with str() wrote; where it refuses an image, the per-pixel writer
    # produced a level outside 0 .. 255, so that file was never valid
    p = tmp_path_factory.mktemp("pgm") / "x.pgm"
    want = pgm_text(img)
    levels = [int(v) for ln in want.splitlines()[3:] for v in ln.split()]
    try:
        write_pgm(p, img)
    except ValueError:
        assert not all(0 <= v <= 255 for v in levels)
        assert not p.exists()
        return
    assert p.read_bytes() == want.encode()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_rejects_non_finite_pixel(tmp_path, bad):
    # one bad pixel once turned every pixel (NaN) or itself (inf) into
    # -9223372036854775808 with only a RuntimeWarning
    img = np.arange(6.0).reshape(2, 3)
    img[1, 0] = img[1, 2] = bad
    p = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match=r"non-finite pixel .* at \(1, 0\)"):
        write_pgm(p, img)
    assert not p.exists()


@pytest.mark.parametrize("img", [[[0.0, 5e-310]], [[-1e308, 1e308]]])
def test_pgm_rejects_unscalable_range(tmp_path, img):
    # 255 / (hi - lo) overflows, or hi - lo itself does
    p = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match="cannot be scaled"):
        write_pgm(p, np.array(img))
    assert not p.exists()
