import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import as_map_naive

from redlab.grid import (
    PatchDomain,
    as_map,
    auto_similarity,
    autocorrelation,
    centered_coords,
    centered_offset,
    extract_patch,
    inertia,
    laplacian,
)


def small_images(max_side=8):
    side = st.integers(2, max_side)
    return side.flatmap(
        lambda n: st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=n * n, max_size=n * n
        ).map(lambda v: np.array(v).reshape(n, n))
    )


# ---------------------------------------------------------------- patches


def test_patch_domain_validation():
    with pytest.raises(ValueError):
        PatchDomain(side=0)
    with pytest.raises(ValueError):
        PatchDomain(coords_list=())
    with pytest.raises(ValueError):
        PatchDomain(coords_list=((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        PatchDomain(side=2, coords_list=((0, 0),))
    with pytest.raises(ValueError):
        PatchDomain()


def test_patch_canonical_order_is_x_major():
    pd = PatchDomain(anchor=(1, 2), side=2)
    assert pd.coords().tolist() == [[1, 2], [1, 3], [2, 2], [2, 3]]


def test_extract_constant_image():
    u = np.full((5, 7), 3.25)
    pd = PatchDomain(anchor=(2, 4), side=3)
    assert np.array_equal(extract_patch(u, pd), np.full(9, 3.25))


def test_extract_wraps_periodically():
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    pd = PatchDomain(coords_list=(((2, 2)),))
    assert extract_patch(u, pd).tolist() == [1.0]


def test_extract_matches_modular_loop():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((5, 5))
    pd = PatchDomain(anchor=(4, 4), side=3)
    got = extract_patch(u, pd)
    expected = [u[(4 + j) % 5, (4 + i) % 5] for i in range(3) for j in range(3)]
    assert np.array_equal(got, np.array(expected))


# ---------------------------------------------------------- auto-similarity


def test_auto_similarity_zero_offset():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((6, 6))
    assert auto_similarity(u, (0, 0), PatchDomain(side=3)) == 0.0


def test_auto_similarity_exact_repetition():
    tile = np.random.default_rng(1).standard_normal((4, 8))
    u = np.vstack([tile, tile, tile])  # period (0, 4)
    pd = PatchDomain(anchor=(2, 1), side=3)
    assert auto_similarity(u, (0, 4), pd) == pytest.approx(0.0, abs=1e-18)


def test_auto_similarity_matches_naive_loop():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((8, 8))
    pd = PatchDomain(anchor=(0, 0), side=4)
    t = (3, 1)
    direct = sum(
        (u[(y + 1) % 8, (x + 3) % 8] - u[y % 8, x % 8]) ** 2
        for x in range(4)
        for y in range(4)
    )
    assert auto_similarity(u, t, pd) == pytest.approx(direct, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(small_images(), st.integers(-6, 6), st.integers(-6, 6))
def test_auto_similarity_nonneg_and_shift_symmetry(u, tx, ty):
    n = u.shape[0]
    pd = PatchDomain(anchor=(1, 1), side=min(3, n))
    val = auto_similarity(u, (tx, ty), pd)
    assert val >= 0.0
    shifted = PatchDomain(
        coords_list=tuple((int(x + tx), int(y + ty)) for x, y in pd.coords())
    )
    assert auto_similarity(u, (-tx, -ty), shifted) == pytest.approx(val, abs=1e-9)


# ----------------------------------------------------------------- as_map


def test_as_map_origin_exact_zero():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((12, 12)) * 50
    m = as_map(u, PatchDomain(anchor=(2, 3), side=4))
    assert m[0, 0] == 0.0


def test_as_map_matches_naive_all_offsets():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((16, 16))
    pd = PatchDomain(anchor=(5, 2), side=4)
    fast = as_map(u, pd)
    slow = as_map_naive(u, pd)
    scale = float(np.sum(u * u))
    assert np.allclose(fast, slow, rtol=1e-8, atol=1e-9 * scale)


def test_as_map_nonsquare_image_and_patch_list():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((6, 9))
    pd = PatchDomain(coords_list=((0, 0), (1, 2), (4, 3), (8, 5)))
    fast = as_map(u, pd)
    slow = as_map_naive(u, pd)
    assert np.allclose(fast, slow, rtol=1e-8, atol=1e-10 * np.sum(u * u))


def test_as_map_zero_at_stripe_periods():
    row = np.random.default_rng(6).standard_normal(4)
    u = np.tile(row[:, None], (4, 16))  # rows repeat with period 4
    m = as_map(u, PatchDomain(anchor=(0, 0), side=4))
    for k in range(4):
        assert m[(4 * k) % 16, 0] == 0.0


# --------------------------------------------------------- autocorrelation


def test_autocorrelation_delta_and_constant():
    f = np.zeros((5, 5))
    f[0, 0] = 1.0
    g = autocorrelation(f)
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    assert np.allclose(g, expected, atol=1e-12)

    c = np.full((4, 4), 2.5)
    assert np.allclose(autocorrelation(c), 2.5**2 * 16, atol=1e-9)


def test_autocorrelation_matches_naive():
    rng = np.random.default_rng(8)
    f = rng.standard_normal((6, 6))
    g = autocorrelation(f)
    for zx, zy in rng.integers(0, 6, size=(10, 2)):
        naive = sum(
            f[y, x] * f[(y - zy) % 6, (x - zx) % 6] for x in range(6) for y in range(6)
        )
        assert g[zy, zx] == pytest.approx(naive, rel=1e-10, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(small_images())
def test_autocorrelation_peak_dominates(f):
    g = autocorrelation(f)
    assert g[0, 0] >= np.abs(g).max() - 1e-8 * max(1.0, g[0, 0])


def test_autocorrelation_even_symmetry():
    rng = np.random.default_rng(9)
    f = rng.standard_normal((5, 7))
    g = autocorrelation(f)
    for zx in range(7):
        for zy in range(5):
            assert g[zy, zx] == pytest.approx(g[(-zy) % 5, (-zx) % 7], abs=1e-10)


# ------------------------------------------------------------------ inertia


def test_inertia_equals_auto_similarity_binary():
    rng = np.random.default_rng(10)
    u = rng.integers(0, 2, size=(8, 8)).astype(float)
    pd = PatchDomain(anchor=(1, 1), side=4)
    for t in [(1, 0), (3, 5), (7, 7)]:
        assert inertia(u, t, pd, n_gray=1) == auto_similarity(u, t, pd)


def test_inertia_constant_zero():
    u = np.full((6, 6), 3.0)
    assert inertia(u, (2, 1), PatchDomain(side=3), n_gray=5) == 0.0


def test_inertia_exact_equality_random_quantized():
    rng = np.random.default_rng(11)
    u = rng.integers(0, 8, size=(10, 10)).astype(float)
    for _ in range(20):
        t = tuple(int(v) for v in rng.integers(-9, 10, size=2))
        anchor = tuple(int(v) for v in rng.integers(0, 10, size=2))
        side = int(rng.integers(1, 6))
        pd = PatchDomain(anchor=anchor, side=side)
        assert inertia(u, t, pd, n_gray=7) == auto_similarity(u, t, pd)


def test_inertia_rejects_non_quantized():
    with pytest.raises(ValueError):
        inertia(np.array([[0.5, 1.0], [0.0, 2.0]]), (1, 0), PatchDomain(side=1))
    with pytest.raises(ValueError):
        inertia(np.array([[0.0, 9.0], [0.0, 2.0]]), (1, 0), PatchDomain(side=1), n_gray=3)


# ---------------------------------------------------------------- laplacian


def test_laplacian_constant_is_zero():
    assert np.allclose(laplacian(np.full((6, 4), 7.0)), 0.0)


def test_laplacian_delta_stencil():
    u = np.zeros((5, 5))
    u[0, 0] = 1.0
    lap = laplacian(u)
    assert lap[0, 0] == pytest.approx(-1.0)
    for iy, ix in [(0, 1), (0, 4), (1, 0), (4, 0)]:
        assert lap[iy, ix] == pytest.approx(0.25)
    assert np.count_nonzero(lap) == 5


@settings(max_examples=25, deadline=None)
@given(small_images())
def test_laplacian_sums_to_zero_and_commutes_with_shifts(u):
    lap = laplacian(u)
    assert abs(lap.sum()) <= 1e-10 * max(1.0, np.abs(u).sum())
    rolled = laplacian(np.roll(u, (1, 2), axis=(0, 1)))
    assert np.allclose(rolled, np.roll(lap, (1, 2), axis=(0, 1)), atol=1e-12)


# ------------------------------------------------------------- offset maps


def test_centered_offset_remap():
    assert centered_offset((7, 5), (8, 8)) == (-1, -3)
    assert centered_offset((4, 0), (8, 8)) == (-4, 0)
    assert centered_offset((3, 2), (5, 5)) == (-2, 2)


def test_centered_coords_grids():
    ctx, cty = centered_coords((4, 6))
    assert ctx[0].tolist() == [0, 1, 2, -3, -2, -1]
    assert cty[:, 0].tolist() == [0, 1, -2, -1]
