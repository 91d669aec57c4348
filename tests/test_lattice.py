import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import anchor_loop_scores, grid_build_graph, loop_nearest_neighbor_edges

from redlab.lattice import (
    GraphTooSmall,
    alternate_minimization,
    build_graph,
    c_per,
    nearest_neighbor_edges,
    q_energy,
    rank_textures,
    round_half_away,
    update_basis,
    update_coeffs,
)


def place(shape, centered_points):
    """Binary offset map with detections at the given centered offsets."""
    h, w = shape
    d = np.zeros(shape, dtype=bool)
    for cx, cy in centered_points:
        d[cy % h, cx % w] = True
    return d


def ridge_coeffs_oracle(basis, e, delta_m):
    """Per-edge ridge solve through an augmented least-squares system."""
    a = np.vstack([basis.T, math.sqrt(delta_m) * np.eye(2)])
    rhs = np.concatenate([e, [0.0, 0.0]])
    sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return sol


# ------------------------------------------------------------------- graph


def test_graph_singletons_fully_connected():
    d = place((64, 64), [(10, 0), (20, 0), (0, 15)])
    graph = build_graph(d, np.zeros((64, 64)))
    assert len(graph.vertices) == 3
    assert graph.n_components == 3
    assert len(graph.edges) == 3  # all pairs for <= 4 neighbors
    # canonical orientation: first component positive (or zero with e_y >= 0)
    for ex, ey in graph.edge_vectors:
        assert ex > 0 or (ex == 0 and ey >= 0)


def test_graph_blob_vertex_at_argmin():
    values = np.full((32, 32), 100.0)
    blob = [(5, 5), (6, 5), (7, 5), (6, 6), (6, 4)]
    d = place((32, 32), blob)
    d[20, 20] = True  # second component so the graph is big enough
    values[5, 7] = 1.0  # minimum inside the blob at centered (7, 5)
    graph = build_graph(d, values)
    assert len(graph.vertices) == 2
    assert [7, 5] in graph.vertices.tolist()


def test_graph_wraps_across_borders():
    # one blob straddling the seam: cells at centered (-16,-16)..(label wrap)
    d = np.zeros((32, 32), dtype=bool)
    d[0, 31] = True
    d[0, 0] = False
    d[31, 31] = True
    d[31, 0] = True
    d[2, 2] = True
    values = np.random.default_rng(0).random((32, 32))
    graph = build_graph(d, values)
    assert graph.n_components == 2


def test_graph_excludes_origin_component():
    d = place((32, 32), [(0, 0), (1, 0), (10, 0), (0, 10)])
    graph = build_graph(d, np.zeros((32, 32)))
    assert graph.n_components == 3
    assert len(graph.vertices) == 2  # origin blob dropped


def test_graph_too_small():
    with pytest.raises(GraphTooSmall):
        build_graph(place((16, 16), [(3, 3)]), np.zeros((16, 16)))


def test_graph_planted_point_count():
    rng = np.random.default_rng(21)
    points = [
        (int(12 * i), int(10 * j)) for i in range(-2, 3) for j in range(-2, 3)
    ]
    points.remove((0, 0))  # the origin never carries a detection
    d = place((64, 64), points)
    graph = build_graph(d, rng.random((64, 64)))
    assert len(graph.vertices) == len(points)
    assert graph.n_components == len(points)


def test_graph_deterministic_tiebreak():
    values = np.zeros((32, 32))  # all equal: lexicographic argmin
    d = place((32, 32), [(5, 5), (5, 6), (6, 5), (-10, 2)])
    graph = build_graph(d, values)
    assert [5, 5] in graph.vertices.tolist()


def _graph_maps(rng, shape):
    h, w = shape
    for trial in range(60):
        d_map = rng.random(shape) < rng.choice([0.03, 0.15, 0.4])
        d_map[0, :] |= trial % 3 == 0  # a band that wraps across the border
        d_map[:, -1] |= trial % 5 == 0
        yield d_map
    yield np.ones(shape, dtype=bool)  # every offset detected: one component
    # Two cells joined only diagonally across the corner of the torus (the
    # pair through the origin, then the other pair), beside two lone cells.
    for corner in ([(h - 1, w - 1), (0, 0)], [(0, w - 1), (h - 1, 0)]):
        d_map = np.zeros(shape, dtype=bool)
        for iy, ix in corner + [(h // 2, w // 2), (h // 2, 2 % w)]:
            d_map[iy, ix] = True
        yield d_map


@pytest.mark.parametrize("shape", [(16, 16), (9, 13), (2, 5), (1, 1), (1, 7), (7, 1), (3, 3)])
def test_graph_matches_full_grid_build_on_random_maps(shape):
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    for d_map in _graph_maps(rng, shape):
        # Integer values give ties, broken by the centered coordinates.
        values = rng.integers(0, 3, shape).astype(float)
        try:
            want = grid_build_graph(d_map, values)
        except GraphTooSmall:
            with pytest.raises(GraphTooSmall):
                build_graph(d_map, values)
            continue
        got = build_graph(d_map, values)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.edges, want.edges)
        assert np.array_equal(got.edge_vectors, want.edge_vectors)
        assert got.n_components == want.n_components


def _edge_point_sets():
    rng = np.random.default_rng(21)
    ii, jj = np.mgrid[0:7, 0:9]
    lattice_pts = np.stack([3 * ii.ravel() + jj.ravel(), 4 * jj.ravel()], axis=1)
    yield pytest.param(lattice_pts, id="lattice")
    yield pytest.param(rng.permutation(lattice_pts), id="lattice-shuffled")
    for n in (2, 3, 5, 17, 80):
        yield pytest.param(rng.integers(-40, 41, (n, 2)), id=f"random-{n}")
        # Few distinct coordinates: many equal distances, and repeated points.
        yield pytest.param(rng.integers(-2, 3, (n, 2)), id=f"ties-{n}")
    yield pytest.param(rng.normal(0.0, 10.0, (40, 2)), id="floats")
    # More rows than one block of squared distances.
    yield pytest.param(np.unique(rng.integers(-30, 31, (600, 2)), axis=0), id="blocks")


@pytest.mark.parametrize("points", list(_edge_point_sets()))
def test_nearest_neighbor_edges_match_tuple_sort(points):
    got_edges, got_vec = nearest_neighbor_edges(points)
    want_edges, want_vec = loop_nearest_neighbor_edges(points)
    assert got_edges.dtype == want_edges.dtype
    assert np.array_equal(got_edges, want_edges)
    assert np.array_equal(got_vec, want_vec)


# ------------------------------------------------------------------ energy


def test_energy_zero_coeffs_is_edge_norm():
    rng = np.random.default_rng(1)
    e = rng.standard_normal((7, 2))
    q = q_energy(np.eye(2), np.zeros((7, 2)), e, 0.0, 0.0)
    assert q == pytest.approx(np.sum(e * e), rel=1e-12)


def test_energy_perfect_fit_zero():
    basis = np.array([[3.0, 1.0], [-1.0, 2.0]])
    coeffs = np.array([[1, 0], [0, 1], [2, -1]], dtype=float)
    e = coeffs @ basis
    assert q_energy(basis, coeffs, e, 0.0, 0.0) == 0.0


def test_energy_duplicate_evaluation_oracle():
    rng = np.random.default_rng(2)
    basis = rng.standard_normal((2, 2))
    coeffs = rng.integers(-3, 4, size=(5, 2)).astype(float)
    e = rng.standard_normal((5, 2))
    db, dm = 0.3, 1.7
    manual = (
        sum(
            np.sum((coeffs[i, 0] * basis[0] + coeffs[i, 1] * basis[1] - e[i]) ** 2)
            for i in range(5)
        )
        + db * np.sum(basis**2)
        + dm * np.sum(coeffs**2)
    )
    assert q_energy(basis, coeffs, e, db, dm) == pytest.approx(manual, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4))
def test_energy_invariant_under_edge_negation(idx):
    rng = np.random.default_rng(idx)
    basis = rng.standard_normal((2, 2))
    coeffs = rng.integers(-3, 4, size=(5, 2)).astype(float)
    e = rng.standard_normal((5, 2))
    q0 = q_energy(basis, coeffs, e, 0.1, 0.2)
    e2 = e.copy()
    e2[idx] *= -1
    c2 = coeffs.copy()
    c2[idx] *= -1
    assert q_energy(basis, c2, e2, 0.1, 0.2) == pytest.approx(q0, rel=1e-12)


# ----------------------------------------------------------------- updates


def test_update_coeffs_orthonormal_identity():
    got = update_coeffs(np.eye(2), np.array([[2.1, -0.2]]), 0.0)
    assert np.allclose(got, [[2.1, -0.2]], atol=1e-12)
    assert round_half_away(got).tolist() == [[2.0, -0.0]]


def test_update_coeffs_regularizer_dominance():
    rng = np.random.default_rng(3)
    basis = rng.standard_normal((2, 2))
    e = rng.standard_normal((6, 2)) * 10
    got = update_coeffs(basis, e, 1e12)
    assert np.abs(got).max() < 1e-9


def test_update_coeffs_matches_ridge_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        basis = rng.standard_normal((2, 2)) * 3
        e = rng.standard_normal((4, 2)) * 5
        dm = float(rng.uniform(0, 4))
        got = update_coeffs(basis, e, dm)
        for i in range(4):
            ref = ridge_coeffs_oracle(basis, e[i], dm)
            assert np.allclose(got[i], ref, atol=1e-8)


def test_update_coeffs_singular_basis_raises():
    basis = np.array([[1.0, 0.0], [2.0, 0.0]])  # collinear
    with pytest.raises(np.linalg.LinAlgError):
        update_coeffs(basis, np.array([[1.0, 1.0]]), 0.0)


def test_round_half_away_from_zero():
    x = np.array([0.5, -0.5, 1.5, -2.5, 0.49, -0.49])
    assert round_half_away(x).tolist() == [1.0, -1.0, 2.0, -3.0, 0.0, -0.0]


def test_update_basis_decoupled_case():
    rng = np.random.default_rng(5)
    e = rng.standard_normal((8, 2))
    coeffs = np.tile([1.0, 0.0], (8, 1))
    db = 0.5
    basis = update_basis(coeffs, e, db)
    assert np.allclose(basis[0], e.sum(axis=0) / (8 + db), atol=1e-12)
    assert np.allclose(basis[1], 0.0, atol=1e-12)


def test_update_basis_regularizer_dominance():
    rng = np.random.default_rng(6)
    coeffs = rng.integers(-2, 3, size=(6, 2)).astype(float)
    e = rng.standard_normal((6, 2))
    basis = update_basis(coeffs, e, 1e12)
    assert np.abs(basis).max() < 1e-9


def test_update_basis_beats_random_probes():
    rng = np.random.default_rng(7)
    coeffs = rng.integers(-2, 3, size=(10, 2)).astype(float)
    e = rng.standard_normal((10, 2)) * 4
    db, dm = 0.7, 0.0
    best = update_basis(coeffs, e, db)
    q_best = q_energy(best, coeffs, e, db, dm)
    for _ in range(100):
        probe = best + rng.standard_normal((2, 2)) * rng.uniform(0.01, 5)
        assert q_energy(probe, coeffs, e, db, dm) >= q_best - 1e-10


def test_rounding_exact_on_orthogonal_bases():
    rng = np.random.default_rng(8)
    for _ in range(15):
        b1 = rng.standard_normal(2)
        b1 /= np.linalg.norm(b1)
        b1 *= rng.uniform(0.8, 3.0)
        basis = np.vstack([b1, [-b1[1], b1[0]]])
        e = rng.uniform(-8, 8, size=(3, 2))
        rounded = round_half_away(update_coeffs(basis, e, 0.0))
        grid = np.arange(-10, 11)
        mm, nn = np.meshgrid(grid, grid, indexing="ij")
        for k in range(3):
            resid = (
                mm[..., None] * basis[0] + nn[..., None] * basis[1] - e[k]
            )
            cost = np.sum(resid**2, axis=-1)
            best = np.unravel_index(np.argmin(cost), cost.shape)
            assert (rounded[k] == (grid[best[0]], grid[best[1]])).all()


# -------------------------------------------------------------- optimizer


def test_alternate_minimization_planted_perfect():
    basis_true = np.array([[20.0, 0.0], [0.0, 15.0]])
    combos = np.array(
        [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1], [1, 1], [1, 0], [0, 1]], dtype=float
    )
    e = combos @ basis_true
    fit = alternate_minimization(e, delta_b=1e-2, delta_m=10.0, n_iter=20)
    assert abs(abs(fit.det) - 300.0) <= 0.05 * 300.0
    resid = fit.coeffs @ fit.basis - e
    assert np.linalg.norm(resid, axis=1).max() <= 0.5
    assert not fit.degenerate


def test_alternate_minimization_single_edge():
    e = np.array([[10.0, 0.0]])
    fit = alternate_minimization(e, delta_b=1e-2, delta_m=10.0, n_iter=5)
    # median init is the direct orthogonal pair on the edge itself
    first_m = update_coeffs(np.array([[10.0, 0.0], [0.0, 10.0]]), e, 10.0)
    assert first_m[0, 0] == pytest.approx(100.0 / 110.0, rel=1e-12)
    assert fit.coeffs[0].tolist() == [1, 0]


def test_alternate_minimization_monotone_and_stationary():
    rng = np.random.default_rng(9)
    for trial in range(20):
        e = rng.standard_normal((int(rng.integers(1, 12)), 2)) * rng.uniform(1, 30)
        fit = alternate_minimization(e, delta_b=1e-2, delta_m=10.0, n_iter=60)
        q = fit.q_trajectory
        assert all(b <= a + 1e-9 * max(1, abs(a)) for a, b in zip(q, q[1:]))
        assert fit.converged_at is not None and fit.converged_at <= 60
        assert fit.sigma2 == pytest.approx(
            q[-1] / (4 * (len(e) + 1)), rel=1e-12
        )


def test_alternate_minimization_random_init_seeded():
    rng = np.random.default_rng(10)
    e = rng.standard_normal((6, 2)) * 10
    a = alternate_minimization(e, 1e-2, 10.0, 10, init="random", seed=5)
    b = alternate_minimization(e, 1e-2, 10.0, 10, init="random", seed=5)
    assert np.array_equal(a.basis, b.basis)
    # the initial basis: the direct orthogonal pair on the seeded edge
    pick = e[np.random.default_rng(5).integers(0, 6)]
    basis0 = np.array([[pick[0], pick[1]], [-pick[1], pick[0]]])
    assert a.q_trajectory[0] == pytest.approx(
        q_energy(basis0, np.zeros((6, 2)), e, 1e-2, 10.0)
    )


def test_alternate_minimization_validation():
    with pytest.raises(ValueError):
        alternate_minimization(np.zeros((0, 2)), 0.1, 0.1, 5)
    with pytest.raises(ValueError):
        alternate_minimization(np.ones((3, 2)), 0.1, 0.1, 0)
    with pytest.raises(ValueError):
        alternate_minimization(np.ones((3, 2)), 0.1, 0.1, 5, init="nope")


# -------------------------------------------------------------------- c_per


def test_c_per_direct_value():
    fit = alternate_minimization(
        np.array([[5.0, 0.0], [0.0, 5.0]]), 1e-2, 1.0, 5
    )
    fit.sigma2 = 1.0
    fit.basis = np.array([[5.0, 0.0], [0.0, 5.0]])
    fit.det = 25.0
    assert c_per(fit, 10) == pytest.approx(math.pi / 250.0, rel=1e-12)
    fit.sigma2 = 4.0
    assert c_per(fit, 10) == pytest.approx(4 * math.pi / 250.0, rel=1e-12)


def test_c_per_degenerate_sentinel():
    fit = alternate_minimization(np.array([[4.0, 0.0]]), 1e-2, 10.0, 5)
    assert abs(fit.det) < 1e-9  # single edge collapses the second vector
    assert fit.degenerate
    assert c_per(fit, 3) == math.inf
    with pytest.raises(ValueError):
        c_per(fit, 0)


def test_c_per_separates_planted_from_shuffled():
    # lattice point sets score well below uniformly redrawn ones; the
    # coefficient regularizer floors the planted noise level at
    # delta_m * ||M||^2 / (4 |E|), which caps the contrast around 6x
    from redlab.lattice import nearest_neighbor_edges

    basis_true = np.array([[20.0, 0.0], [0.0, 15.0]])
    ii, jj = np.mgrid[0:7, 0:8]
    grid = ii.ravel()[:, None] * basis_true[0] + jj.ravel()[:, None] * basis_true[1]
    planted_scores = []
    shuffled_scores = []
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        pts = grid + 0.5 * rng.standard_normal(grid.shape)
        _, edges = nearest_neighbor_edges(pts)
        fit = alternate_minimization(edges, 1e-2, 10.0, 30)
        planted_scores.append(c_per(fit, len(pts)))
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        rnd = lo + (hi - lo) * rng.random(pts.shape)
        _, edges_r = nearest_neighbor_edges(rnd)
        fit_r = alternate_minimization(edges_r, 1e-2, 10.0, 30)
        shuffled_scores.append(c_per(fit_r, len(rnd)))
    med_planted = float(np.median(planted_scores))
    med_shuffled = float(np.median(shuffled_scores))
    assert med_planted < 1e-3
    assert med_shuffled >= 5 * med_planted


def test_c_per_unimodular_invariance():
    # same residual energy and |det| after a unimodular change of basis
    basis = np.array([[12.0, 1.0], [3.0, 9.0]])
    change = np.array([[1.0, 1.0], [0.0, 1.0]])  # det 1
    transformed = change @ basis
    det1 = basis[0, 0] * basis[1, 1] - basis[0, 1] * basis[1, 0]
    det2 = transformed[0, 0] * transformed[1, 1] - transformed[0, 1] * transformed[1, 0]
    assert abs(det1) == pytest.approx(abs(det2), rel=1e-12)


# ------------------------------------------------------------------ ranking


def checkerboard(shape=(48, 48), cell=12, lo=0.0, hi=255.0, defect=True):
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w]
    board = np.where(((xs // cell) + (ys // cell)) % 2 == 0, hi, lo)
    if defect:
        board[4:10, 3:9] = 0.5 * (lo + hi)  # local blemish breaks exactness
    return board.astype(float)


def test_rank_checkerboard_beats_noise():
    rng = np.random.default_rng(11)
    noise = rng.uniform(0, 255, size=(48, 48))
    records = rank_textures(
        [noise, checkerboard()],
        n_anchors=8,
        patch_side=20,
        seed=3,
        labels=["noise", "board"],
    )
    assert records[0]["label"] == "board"
    assert records[0]["rank"] == 0


def test_rank_singleton_and_order_invariance():
    rng = np.random.default_rng(12)
    imgs = [checkerboard(), rng.uniform(0, 255, (48, 48))]
    single = rank_textures([imgs[0]], n_anchors=4, patch_side=20, seed=1)
    assert len(single) == 1 and single[0]["rank"] == 0
    fwd = rank_textures(imgs, n_anchors=6, patch_side=20, seed=2, labels=["a", "b"])
    rev = rank_textures(imgs[::-1], n_anchors=6, patch_side=20, seed=2, labels=["b", "a"])
    assert [r["label"] for r in fwd] == [r["label"] for r in rev]


def test_rank_rejects_small_images():
    with pytest.raises(ValueError):
        rank_textures([np.zeros((10, 10))], n_anchors=2, patch_side=20)


@pytest.mark.parametrize("n_anchors", [0, -3])
def test_rank_rejects_anchor_counts_below_one_before_any_law_table(monkeypatch, n_anchors):
    import redlab.lattice

    def no_table(*args, **kwargs):
        raise AssertionError("law table built before n_anchors was checked")

    monkeypatch.setattr(redlab.lattice, "offset_laws", no_table)
    with pytest.raises(ValueError, match="n_anchors"):
        rank_textures([np.zeros((24, 24))], n_anchors=n_anchors, patch_side=8)


@pytest.mark.parametrize("shape, n_anchors", [((48, 48), 17), ((40, 44), 20)])
def test_rank_records_match_the_per_anchor_loop(shape, n_anchors):
    # 2**14 // (48 * 48) = 7 anchors a stack, 9 at 40 x 44: several stacks
    # and a partial last one.  The stripes give some infinite scores.
    rng = np.random.default_rng(13)
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w]
    images = [
        checkerboard(shape) + rng.normal(0.0, 10.0, shape),
        rng.uniform(0, 255, shape),  # every anchor fails
        128.0 + 80.0 * np.sign(np.sin(2 * np.pi * (xs + ys) / 10)) + rng.normal(0.0, 10.0, shape),
        checkerboard(shape, cell=8) + rng.normal(0.0, 30.0, shape),
    ]
    records = rank_textures(images, n_anchors=n_anchors, patch_side=12, nfa_max=2.0, seed=5)
    for rec in records:
        n_success, n_failed, values = anchor_loop_scores(
            images[rec["index"]], n_anchors, 12, 2.0, 10.0, 1e-2, 10, 5
        )
        assert (rec["n_success"], rec["n_failed"]) == (n_success, n_failed)
        assert rec["c_per_values"] == values
        assert rec["score"] == (float(np.median(values)) if values else None)
