import numpy as np
import pytest
from oracles import (
    covariance_matrix,
    delta_map,
    law_from_eigenvalues,
    patch_coords,
    white_noise_covariance,
    white_noise_eigenvalues,
)

from redlab.background import (
    MicrotextureModel,
    cumulants,
    from_exemplar,
    sample,
    white_noise,
)
from redlab.grid import PatchDomain
from redlab.quadform import QuadFormLaw


def law_from_matrix(c: np.ndarray) -> QuadFormLaw:
    """Eigendecomposition-based cumulants (independent of the trace path)."""
    lam = np.linalg.eigvalsh(c)
    return law_from_eigenvalues([(float(v), 1) for v in lam])


# ----------------------------------------------------------------- models


def test_constant_exemplar_is_degenerate():
    model = from_exemplar(np.full((8, 8), 5.0))
    assert model.degenerate
    assert np.allclose(model.kernel, 0.0)
    assert np.allclose(model.gamma, 0.0)


def test_model_rejects_an_uneven_gamma():
    # The engine reads Gamma(a - t) as Gamma(t - a), so evenness is exact.
    rng = np.random.default_rng(4)
    model = from_exemplar(rng.standard_normal((6, 7)))
    gamma = model.gamma.copy()
    gamma[1, 2] = np.nextafter(gamma[1, 2], np.inf)  # its mirror (5, 5) unchanged
    with pytest.raises(ValueError, match="even"):
        MicrotextureModel(kernel=model.kernel, gamma=gamma, kind="exemplar")
    MicrotextureModel(kernel=model.kernel, gamma=model.gamma, kind="exemplar")


def test_exemplar_variance_at_origin():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((8, 8)) * 3 + 10
    model = from_exemplar(u)
    assert model.gamma[0, 0] == pytest.approx(u.var(), rel=1e-12)


def test_exemplar_covariance_identity_brute_force():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((8, 8))
    model = from_exemplar(u)
    m = u.mean()
    for zx in range(8):
        for zy in range(8):
            naive = sum(
                (u[y, x] - m) * (u[(y - zy) % 8, (x - zx) % 8] - m)
                for x in range(8)
                for y in range(8)
            ) / 64.0
            assert model.gamma[zy, zx] == pytest.approx(naive, abs=1e-10)


# ---------------------------------------------------------------- delta_map


def test_delta_white_noise_three_spikes():
    model = white_noise((8, 8))
    d = delta_map(model, (3, 0))
    expected = np.zeros((8, 8))
    expected[0, 0] = 2.0
    expected[0, 3] = -1.0
    expected[0, 5] = -1.0  # -t modulo the torus
    assert np.allclose(d, expected, atol=1e-12)


def test_delta_zero_offset_is_zero_map():
    rng = np.random.default_rng(2)
    model = from_exemplar(rng.standard_normal((8, 8)))
    assert np.all(delta_map(model, (0, 0)) == 0.0)


def test_delta_matches_direct_formula():
    rng = np.random.default_rng(3)
    model = from_exemplar(rng.standard_normal((8, 8)))
    g = model.gamma
    t = (3, 2)
    d = delta_map(model, t)
    for zx in range(8):
        for zy in range(8):
            direct = (
                2 * g[zy, zx]
                - g[(zy + t[1]) % 8, (zx + t[0]) % 8]
                - g[(zy - t[1]) % 8, (zx - t[0]) % 8]
            )
            assert d[zy, zx] == pytest.approx(direct, abs=1e-12)


# -------------------------------------------------------------- covariance


def test_covariance_zero_offset():
    rng = np.random.default_rng(4)
    model = from_exemplar(rng.standard_normal((8, 8)))
    c = covariance_matrix(model, (0, 0), PatchDomain(side=3))
    assert np.all(c == 0.0)


def test_covariance_white_non_overlap_is_twice_identity():
    model = white_noise((16, 16))
    c = covariance_matrix(model, (5, 4), PatchDomain(side=4))
    assert np.allclose(c, 2.0 * np.eye(16), atol=1e-12)


def test_covariance_white_block_structure():
    # Increment covariance: 2 on the diagonal, -1 where patch coordinates
    # differ by exactly +-t; in canonical (x-major) order that is one
    # sub/super block diagonal.
    p, t = 4, (1, 1)
    model = white_noise((16, 16))
    c = covariance_matrix(model, t, PatchDomain(side=p))
    expected = 2.0 * np.eye(p * p)
    coords = patch_coords(PatchDomain(side=p))
    for i, (x1, y1) in enumerate(coords):
        for j, (x2, y2) in enumerate(coords):
            if (x1 - x2, y1 - y2) in ((t[0], t[1]), (-t[0], -t[1])):
                expected[i, j] = -1.0
    assert np.allclose(c, expected, atol=1e-12)


def test_covariance_cap():
    model = white_noise((8, 8))
    big = PatchDomain(side=70)
    with pytest.raises(ValueError):
        covariance_matrix(model, (1, 0), big)


def test_covariance_psd_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(6, 16))
        model = from_exemplar(rng.standard_normal((n, n)))
        t = (int(rng.integers(0, n)), int(rng.integers(0, n)))
        p = int(rng.integers(1, 5))
        anchor = (int(rng.integers(0, n)), int(rng.integers(0, n)))
        c = covariance_matrix(model, t, PatchDomain(anchor=anchor, side=p))
        assert np.linalg.eigvalsh(c).min() >= -1e-8


# ---------------------------------------------------------------- cumulants


def test_cumulants_white_non_overlap():
    model = white_noise((32, 32))
    law = cumulants(model, (9, 11), PatchDomain(side=8))
    assert (law.k1, law.k2, law.k3) == (128.0, 512.0, 4096.0)


def test_cumulants_zero_offset_degenerate():
    rng = np.random.default_rng(6)
    model = from_exemplar(rng.standard_normal((12, 12)))
    law = cumulants(model, (0, 0), PatchDomain(side=4))
    assert law.k1 == 0.0 and law.k2 == 0.0 and law.k3 == 0.0


def test_cumulants_match_dense_eigendecomposition():
    rng = np.random.default_rng(7)
    model = from_exemplar(rng.standard_normal((10, 10)))
    patch = PatchDomain(anchor=(3, 1), side=4)
    law = cumulants(model, (2, 1), patch)
    ref = law_from_matrix(covariance_matrix(model, (2, 1), patch))
    assert law.k1 == pytest.approx(ref.k1, rel=1e-10)
    assert law.k2 == pytest.approx(ref.k2, rel=1e-10)
    assert law.k3 == pytest.approx(ref.k3, rel=1e-8)


def test_cumulants_trace_vs_eig_many_random_triples():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(8, 20))
        model = from_exemplar(rng.standard_normal((n, n)))
        t = (int(rng.integers(0, n)), int(rng.integers(0, n)))
        p = int(rng.integers(1, 9))
        patch = PatchDomain(
            anchor=(int(rng.integers(0, n)), int(rng.integers(0, n))), side=p
        )
        law = cumulants(model, t, patch)
        ref = law_from_matrix(covariance_matrix(model, t, patch))
        scale = max(ref.k1, 1e-12)
        assert abs(law.k1 - ref.k1) <= 1e-6 * scale
        assert abs(law.k2 - ref.k2) <= 1e-6 * max(ref.k2, 1e-12)
        assert abs(law.k3 - ref.k3) <= 1e-6 * max(ref.k3, 1e-12)


def test_exact_period_offsets_yield_degenerate_law():
    tile = np.random.default_rng(9).standard_normal((4, 4))
    u = np.tile(tile, (3, 3))  # exactly periodic with period (4, 4)
    model = from_exemplar(u)
    law = cumulants(model, (4, 0), PatchDomain(side=3))
    assert law.k1 == 0.0


# ------------------------------------------------- white-noise eigenvalues


def test_white_eigenvalues_p4_t11_example():
    pairs = dict()
    for lam, r in white_noise_eigenvalues(4, (1, 1)):
        pairs.setdefault(r, []).append(lam)
    # q = 4: multiplicity 2 for m in {2, 3, 4}, edge multiplicity 1 at m=5
    counts = sorted((r, len(v)) for r, v in pairs.items())
    assert counts == [(1, 4), (2, 6)]
    total = sum(r * len(v) for r, v in pairs.items())
    assert total == 16


def test_white_eigenvalues_non_overlap():
    assert white_noise_eigenvalues(4, (7, 2)) == [(2.0, 16)]
    assert white_noise_eigenvalues(5, (0, 9)) == [(2.0, 25)]


def test_white_eigenvalues_requires_both_components():
    with pytest.raises(ValueError):
        white_noise_eigenvalues(4, (0, 2))


def test_white_eigenvalues_match_dense_sweep():
    for p in (2, 3, 4):
        for tx in range(1, p):
            for ty in range(1, p):
                closed = np.sort(
                    np.concatenate(
                        [[v] * m for v, m in white_noise_eigenvalues(p, (tx, ty))]
                    )
                )
                dense = np.sort(np.linalg.eigvalsh(white_noise_covariance(p, (tx, ty))))
                assert closed.shape == dense.shape
                assert np.allclose(closed, dense, atol=1e-9)


def test_white_eigenvalue_multiplicity_properties():
    import math

    for p, t in [(5, (2, 3)), (6, (1, 4)), (6, (5, 5)), (4, (3, 1))]:
        tx, ty = abs(t[0]), abs(t[1])
        q = math.ceil(p / max(tx, ty))
        by_m: dict[int, set[int]] = {}
        for lam, r in white_noise_eigenvalues(p, t):
            # recover m from the eigenvalue: lam = 4 sin^2(k pi / 2m)
            matched = False
            for m in range(2, q + 2):
                for k in range(1, m):
                    if abs(lam - 4 * math.sin(k * math.pi / (2 * m)) ** 2) < 1e-12:
                        by_m.setdefault(m, set()).add(r)
                        matched = True
                        break
                if matched:
                    break
            assert matched
        for m, rs in by_m.items():
            assert len(rs) == 1  # (a) multiplicity independent of k
            if 2 <= m < q:
                assert rs == {2 * tx * ty}  # (b)
        total = sum(r * 1 for _, r in white_noise_eigenvalues(p, t))
        assert total == p * p  # (d)


def test_white_noise_law_axis_offset_matches_dense():
    law = cumulants(white_noise((8, 8)), (2, 0), PatchDomain(side=6))  # no wrap
    ref = law_from_matrix(white_noise_covariance(6, (2, 0)))
    assert law.k1 == pytest.approx(ref.k1, rel=1e-10)
    assert law.k2 == pytest.approx(ref.k2, rel=1e-10)
    assert law.k3 == pytest.approx(ref.k3, rel=1e-8)


def _white_noise_oracle(p: int, t) -> QuadFormLaw:
    """The plane white-noise law from oracles independent of the engine: the
    eigenvalue 2 with multiplicity ``p^2`` once the offset clears the patch,
    the closed-form spectrum when both components are nonzero, and the
    dense traces of the increment covariance on the axes."""
    tx, ty = abs(t[0]), abs(t[1])
    if max(tx, ty) >= p:
        return law_from_eigenvalues([(2.0, p * p)])
    if tx and ty:
        return law_from_eigenvalues(white_noise_eigenvalues(p, t))
    c = white_noise_covariance(p, t)
    return QuadFormLaw(
        float(np.trace(c)), 2.0 * float(np.sum(c * c)), 8.0 * float(np.sum(c * (c @ c)))
    )


@pytest.mark.parametrize("p", [*range(1, 11), 16, 20])
def test_white_noise_law_matches_oracles(p):
    # On a torus of side p + 12 no offset |t| <= 12 wraps: the plane law.
    plane, patch = white_noise((p + 12, p + 12)), PatchDomain(side=p)
    offsets = [(tx, ty) for ty in range(-12, 13) for tx in range(-12, 13)]
    oracle = [_white_noise_oracle(p, t) for t in offsets]
    want = np.array([(law.k1, law.k2, law.k3) for law in oracle])
    batch = cumulants(plane, np.array(offsets), patch)
    got = np.stack([batch.k1, batch.k2, batch.k3], axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    for t, ref in zip(offsets, want):
        law = cumulants(plane, t, patch)
        assert isinstance(law.k1, float)
        np.testing.assert_allclose([law.k1, law.k2, law.k3], ref, rtol=1e-12, atol=0.0)


# ----------------------------------------------------------------- sampling


def test_sample_white_noise_equals_raw_draw():
    model = white_noise((16, 16))
    draw = sample(model, 123)
    raw = np.random.default_rng(123).standard_normal((16, 16))
    assert np.allclose(draw, raw, atol=1e-10)


def test_sample_zero_model_is_zero():
    model = from_exemplar(np.full((8, 8), 2.0))
    assert np.allclose(sample(model, 0), 0.0)


def test_sample_variance_matches_gamma0():
    rng = np.random.default_rng(10)
    model = from_exemplar(rng.standard_normal((16, 16)))
    draws = np.stack([sample(model, s) for s in range(2000)])
    stats = np.mean(draws * draws, axis=(1, 2))  # per-draw mean square
    se = stats.std(ddof=1) / np.sqrt(len(stats))
    assert abs(stats.mean() - model.gamma[0, 0]) <= 5 * se
    mean_se = np.abs(draws.mean(axis=0)).mean()
    assert abs(draws.mean()) <= 5 * draws.std() / np.sqrt(draws.size) + 1e-12
    assert mean_se < 0.2  # pixelwise means shrink with the sample count


def test_sample_autocovariance_matches_gamma():
    rng = np.random.default_rng(11)
    model = from_exemplar(rng.standard_normal((8, 8)) * 2)
    draws = np.stack([sample(model, 1000 + s) for s in range(4000)])
    z = (1, 2)
    rolled = np.roll(draws, shift=(-z[1], -z[0]), axis=(1, 2))
    cov = np.mean(draws * rolled, axis=(1, 2))
    se = cov.std(ddof=1) / np.sqrt(len(cov))
    assert abs(cov.mean() - model.gamma[z[1], z[0]]) <= 5 * se


def test_as_statistic_moments_match_cumulants_montecarlo():
    # 1e6 draws of the statistic under white noise, p=8, t=(3,2)
    p, t = 8, (3, 2)
    law = cumulants(white_noise((11, 11)), t, PatchDomain(side=p))  # no wrap
    rng = np.random.default_rng(12)
    n_total = 1_000_000
    chunk = 100_000
    vals = []
    for _ in range(n_total // chunk):
        w = rng.standard_normal((chunk, p + abs(t[1]), p + abs(t[0])))
        base = w[:, : p, : p]
        shifted = w[:, t[1] : t[1] + p, t[0] : t[0] + p]
        vals.append(np.sum((shifted - base) ** 2, axis=(1, 2)))
    vals = np.concatenate(vals)
    mean = vals.mean()
    se_mean = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(mean - law.k1) <= 3 * se_mean
    var = vals.var(ddof=1)
    centered = (vals - mean) ** 2
    se_var = centered.std(ddof=1) / np.sqrt(len(vals))
    assert abs(var - law.k2) <= 3 * se_var

