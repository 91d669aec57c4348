import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import loop_nlmeans_classic, loop_nlmeans_threshold, reconstruction_bound
from scipy import special, stats

from redlab.denoise import (
    DenoiseConfig,
    nlmeans_a_priori_threshold,
    nlmeans_classic,
    nlmeans_threshold,
    psnr,
)


def naive_threshold_nlmeans(u, p, c, accept_fn):
    """Patch-by-patch reference implementation (no integral images)."""
    h, w = u.shape
    p_hat = {}
    for ay in range(h - p + 1):
        for ax in range(w - p + 1):
            acc = []
            for ty in range(-c, c + 1):
                for tx in range(-c, c + 1):
                    if not (0 <= ay + ty <= h - p and 0 <= ax + tx <= w - p):
                        continue
                    patch = u[ay + ty : ay + ty + p, ax + tx : ax + tx + p]
                    base = u[ay : ay + p, ax : ax + p]
                    dist = float(np.sum((patch - base) ** 2))
                    if (tx == 0 and ty == 0) or accept_fn(tx, ty, dist):
                        acc.append(patch)
            p_hat[(ax, ay)] = np.mean(acc, axis=0)
    out = np.zeros((h, w))
    cnt = np.zeros((h, w))
    for (ax, ay), patch in p_hat.items():
        out[ay : ay + p, ax : ax + p] += patch
        cnt[ay : ay + p, ax : ax + p] += 1
    return out / cnt


# -------------------------------------------------------------- thresholds


def test_window_size_and_shape():
    cfg = DenoiseConfig(sigma=10.0)
    assert cfg.window_size == 441
    a_map, mean_a = nlmeans_a_priori_threshold(8, 10, 4.41)
    assert a_map.shape == (21, 21)
    assert a_map[10, 10] == 0.0
    assert mean_a > 0


@pytest.mark.parametrize("p, c", [(1, 3), (3, 7), (8, 10), (12, 15)])
def test_threshold_map_dihedral_symmetry_bit_for_bit(p, c):
    # White-noise cumulants are sums of small integers, so the engine's
    # x-orbit sum and y-Hankel view, asymmetric in form, give equal bits.
    a_map, _ = nlmeans_a_priori_threshold(p, c, 4.41)
    for image in (a_map.T, a_map[::-1], a_map[:, ::-1]):
        assert np.array_equal(a_map, image)


def test_thresholds_come_from_one_law_table_call(monkeypatch):
    # One engine call: one law per +-t pair of the 15 x 15 offsets that
    # overlap the patch, (15 * 15 + 1) / 2 = 113, and one for all the rest.
    import redlab.detect

    rows = []
    engine = redlab.detect.cumulants

    def counted(model, t, patch):
        rows.append(len(t))
        return engine(model, t, patch)

    monkeypatch.setattr(redlab.detect, "cumulants", counted)
    nlmeans_a_priori_threshold(8, 10, 4.41)
    assert rows == [114]


def test_threshold_table_records_its_engine_rows(monkeypatch):
    import redlab.denoise

    tables = []
    build = redlab.denoise.offset_laws

    def kept(*args, **kwargs):
        tables.append(build(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(redlab.denoise, "offset_laws", kept)
    nlmeans_a_priori_threshold(8, 10, 4.41)
    assert [t.evaluated for t in tables] == [114]


def test_threshold_symmetry_and_plateau():
    a_map, _ = nlmeans_a_priori_threshold(8, 10, 4.41)
    c = 10
    assert np.array_equal(a_map, a_map[::-1, ::-1])  # a(t) == a(-t)
    # constant once the offset clears the patch
    faraway = [a_map[c + ty, c + tx] for tx, ty in [(8, 0), (9, 3), (10, 10), (0, 9)]]
    assert np.allclose(faraway, faraway[0], rtol=1e-9)
    q = 1 - 4.41 / 441
    assert faraway[0] == pytest.approx(2 * stats.chi2.ppf(q, df=64), rel=5e-3)
    # decays along the axes until the plateau
    row = [a_map[c, c + tx] for tx in range(1, 9)]
    assert all(a >= b - 1e-9 for a, b in zip(row, row[1:]))


def test_threshold_spread_band():
    a_map, _ = nlmeans_a_priori_threshold(8, 10, 0.5)
    vals = a_map[a_map > 0]
    spread = vals.max() / vals.min() - 1.0
    assert 0.08 <= spread <= 0.18


@pytest.mark.parametrize("nfa", [0.0, 1.0, 49.0])
def test_mutated_threshold_map_does_not_leak_into_the_next_call(nfa):
    a_map, mean_a = nlmeans_a_priori_threshold(4, 3, nfa)
    want = a_map.copy()
    a_map[0, 0] = -7.0
    again, mean_again = nlmeans_a_priori_threshold(4, 3, nfa)
    assert np.array_equal(again, want)
    assert mean_again == mean_a


@pytest.mark.parametrize("nfa", [0.0, 0.5])
def test_threshold_mean_of_origin_only_window_is_zero(nfa):
    # c = 0: the window holds only the origin, so no nonzero offset enters
    # the mean; it is 0, as at nfa_max == |T|.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_map, mean_a = nlmeans_a_priori_threshold(5, 0, nfa)
    assert a_map.tolist() == [[0.0]]
    assert mean_a == 0.0


def test_threshold_validation():
    # nfa_max == |T| rejects every offset but the origin, as DenoiseConfig
    # allows: all thresholds are zero.
    a_map, mean_a = nlmeans_a_priori_threshold(8, 10, 441.0)
    assert np.array_equal(a_map, np.zeros((21, 21)))
    assert mean_a == 0.0
    with pytest.raises(ValueError):
        nlmeans_a_priori_threshold(8, 10, 441.5)
    with pytest.raises(ValueError):
        nlmeans_a_priori_threshold(8, 10, -0.1)


@pytest.mark.parametrize("sigma", [0.0, -1.0, 1e-300])
def test_config_rejects_a_sigma_whose_square_is_not_positive(sigma):
    # 1e-300 squares to 0, and 0 times an infinite threshold is NaN.
    with pytest.raises(ValueError):
        DenoiseConfig(sigma=sigma)
    assert DenoiseConfig(sigma=1e-100).sigma ** 2 > 0.0


# ------------------------------------------------------------ limit behavior


def test_all_accept_limit_is_boxcar_mean():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((8, 8)) * 10 + 100
    cfg = DenoiseConfig(sigma=1.0, patch_side=2, search_radius=8, nfa_max=0.0)
    got = nlmeans_threshold(u, cfg).denoised
    ref = naive_threshold_nlmeans(u, 2, 8, lambda tx, ty, d: True)
    assert np.allclose(got, ref, atol=1e-10)


def test_identity_limit_only_origin_accepted():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((12, 12))
    cfg = DenoiseConfig(
        sigma=1.0, patch_side=3, search_radius=2, nfa_max=25.0
    )  # nfa == |T|: thresholds collapse to zero
    report = nlmeans_threshold(u, cfg)
    assert np.allclose(report.denoised, u, atol=1e-12)
    assert np.all(report.selected_counts == 1)


def test_matches_naive_oracle_midrange():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((10, 10)) * 5
    cfg = DenoiseConfig(
        sigma=5.0, patch_side=3, search_radius=3, nfa_max=2.0, threshold_mode="per-offset"
    )
    report = nlmeans_threshold(u, cfg)
    a_map, _ = nlmeans_a_priori_threshold(3, 3, 2.0)
    ref = naive_threshold_nlmeans(
        u, 3, 3, lambda tx, ty, d: d <= 25.0 * a_map[ty + 3, tx + 3]
    )
    assert np.allclose(report.denoised, ref, atol=1e-10)


def test_constant_image_unchanged():
    u = np.full((16, 16), 42.0)
    cfg = DenoiseConfig(sigma=3.0, patch_side=4, search_radius=3, nfa_max=1.0)
    report = nlmeans_threshold(u, cfg)
    assert np.allclose(report.denoised, u, atol=1e-12)


def test_image_smaller_than_patch_errors():
    cfg = DenoiseConfig(sigma=1.0, patch_side=9, search_radius=2, nfa_max=1.0)
    with pytest.raises(ValueError):
        nlmeans_threshold(np.zeros((5, 5)), cfg)


def test_weight_maps_are_not_held_at_once():
    # 441 float64 weight maps of 121^2 anchors would take 49 MiB together;
    # aggregating them one at a time keeps the peak near the boolean maps.
    rng = np.random.default_rng(13)
    u = 128.0 + 40.0 * rng.standard_normal((128, 128))
    cfg = DenoiseConfig(sigma=20.0, patch_side=8, search_radius=10)
    tracemalloc.start()
    try:
        nlmeans_threshold(u, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20


@pytest.mark.parametrize("mode", ["constant-mean", "per-offset"])
def test_selections_are_kept_as_bits(mode):
    # 441 boolean maps of 121^2 anchors take 6.2 MiB; packed to one bit per
    # anchor they take 0.8 MiB, beside one float weight map and the buffers.
    rng = np.random.default_rng(13)
    u = np.round(128.0 + 40.0 * rng.standard_normal((128, 128)))
    cfg = DenoiseConfig(sigma=20.0, patch_side=8, search_radius=10, threshold_mode=mode)
    tracemalloc.start()
    try:
        nlmeans_threshold(u, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_classic_weight_maps_are_normalized_one_at_a_time():
    # The 441 raw weight maps of 121^2 anchors take 49 MiB; a second list
    # of normalized maps would double that.
    rng = np.random.default_rng(13)
    u = 128.0 + 40.0 * rng.standard_normal((128, 128))
    cfg = DenoiseConfig(sigma=20.0, patch_side=8, search_radius=10)
    tracemalloc.start()
    try:
        report = nlmeans_classic(u, cfg, h_bandwidth=20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One raw map per +-t pair, over the anchors where it applies, peaks at
    # 24 MiB; one full raw map per offset peaks at 51 MiB.
    assert peak < 32 * 2**20
    assert report.extra["weight_sum_max_err"] < 1e-12


# ---------------------------------------------- agreement with the loop


def _agreement_image(shape, integer, seed):
    rng = np.random.default_rng(seed)
    u = 100.0 + 30.0 * rng.standard_normal(shape)
    u[:, ::5] += 40.0  # some structure, so thresholds split offsets
    return np.round(u) if integer else u


AGREEMENT_CASES = [
    # shape, p, c, nfa_max (None: |T|), integer image
    ((20, 20), 3, 3, 2.0, True),
    ((20, 20), 3, 3, 2.0, False),
    ((23, 37), 4, 5, 3.0, False),
    ((37, 23), 4, 5, 3.0, True),
    ((9, 12), 3, 11, 5.0, False),  # most offsets have no anchors
    ((16, 13), 1, 4, 1.0, False),
    ((16, 13), 5, 0, 0.0, False),
    ((18, 18), 3, 3, 0.0, False),
    ((18, 18), 3, 3, None, True),
]


@pytest.mark.parametrize("mode", ["constant-mean", "per-offset"])
@pytest.mark.parametrize("case", range(len(AGREEMENT_CASES)))
def test_threshold_matches_per_offset_loop_bitwise(case, mode):
    shape, p, c, nfa, integer = AGREEMENT_CASES[case]
    u = _agreement_image(shape, integer, seed=case)
    nfa = (2 * c + 1) ** 2 if nfa is None else nfa
    cfg = DenoiseConfig(
        sigma=25.0, patch_side=p, search_radius=c, nfa_max=nfa, threshold_mode=mode
    )
    report = nlmeans_threshold(u, cfg)
    denoised, counts = loop_nlmeans_threshold(u, p, c, report.thresholds, 25.0**2)
    assert np.array_equal(report.denoised, denoised)
    assert np.array_equal(report.selected_counts, counts)
    assert 1 <= counts.min() and counts.max() <= cfg.window_size
    if c > 0 and nfa < cfg.window_size:  # selections differ, so a misplaced map shows
        assert counts.min() < counts.max()


def test_threshold_mirror_uses_its_own_threshold(monkeypatch):
    # t and -t share distances but not thresholds: an asymmetric map must
    # still give the per-offset loop's result.
    import redlab.denoise as denoise_module

    rng = np.random.default_rng(21)
    a_map = rng.uniform(0.0, 40.0, size=(9, 9))
    monkeypatch.setattr(
        denoise_module, "nlmeans_a_priori_threshold", lambda p, c, nfa: (a_map, 20.0)
    )
    u = _agreement_image((23, 37), False, seed=21)
    cfg = DenoiseConfig(
        sigma=5.0, patch_side=2, search_radius=4, threshold_mode="per-offset"
    )
    report = nlmeans_threshold(u, cfg)
    denoised, counts = loop_nlmeans_threshold(u, 2, 4, a_map, 25.0)
    assert np.array_equal(report.thresholds, a_map)
    assert np.array_equal(report.denoised, denoised)
    assert np.array_equal(report.selected_counts, counts)


@pytest.mark.parametrize("case", range(len(AGREEMENT_CASES)))
def test_classic_matches_per_offset_loop_bitwise(case):
    shape, p, c, _, integer = AGREEMENT_CASES[case]
    u = _agreement_image(shape, integer, seed=case)
    cfg = DenoiseConfig(sigma=25.0, patch_side=p, search_radius=c, nfa_max=0.0)
    h_bandwidth = 0.4 * 25.0 * p
    report = nlmeans_classic(u, cfg, h_bandwidth=h_bandwidth)
    denoised, sel, extra = loop_nlmeans_classic(u, p, c, h_bandwidth)
    assert np.array_equal(report.denoised, denoised)
    assert np.array_equal(report.selected_counts, sel)
    assert report.extra == extra


# ------------------------------------------------------------- calibration


def test_rejection_rate_on_pure_noise():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((32, 32))
    cfg = DenoiseConfig(
        sigma=1.0,
        patch_side=4,
        search_radius=5,
        nfa_max=0.01 * 121,
        threshold_mode="per-offset",
    )
    report = nlmeans_threshold(u, cfg)
    t_count = 121
    interior = report.selected_counts[5 : 32 - 4 - 5 + 1, 5 : 32 - 4 - 5 + 1]
    rejected = (t_count - interior) / t_count
    assert 0.002 <= rejected.mean() <= 0.02


def test_rejection_count_tail_bound():
    # expected rejections per patch is the budget; the count's tail obeys
    # the Markov bound P[rejected >= n] <= nfa_max / n
    rng = np.random.default_rng(33)
    u = rng.standard_normal((48, 48))
    nfa = 4.41
    cfg = DenoiseConfig(
        sigma=1.0,
        patch_side=8,
        search_radius=10,
        nfa_max=nfa,
        threshold_mode="per-offset",
    )
    report = nlmeans_threshold(u, cfg)
    interior = report.selected_counts[10:31, 10:31]
    assert interior.size >= 100
    rejected = 441 - interior
    for n in (5, 10, 20):
        frac = float(np.mean(rejected >= n))
        se = np.sqrt(max(frac * (1 - frac), 1e-12) / rejected.size)
        assert frac <= nfa / n + 3 * se


def test_denoising_gains_on_periodic_scene():
    rng = np.random.default_rng(4)
    xs = np.arange(48)
    clean = np.tile(128 + 90 * np.sign(np.sin(2 * np.pi * xs / 8.0)), (48, 1))
    noisy = clean + 20.0 * rng.standard_normal(clean.shape)
    cfg = DenoiseConfig(sigma=20.0, patch_side=8, search_radius=10, nfa_max=4.41)
    report = nlmeans_threshold(noisy, cfg)
    assert psnr(clean, report.denoised) >= psnr(clean, noisy) + 3.0
    assert report.selected_counts.min() >= 1
    assert report.selected_counts.max() <= cfg.window_size


# ------------------------------------------------------------------ classic


def test_classic_huge_bandwidth_equals_uniform():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((9, 9)) * 4
    cfg = DenoiseConfig(sigma=1.0, patch_side=2, search_radius=9, nfa_max=0.0)
    uniform = nlmeans_threshold(u, cfg).denoised
    classic = nlmeans_classic(u, cfg, h_bandwidth=1e8).denoised
    assert np.allclose(classic, uniform, atol=1e-8)


def test_classic_tiny_bandwidth_is_identity():
    rng = np.random.default_rng(6)
    u = rng.standard_normal((10, 10)) * 50
    cfg = DenoiseConfig(sigma=1.0, patch_side=3, search_radius=3)
    out = nlmeans_classic(u, cfg, h_bandwidth=1e-3).denoised
    assert np.allclose(out, u, atol=1e-10)


def test_classic_weights_normalized():
    rng = np.random.default_rng(7)
    sigma = 10.0
    u = rng.standard_normal((16, 16)) * sigma + 120
    cfg = DenoiseConfig(sigma=sigma, patch_side=4, search_radius=4)
    h = 0.13 * sigma * 16  # bandwidth proportional to sigma * patch area
    report = nlmeans_classic(u, cfg, h_bandwidth=h)
    assert report.extra["weight_sum_max_err"] <= 1e-12


def test_classic_rejects_bad_bandwidth():
    cfg = DenoiseConfig(sigma=1.0, patch_side=2, search_radius=1)
    with pytest.raises(ValueError):
        nlmeans_classic(np.zeros((4, 4)), cfg, h_bandwidth=0.0)


# --------------------------------------------------------------------- psnr


def test_psnr_identical_is_inf():
    u = np.ones((4, 4))
    assert psnr(u, u) == math.inf


def test_psnr_flat_difference():
    u = np.full((5, 9), 255.0)
    v = np.full((5, 9), 254.0)
    assert psnr(u, v) == pytest.approx(10 * math.log10(255.0**2), abs=1e-9)


def test_psnr_seeded_noise_level():
    rng = np.random.default_rng(8)
    u = rng.uniform(0, 255, size=(128, 128))
    u[0, 0] = 255.0
    v = u + 10.0 * rng.standard_normal(u.shape)
    expected = 20 * math.log10(255.0 / 10.0)
    assert psnr(u, v) == pytest.approx(expected, abs=0.1)


def test_psnr_errors():
    with pytest.raises(ValueError):
        psnr(np.zeros((3, 3)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        psnr(np.ones((2, 2)), np.ones((3, 3)))


# ------------------------------------------------------------------- bound


def test_reconstruction_bound_chi_square_term():
    cfg = DenoiseConfig(sigma=2.0, patch_side=8, search_radius=10, nfa_max=4.41)
    a_map, _ = nlmeans_a_priori_threshold(8, 10, 4.41)
    a_t = a_map.max()
    a_w = stats.chi2.ppf(0.95, df=64)
    assert a_w == pytest.approx(83.675, abs=0.01)
    got = reconstruction_bound(cfg, eps=0.05)
    assert got == pytest.approx(2.0 * (math.sqrt(a_t) + math.sqrt(a_w)), rel=1e-12)


def test_reconstruction_bound_limits_and_scaling():
    cfg1 = DenoiseConfig(sigma=1.0, patch_side=4, search_radius=4, nfa_max=1.0)
    cfg2 = DenoiseConfig(sigma=2.0, patch_side=4, search_radius=4, nfa_max=1.0)
    assert reconstruction_bound(cfg2, 0.1) == pytest.approx(
        2 * reconstruction_bound(cfg1, 0.1), rel=1e-12
    )
    a_map, _ = nlmeans_a_priori_threshold(4, 4, 1.0)
    floor = math.sqrt(a_map.max())
    gaps = [reconstruction_bound(cfg1, eps) - floor for eps in (0.05, 0.5, 1 - 1e-12)]
    assert all(g > 0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]  # the noise term vanishes as eps -> 1
    assert gaps[2] == pytest.approx(
        math.sqrt(stats.chi2.ppf(1.0 - (1 - 1e-12), df=16)), rel=1e-9
    )
    with pytest.raises(ValueError):
        reconstruction_bound(cfg1, 0.0)


def test_reconstruction_bound_when_only_the_origin_is_selected():
    # nfa_max == |T|: every threshold is zero, leaving the noise term.
    cfg = DenoiseConfig(sigma=1.5, patch_side=4, search_radius=2, nfa_max=25)
    expected = 1.5 * math.sqrt(special.chdtri(16, 0.1))
    assert reconstruction_bound(cfg, 0.1) == pytest.approx(expected, rel=1e-15)
