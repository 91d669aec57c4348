import numpy as np
import pytest
from oracles import centered_coords
from scipy import stats

import redlab.detect as detect
from redlab.background import cumulants, from_exemplar, sample, white_noise
from redlab.detect import autosim_detection, offset_laws, stride_mask
from redlab.grid import PatchDomain, as_map
from redlab.quadform import KIND_POINT, KIND_WOOD, cdf, fit, quantile


def law(model, t, patch):
    """The fitted background law of the statistic at one offset."""
    return fit(cumulants(model, t, patch))


# ------------------------------------------------- one offset's probability


def test_ap_zero_offset_is_one():
    rng = np.random.default_rng(0)
    model = from_exemplar(rng.standard_normal((12, 12)))
    assert cdf(law(model, (0, 0), PatchDomain(side=3)), 0.0) == 1.0


def test_ap_non_overlap_median():
    model = white_noise((32, 32))
    patch = PatchDomain(side=8)
    median = 2.0 * stats.chi2.ppf(0.5, df=64)
    assert abs(cdf(law(model, (10, 9), patch), median) - 0.5) <= 5e-3


def test_ap_left_tail_zero():
    rng = np.random.default_rng(1)
    model = from_exemplar(rng.standard_normal((16, 16)))
    params = law(model, (3, 2), PatchDomain(side=4))
    assert cdf(params, 0.0) <= 1e-8
    assert cdf(params, -1.0) == 0.0


# -------------------------------------------------------------- thresholds


def test_threshold_zero_offset():
    model = white_noise((16, 16))
    patch = PatchDomain(side=4)
    for q in (0.01, 0.5, 0.99):
        assert quantile(law(model, (0, 0), patch), q) == 0.0


def test_threshold_non_overlap_median():
    model = white_noise((32, 32))
    patch = PatchDomain(side=8)
    a = quantile(law(model, (12, 12), patch), 0.5)
    assert a == pytest.approx(2.0 * stats.chi2.ppf(0.5, df=64), rel=5e-3)


def test_threshold_monotone_in_q():
    params = law(white_noise((16, 16)), (2, 1), PatchDomain(side=4))
    assert quantile(params, 0.01) < quantile(params, 0.5)


def test_threshold_roundtrip():
    rng = np.random.default_rng(2)
    model = from_exemplar(rng.standard_normal((16, 16)))
    params = law(model, (5, 3), PatchDomain(side=4))
    q = 1.0 / 256
    assert cdf(params, quantile(params, q)) == pytest.approx(q, abs=1e-6)


# ----------------------------------------------------------------- law table


def test_table_matches_scalar_path():
    rng = np.random.default_rng(3)
    model = from_exemplar(rng.standard_normal((12, 12)))
    patch = PatchDomain(side=3)
    table = offset_laws(model, patch)
    for t in [(0, 0), (1, 0), (5, 7), (11, 11), (6, 6)]:
        scalar = law(model, t, patch)
        i = (t[1] % 12, t[0] % 12)
        assert table.kind[i] == scalar.kind
        if scalar.kind == KIND_WOOD:
            assert table.p0[i] == pytest.approx(scalar.p0, rel=1e-12)
            assert table.p1[i] == pytest.approx(scalar.p1, rel=1e-12)
            assert table.scale[i] == pytest.approx(scalar.scale, rel=1e-12)


def test_table_symmetry_under_negation():
    rng = np.random.default_rng(4)
    model = from_exemplar(rng.standard_normal((10, 10)))
    table = offset_laws(model, PatchDomain(side=3))
    a_map = table.quantile_map(0.01)
    for tx in range(10):
        for ty in range(10):
            assert a_map[ty, tx] == a_map[(-ty) % 10, (-tx) % 10]


def test_table_anfa_identity_away_from_origin():
    rng = np.random.default_rng(5)
    model = from_exemplar(rng.standard_normal((16, 16)))
    table = offset_laws(model, PatchDomain(side=4))
    q = 1.0 / 256
    a_map = table.quantile_map(q)
    p_at_a = table.cdf_map(a_map)
    live = table.live_mask()
    total = float(p_at_a[live].sum())
    assert abs(total - live.sum() * q) <= live.sum() * 2e-6


def test_quantile_map_is_evaluated_once_per_level_and_read_only(monkeypatch):
    rng = np.random.default_rng(11)
    u = rng.standard_normal((12, 12))
    patch = PatchDomain(side=3)
    table = offset_laws(from_exemplar(u), patch)
    levels = []

    def counted(params, q):
        levels.append(q)
        return quantile(params, q)

    monkeypatch.setattr(detect, "quantile", counted)
    a_map = table.quantile_map(0.01)
    assert not a_map.flags.writeable
    with pytest.raises(ValueError):
        a_map[0, 0] = 1.0
    values = as_map(u, patch)
    for _ in range(3):
        assert table.quantile_map(0.01) is a_map
        assert np.array_equal(
            table.detect_by_threshold(values, 0.01), (values <= a_map) & table.live_mask()
        )
    table.quantile_map(0.02)
    assert levels == [0.01, 0.02]


@pytest.mark.parametrize("masked", [False, True])
def test_detect_by_threshold_never_fires_at_point_masses(masked):
    # Under its own exemplar model an exactly periodic image has point-mass
    # laws at its periods, where both the statistic and the threshold are 0.
    u = np.tile(np.random.default_rng(12).standard_normal((4, 6)), (4, 3))
    patch = PatchDomain(anchor=(3, 2), side=3)
    table = offset_laws(from_exemplar(u), patch, mask=stride_mask(u.shape, 2) if masked else None)
    evaluated = np.ones(u.shape, bool) if table.mask is None else table.mask
    values = as_map(u, patch)
    q = 1.0 / u.size
    zero_meets_zero = (table.kind == KIND_POINT) & evaluated & (values == 0.0)
    zero_meets_zero &= table.quantile_map(q) == 0.0
    assert zero_meets_zero[0, 6] and zero_meets_zero[4, 0] and zero_meets_zero.sum() > 4
    detected = table.detect_by_threshold(values, q)
    assert not detected[table.kind == KIND_POINT].any()
    assert np.array_equal(detected, table.cdf_map(values) <= q)


# ----------------------------------------------------------- detection runs


def test_detect_periodic_stripes_under_white_model():
    xs = np.arange(24)
    u = np.tile(np.sin(2 * np.pi * xs / 6.0) * 40 + 128, (24, 1))  # period (6, 0)
    model = white_noise(u.shape, std=30.0)
    res = autosim_detection(u, PatchDomain(anchor=(3, 3), side=4), model, 1.0)
    assert res.p_map[0, 0] == 1.0
    assert not res.d_map[0, 0]
    for k in (1, 2, 3):
        assert res.d_map[0, (6 * k) % 24]
    assert res.p_map.min() >= 0.0 and res.p_map.max() <= 1.0


def test_detect_constant_exemplar_never_detects():
    u = np.full((16, 16), 9.0)
    model = from_exemplar(u)
    res = autosim_detection(u, PatchDomain(side=4), model, 1.0)
    assert res.n_detected == 0
    assert np.all(res.p_map == 1.0)
    assert res.warnings == []


def test_detect_degenerate_model_warning():
    u = np.full((8, 8), 1.0)
    model = from_exemplar(u)
    res = autosim_detection(u, PatchDomain(side=2), model, 64.0)
    assert any("degenerate" in w for w in res.warnings)


def test_detect_monotone_in_nfa():
    rng = np.random.default_rng(6)
    u = rng.standard_normal((20, 20))
    model = from_exemplar(u)
    patch = PatchDomain(side=4)
    lo = autosim_detection(u, patch, model, 0.5)
    hi = autosim_detection(u, patch, model, 20.0)
    assert np.all(hi.d_map >= lo.d_map)


def test_detect_route_equivalence():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((32, 32))
    model = from_exemplar(rng.standard_normal((32, 32)))
    patch = PatchDomain(side=4)
    laws = offset_laws(model, patch)
    nfa = 37.0
    q = nfa / 1024
    res = autosim_detection(u, patch, model, nfa)
    via_threshold = laws.detect_by_threshold(res.as_values, q)
    assert np.array_equal(res.d_map, via_threshold)


def test_detect_masked_offsets():
    rng = np.random.default_rng(8)
    u = rng.standard_normal((16, 16))
    model = white_noise((16, 16))
    patch = PatchDomain(side=3)
    mask = stride_mask((16, 16), 2)
    res = autosim_detection(u, patch, model, 200.0, mask=mask)
    assert np.all(res.p_map[~mask] == 1.0)
    assert not np.any(res.d_map[~mask])
    assert res.fallback_counts["point_mass"] >= 1  # the origin

    wmask = np.abs(centered_coords((16, 16))).max(axis=0) <= 3  # sup-norm window
    assert wmask.sum() == 49
    assert wmask[0, 0] and wmask[3, 3] and wmask[13, 13] and not wmask[4, 0]


def test_detect_calibration_light():
    # ~calibrated expected detections when the image is drawn from the model
    rng = np.random.default_rng(9)
    exemplar = rng.standard_normal((16, 16))
    model = from_exemplar(exemplar)
    patch = PatchDomain(side=3)
    counts = []
    for s in range(60):
        u = sample(model, 1000 + s)
        res = autosim_detection(u, patch, model, 1.0)
        counts.append(res.n_detected)
    counts = np.array(counts)
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert counts.mean() <= 1.0 + 3 * se


def test_detect_rejects_negative_nfa():
    model = white_noise((8, 8))
    with pytest.raises(ValueError):
        autosim_detection(np.zeros((8, 8)), PatchDomain(side=2), model, -1.0)
