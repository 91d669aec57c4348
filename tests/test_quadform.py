import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import law_from_eigenvalues, mc_cdf
from scipy import stats

from redlab.quadform import KIND_POINT, KIND_WOOD, QuadFormLaw, cdf, fit, quantile


def random_law(rng, max_size=100):
    size = int(rng.integers(3, max_size + 1))
    lam = rng.uniform(0.0, 5.0, size=size)
    lam[lam == 0.0] = 1e-3
    return lam, law_from_eigenvalues([(float(v), 1) for v in lam])


# -------------------------------------------------------------------- laws


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 8), st.integers(1, 5)), min_size=1, max_size=8))
def test_cumulants_from_eigenvalues(pairs):
    law = law_from_eigenvalues(pairs)
    s1 = sum(v * m for v, m in pairs)
    s2 = sum(v**2 * m for v, m in pairs)
    s3 = sum(v**3 * m for v, m in pairs)
    assert law.k1 == pytest.approx(s1)
    assert law.k2 == pytest.approx(2 * s2)
    assert law.k3 == pytest.approx(8 * s3)
    assert law.k1 >= 0 and law.k2 >= 0 and law.k3 >= 0


def test_degenerate_law_point_mass():
    params = fit(QuadFormLaw(0.0, 0.0, 0.0))
    assert params.kind == KIND_POINT
    assert cdf(params, 0.0) == 1.0
    assert cdf(params, 5.0) == 1.0
    assert cdf(params, -1e-9) == 0.0
    assert quantile(params, 0.3) == 0.0


def test_fit_rejects_negative_cumulants():
    with pytest.raises(ValueError):
        fit(QuadFormLaw(-1.0, 2.0, 3.0))


# --------------------------------------------------------- chi-square cases


def test_equal_eigenvalues_recover_scaled_chi_square():
    # 2 * chi2_64: the three-moment F solve degenerates; the fallback is exact
    law = QuadFormLaw(128.0, 512.0, 4096.0)
    params = fit(law)
    median = 2.0 * stats.chi2.ppf(0.5, df=64)
    assert abs(cdf(params, median) - 0.5) <= 5e-3


def test_chi2_3_cdf_value():
    params = fit(law_from_eigenvalues([(1.0, 3)]))
    assert abs(cdf(params, 7.815) - 0.95) <= 5e-3


def test_chi2_1_quantile():
    params = fit(law_from_eigenvalues([(1.0, 1)]))
    assert quantile(params, 0.95) == pytest.approx(3.841, rel=0.01)


def test_wood_solve_exact_moments():
    # Mixed spectrum with a closed-form solution; check the fitted raw
    # moments against the targets.
    law = law_from_eigenvalues([(1.0, 3), (5.0, 1)])
    params = fit(law)
    assert params.kind == KIND_WOOD
    a1, a2, b = params.p0, params.p1, params.scale
    m1 = b * a1 / (a2 - 1)
    m2 = b**2 * a1 * (a1 + 1) / ((a2 - 1) * (a2 - 2))
    m3 = b**3 * a1 * (a1 + 1) * (a1 + 2) / ((a2 - 1) * (a2 - 2) * (a2 - 3))
    assert m1 == pytest.approx(law.k1, rel=1e-8)
    assert m2 == pytest.approx(law.k2 + law.k1**2, rel=1e-8)
    assert m3 == pytest.approx(law.k3 + 3 * law.k1 * law.k2 + law.k1**3, rel=1e-8)


# ------------------------------------------------------------ cdf properties


def test_cdf_monotone_bounded_many_params():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        _, law = random_law(rng, max_size=40)
        params = fit(law)
        probes = np.sort(rng.uniform(0, law.k1 * 3 + 1, size=8))
        vals = [cdf(params, float(x)) for x in probes]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_cdf_limits():
    params = fit(law_from_eigenvalues([(0.7, 4)]))
    assert cdf(params, -1.0) == 0.0
    assert cdf(params, 0.0) == 0.0
    assert cdf(params, 1e9) == pytest.approx(1.0, abs=1e-9)


def test_mean_recovered_by_quadrature():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 5:
        _, law = random_law(rng, max_size=30)
        params = fit(law)
        if params.kind != KIND_WOOD:
            continue
        hi = quantile(params, 1 - 1e-9)
        xs = np.linspace(0, hi, 200_001)
        sf = 1.0 - cdf(params, xs)
        mean = np.trapezoid(sf, xs)
        assert mean == pytest.approx(law.k1, rel=0.01)
        checked += 1


def test_scale_equivariance():
    law = law_from_eigenvalues([(0.5, 2), (2.0, 3), (4.0, 1)])
    base = fit(law)
    for s in (0.1, 10.0):
        scaled = fit(QuadFormLaw(s * law.k1, s * s * law.k2, s**3 * law.k3))
        for x in (0.5, 2.0, 7.0, 20.0):
            assert cdf(scaled, s * x) == pytest.approx(cdf(base, x), abs=1e-8)


# ------------------------------------------------------------------ quantile


def test_quantile_roundtrip_in_bulk():
    law = law_from_eigenvalues([(1.0, 2), (3.0, 2)])
    params = fit(law)
    for x in (2.0, 5.0, 9.0, 15.0):
        assert quantile(params, cdf(params, x)) == pytest.approx(x, rel=1e-6)
    for q in (0.01, 0.2, 0.5, 0.9, 0.999):
        assert cdf(params, quantile(params, q)) == pytest.approx(q, abs=1e-6)


def test_quantile_domain():
    params = fit(law_from_eigenvalues([(1.0, 1)]))
    for q in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            quantile(params, q)


# ---------------------------------------------------------------- monte carlo


def test_mc_cdf_trivial_cases():
    assert mc_cdf([1.0], 1e12, 10, seed=0) == 1.0
    assert mc_cdf([0.0], 0.0, 10, seed=0) == 1.0
    with pytest.raises(ValueError):
        mc_cdf([1.0], 1.0, 0, seed=0)


def test_mc_cdf_chi2_reference():
    got = mc_cdf([1.0, 1.0, 1.0], 7.815, 1_000_000, seed=7)
    se = np.sqrt(0.95 * 0.05 / 1_000_000)
    assert abs(got - 0.95) <= 3 * se


def test_mc_cdf_deterministic_and_vectorized():
    xs = np.array([1.0, 4.0, 9.0])
    a = mc_cdf([1.0, 2.0], xs, 50_000, seed=3)
    b = mc_cdf([1.0, 2.0], xs, 50_000, seed=3)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0)


def test_wood_f_close_to_monte_carlo_smoke():
    # Reduced version of the accuracy gate (the full sweep runs in the
    # acceptance suite).
    rng = np.random.default_rng(2)
    n = 200_000
    bad = 0
    for i in range(10):
        lam, law = random_law(rng)
        params = fit(law)
        probes = [quantile(params, q) for q in (0.05, 0.25, 0.5, 0.75, 0.95)]
        emp = mc_cdf(lam, np.array(probes), n, seed=100 + i)
        ref = np.array([cdf(params, x) for x in probes])
        band = 3 * np.sqrt(np.maximum(emp * (1 - emp), 1e-12) / n)
        bad += int(np.any(np.abs(emp - ref) > 0.01 + band))
    assert bad <= 1
