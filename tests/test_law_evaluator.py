"""The array law evaluator of ``quadform`` against the evaluators it
replaced, kept in ``tests/oracles.py``.

Agreement contract: the law-table maps are bit-identical to the old
vectorised ``cdf_map`` and 80-halving ``quantile_map`` (the new bisection
stops at adjacent floats, a fixed point of further halvings, which the old
80 halvings reach on these tables); the scalar quantile agrees with the old
one, which stopped at 1e-10 relative width, to 1e-10 relative.
"""

import types

import numpy as np
import pytest
from oracles import scalar_fit, scalar_quantile, table_cdf_map, table_quantile_map

from redlab.background import from_exemplar, white_noise, white_noise_law
from redlab.denoise import nlmeans_a_priori_threshold
from redlab.detect import OffsetLawTable, offset_laws, stride_mask, window_mask
from redlab.grid import PatchDomain, as_map
from redlab.quadform import (
    KIND_GAMMA,
    KIND_POINT,
    KIND_WOOD,
    QuadFormLaw,
    WoodFParams,
    cdf,
    fit,
    quantile,
)


def random_cumulants(rng, n: int) -> tuple[np.ndarray, ...]:
    """Cumulants of ``n`` laws: mixed spectra (Wood F), equal eigenvalues
    (gamma fallback) and zero laws (point mass), shuffled."""
    rows = []
    for i in range(n):
        if i % 5 == 3:
            rows.append((0.0, 0.0, 0.0))
            continue
        size = int(rng.integers(1, 60))
        if i % 5 == 4:
            lam = np.full(size, rng.uniform(0.1, 30.0))
        else:
            lam = rng.uniform(0.0, 5.0, size) * 10.0 ** rng.uniform(-2, 3)
        rows.append((lam.sum(), 2.0 * (lam**2).sum(), 8.0 * (lam**3).sum()))
    k = np.array(rows)[rng.permutation(n)]
    return k[:, 0], k[:, 1], k[:, 2]


def old_fit(k1, k2, k3) -> types.SimpleNamespace:
    """The oracle fit, in the attribute form the oracle evaluators read."""
    kind, p0, p1, scale = scalar_fit(k1, k2, k3)
    return types.SimpleNamespace(kind=kind, p0=p0, p1=p1, scale=scale)


def random_table(rng, shape, mask) -> OffsetLawTable:
    k1, k2, k3 = (k.reshape(shape) for k in random_cumulants(rng, shape[0] * shape[1]))
    params = fit(QuadFormLaw(k1, k2, k3))
    kinds = set(np.unique(params.kind))
    assert kinds == {KIND_WOOD, KIND_GAMMA, KIND_POINT}
    return OffsetLawTable(shape, params.kind, params.p0, params.p1, params.scale, mask=mask)


def masks(rng, shape):
    return [
        None,
        stride_mask(shape, 2),
        window_mask(shape, 3),
        rng.random(shape) < 0.6,
    ]


@pytest.mark.parametrize("seed", range(4))
def test_random_table_maps_bit_identical(seed):
    rng = np.random.default_rng(seed)
    shape = (12, 14)
    for mask in masks(rng, shape):
        table = random_table(rng, shape, mask)
        with np.errstate(invalid="ignore", divide="ignore"):  # off the Wood F laws
            wood_mean = table.scale * table.p0 / (table.p1 - 1.0)
        mean = np.where(table.kind == KIND_WOOD, wood_mean, table.p0 * table.p1)
        values = rng.uniform(0.0, 3.0, shape) * mean
        values[rng.random(shape) < 0.1] = 0.0
        assert np.array_equal(table.cdf_map(values), table_cdf_map(table, values))
        for q in (1e-3, 0.05, 0.5, 0.99):
            got = table.quantile_map(q)
            assert np.array_equal(got, table_quantile_map(table, q))
            assert np.array_equal(table.cdf_map(got), table_cdf_map(table, got))


@pytest.mark.parametrize("mask_kind", ["none", "stride", "window"])
def test_offset_law_table_maps_bit_identical(mask_kind):
    rng = np.random.default_rng(21)
    u = rng.standard_normal((24, 24))
    shape = u.shape
    mask = {"none": None, "stride": stride_mask(shape, 3), "window": window_mask(shape, 5)}
    for model in (from_exemplar(u), white_noise(shape, std=1.3)):
        table = offset_laws(model, PatchDomain(anchor=(20, 3), side=6), mask=mask[mask_kind])
        values = as_map(u, PatchDomain(anchor=(2, 5), side=6))
        assert np.array_equal(table.cdf_map(values), table_cdf_map(table, values))
        q = 1.0 / u.size
        assert np.array_equal(table.quantile_map(q), table_quantile_map(table, q))


def test_scalar_quantile_matches_old_bisection():
    rng = np.random.default_rng(5)
    k1, k2, k3 = random_cumulants(rng, 200)
    for law in zip(k1, k2, k3):
        old = old_fit(*law)
        new = fit(QuadFormLaw(*law))
        assert new.kind == old.kind
        for q in (1e-4, 0.3, 0.999):
            want = scalar_quantile(old, q)
            got = quantile(new, q)
            assert abs(got - want) <= 1e-10 * want


def test_array_quantile_matches_elementwise_calls():
    rng = np.random.default_rng(6)
    params = fit(QuadFormLaw(*random_cumulants(rng, 40)))
    batch = quantile(params, 0.2)
    singles = [
        quantile(WoodFParams(int(k), float(a), float(b), float(s)), 0.2)
        for k, a, b, s in zip(params.kind, params.p0, params.p1, params.scale)
    ]
    assert np.array_equal(batch, singles)


def test_a_priori_thresholds_match_per_class_loop():
    for p, c, nfa in ((8, 10, 4.41), (5, 4, 2.0), (1, 2, 0.5)):
        a_map, _ = nlmeans_a_priori_threshold(p, c, nfa)
        q = 1.0 - nfa / (2 * c + 1) ** 2
        for ty in range(-c, c + 1):
            for tx in range(-c, c + 1):
                law = white_noise_law(p, (tx, ty))
                want = scalar_quantile(old_fit(law.k1, law.k2, law.k3), q)
                assert abs(a_map[ty + c, tx + c] - want) <= 1e-10 * want


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_unclosable_bracket_raises():
    # The doubled bracket overflows, the Wood F ratio inf/inf is NaN, and
    # NaN never reaches q.
    law = WoodFParams(KIND_WOOD, 2.0, 10.0, 1e307)
    with pytest.raises(ArithmeticError):
        quantile(law, 1.0 - 1e-12)
    laws = WoodFParams(
        np.array([KIND_GAMMA, KIND_WOOD, KIND_POINT], dtype=np.uint8),
        np.array([3.0, 2.0, 0.0]),
        np.array([1.0, 10.0, 0.0]),
        np.array([0.0, 1e307, 0.0]),
    )
    with pytest.raises(ArithmeticError):
        quantile(laws, 1.0 - 1e-12)
    table = OffsetLawTable((1, 3), *(a[None] for a in (laws.kind, laws.p0, laws.p1, laws.scale)))
    with pytest.raises(ArithmeticError):
        table.quantile_map(1.0 - 1e-12)


def test_scalar_calls_return_python_floats():
    for law in (
        QuadFormLaw.from_eigenvalues([(1.0, 3), (5.0, 1)]),
        QuadFormLaw.from_eigenvalues([(0.7, 4)]),
        QuadFormLaw(0.0, 0.0, 0.0),
    ):
        params = fit(law)
        for x in (-1.0, 0.0, 2.5):
            assert type(cdf(params, x)) is float
        assert type(quantile(params, 0.5)) is float


def test_cdf_broadcasts_one_law_over_points():
    params = fit(QuadFormLaw.from_eigenvalues([(1.0, 3), (5.0, 1)]))
    xs = np.array([[-1.0, 0.0], [2.0, 40.0]])
    got = cdf(params, xs)
    assert got.shape == xs.shape
    assert np.array_equal(got, [[cdf(params, float(x)) for x in row] for row in xs])
