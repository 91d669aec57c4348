"""The array law evaluator of ``quadform`` against the evaluators it
replaced, kept in ``tests/oracles.py``.

Agreement contract: the law-table CDF map is bit-identical to the old
vectorised ``cdf_map``, and the quantile map to ``table_quantile_map``, a
fixed 63 halvings of the bit patterns between +0.0 and +inf; the scalar
quantile agrees with the old one, which stopped at 1e-10 relative width,
to 1e-10 relative.  The bracketed quantile search is bit-identical to
``bisect_quantile``, the same bit-pattern bisection evaluating the CDF at
every step, whatever the closed-form inverses that seed its bracket
return, and it evaluates at most 63 steps and two check sweeps per
distinct law.
"""

import types

import numpy as np
import pytest
from oracles import (
    bisect_quantile,
    centered_coords,
    class_table_threshold,
    law_from_eigenvalues,
    scalar_fit,
    scalar_quantile,
    table_cdf_map,
    table_quantile_map,
)

from redlab import quadform
from redlab.background import cumulants, from_exemplar, white_noise
from redlab.denoise import nlmeans_a_priori_threshold
from redlab.detect import OffsetLawTable, offset_laws, stride_mask
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
    return OffsetLawTable(params.kind, params.p0, params.p1, params.scale, mask=mask)


def drawn_statistics(rng, table) -> np.ndarray:
    """Statistics from 0 to 3 times each law's mean, a tenth of them 0."""
    shape = table.kind.shape
    with np.errstate(invalid="ignore", divide="ignore"):  # off the Wood F laws
        wood_mean = table.scale * table.p0 / (table.p1 - 1.0)
    mean = np.where(table.kind == KIND_WOOD, wood_mean, table.p0 * table.p1)
    values = rng.uniform(0.0, 3.0, shape) * mean
    values[rng.random(shape) < 0.1] = 0.0
    return values


def masks(rng, shape):
    return [
        None,
        stride_mask(shape, 2),
        np.abs(centered_coords(shape)).max(axis=0) <= 3,  # sup-norm window
        rng.random(shape) < 0.6,
    ]


@pytest.mark.parametrize("seed", range(4))
def test_random_table_maps_bit_identical(seed):
    rng = np.random.default_rng(seed)
    shape = (12, 14)
    for mask in masks(rng, shape):
        table = random_table(rng, shape, mask)
        values = drawn_statistics(rng, table)
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
    window = np.abs(centered_coords(shape)).max(axis=0) <= 5
    mask = {"none": None, "stride": stride_mask(shape, 3), "window": window}
    for model in (from_exemplar(u), white_noise(shape, std=1.3)):
        table = offset_laws(model, PatchDomain(anchor=(20, 3), side=6), mask=mask[mask_kind])
        values = as_map(u, PatchDomain(anchor=(2, 5), side=6))
        assert np.array_equal(table.cdf_map(values), table_cdf_map(table, values))
        # The table is its own fit: off the mask its map is the plain CDF.
        live = np.ones(shape, bool) if table.mask is None else table.mask
        assert np.array_equal(cdf(table, values)[live], table.cdf_map(values)[live])
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


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8, 11, 16])
def test_a_priori_thresholds_match_class_table(p):
    # Offsets with equal sorted component magnitudes have bitwise equal
    # white-noise laws, so one law per offset gives the class table's bits.
    for c in (0, 1, 2, 3, 5, 10, 14):
        n_t = (2 * c + 1) ** 2
        for nfa in sorted({0.0, 0.05, 0.5, 1.0, 4.41, 10.0, float(n_t)}):
            if nfa > n_t:
                continue
            a_map, mean_a = nlmeans_a_priori_threshold(p, c, nfa)
            want_map, want_mean = class_table_threshold(p, c, nfa)
            assert np.array_equal(a_map, want_map), (p, c, nfa)
            assert mean_a == want_mean


def test_a_priori_thresholds_match_per_class_loop():
    for p, c, nfa in ((8, 10, 4.41), (5, 4, 2.0), (1, 2, 0.5)):
        a_map, _ = nlmeans_a_priori_threshold(p, c, nfa)
        q = 1.0 - nfa / (2 * c + 1) ** 2
        plane = white_noise((p + c, p + c))  # too large to wrap
        for ty in range(-c, c + 1):
            for tx in range(-c, c + 1):
                law = cumulants(plane, (tx, ty), PatchDomain(side=p))
                want = scalar_quantile(old_fit(law.k1, law.k2, law.k3), q)
                assert abs(a_map[ty + c, tx + c] - want) <= 1e-10 * want


# ------------------------------------------- bracketed quantile search

LEVELS = (0.0, 1e-7, 1.0 / 2304, 0.5, 1.0 - 1e-4, 1.0 - 1e-9)


def assert_quantile_contract(params, q, x):
    """``cdf(x) > q >= cdf(prev(x))`` at every live entry."""
    fields = [np.asarray(a) for a in (params.kind, params.p0, params.p1, params.scale)]
    live = fields[0] != KIND_POINT
    law = WoodFParams(*(a[live] for a in fields))
    x = np.asarray(x)[live]
    assert np.all(cdf(law, x) > q)
    assert np.all(cdf(law, np.nextafter(x, 0.0)) <= q)


@pytest.mark.parametrize("q", LEVELS)
def test_quantile_matches_full_bisection_on_random_laws(q):
    rng = np.random.default_rng(int(q * 1e9) % 1000)
    k = random_cumulants(rng, 600)
    # Repeated laws, as a law table holds them at t and -t.
    params = fit(QuadFormLaw(*(np.concatenate([a, a[::-3]]) for a in k)))
    got = quantile(params, q)
    assert np.array_equal(got, bisect_quantile(params, q))
    assert_quantile_contract(params, q, got)


@pytest.mark.parametrize("seed", range(2))
def test_quantile_map_matches_full_bisection_on_masked_tables(seed):
    rng = np.random.default_rng(40 + seed)
    shape = (12, 14)
    for mask in masks(rng, shape):
        table = random_table(rng, shape, mask)
        live = table.kind != KIND_POINT
        if mask is not None:
            live &= mask
        for q in LEVELS:
            want = np.where(live, bisect_quantile(table, q), 0.0)
            assert np.array_equal(table.quantile_map(q), want)


def test_quantile_matches_full_bisection_on_0d_laws():
    rng = np.random.default_rng(44)
    params = fit(QuadFormLaw(*random_cumulants(rng, 25)))
    for law in zip(params.kind, params.p0, params.p1, params.scale):
        single = WoodFParams(int(law[0]), *(float(a) for a in law[1:]))
        for q in LEVELS:
            got = quantile(single, q)
            assert type(got) is float
            assert got == bisect_quantile(single, q)


def test_denoise_class_thresholds_match_full_bisection():
    for p, c, nfa in ((8, 10, 4.41), (5, 4, 2.0), (3, 6, 0.25)):
        a_map, _ = nlmeans_a_priori_threshold(p, c, nfa)
        ty, tx = np.abs(np.mgrid[-c : c + 1, -c : c + 1])
        pairs = np.stack([np.minimum(tx, ty).ravel(), np.maximum(tx, ty).ravel()], axis=1)
        classes, inverse = np.unique(pairs, axis=0, return_inverse=True)
        laws = cumulants(white_noise((p + c, p + c)), classes, PatchDomain(side=p))
        want = bisect_quantile(fit(laws), 1.0 - nfa / (2 * c + 1) ** 2)
        assert np.array_equal(a_map, want[inverse.ravel()].reshape(a_map.shape))


def _off_by(fn, rel):
    return lambda *args: fn(*args) * (1.0 + rel)


@pytest.mark.parametrize(
    "make",
    [
        lambda fn: lambda *args: np.full(np.broadcast(*args).shape, np.nan),
        lambda fn: lambda *args: np.zeros(np.broadcast(*args).shape),
        lambda fn: _off_by(fn, 1e-6),
        lambda fn: _off_by(fn, 2.0**-43),
    ],
    ids=["nan", "zero", "rel-1e-6", "rel-2^-43"],
)
def test_quantile_bits_survive_wrong_closed_form_inverses(monkeypatch, make):
    rng = np.random.default_rng(45)
    params = fit(QuadFormLaw(*random_cumulants(rng, 300)))
    want = {q: bisect_quantile(params, q) for q in LEVELS}
    for name in ("betaincinv", "gammaincinv"):
        monkeypatch.setattr(quadform.special, name, make(getattr(quadform.special, name)))
    for q in LEVELS:
        got = quantile(params, q)
        assert np.array_equal(got, want[q])
        assert_quantile_contract(params, q, got)


@pytest.mark.parametrize(
    "q, per_law",
    [(1.0 / 1024, 20), (0.0, 65), (1.0 - 1e-9, 65)],
    ids=["one-per-domain", "zero", "near-one"],
)
def test_quantile_evaluates_few_steps_per_law(monkeypatch, q, per_law):
    # A rank-sized exemplar table.  A distinct live law costs at most 63
    # bisection steps and the two sweeps that check its bracket; at
    # q = 1/|domain| the verified bracket leaves about 15 steps to the CDF.
    u = np.random.default_rng(46).standard_normal((32, 32))
    params = offset_laws(from_exemplar(u), PatchDomain(side=10))
    live = params.kind != KIND_POINT
    fields = (params.kind, params.p0, params.p1, params.scale)
    n_laws = len(np.unique(np.stack([a[live] for a in fields], axis=1, dtype=float), axis=0))
    evaluated = []
    real_cdf = quadform.cdf

    def counted(law, x):
        evaluated.append(np.size(x))
        return real_cdf(law, x)

    monkeypatch.setattr(quadform, "cdf", counted)
    got = quantile(params, q)
    assert np.array_equal(got, bisect_quantile(params, q))
    assert sum(evaluated) <= per_law * n_laws


def test_unclosable_bracket_raises():
    # Even at the largest finite float, x / scale is about 18, where this
    # Wood F law's CDF is still about 1 - 1.7e-12: no finite float exceeds q.
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
    table = OffsetLawTable(*(a[None] for a in (laws.kind, laws.p0, laws.p1, laws.scale)))
    with pytest.raises(ArithmeticError):
        table.quantile_map(1.0 - 1e-12)


def test_scalar_calls_return_python_floats():
    for law in (
        law_from_eigenvalues([(1.0, 3), (5.0, 1)]),
        law_from_eigenvalues([(0.7, 4)]),
        QuadFormLaw(0.0, 0.0, 0.0),
    ):
        params = fit(law)
        for x in (-1.0, 0.0, 2.5):
            assert type(cdf(params, x)) is float
        assert type(quantile(params, 0.5)) is float


def test_cdf_broadcasts_one_law_over_points():
    params = fit(law_from_eigenvalues([(1.0, 3), (5.0, 1)]))
    xs = np.array([[-1.0, 0.0], [2.0, 40.0]])
    got = cdf(params, xs)
    assert got.shape == xs.shape
    assert np.array_equal(got, [[cdf(params, float(x)) for x in row] for row in xs])


# ------------------------------------------------ the one detection rule

RULE_LEVELS = (0.0, 1e-7, 1.0 / 2304, 0.5, 1.0 - 1e-9, 1.0, 2.0)


@pytest.mark.parametrize("seed", range(2))
def test_threshold_detection_is_the_probability_rule_bit_for_bit(seed):
    # x < a+(q) exactly when cdf(x) <= q, on Wood F, gamma and point-mass
    # laws: at drawn statistics (zeros included), and at ties built on each
    # law's threshold and on the float just below it.
    rng = np.random.default_rng(60 + seed)
    shape = (12, 14)
    for mask in masks(rng, shape):
        table = random_table(rng, shape, mask)
        evaluated = np.ones(shape, bool) if mask is None else mask
        drawn = drawn_statistics(rng, table)
        for q in RULE_LEVELS:
            a_plus = quantile(table, q)  # every law's, masked offsets included
            finite = np.isfinite(a_plus)
            ties = [np.where(finite, a, drawn) for a in (a_plus, np.nextafter(a_plus, 0.0))]
            for values in (drawn, *ties):
                want = (table.cdf_map(values) <= q) & evaluated
                assert np.array_equal(values < table.quantile_map(q), want), q
