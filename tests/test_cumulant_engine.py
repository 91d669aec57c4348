"""The structured cumulant engine and the array law fit against the dense
oracles of ``tests/oracles.py``.

Agreement contract: ``k1`` is identical, ``k2`` and ``k3`` agree to 1e-12
relative, and every law takes the same fit branch.  Against the
square-patch traces it replaced, which sum ``tr C^3`` over every x-pair
rather than one x-triple per symmetry orbit, ``k1`` and ``k2`` are
identical and ``k3`` agrees to 1e-13 relative.  Fit parameters agree
to 1e-10 relative: the three-moment fit amplifies last-ulp differences in
its inputs (numpy's ``x**3`` and Python's differ in the last ulp for a few
percent of inputs) by up to about a thousand.
"""

import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from oracles import (
    axis_triple_counts,
    centered_coords,
    dense_cumulants,
    engine_offset_laws,
    loop_offset_laws,
    pair_square_traces,
    scalar_fit,
)

import redlab.background as background
import redlab.detect as detect
from redlab.background import (
    MicrotextureModel,
    _symmetrized,
    cumulants,
    from_exemplar,
    white_noise,
)
from redlab.detect import offset_laws, stride_mask
from redlab.grid import PatchDomain
from redlab.quadform import KIND_POINT, QuadFormLaw, fit

K_RTOL = 1e-12
K3_ORBIT_RTOL = 1e-13
PARAM_RTOL = 1e-10


def assert_cumulants_match(model, offsets, patch):
    law = cumulants(model, offsets, patch)
    kinds = fit(law).kind
    for i, t in enumerate(offsets):
        ref = dense_cumulants(model, t, patch)
        assert law.k1[i] == ref[0], (t, law.k1[i], ref[0])
        for got, want in ((law.k2[i], ref[1]), (law.k3[i], ref[2])):
            assert abs(got - want) <= K_RTOL * abs(want), (t, got, want)
        assert kinds[i] == scalar_fit(*ref)[0], t


def random_model(rng, h, w):
    if rng.random() < 0.5:
        return white_noise((h, w), std=float(rng.uniform(0.5, 3.0)))
    return from_exemplar(rng.standard_normal((h, w)) * rng.uniform(0.5, 3.0))


def random_offsets(rng, h, w, m):
    tx = rng.integers(-2 * w, 2 * w, m)
    return np.stack([tx, rng.integers(-2 * h, 2 * h, m)], axis=1)


@pytest.mark.parametrize("seed", range(8))
def test_engine_matches_dense_trace(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(6):
        h, w = (int(v) for v in rng.integers(3, 18, 2))
        model = random_model(rng, h, w)
        # p from 1 to beyond the image side; anchors anywhere (wrapped)
        p = int(rng.integers(1, max(h, w) + 6))
        anchor = (int(rng.integers(-20, 20)), int(rng.integers(-20, 20)))
        patch = PatchDomain(anchor=anchor, side=p)
        offsets = np.concatenate([[[0, 0]], random_offsets(rng, h, w, 12)])
        assert_cumulants_match(model, offsets, patch)


def test_engine_p1_is_the_pixel_variance_law():
    rng = np.random.default_rng(8)
    model = from_exemplar(rng.standard_normal((7, 6)))
    law = cumulants(model, (2, 3), PatchDomain(side=1))
    d0 = 2.0 * (model.gamma[0, 0] - model.gamma[3, 2])
    assert law.k1 == d0
    assert law.k2 == pytest.approx(2.0 * d0 * d0, rel=1e-15)
    assert law.k3 == pytest.approx(8.0 * d0**3, rel=1e-15)


def test_engine_point_mass_offsets():
    tile = np.random.default_rng(9).standard_normal((4, 5))
    model = from_exemplar(np.tile(tile, (3, 2)))  # exact period (5, 0) and (0, 4)
    offsets = np.array([[0, 0], [5, 0], [0, 4], [5, 8], [1, 0], [2, 3]])
    patch = PatchDomain(anchor=(2, 1), side=6)
    law = cumulants(model, offsets, patch)
    kinds = fit(law).kind
    assert list(kinds[:4]) == [KIND_POINT] * 4
    assert np.all(kinds[4:] != KIND_POINT)
    assert np.all(law.k1[:4] == 0.0) and np.all(law.k3[:4] == 0.0)
    assert_cumulants_match(model, offsets, patch)


def test_one_offset_is_the_batch_case():
    rng = np.random.default_rng(10)
    model = from_exemplar(rng.standard_normal((10, 10)))
    patch = PatchDomain(side=5)
    offsets = random_offsets(rng, 10, 10, 6)
    batch = cumulants(model, offsets, patch)
    for i, t in enumerate(offsets):
        one = cumulants(model, tuple(int(v) for v in t), patch)
        assert isinstance(one.k1, float) and one.k1 == batch.k1[i]
        assert one.k2 == batch.k2[i] and one.k3 == batch.k3[i]


def test_engine_rejects_malformed_offsets():
    model = white_noise((8, 8))
    with pytest.raises(ValueError):
        cumulants(model, (1, 2, 3), PatchDomain(side=2))
    with pytest.raises(ValueError):
        cumulants(model, np.zeros((2, 2, 2), dtype=int), PatchDomain(side=2))


def test_engine_memory_is_chunked(monkeypatch):
    # Chunks of a few offsets give the same cumulants as one big chunk.
    rng = np.random.default_rng(11)
    model = from_exemplar(rng.standard_normal((12, 13)))
    patch = PatchDomain(side=4)
    offsets = random_offsets(rng, 12, 13, 40)
    whole = cumulants(model, offsets, patch)
    monkeypatch.setattr(background, "_CHUNK_ENTRIES", 3 * 49)
    parts = cumulants(model, offsets, patch)
    for k in ("k1", "k2", "k3"):
        assert np.array_equal(getattr(parts, k), getattr(whole, k)), k


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(background.os, "cpu_count", lambda: n)


def engine_calls(monkeypatch):
    """Record the offsets and cumulants of each engine call the law
    table makes."""
    calls = []

    def spy(model, t, patch):
        law = cumulants(model, t, patch)
        calls.append((np.asarray(t), law))
        return law

    monkeypatch.setattr(detect, "cumulants", spy)
    return calls


def by_offset(offsets, law, shape):
    h, w = shape
    return {
        (int(tx) % w, int(ty) % h): (law.k1[i], law.k2[i], law.k3[i])
        for i, (tx, ty) in enumerate(offsets)
    }


def chunk_cases():
    rng = np.random.default_rng(16)
    for _ in range(3):
        h, w = (int(v) for v in rng.integers(6, 16, 2))
        model = from_exemplar(rng.standard_normal((h, w)) * rng.uniform(0.5, 3.0))
        p = int(rng.integers(2, max(h, w) + 3))
        yield model, PatchDomain(anchor=(int(rng.integers(-9, 9)), 3), side=p)
    # a patch anchored outside the torus and wider than half of it
    model = from_exemplar(rng.standard_normal((9, 11)))
    yield model, PatchDomain(anchor=(12, 2), side=7)
    tile = rng.standard_normal((4, 5))
    yield from_exemplar(np.tile(tile, (3, 2))), PatchDomain(anchor=(2, 1), side=6)


@pytest.mark.parametrize("case", range(5))
def test_cumulants_are_bitwise_independent_of_chunks_masks_and_threads(case, monkeypatch):
    model, patch = list(chunk_cases())[case]
    h, w = model.shape
    rng = np.random.default_rng(17 + case)
    set_cpus(monkeypatch, 2)
    torus = np.stack([a.ravel() for a in np.meshgrid(np.arange(w), np.arange(h))], axis=1)
    table = by_offset(torus, cumulants(model, torus, patch), model.shape)
    calls = engine_calls(monkeypatch)
    offset_laws(model, patch)
    offset_laws(model, patch, mask=rng.random((h, w)) < 0.4)
    runs = [by_offset(*call, model.shape) for call in calls]
    # wrapped offsets, and every exact period of the tiled model
    offsets = np.concatenate([random_offsets(rng, h, w, 30), [[5, 0], [0, 4], [5, 8]]])
    per_chunk = (2 * patch.side - 1) ** 2
    for entries in (1, 7 * per_chunk, background._CHUNK_ENTRIES):
        monkeypatch.setattr(background, "_CHUNK_ENTRIES", entries)
        runs.append(by_offset(offsets, cumulants(model, offsets, patch), model.shape))
    set_cpus(monkeypatch, 1)
    runs.append(by_offset(offsets, cumulants(model, offsets, patch), model.shape))
    for tx, ty in offsets[:8]:
        one = cumulants(model, (int(tx), int(ty)), patch)
        runs.append({(int(tx) % w, int(ty) % h): (one.k1, one.k2, one.k3)})
    for run in runs:
        for t, k in run.items():
            assert k == table[t], (t, k, table[t])


def refuse_threads(*args, **kwargs):
    raise AssertionError("a thread pool was started")


def test_one_chunk_starts_no_thread(monkeypatch):
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(background, "ThreadPoolExecutor", refuse_threads)
    model = from_exemplar(np.random.default_rng(18).standard_normal((8, 8)))
    patch = PatchDomain(side=4)
    cumulants(model, (3, 2), patch)
    assert offset_laws(model, patch).kind.shape == (8, 8)  # 33 offsets, one chunk


@pytest.mark.parametrize("p", range(1, 31))
def test_axis_triples_is_the_pixel_triple_count(p):
    assert np.array_equal(background._axis_triples(p), axis_triple_counts(p))


def orbit_cases(seed):
    """Random models on tori from 3 to 23 pixels a side (smaller than
    ``2p - 1`` too), ``p`` up to 24, wrapped anchors, offsets and masks;
    then a tiled model with exact periods, which give point masses."""
    rng = np.random.default_rng(3000 + seed)
    for _ in range(3):
        h, w = (int(v) for v in rng.integers(3, 24, 2))
        p = int(rng.integers(1, 25))
        anchor = (int(rng.integers(-40, 40)), int(rng.integers(-40, 40)))
        model, offsets = random_model(rng, h, w), random_offsets(rng, h, w, 20)
        yield model, PatchDomain(anchor=anchor, side=p), offsets, rng.random((h, w)) < 0.3
    tile = rng.standard_normal((4, 5))
    offsets = np.array([[0, 0], [5, 0], [0, 4], [-5, 8], [1, 0], [2, 3]])
    yield from_exemplar(np.tile(tile, (3, 2))), PatchDomain(anchor=(2, 1), side=6), offsets, None


def engine_laws(monkeypatch, model, patch, offsets, mask):
    """The cumulants of ``offsets`` and those the masked law table asks for."""
    calls = engine_calls(monkeypatch)
    offset_laws(model, patch, mask=mask)
    return [cumulants(model, offsets, patch)] + [law for _, law in calls]


@pytest.mark.parametrize("seed", range(6))
def test_orbit_traces_match_the_pair_traces(seed, monkeypatch):
    for model, patch, offsets, mask in orbit_cases(seed):
        laws = engine_laws(monkeypatch, model, patch, offsets, mask)
        with monkeypatch.context() as mp:
            mp.setattr(background, "_square_traces", lambda d, p, **_: pair_square_traces(d, p))
            want = engine_laws(mp, model, patch, offsets, mask)
        assert len(laws) == len(want)
        for got, ref in zip(laws, want):
            assert np.array_equal(got.k1, ref.k1) and np.array_equal(got.k2, ref.k2)
            np.testing.assert_allclose(got.k3, ref.k3, rtol=K3_ORBIT_RTOL, atol=0.0)


# ----------------------------------------------------------------- fit


def test_array_fit_matches_scalar_fit():
    rng = np.random.default_rng(12)
    laws = []
    for _ in range(400):
        lam = rng.uniform(0.0, 5.0, int(rng.integers(1, 60))) ** rng.uniform(0.2, 4.0)
        laws.append((lam.sum(), 2.0 * (lam**2).sum(), 8.0 * (lam**3).sum()))
    laws += [(0.0, 0.0, 0.0), (2.0, 8.0, 64.0), (3.0, 6.0, 24.0), (1.0, 0.0, 0.0)]
    k = np.array(laws).T
    params = fit(QuadFormLaw(k[0], k[1], k[2]))
    for i, law in enumerate(laws):
        kind, p0, p1, scale = scalar_fit(*law)
        assert params.kind[i] == kind, law
        for got, want in ((params.p0[i], p0), (params.p1[i], p1), (params.scale[i], scale)):
            assert got == pytest.approx(want, rel=PARAM_RTOL, abs=0.0)
        one = fit(QuadFormLaw(*law))  # 0-d case: its own rounding of x**3
        assert one.kind == params.kind[i]
        for got, want in ((one.p0, p0), (one.p1, p1), (one.scale, scale)):
            assert got == pytest.approx(want, rel=PARAM_RTOL, abs=0.0)


def test_array_fit_rejects_negative_cumulants():
    k = np.array([[1.0, 2.0, 3.0], [1.0, -1.0, 3.0], [-1.0, 2.0, 3.0]]).T
    with pytest.raises(ValueError, match=re.escape("(1.0, -1.0, 3.0)")):
        fit(QuadFormLaw(k[0], k[1], k[2]))


# ------------------------------------------------------------ law tables


def assert_table_matches_loop(model, patch, mask=None):
    table = offset_laws(model, patch, mask=mask)
    kind, p0, p1, scale = loop_offset_laws(model, patch, mask=mask)
    assert np.array_equal(table.kind, kind)
    for got, want in ((table.p0, p0), (table.p1, p1), (table.scale, scale)):
        np.testing.assert_allclose(got, want, rtol=PARAM_RTOL, atol=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_offset_laws_match_the_loop(seed):
    rng = np.random.default_rng(2000 + seed)
    h, w = (int(v) for v in rng.integers(5, 14, 2))
    model = random_model(rng, h, w)
    p = int(rng.integers(1, max(h, w) + 3))
    patch = PatchDomain(anchor=(int(rng.integers(0, w)), int(rng.integers(0, h))), side=p)
    assert_table_matches_loop(model, patch)
    assert_table_matches_loop(model, patch, stride_mask((h, w), int(rng.integers(2, 4))))
    window = np.abs(centered_coords((h, w))).max(axis=0) <= int(rng.integers(1, 4))
    assert_table_matches_loop(model, patch, window)
    # a random mask keeps some offsets whose mirror is masked out
    assert_table_matches_loop(model, patch, rng.random((h, w)) < 0.5)


def test_offset_laws_match_the_loop_on_an_exact_period():
    tile = np.random.default_rng(13).standard_normal((3, 4))
    model = from_exemplar(np.tile(tile, (3, 3)))
    assert_table_matches_loop(model, PatchDomain(side=5))


def test_offset_laws_with_everything_masked():
    model = from_exemplar(np.random.default_rng(14).standard_normal((6, 6)))
    table = offset_laws(model, PatchDomain(side=3), mask=np.zeros((6, 6), dtype=bool))
    assert np.all(table.kind == KIND_POINT)
    assert table.fallback_counts() == {"wood_f": 0, "gamma_two_moment": 0, "point_mass": 0}


def finite_support_model(rng, h, w):
    """A model whose ``Gamma`` has exact finite support: a random kernel of
    at most 4 x 4 pixels, its periodic correlation summed directly over
    the kernel's pixel pairs (no FFT), then symmetrized."""
    ky, kx = (a.ravel() for a in np.indices((int(v) for v in rng.integers(1, 5, 2))))
    values = rng.standard_normal(ky.size) * rng.uniform(0.5, 3.0)
    kernel = np.zeros((h, w))
    np.add.at(kernel, (ky % h, kx % w), values)
    gamma = np.zeros((h, w))
    diffs = ((ky[None, :] - ky[:, None]) % h, (kx[None, :] - kx[:, None]) % w)
    np.add.at(gamma, diffs, np.outer(values, values))
    return MicrotextureModel(kernel=kernel, gamma=_symmetrized(gamma), kind="exemplar")


def far_offsets(model, p):
    """Offsets whose centred ``|t_x| >= p + r_x`` or ``|t_y| >= p + r_y``,
    with ``r`` the support radii of ``Gamma``, found by an explicit scan;
    and ``max(r_x, r_y)``."""
    cx, cy = centered_coords(model.shape)
    support = model.gamma != 0.0
    rx, ry = (int(np.abs(c[support]).max(initial=0)) for c in (cx, cy))
    return (np.abs(cx) >= p + rx) | (np.abs(cy) >= p + ry), max(rx, ry)


def assert_bitwise(table, ref):
    for got, want in zip((table.kind, table.p0, table.p1, table.scale), ref):
        assert got.dtype == want.dtype and np.array_equal(got.view(np.uint8), want.view(np.uint8))


def far_cases(seed):
    """Tori smaller than ``2(p + r)`` first (no far offset), then random
    white-noise and finite-support models with negative anchors."""
    rng = np.random.default_rng(4000 + seed)
    yield white_noise((5, 7), 1.5), PatchDomain(anchor=(-2, 1), side=4)
    yield finite_support_model(rng, 6, 6), PatchDomain(anchor=(1, -3), side=4)
    for case in range(10):
        h, w = (int(v) for v in rng.integers(3, 30, 2))
        if case % 4 == 0:
            model = white_noise((h, w), float(rng.uniform(0.5, 3.0)))
        else:
            model = finite_support_model(rng, h, w)
        anchor = (int(rng.integers(-9, 3)), int(rng.integers(-9, 3)))
        yield model, PatchDomain(anchor=anchor, side=int(rng.integers(1, 7)))


@pytest.mark.parametrize("seed", range(4))
def test_far_offsets_copy_one_law_bit_for_bit(seed):
    """Far offsets share the first one's law, bitwise equal to the table
    that evaluates each of them, and the table keeps the loop's contract,
    with stride and random masks."""
    rng = np.random.default_rng(4100 + seed)
    seen = set()
    for model, patch in far_cases(seed):
        (h, w), p = model.shape, patch.side
        far, r = far_offsets(model, p)
        seen.add((model.kind, far.any(), r > 0))
        for mask in (None, stride_mask((h, w), int(rng.integers(2, 4))), rng.random((h, w)) < 0.5):
            table = offset_laws(model, patch, mask=mask)
            assert_bitwise(table, engine_offset_laws(model, patch, mask=mask))
            sel = far if mask is None else far & mask
            for values in (table.kind, table.p0, table.p1, table.scale):
                assert np.all(values[sel] == values[sel][:1])
        if h * w <= 150 and p <= 4:
            assert_table_matches_loop(model, patch, stride_mask((h, w), 2))
    assert {("white-noise", False, False), ("white-noise", True, False)} <= seen
    assert {("exemplar", False), ("exemplar", True)} <= {(k, f) for k, f, r in seen if r}


def test_far_offsets_share_one_engine_evaluation(monkeypatch):
    """White noise at 128², p = 8: the 113 non-far offsets left by the
    mirror copy (15² around the origin) and one far offset.  An exemplar
    has full support and evaluates half of the torus, as before."""
    calls = engine_calls(monkeypatch)
    patch = PatchDomain(side=8)
    offset_laws(white_noise((128, 128), std=2.0), patch)
    offset_laws(from_exemplar(np.random.default_rng(19).standard_normal((128, 128))), patch)
    assert [len(offsets) for offsets, _ in calls] == [114, 8194]


def test_table_records_its_engine_rows(monkeypatch):
    """The table's ``evaluated`` is the number of rows its one engine call
    received, masked or not."""
    calls = engine_calls(monkeypatch)
    patch = PatchDomain(side=8)
    white = offset_laws(white_noise((128, 128), std=2.0), patch)
    exemplar = from_exemplar(np.random.default_rng(19).standard_normal((128, 128)))
    full = offset_laws(exemplar, patch)
    strided = offset_laws(exemplar, patch, mask=stride_mask((128, 128), 4))
    assert (white.evaluated, full.evaluated) == (114, 8194)
    assert [t.evaluated for t in (white, full, strided)] == [len(o) for o, _ in calls]


# ---------------------------------------------------------------- errors


def raised(fn):
    try:
        fn()
    except ArithmeticError as exc:
        return str(exc)
    return None


def reported(message):
    return float(re.search(r"= (\S+) badly", message).group(1))


def bad_model(rng, h, w):
    """A model whose 'autocorrelation' is not positive semi-definite, so
    some offsets have negative increment variances."""
    g = rng.standard_normal((h, w))
    g = 0.5 * (g + g[(-np.arange(h)) % h][:, (-np.arange(w)) % w])
    g[0, 0] = abs(g[0, 0])
    return MicrotextureModel(kernel=np.zeros((h, w)), gamma=g, kind="exemplar")


def bad_finite_model(rng, p):
    """A non positive semi-definite 'autocorrelation' of exact finite
    support, radii up to 2, on a torus large enough for far offsets.  It
    is negative off the origin, so every ``delta(t, 0)`` is positive and
    the far offsets' ``2 Gamma`` often has a badly negative ``tr C^3``."""
    rx, ry = (int(v) for v in rng.integers(0, 3, 2))
    h, w = (2 * (p + r) + int(rng.integers(0, 3)) for r in (ry, rx))
    g = np.zeros((h, w))
    support = np.ix_(np.arange(-ry, ry + 1) % h, np.arange(-rx, rx + 1) % w)
    g[support] = -np.abs(rng.standard_normal((2 * ry + 1, 2 * rx + 1)))
    g = 0.5 * (g + g[(-np.arange(h)) % h][:, (-np.arange(w)) % w])
    g[0, 0] = abs(g[0, 0])
    return MicrotextureModel(kernel=np.zeros((h, w)), gamma=g, kind="exemplar")


def bad_cases():
    rng = np.random.default_rng(15)
    for _ in range(30):
        h, w = (int(v) for v in rng.integers(4, 9, 2))
        yield bad_model(rng, h, w), PatchDomain(side=int(rng.integers(1, 4)))
    for _ in range(30):
        p = int(rng.integers(2, 4))
        yield bad_finite_model(rng, p), PatchDomain(side=p)


def check_first_failing_offset_raises():
    kinds = set()
    from_far = 0
    for model, patch in bad_cases():
        got = raised(lambda: offset_laws(model, patch))
        want = raised(lambda: loop_offset_laws(model, patch))
        assert (got is None) == (want is None)
        if want is None:
            continue
        kinds.add(want.split(" = ")[0])
        if want.startswith("delta"):
            assert got == want
        else:
            assert got.startswith("tr C^3")
            assert math.isclose(reported(got), reported(want), rel_tol=1e-9)
        h, w = model.shape
        if far_offsets(model, patch.side)[0].any():
            from_far += got == raised(lambda: cumulants(model, (w // 2, h // 2), patch))
    assert kinds == {"delta(t,0)", "tr C^3"}
    assert from_far >= 2  # tables whose first failing offset is far


def test_table_raises_the_error_of_the_first_failing_offset(monkeypatch):
    set_cpus(monkeypatch, 1)
    monkeypatch.setattr(background, "_CHUNK_ENTRIES", 2 * 25)
    check_first_failing_offset_raises()


def test_table_on_the_pool_raises_the_error_of_the_first_failing_offset(monkeypatch):
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(background, "_CHUNK_ENTRIES", 2 * 25)
    pools = []

    def counted(workers):
        pools.append(workers)
        return ThreadPoolExecutor(workers)

    monkeypatch.setattr(background, "ThreadPoolExecutor", counted)
    check_first_failing_offset_raises()
    assert pools and set(pools) == {2}
