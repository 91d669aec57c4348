"""Reference implementations kept as test oracles.

These are the straightforward forms that the library's fast paths
replace: the dense trace cumulants of the increment covariance ``C_t``
(one ``n x n`` matrix and one ``n^3`` product per offset), the square-patch
traces that sum ``tr C^3`` over every x-pair instead of one x-triple per
symmetry orbit, with the triple counts counted pixel by pixel, the scalar
three-branch law fit, the per-offset loop that fills a law table, the
table that sends every offset but the mirror copies through the engine
(before far offsets shared one law), the scalar law CDF and quantile
with the vectorised table copies they once had, the NL-means
thresholds from one law per class of equal offsets, the direct
auto-similarity of one offset and the loop map built from it, the
nearest-neighbor edges from one tuple sort per vertex, and the
NL-means loop that computes every offset's patch distances on its own,
through freshly padded integral images.
Independent references live here too: the law of an explicit spectrum,
the closed-form white-noise spectrum of square patches, the offset
correlation and increment covariance matrix, the dense white-noise
increment covariance on the plane, a seeded Monte-Carlo CDF, and the
co-occurrence inertia, a second formula for the auto-similarity.  They
depend only on numpy, scipy's special functions, the model's
autocorrelation and the patch coordinates, never on the code under test.
Last come two quantities that only the tests use: the centered offset
grids of an offset map, and the paper's NL-means reconstruction bound,
which builds on the library's white-noise thresholds.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from redlab.background import cumulants, from_exemplar, white_noise
from redlab.denoise import nlmeans_a_priori_threshold
from redlab.detect import offset_laws
from redlab.grid import PatchDomain, as_map
from redlab.lattice import (
    DetectionGraph,
    GraphTooSmall,
    alternate_minimization,
    c_per,
    nearest_neighbor_edges,
)
from redlab.quadform import QuadFormLaw, fit, quantile

KIND_WOOD, KIND_GAMMA, KIND_POINT = 0, 1, 2

_ALPHA2_CAP = 1e7
_NEG_CUMULANT_TOL = 1e-10
_DEGENERATE_REL = 1e-12

# Side cap (pixels) of the dense covariance matrices the oracles form.
COV_SIDE_CAP = 4096


def _patch_diff_table(coords: np.ndarray, shape: tuple[int, int]):
    """Unique coordinate differences of a patch (modulo the torus) and the
    index matrix mapping entry ``(i, j)`` to the difference ``x_i - x_j``."""
    h, w = shape
    dx = (coords[:, 0][:, None] - coords[:, 0][None, :]) % w
    dy = (coords[:, 1][:, None] - coords[:, 1][None, :]) % h
    flat = (dy * w + dx).ravel()
    uniq, inv = np.unique(flat, return_inverse=True)
    inv = inv.ravel()
    counts = np.bincount(inv, minlength=uniq.size).astype(np.float64)
    return uniq, uniq % w, uniq // w, inv.reshape(dx.shape), counts


def law_from_eigenvalues(pairs) -> QuadFormLaw:
    """The law of an explicit spectrum of ``(value, multiplicity)`` pairs."""
    pairs = [(float(v), int(m)) for v, m in pairs]
    s1 = sum(v * m for v, m in pairs)
    s2 = sum(v * v * m for v, m in pairs)
    s3 = sum(v * v * v * m for v, m in pairs)
    return QuadFormLaw(k1=s1, k2=2.0 * s2, k3=8.0 * s3)


def dense_cumulants(model, t, patch) -> tuple[float, float, float]:
    """``(k1, k2, k3) = (tr C, 2 tr C^2, 8 tr C^3)`` from the dense matrix."""
    g = model.gamma
    h, w = g.shape
    gflat = g.ravel()
    n = patch.size()
    tx, ty = int(t[0]) % w, int(t[1]) % h
    d0 = 2.0 * (g[0, 0] - g[ty, tx])
    if d0 < 0.0:
        if d0 < -1e-10 * max(1.0, abs(g[0, 0])):
            raise ArithmeticError(f"delta(t,0) = {d0} badly negative")
        d0 = 0.0
    if d0 <= 2.0 * _DEGENERATE_REL * g[0, 0]:
        return 0.0, 0.0, 0.0
    uniq, ux, uy, inv, counts = _patch_diff_table(patch.coords(), (h, w))
    vals = (
        2.0 * gflat[uniq]
        - gflat[((uy + ty) % h) * w + (ux + tx) % w]
        - gflat[((uy - ty) % h) * w + (ux - tx) % w]
    )
    vals[0] = d0  # uniq is sorted, so index 0 is the zero difference
    k1 = n * d0
    k2 = 2.0 * float(counts @ (vals * vals))
    c = vals[inv]
    k3 = 8.0 * float(np.sum(c * (c @ c)))
    if k3 < 0.0:
        if k3 < -1e-8 * max(k2**1.5, 1.0):
            raise ArithmeticError(f"tr C^3 = {k3 / 8.0} badly negative")
        k3 = 0.0
    return k1, k2, k3


def scalar_fit(k1: float, k2: float, k3: float) -> tuple[int, float, float, float]:
    """Three-branch law fit of one law: ``(kind, p0, p1, scale)``."""
    if k1 < -_NEG_CUMULANT_TOL or k2 < -_NEG_CUMULANT_TOL or k3 < -_NEG_CUMULANT_TOL:
        raise ValueError(f"negative cumulants: {(k1, k2, k3)}")
    k1, k2, k3 = max(k1, 0.0), max(k2, 0.0), max(k3, 0.0)
    if k1 == 0.0 or k2 == 0.0:
        return KIND_POINT, 0.0, 0.0, 0.0
    m1 = k1
    m2 = k2 + k1 * k1
    m3 = k3 + 3.0 * k1 * k2 + k1**3
    r1 = m2 / (m1 * m1)
    r2 = m3 / (m1 * m2)
    denom = 2.0 * r2 - r1 - r1 * r2
    if denom != 0.0:
        a1 = 2.0 * (r1 - r2) / denom
        d = a1 * (r1 - 1.0) - 1.0
        if a1 > 0.0 and d != 0.0:
            a2 = ((2.0 * r1 - 1.0) * a1 - 1.0) / d
            if 3.0 < a2 <= _ALPHA2_CAP:
                beta = m1 * (a2 - 1.0) / a1
                if beta > 0.0:
                    return KIND_WOOD, a1, a2, beta
    return KIND_GAMMA, 2.0 * k1 * k1 / k2, k2 / (2.0 * k1), 0.0


def loop_offset_laws(model, patch, mask=None):
    """Per-offset loop filling ``(kind, p0, p1, scale)`` maps; the law at
    ``-t`` is copied from ``t`` when both are evaluated."""
    h, w = model.shape
    kind = np.full((h, w), KIND_POINT, dtype=np.uint8)
    p0 = np.zeros((h, w))
    p1 = np.zeros((h, w))
    scale = np.zeros((h, w))
    for iy in range(h):
        for ix in range(w):
            if mask is not None and not mask[iy, ix]:
                continue
            my, mx = (-iy) % h, (-ix) % w
            if (my, mx) < (iy, ix) and (mask is None or mask[my, mx]):
                kind[iy, ix] = kind[my, mx]
                p0[iy, ix] = p0[my, mx]
                p1[iy, ix] = p1[my, mx]
                scale[iy, ix] = scale[my, mx]
                continue
            law = dense_cumulants(model, (ix, iy), patch)
            kind[iy, ix], p0[iy, ix], p1[iy, ix], scale[iy, ix] = scalar_fit(*law)
    return kind, p0, p1, scale


def engine_offset_laws(model, patch, mask=None):
    """The law table with the ``-t`` mirror copy alone: every other
    evaluated offset goes through the cumulant engine and one array fit,
    as :func:`redlab.detect.offset_laws` did before it copied far offsets.
    Returns ``(kind, p0, p1, scale)`` maps."""
    h, w = model.shape
    flat = np.arange(h * w).reshape(h, w)
    mirror = ((-np.arange(h)) % h)[:, None] * w + (-np.arange(w)) % w
    sel = np.ones((h, w), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    copy = sel & (mirror < flat) & sel.ravel()[mirror]
    evaluate = sel & ~copy
    ys, xs = np.nonzero(evaluate)
    params = fit(cumulants(model, np.stack([xs, ys], axis=1), patch))
    maps = []
    for values, fill, dtype in (
        (params.kind, KIND_POINT, np.uint8),
        (params.p0, 0.0, np.float64),
        (params.p1, 0.0, np.float64),
        (params.scale, 0.0, np.float64),
    ):
        out = np.full((h, w), fill, dtype=dtype)
        out[evaluate] = values
        out[copy] = out.ravel()[mirror[copy]]
        maps.append(out)
    return tuple(maps)


# ------------------------------------------------------ maps and matrices


def auto_similarity(u, t, patch) -> float:
    """Squared distance between the patch and its copy shifted by ``t``,
    evaluated directly with periodic coordinates."""
    u = np.asarray(u, dtype=np.float64)
    h, w = u.shape
    c = patch.coords()
    base = u[c[:, 1] % h, c[:, 0] % w]
    shifted = u[(c[:, 1] + t[1]) % h, (c[:, 0] + t[0]) % w]
    return float(np.sum((shifted - base) ** 2))


def centered_coords(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Centered (t_x, t_y) grids for an offset map of the given shape.

    Returns two ``(h, w)`` integer arrays; entry ``[ty, tx]`` holds the
    centered representative of the raw offset ``(tx, ty)``, in
    ``[-w/2, w/2) x [-h/2, h/2)``.
    """
    h, w = shape
    tx = (np.arange(w) + w // 2) % w - w // 2
    ty = (np.arange(h) + h // 2) % h - h // 2
    return np.broadcast_to(tx, (h, w)).copy(), np.broadcast_to(ty[:, None], (h, w)).copy()


def as_map_naive(u, patch) -> np.ndarray:
    """Loop evaluation of the auto-similarity map, one offset at a time."""
    h, w = np.shape(u)
    return np.array([[auto_similarity(u, (tx, ty), patch) for tx in range(w)] for ty in range(h)])


def delta_map(model, t) -> np.ndarray:
    """Offset correlation ``x -> 2 Gamma(x) - Gamma(x+t) - Gamma(x-t)``.

    The value at ``x = 0`` is clamped to be nonnegative (it is twice a
    variance; FFT round-off may leave a tiny negative residue).
    """
    g = model.gamma
    tx, ty = int(t[0]), int(t[1])
    fwd = np.roll(g, shift=(-ty, -tx), axis=(0, 1))
    bwd = np.roll(g, shift=(ty, tx), axis=(0, 1))
    out = 2.0 * g - fwd - bwd
    if out[0, 0] < 0.0:
        if out[0, 0] < -1e-10 * max(1.0, abs(g[0, 0])):
            raise ArithmeticError(f"delta(t,0) = {out[0, 0]} badly negative")
        out[0, 0] = 0.0
    return out


def covariance_matrix(model, t, patch) -> np.ndarray:
    """Covariance matrix of the increment field over the patch, entries
    ``delta(t, x_i - x_j)`` in canonical patch order, under
    ``COV_SIDE_CAP``."""
    n = patch.size()
    if n > COV_SIDE_CAP:
        raise ValueError(f"patch size {n} exceeds covariance cap {COV_SIDE_CAP}")
    d = delta_map(model, t)
    h, w = model.shape
    c = patch.coords()
    dx = c[:, 0][:, None] - c[:, 0][None, :]
    dy = c[:, 1][:, None] - c[:, 1][None, :]
    m = d[dy % h, dx % w]
    return 0.5 * (m + m.T)


def white_noise_covariance(p: int, t) -> np.ndarray:
    """Increment covariance for unit white noise on the plane (no wrap),
    square ``p x p`` patch, canonical order."""
    c = PatchDomain(side=p).coords()
    dx = c[:, 0][:, None] - c[:, 0][None, :]
    dy = c[:, 1][:, None] - c[:, 1][None, :]
    tx, ty = int(t[0]), int(t[1])
    out = 2.0 * ((dx == 0) & (dy == 0)).astype(np.float64)
    out -= ((dx == tx) & (dy == ty)).astype(np.float64)
    out -= ((dx == -tx) & (dy == -ty)).astype(np.float64)
    return out


def mc_cdf(eigenvalues, x, n_samples: int, seed: int) -> float | np.ndarray:
    """Empirical CDF of ``sum lambda_k z_k^2`` at ``x`` over seeded draws.

    ``x`` may be a scalar or an array of probe points (evaluated on the
    same sample set).  Deterministic given ``seed``; draws are chunked so
    memory stays bounded.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64).ravel()
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    rng = np.random.default_rng(seed)
    counts = np.zeros(xs.shape, dtype=np.int64)
    chunk = 1 << 14
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        z = rng.standard_normal((m, lam.size))
        qf = np.square(z) @ lam
        counts += (qf[:, None] <= xs[None, :]).sum(axis=0)
        done += m
    frac = counts / float(n_samples)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(frac[0])
    return frac


# ------------------------------------------------------------ law evaluation
#
# Each takes anything with ``kind``/``p0``/``p1``/``scale`` (and, for the
# maps, ``shape`` and ``mask``) attributes: a fit or a law table.


def scalar_cdf(params, x: float) -> float:
    """CDF of one fitted law, branch by branch."""
    if params.kind == KIND_POINT:
        return 1.0 if x >= 0.0 else 0.0
    if x <= 0.0:
        return 0.0
    if params.kind == KIND_WOOD:
        y = x / params.scale
        return float(special.betainc(params.p0, params.p1, y / (1.0 + y)))
    return float(special.gammainc(params.p0 / 2.0, x / (2.0 * params.p1)))


def scalar_quantile(params, q: float) -> float:
    """Quantile of one fitted law: up to 2048 bracket doublings, then
    bisection to 1e-10 relative width."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {q}")
    if params.kind == KIND_POINT:
        return 0.0
    if params.kind == KIND_WOOD:
        mean = params.scale * params.p0 / (params.p1 - 1.0)
    else:
        mean = params.p0 * params.p1
    hi = max(mean, 1.0)
    for _ in range(2048):
        if scalar_cdf(params, hi) >= q:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("quantile bracket expansion failed")
    lo = 0.0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if scalar_cdf(params, mid) >= q:
            hi = mid
        else:
            lo = mid
    return hi


def table_cdf_map(table, values) -> np.ndarray:
    """Vectorised CDF map of a law table; masked offsets get 1."""
    v = np.asarray(values, dtype=np.float64)
    out = np.ones(table.kind.shape)
    wood = table.kind == KIND_WOOD
    gam = table.kind == KIND_GAMMA
    if table.mask is not None:
        wood &= table.mask
        gam &= table.mask
    if np.any(wood):
        y = v[wood] / table.scale[wood]
        out[wood] = special.betainc(table.p0[wood], table.p1[wood], y / (1.0 + y))
    if np.any(gam):
        out[gam] = special.gammainc(table.p0[gam] / 2.0, v[gam] / (2.0 * table.p1[gam]))
    out[(table.kind != KIND_POINT) & (v <= 0.0)] = 0.0
    if table.mask is not None:
        out[~table.mask] = 1.0
    return out


def table_quantile_map(table, q: float) -> np.ndarray:
    """Vectorised map of the smallest floats with CDF above ``q`` of a law
    table, ``q`` in (0, 1): up to 200 bracket doublings and a fixed 80
    halvings; 0 at point-mass and masked offsets."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {q}")
    live = table.kind != KIND_POINT
    if table.mask is not None:
        live &= table.mask
    out = np.zeros(table.kind.shape)
    if not np.any(live):
        return out
    k, p0, p1, sc = (a[live] for a in (table.kind, table.p0, table.p1, table.scale))
    wood = k == KIND_WOOD

    def vec_cdf(x: np.ndarray) -> np.ndarray:
        res = np.empty_like(x)
        y = x[wood] / sc[wood]
        res[wood] = special.betainc(p0[wood], p1[wood], y / (1.0 + y))
        g = ~wood
        res[g] = special.gammainc(p0[g] / 2.0, x[g] / (2.0 * p1[g]))
        return res

    mean = np.where(wood, sc * p0 / np.maximum(p1 - 1.0, 1e-12), p0 * p1)
    hi = np.maximum(mean, 1.0)
    for _ in range(200):
        low = vec_cdf(hi) <= q
        if not np.any(low):
            break
        hi[low] *= 2.0
    else:
        raise ArithmeticError("quantile bracket expansion failed")
    lo = np.zeros_like(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = vec_cdf(mid) > q
        hi[above] = mid[above]
        lo[~above] = mid[~above]
    out[live] = hi
    return out


def _array_cdf(kind, p0, p1, scale, x) -> np.ndarray:
    """CDF of equal-shape 1-D arrays of fitted laws at ``x``, branch by
    branch (point masses excluded)."""
    out = np.zeros(x.shape)
    wood = (kind == KIND_WOOD) & (x > 0.0)
    gam = (kind == KIND_GAMMA) & (x > 0.0)
    y = x[wood] / scale[wood]
    out[wood] = special.betainc(p0[wood], p1[wood], y / (1.0 + y))
    out[gam] = special.gammainc(p0[gam] / 2.0, x[gam] / (2.0 * p1[gam]))
    return out


def bisect_quantile(params, q: float):
    """Smallest floats with CDF above ``q``, ``q`` in [0, 1), by a search
    that evaluates the CDF at every step: up to 1000 bracket doublings from
    ``max(mean, 1)``, then bisection from 0 until the bracket is two
    adjacent floats.  NaN counts as not above ``q``; point masses give 0; a
    0-d result is a Python float."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"quantile level must be in [0,1), got {q}")
    kind, p0, p1, scale = np.broadcast_arrays(params.kind, params.p0, params.p1, params.scale)
    live = kind != KIND_POINT
    kind, p0, p1, scale = kind[live], p0[live], p1[live], scale[live]

    def exceeds(todo, x):
        return _array_cdf(kind[todo], p0[todo], p1[todo], scale[todo], x) > q

    wood_mean = scale * p0 / np.maximum(p1 - 1.0, 1e-12)
    hi = np.maximum(np.where(kind == KIND_WOOD, wood_mean, p0 * p1), 1.0)
    todo = np.arange(hi.size)
    for _ in range(1000):
        with np.errstate(invalid="ignore"):
            todo = todo[~exceeds(todo, hi[todo])]
        if todo.size == 0:
            break
        hi[todo] *= 2.0
    else:
        raise ArithmeticError("quantile bracket expansion failed")
    lo = np.zeros_like(hi)
    todo = np.arange(hi.size)
    while todo.size:
        mid = 0.5 * (lo[todo] + hi[todo])
        gap = (mid != lo[todo]) & (mid != hi[todo])
        todo, mid = todo[gap], mid[gap]
        above = exceeds(todo, mid)
        hi[todo[above]] = mid[above]
        lo[todo[~above]] = mid[~above]
    out = np.zeros(live.shape)
    out[live] = hi
    return float(out) if out.ndim == 0 else out


def class_table_threshold(p: int, c: int, nfa_max: float) -> tuple[np.ndarray, float]:
    """NL-means white-noise thresholds from one law per class of offsets
    with equal sorted component magnitudes ``(min|t|, max|t|)``, spread
    back over the ``(2c+1, 2c+1)`` window; zeros at ``nfa_max == |T|`` and
    infinite thresholds off the origin at ``nfa_max == 0``.  The laws are
    the engine's on a white torus of side ``p + c``, too large to wrap."""
    n_t = (2 * c + 1) ** 2
    if nfa_max == n_t:
        a_map = np.zeros((2 * c + 1, 2 * c + 1))
    elif nfa_max == 0.0:
        a_map = np.full((2 * c + 1, 2 * c + 1), np.inf)
        a_map[c, c] = 0.0
    else:
        ty, tx = np.abs(np.mgrid[-c : c + 1, -c : c + 1])
        pairs = np.stack([np.minimum(tx, ty).ravel(), np.maximum(tx, ty).ravel()], axis=1)
        classes, inverse = np.unique(pairs, axis=0, return_inverse=True)
        laws = cumulants(white_noise((p + c, p + c)), classes, PatchDomain(side=p))
        per_class = quantile(fit(laws), 1.0 - nfa_max / n_t)
        a_map = per_class[inverse.ravel()].reshape(2 * c + 1, 2 * c + 1)
    mean_a = float(a_map.sum() / (n_t - 1)) if n_t > 1 else 0.0
    return a_map, mean_a


# ------------------------------------------------------------ lattice


def _torus_components(d_map: np.ndarray) -> list[np.ndarray]:
    """8-connected components of a binary offset map, wrap-aware, through
    a full-size index map."""
    h, w = d_map.shape
    idx_of = -np.ones((h, w), dtype=np.int64)
    cells = np.argwhere(d_map)
    for k, (iy, ix) in enumerate(cells):
        idx_of[iy, ix] = k
    parent = np.arange(len(cells))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k, (iy, ix) in enumerate(cells):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                j = idx_of[(iy + dy) % h, (ix + dx) % w]
                if j >= 0:
                    ra, rb = find(k), find(int(j))
                    if ra != rb:
                        parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for k in range(len(cells)):
        groups.setdefault(find(k), []).append(k)
    return [cells[g] for g in groups.values()]


def loop_nearest_neighbor_edges(vertices) -> tuple[np.ndarray, np.ndarray]:
    """Four-nearest-neighbor edges from one sort of ``(d^2, x, y, j)``
    tuples per vertex, their union deduplicated in a set."""
    v = np.asarray(vertices, dtype=np.float64)
    n = len(v)
    edge_set: set[tuple[int, int]] = set()
    for i in range(n):
        d2 = np.sum((v - v[i]) ** 2, axis=1)
        order = sorted(
            (float(d2[j]), float(v[j, 0]), float(v[j, 1]), j)
            for j in range(n)
            if j != i
        )
        for _, _, _, j in order[:4]:
            edge_set.add((min(i, j), max(i, j)))
    edges = np.asarray(sorted(edge_set), dtype=np.int64)
    vec = (v[edges[:, 1]] - v[edges[:, 0]]).astype(np.float64)
    flip = (vec[:, 0] < 0) | ((vec[:, 0] == 0) & (vec[:, 1] < 0))
    vec[flip] *= -1.0
    return edges, vec


def grid_build_graph(d_map, as_values) -> DetectionGraph:
    """Detection graph with the centered offsets read from full ``(h, w)``
    grids: one vertex per component at the statistic's argmin (ties by
    centered coordinates), the origin's component excluded."""
    d_map = np.asarray(d_map, dtype=bool)
    h, w = d_map.shape
    ctx = np.broadcast_to((np.arange(w) + w // 2) % w - w // 2, (h, w))
    cty = np.broadcast_to(((np.arange(h) + h // 2) % h - h // 2)[:, None], (h, w))
    comps = _torus_components(d_map)
    verts: list[tuple[int, int]] = []
    for comp in comps:
        if np.any((comp[:, 0] == 0) & (comp[:, 1] == 0)):
            continue
        best = None
        for iy, ix in comp:
            key = (as_values[iy, ix], ctx[iy, ix], cty[iy, ix])
            if best is None or key < best[0]:
                best = (key, (int(ctx[iy, ix]), int(cty[iy, ix])))
        verts.append(best[1])
    if len(verts) < 2:
        raise GraphTooSmall(f"{len(verts)} vertex(es); need at least 2")
    verts.sort()
    v = np.asarray(verts, dtype=np.int64)
    edges, vec = nearest_neighbor_edges(v)
    return DetectionGraph(vertices=v, edges=edges, edge_vectors=vec, n_components=len(comps))


def anchor_loop_scores(u, n_anchors, patch_side, nfa_max, delta_m, delta_b, n_iter, seed):
    """One image's ranking record fields, mapping one anchor at a time:
    ``(n_success, n_failed, c_per_values)``."""
    u = np.asarray(u, dtype=np.float64)
    h, w = u.shape
    laws = offset_laws(from_exemplar(u), PatchDomain(anchor=(0, 0), side=patch_side))
    q = nfa_max / (h * w)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA17C)))
    values_list: list[float] = []
    n_failed = 0
    for _ in range(n_anchors):
        ax = int(rng.integers(0, w - patch_side + 1))
        ay = int(rng.integers(0, h - patch_side + 1))
        values = as_map(u, PatchDomain(anchor=(ax, ay), side=patch_side))
        d_map = laws.detect_by_threshold(values, q)
        try:
            graph = grid_build_graph(d_map, values)
        except GraphTooSmall:
            n_failed += 1
            continue
        fit = alternate_minimization(graph.edge_vectors, delta_b, delta_m, n_iter)
        values_list.append(c_per(fit, graph.n_components))
    return len(values_list), n_failed, values_list


# ------------------------------------------------------------ NL-means


def _sliding_sum(img: np.ndarray, p: int) -> np.ndarray:
    """Exact p x p window sums; output anchors at every valid top-left."""
    s = np.cumsum(np.cumsum(np.pad(img, ((1, 0), (1, 0))), axis=0), axis=1)
    return s[p:, p:] - s[:-p, p:] - s[p:, :-p] + s[:-p, :-p]


def _cover_sum(anchor_vals: np.ndarray, p: int, shape: tuple[int, int]) -> np.ndarray:
    """Sum of an anchor-grid quantity over all patches covering each pixel."""
    h, w = shape
    padded = np.zeros((h + p - 1, w + p - 1))
    padded[p - 1 : p - 1 + anchor_vals.shape[0], p - 1 : p - 1 + anchor_vals.shape[1]] = (
        anchor_vals
    )
    return _sliding_sum(padded, p)


def _nl_offsets(c: int):
    for ty in range(-c, c + 1):
        for tx in range(-c, c + 1):
            yield tx, ty


def _patch_distances(u: np.ndarray, p: int, tx: int, ty: int):
    """Squared patch distances at offset ``(tx, ty)`` for the anchors whose
    base and shifted windows both fit; returns (distances, slices)."""
    h, w = u.shape
    ax_lo, ax_hi = max(0, -tx), w - p - max(0, tx)
    ay_lo, ay_hi = max(0, -ty), h - p - max(0, ty)
    if ax_lo > ax_hi or ay_lo > ay_hi:
        return None
    ys = slice(ay_lo, ay_hi + p)
    xs = slice(ax_lo, ax_hi + p)
    diff = u[ay_lo + ty : ay_hi + p + ty, ax_lo + tx : ax_hi + p + tx] - u[ys, xs]
    d = _sliding_sum(diff * diff, p)
    return d, slice(ay_lo, ay_hi + 1), slice(ax_lo, ax_hi + 1)


def _aggregate(u: np.ndarray, p: int, weights) -> np.ndarray:
    """Pixel estimates from per-offset anchor weights, accumulated in
    row-major offset order through full-frame shifted copies."""
    h, w = u.shape
    acc = np.zeros((h, w))
    for tx, ty, w_t in weights:
        cover = _cover_sum(w_t, p, (h, w))
        shifted = np.zeros((h, w))
        src_y = slice(max(0, ty), h + min(0, ty))
        src_x = slice(max(0, tx), w + min(0, tx))
        dst_y = slice(max(0, -ty), h - max(0, ty))
        dst_x = slice(max(0, -tx), w - max(0, tx))
        shifted[dst_y, dst_x] = u[src_y, src_x]
        acc += shifted * cover
    counts = _cover_sum(np.ones((h - p + 1, w - p + 1)), p, (h, w))
    return acc / counts


def loop_nlmeans_threshold(u, p: int, c: int, applied: np.ndarray, s2: float):
    """Threshold NL-means with one distance pass per offset: an offset is
    selected where ``d <= s2 * applied[ty + c, tx + c]`` (the origin
    always is).  Returns ``(denoised, selected_counts)``."""
    u = np.asarray(u, dtype=np.float64)
    n_anchors = (u.shape[0] - p + 1, u.shape[1] - p + 1)
    counts = np.zeros(n_anchors)
    accepted = []
    for tx, ty in _nl_offsets(c):
        res = _patch_distances(u, p, tx, ty)
        if res is None:
            continue
        d, sy, sx = res
        acc = np.zeros(n_anchors, dtype=bool)
        if tx == 0 and ty == 0:
            acc[sy, sx] = True
        else:
            acc[sy, sx] = d <= s2 * applied[ty + c, tx + c]
        counts += acc
        accepted.append((tx, ty, acc))
    weights = ((tx, ty, acc / counts) for tx, ty, acc in accepted)
    return _aggregate(u, p, weights), counts


def reconstruction_bound(cfg, eps: float) -> float:
    """The paper's reconstruction guarantee: a radius such that each
    selected patch (hence their mean) lies within it of the clean patch
    with probability at least ``1 - eps``, ``sigma * (sqrt(max_t a(t)) +
    sqrt(chi-square quantile at 1 - eps))`` for the ``DenoiseConfig``
    ``cfg``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    a_map, _ = nlmeans_a_priori_threshold(cfg.patch_side, cfg.search_radius, cfg.nfa_max)
    a_t = float(a_map.max())
    a_w = float(special.chdtri(cfg.patch_side**2, eps))
    return cfg.sigma * (math.sqrt(a_t) + math.sqrt(a_w))


def loop_nlmeans_classic(u, p: int, c: int, h_bandwidth: float):
    """Classical NL-means with one distance pass and one full raw weight
    map per offset.  Returns ``(denoised, selected_counts, extra)``."""
    u = np.asarray(u, dtype=np.float64)
    n_anchors = (u.shape[0] - p + 1, u.shape[1] - p + 1)
    h2 = h_bandwidth * h_bandwidth
    z = np.zeros(n_anchors)
    raw = []
    for tx, ty in _nl_offsets(c):
        res = _patch_distances(u, p, tx, ty)
        if res is None:
            continue
        d, sy, sx = res
        w_t = np.zeros(n_anchors)
        w_t[sy, sx] = np.exp(-d / h2)
        z += w_t
        raw.append((tx, ty, w_t))
    normalized = [(tx, ty, w_t / z) for tx, ty, w_t in raw]
    sel = np.zeros(n_anchors)
    total = np.zeros(n_anchors)
    for _, _, w_t in normalized:
        sel += w_t > 0
        total += w_t
    extra = {"h": h_bandwidth, "weight_sum_max_err": float(np.abs(total - 1.0).max())}
    return _aggregate(u, p, normalized), sel, extra


def axis_triple_counts(p: int) -> np.ndarray:
    """``#{k in [0, p) : k + beta and k + alpha + beta in [0, p)}`` for
    ``alpha, beta`` in ``(-p, p)``, counted over every ``k``."""
    a = np.arange(1 - p, p)[:, None, None]
    b = np.arange(1 - p, p)[None, :, None]
    k = np.arange(p)[None, None, :]
    inside = (0 <= k + b) & (k + b < p) & (0 <= k + a + b) & (k + a + b < p)
    return inside.sum(axis=2).astype(np.float64)


def pair_square_traces(d: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``tr C^2`` and ``tr C^3`` of a ``p x p`` patch from the table ``d`` of
    ``delta`` at the patch differences, summing ``tr C^3`` over every
    x-pair ``(ax, s - ax)`` with ``s`` in ``[0, p)`` and doubling ``s > 0``
    for ``-s``, through ``G_s = m * Hankel(d[-s])`` built in full."""
    side = 2 * p - 1
    pairs = p - np.abs(np.arange(1 - p, p))
    tr2 = np.einsum("mij,mij,i,j->m", d, d, pairs, pairs)
    m = axis_triple_counts(p)
    rev = d[:, ::-1]
    pad = np.zeros((len(d), side + 2 * (p - 1)))
    tr3 = np.zeros(len(d))
    for s in range(p):
        pad[:, p - 1 : p - 1 + side] = d[:, p - 1 - s, ::-1]
        g = sliding_window_view(pad, side, axis=1) * m
        x = np.matmul(d[:, s:], g)
        rows = np.arange(s, side)
        pair = np.einsum("mij,mij->mi", x, rev[:, : side - s])
        term = np.einsum("mi,i->m", pair, m[rows, side - 1 + s - rows])
        tr3 += term if s == 0 else 2.0 * term
    return tr2, tr3


def white_noise_eigenvalue_blocks(p: int, t) -> list[tuple[int, int, float, int]]:
    """Closed-form spectrum of the white-noise increment covariance, as
    ``(m, k, eigenvalue, multiplicity)`` blocks.

    Valid for a square ``p x p`` patch and an overlapping offset with both
    components nonzero.  Eigenvalues are ``4 sin^2(k pi / (2m))`` for
    ``m`` in ``[2, q+1]``, ``k`` in ``[1, m-1]``, with
    ``q = ceil(p / max(|tx|, |ty|))``; the multiplicity is independent of
    ``k``, equals ``2 |tx| |ty|`` for ``m < q``, a product of edge
    remainders at ``m = q+1``, and at ``m = q`` whatever brings the total
    to ``p^2``.
    """
    tx, ty = abs(int(t[0])), abs(int(t[1]))
    if tx == 0 or ty == 0 or max(tx, ty) >= p:
        raise ValueError(
            "closed form needs overlap and both offset components nonzero"
        )
    q = math.ceil(p / max(tx, ty))

    def edge_remainder(tc: int) -> int:
        ceil_c = math.ceil(p / tc)
        p_c = tc * ceil_c - p
        return (ceil_c - q) * tc + tc - p_c

    r_edge = edge_remainder(tx) * edge_remainder(ty)
    r_mid = 2 * tx * ty
    inner = (q - 2) * (q - 1) // 2  # sum of (m-1) for m in [2, q-1]
    r_q_total = p * p - q * r_edge - r_mid * inner
    if r_q_total % (q - 1) != 0 or r_q_total < 0:
        raise ArithmeticError(f"inconsistent multiplicities for p={p}, t={t}")
    r_q = r_q_total // (q - 1)

    out: list[tuple[int, int, float, int]] = []
    for m in range(2, q + 2):
        r = r_mid if m < q else (r_q if m == q else r_edge)
        for k in range(1, m):
            out.append((m, k, 4.0 * math.sin(k * math.pi / (2.0 * m)) ** 2, r))
    return out


def white_noise_eigenvalues(p: int, t) -> list[tuple[float, int]]:
    """Flat ``(eigenvalue, multiplicity)`` form of the closed-form
    white-noise spectrum; offsets with no patch overlap give the single
    eigenvalue 2 with multiplicity ``p^2``."""
    tx, ty = abs(int(t[0])), abs(int(t[1]))
    if max(tx, ty) >= p:
        return [(2.0, p * p)]
    return [
        (lam, r)
        for _, _, lam, r in white_noise_eigenvalue_blocks(p, t)
        if r > 0
    ]


def inertia(u, t: tuple[int, int], patch: PatchDomain, n_gray: int | None = None) -> float:
    """Co-occurrence inertia of a quantized image restricted to a patch.

    ``u`` must take integer values in ``[0, n_gray]``.  Computed from the
    actual co-occurrence histogram; equals the auto-similarity exactly.
    """
    u = np.asarray(u)
    ui = np.asarray(np.rint(u), dtype=np.int64)
    if not np.all(u == ui) or ui.min() < 0:
        raise ValueError("inertia needs integer pixel values in [0, n_gray]")
    if n_gray is None:
        n_gray = int(ui.max())
    if ui.max() > n_gray:
        raise ValueError("pixel values exceed n_gray")
    h, w = ui.shape
    c = patch.coords()
    levels = n_gray + 1
    cooc = np.zeros((levels, levels), dtype=np.int64)
    i = ui[c[:, 1] % h, c[:, 0] % w]
    j = ui[(c[:, 1] + t[1]) % h, (c[:, 0] + t[0]) % w]
    np.add.at(cooc, (i, j), 1)
    grid = np.arange(levels)
    weights = (grid[:, None] - grid[None, :]) ** 2
    return float(np.sum(weights * cooc))
