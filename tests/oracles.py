"""Reference implementations kept as test oracles.

These are the straightforward forms that the library's fast paths
replace: the dense trace cumulants of the increment covariance ``C_t``
(one ``n x n`` matrix and one ``n^3`` product per offset), the scalar
three-branch law fit, the per-offset loop that fills a law table, the
scalar law CDF and quantile with the vectorised table copies they once
had, and the loop auto-similarity map.  Independent references live here
too: the offset correlation and increment covariance matrix, and a
seeded Monte-Carlo CDF.  They depend only on numpy, scipy's special
functions, the model's autocorrelation and the patch coordinates, never
on the code under test.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from redlab.background import COV_SIDE_CAP

KIND_WOOD, KIND_GAMMA, KIND_POINT = 0, 1, 2

_ALPHA2_CAP = 1e7
_NEG_CUMULANT_TOL = 1e-10
_DEGENERATE_REL = 1e-12


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


# ------------------------------------------------------ maps and matrices


def as_map_naive(u, patch) -> np.ndarray:
    """Loop evaluation of the auto-similarity map."""
    u = np.asarray(u, dtype=np.float64)
    h, w = u.shape
    c = patch.coords()
    base = u[c[:, 1] % h, c[:, 0] % w]
    out = np.empty((h, w))
    for ty in range(h):
        for tx in range(w):
            shifted = u[(c[:, 1] + ty) % h, (c[:, 0] + tx) % w]
            out[ty, tx] = np.sum((shifted - base) ** 2)
    return out


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
    ``delta(t, x_i - x_j)`` in canonical patch order, under the library's
    side cap."""
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
    chunk = 1 << 16
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
    out = np.ones(table.shape)
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
    """Vectorised quantile map of a law table: up to 200 bracket doublings
    and a fixed 80 halvings; 0 at point-mass and masked offsets."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {q}")
    live = table.kind != KIND_POINT
    if table.mask is not None:
        live &= table.mask
    out = np.zeros(table.shape)
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
        low = vec_cdf(hi) < q
        if not np.any(low):
            break
        hi[low] *= 2.0
    else:
        raise ArithmeticError("quantile bracket expansion failed")
    lo = np.zeros_like(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = vec_cdf(mid) >= q
        hi[above] = mid[above]
        lo[~above] = mid[~above]
    out[live] = hi
    return out
