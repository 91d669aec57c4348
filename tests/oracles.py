"""Reference implementations kept as test oracles.

These are the straightforward forms that the library's fast paths
replace: the dense trace cumulants of the increment covariance ``C_t``
(one ``n x n`` matrix and one ``n^3`` product per offset), the scalar
three-branch law fit, and the per-offset loop that fills a law table.
They depend only on numpy and on the model's autocorrelation, never on
the code under test.
"""

from __future__ import annotations

import numpy as np

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
