"""Threshold NL-means denoising with calibrated patch selection.

A noisy patch is denoised by averaging, over a bounded search window, the
patches whose squared distance to it stays below a per-offset threshold.
Thresholds are upper quantiles of the distance law under unit white noise
scaled by the noise variance, so the expected number of *rejected* patches
in pure noise is controlled; they come from one white-noise law table,
:func:`~redlab.detect.offset_laws`.  The classical exponentially-weighted
NL-means is provided for comparison, along with PSNR.

Unlike detection, denoising never wraps patches: only windows fully inside
the image take part, and the final pixel estimate averages the available
patch estimates at each position.

Offsets ``t`` and ``-t`` share one distance pass: the difference image of
``-t`` is the exact negation of that of ``t``, so its patch distances are
the same array on the anchor grid shifted by ``t``.  Each offset keeps its
own threshold and float sums over offsets run in row-major order, so the
outputs match a per-offset loop bit for bit.

Each offset's pixel cover is box-summed only over the rows its selection
spans and from its first selected column to the right edge: its bits are
kept for that crop alone, and an offset that selects nothing is skipped.
The crop gives the full-frame sums bit for bit.  Above and left of it the
weights are 0.0, so the prefix sums there are exact zeros and ``0.0 + x ==
x``; below it the box sum reads two equal prefix rows, ``((A - A) - C) + C
== +0.0``; and the skipped additions are of ``+-0.0`` to a sum that starts
at +0.0 and never becomes -0.0.  The right side is not cropped: there the
full-frame sum ``((A - B) - A) + B`` can leave a nonzero round-off residue.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .background import white_noise
from .detect import offset_laws
from .grid import PatchDomain, _as_image

__all__ = [
    "DenoiseConfig",
    "DenoiseReport",
    "nlmeans_a_priori_threshold",
    "nlmeans_classic",
    "nlmeans_threshold",
    "psnr",
]

@dataclass(frozen=True)
class DenoiseConfig:
    """Noise level, patch geometry and selection strictness.

    ``nfa_max`` is the expected number of rejected offsets per patch under
    pure noise; the search window has ``(2 * search_radius + 1)**2``
    offsets.  ``threshold_mode`` picks between the per-offset quantiles
    and their mean used as one constant threshold (the default).
    """

    sigma: float
    patch_side: int = 8
    search_radius: int = 10
    nfa_max: float = 4.41
    threshold_mode: str = "constant-mean"

    def __post_init__(self):
        if self.sigma <= 0 or self.sigma * self.sigma == 0:
            raise ValueError("sigma must be positive, with a square above 0")
        if self.patch_side < 1 or self.search_radius < 0:
            raise ValueError("invalid patch geometry")
        if not 0 <= self.nfa_max <= self.window_size:
            raise ValueError("nfa_max must lie in [0, |T|]")
        if self.threshold_mode not in ("constant-mean", "per-offset"):
            raise ValueError(f"unknown threshold mode {self.threshold_mode!r}")

    @property
    def window_size(self) -> int:
        return (2 * self.search_radius + 1) ** 2


@dataclass
class DenoiseReport:
    denoised: np.ndarray
    selected_counts: np.ndarray  # per patch anchor
    thresholds: np.ndarray  # per-offset threshold map actually applied
    threshold_mean: float
    extra: dict = field(default_factory=dict)


def nlmeans_a_priori_threshold(
    p: int, c: int, nfa_max: float
) -> tuple[np.ndarray, float]:
    """Per-offset selection thresholds under unit white noise.

    Returns the ``(2c+1, 2c+1)`` threshold map indexed ``[ty+c, tx+c]``
    (zero at the origin, which is always selected) and the mean threshold
    over the nonzero offsets, 0 when ``c = 0`` leaves none.  Thresholds
    are each offset's ``quantile`` at ``1 - nfa_max / |T|``: infinite where
    that rounds to 1, as at ``nfa_max = 0``, and zero at ``nfa_max = |T|``.
    The laws are one :func:`~redlab.detect.offset_laws` table, masked to the
    window, on the white torus of side ``max(p + c, 2c + 1)``: no component
    of ``a`` or ``a +- t`` reaches the side for ``|a| < p`` and ``|t| <= c``,
    so each law is the plane's, and the window offsets take distinct cells.
    """
    n_t = (2 * c + 1) ** 2
    if not 0 <= nfa_max <= n_t:
        raise ValueError("need 0 <= nfa_max <= |T|")
    if nfa_max == n_t:
        a_map = np.zeros((2 * c + 1, 2 * c + 1))
    else:
        side = max(p + c, 2 * c + 1)
        ty, tx = np.mgrid[-c : c + 1, -c : c + 1] % side
        window = np.zeros((side, side), dtype=bool)
        window[ty, tx] = True
        laws = offset_laws(white_noise((side, side)), PatchDomain(side=p), mask=window)
        a_map = laws.quantile_map(1.0 - nfa_max / n_t)[ty, tx]  # copies the read-only map
        a_map[c, c] = 0.0  # the origin's point mass has an infinite threshold at q = 1
    mean_a = float(a_map.sum() / (n_t - 1)) if n_t > 1 else 0.0
    return a_map, mean_a


def _box_sum(buf: np.ndarray, vals: np.ndarray, p: int, pad: int = 0) -> np.ndarray:
    """Exact sums over every p x p window of ``vals`` framed by ``pad`` zeros,
    from prefix sums taken in place in the top-left corner of ``buf``, a
    reused buffer whose first row and column stay zero."""
    n, m = vals.shape[0] + 2 * pad, vals.shape[1] + 2 * pad
    s = buf[: n + 1, : m + 1]
    if pad:
        s[1 : pad + 1, 1:] = s[n + 1 - pad :, 1:] = 0.0
        s[1:, 1 : pad + 1] = s[1:, m + 1 - pad :] = 0.0
    s[pad + 1 : n + 1 - pad, pad + 1 : m + 1 - pad] = vals
    np.cumsum(s, axis=0, out=s)
    np.cumsum(s, axis=1, out=s)
    return s[p:, p:] - s[:-p, p:] - s[p:, :-p] + s[:-p, :-p]


def _offsets(c: int) -> list[tuple[int, int]]:
    """Search-window offsets ``(tx, ty)`` in row-major order."""
    return [(tx, ty) for ty in range(-c, c + 1) for tx in range(-c, c + 1)]


def _pair_distances(u: np.ndarray, p: int, c: int):
    """Squared patch distances, one pass per ``+-t`` pair: yields ``(d,
    {t: anchors, -t: anchors})``, ``anchors`` being the slices of the anchor
    grid where ``d`` applies, for each ``t`` first of its pair in row-major
    order whose windows fit somewhere."""
    h, w = u.shape
    buf = np.zeros((h + 1, w + 1))
    for tx, ty in _offsets(c)[: 2 * c * (c + 1) + 1]:  # up to the origin
        ax_lo, ax_hi = max(0, -tx), w - p - max(0, tx)
        ay_lo, ay_hi = max(0, -ty), h - p - max(0, ty)
        if ax_lo > ax_hi or ay_lo > ay_hi:
            continue
        diff = u[ay_lo + ty : ay_hi + p + ty, ax_lo + tx : ax_hi + p + tx]
        diff = diff - u[ay_lo : ay_hi + p, ax_lo : ax_hi + p]
        ys, xs = slice(ay_lo, ay_hi + 1), slice(ax_lo, ax_hi + 1)
        mirror = (slice(ys.start + ty, ys.stop + ty), slice(xs.start + tx, xs.stop + tx))
        yield _box_sum(buf, diff * diff, p), {(tx, ty): (ys, xs), (-tx, -ty): mirror}


def _aggregate(u: np.ndarray, p: int, weights: Iterable) -> np.ndarray:
    """Pixel estimates from per-offset anchor weights (each summing to one
    over offsets at every anchor), accumulated in the order given.  Each
    item ``(tx, ty, r0, c0, w_t)`` holds the weights of the anchors from
    row ``r0`` and column ``c0`` on, through the last anchor column; every
    weight outside that crop is zero."""
    h, w = u.shape
    buf = np.zeros((h + p, w + p))
    out = np.zeros((h, w))
    for tx, ty, r0, c0, w_t in weights:
        cover = _box_sum(buf, w_t, p, p - 1)  # pixel rows r0.., columns c0..w
        y0, y1 = max(r0, -ty), min(r0 + cover.shape[0], h - max(0, ty))
        x0, x1 = max(c0, -tx), w - max(0, tx)
        src = u[y0 + ty : y1 + ty, x0 + tx : x1 + tx]
        out[y0:y1, x0:x1] += src * cover[y0 - r0 : y1 - r0, x0 - c0 : x1 - c0]
    counts = _box_sum(buf, np.ones((h - p + 1, w - p + 1)), p, p - 1)
    return out / counts


def nlmeans_threshold(u, cfg: DenoiseConfig) -> DenoiseReport:
    """Denoise by uniform averaging of the selected patches.

    For each patch, an offset is selected when its squared patch distance
    is at most ``sigma^2`` times the white-noise threshold (the origin
    always is); the denoised patch is the plain mean of the selected
    shifted patches, and each pixel averages the estimates of all patches
    containing it.
    """
    u = _as_image(u)
    p, c = cfg.patch_side, cfg.search_radius
    h, w = u.shape
    if h < p or w < p:
        raise ValueError("image smaller than patch")
    applied, mean_a = nlmeans_a_priori_threshold(p, c, cfg.nfa_max)
    if cfg.threshold_mode == "constant-mean":
        applied = np.full((2 * c + 1, 2 * c + 1), mean_a)
        applied[c, c] = 0.0
    s2 = cfg.sigma**2

    n_anchors = (h - p + 1, w - p + 1)
    counts = np.zeros(n_anchors, dtype=np.int64)
    accepted = {}  # per offset: anchor origin, crop shape and one bit per anchor
    for d, place in _pair_distances(u, p, c):
        for (tx, ty), anchors in place.items():
            acc = np.zeros(n_anchors, dtype=bool)
            acc[anchors] = True if tx == ty == 0 else d <= s2 * applied[ty + c, tx + c]
            counts += acc
            rows = np.flatnonzero(acc.any(axis=1))
            if rows.size:  # an empty selection adds nothing
                r0, r1 = rows[0], rows[-1] + 1
                c0 = np.flatnonzero(acc[r0:r1].any(axis=0))[0]
                crop = acc[r0:r1, c0:]
                accepted[tx, ty] = (r0, c0, crop.shape, np.packbits(crop))
    counts = counts.astype(np.float64)
    inv = 1.0 / counts

    def weights():
        # Row-major offset order; one float weight map is alive at a time.
        # With bits in {0, 1}, bits * (1 / counts) is bitwise acc / counts.
        for t in _offsets(c):
            if t in accepted:
                r0, c0, shape, bits = accepted[t]
                crop = np.unpackbits(bits, count=math.prod(shape)).reshape(shape)
                yield *t, r0, c0, crop * inv[r0 : r0 + shape[0], c0:]

    denoised = _aggregate(u, p, weights())
    return DenoiseReport(
        denoised=denoised,
        selected_counts=counts,
        thresholds=applied,
        threshold_mean=mean_a,
    )


def nlmeans_classic(u, cfg: DenoiseConfig, h_bandwidth: float) -> DenoiseReport:
    """Classical NL-means: exponential weights in the squared patch
    distance with bandwidth ``h_bandwidth``, normalized over the window."""
    if h_bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    u = _as_image(u)
    p, c = cfg.patch_side, cfg.search_radius
    h, w = u.shape
    if h < p or w < p:
        raise ValueError("image smaller than patch")
    n_anchors = (h - p + 1, w - p + 1)
    h2 = h_bandwidth * h_bandwidth
    raw = {}
    for d, place in _pair_distances(u, p, c):
        w_pair = np.exp(-d / h2)  # one raw weight map per +-t pair
        raw.update((t, (w_pair, anchors)) for t, anchors in place.items())
    raw = {t: raw[t] for t in _offsets(c) if t in raw}  # row-major order
    z = np.zeros(n_anchors)
    for w_pair, anchors in raw.values():
        z[anchors] += w_pair
    sel = np.zeros(n_anchors)
    total = np.zeros(n_anchors)

    def normalized():
        # One full weight map is alive at a time, beside the raw pair maps.
        nonlocal sel, total
        for (tx, ty), (w_pair, anchors) in raw.items():
            w_t = np.zeros(n_anchors)
            w_t[anchors] = w_pair
            w_t /= z
            sel += w_t > 0
            total += w_t
            yield tx, ty, 0, 0, w_t

    denoised = _aggregate(u, p, normalized())
    return DenoiseReport(
        denoised=denoised,
        selected_counts=sel,
        thresholds=np.full((2 * c + 1, 2 * c + 1), np.nan),
        threshold_mean=float("nan"),
        extra={"h": h_bandwidth, "weight_sum_max_err": float(np.abs(total - 1.0).max())},
    )


def psnr(reference, estimate) -> float:
    """Peak signal-to-noise ratio in dB, peak taken from the reference.

    ``10 log10(max(ref)^2 / mean((ref - est)^2))``; identical inputs give
    ``inf``.
    """
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    if ref.shape != est.shape:
        raise ValueError("shape mismatch")
    peak = float(np.max(ref * ref))
    if peak == 0.0:
        raise ValueError("zero reference image")
    mse = float(np.mean((ref - est) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak / mse)
