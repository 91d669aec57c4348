"""Threshold NL-means denoising with calibrated patch selection.

A noisy patch is denoised by averaging, over a bounded search window, the
patches whose squared distance to it stays below a per-offset threshold.
Thresholds are upper quantiles of the distance law under unit white noise
scaled by the noise variance, so the expected number of *rejected* patches
in pure noise is controlled.  The classical exponentially-weighted
NL-means is provided for comparison, along with PSNR and a diagnostic
radius bounding the patch reconstruction error.

Unlike detection, denoising never wraps patches: only windows fully inside
the image take part, and the final pixel estimate averages the available
patch estimates at each position.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .background import white_noise_law
from .quadform import QuadFormLaw, fit, quantile

__all__ = [
    "DenoiseConfig",
    "DenoiseReport",
    "nlmeans_a_priori_threshold",
    "nlmeans_classic",
    "nlmeans_threshold",
    "psnr",
    "reconstruction_bound",
]

_threshold_cache: dict[tuple, tuple[np.ndarray, float]] = {}


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
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
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
    psnr_dB: float | None = None
    extra: dict = field(default_factory=dict)


def nlmeans_a_priori_threshold(
    p: int, c: int, nfa_max: float
) -> tuple[np.ndarray, float]:
    """Per-offset selection thresholds under unit white noise.

    Returns the ``(2c+1, 2c+1)`` threshold map indexed ``[ty+c, tx+c]``
    (zero at the origin, which is always selected) and the mean threshold
    over the nonzero offsets.  Thresholds are quantiles at level
    ``1 - nfa_max / |T|``; they depend on the offset only through the
    unordered pair of component magnitudes, and are constant once the
    offset clears the patch.
    """
    n_t = (2 * c + 1) ** 2
    if not 0 <= nfa_max < n_t:
        raise ValueError("need 0 <= nfa_max < |T|")
    key = (p, c, float(nfa_max))
    if key in _threshold_cache:
        return _threshold_cache[key]
    if nfa_max == 0.0:
        a_map = np.full((2 * c + 1, 2 * c + 1), np.inf)
        a_map[c, c] = 0.0
        _threshold_cache[key] = (a_map, float(np.inf))
        return _threshold_cache[key]
    ty, tx = np.abs(np.mgrid[-c : c + 1, -c : c + 1])
    pairs = np.stack([np.minimum(tx, ty).ravel(), np.maximum(tx, ty).ravel()], axis=1)
    classes, inverse = np.unique(pairs, axis=0, return_inverse=True)
    # One law per class (lo, hi); the origin class (0, 0) is the point mass.
    laws = [white_noise_law(p, (hi, 0) if lo == 0 else (lo, hi)) for lo, hi in classes]
    k1, k2, k3 = np.array([(law.k1, law.k2, law.k3) for law in laws]).T
    per_class = quantile(fit(QuadFormLaw(k1, k2, k3)), 1.0 - nfa_max / n_t)
    a_map = per_class[inverse.ravel()].reshape(2 * c + 1, 2 * c + 1)
    mean_a = float(a_map.sum() / (n_t - 1))
    result = (a_map, mean_a)
    _threshold_cache[key] = result
    return result


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


def _offsets(c: int):
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


def _aggregate(u: np.ndarray, p: int, c: int, weights: Iterable) -> np.ndarray:
    """Pixel estimates from per-offset anchor weights (each summing to one
    over offsets at every anchor)."""
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
    n_anchors_y, n_anchors_x = h - p + 1, w - p + 1
    counts = _cover_sum(np.ones((n_anchors_y, n_anchors_x)), p, (h, w))
    return acc / counts


def nlmeans_threshold(u, cfg: DenoiseConfig, reference=None) -> DenoiseReport:
    """Denoise by uniform averaging of the selected patches.

    For each patch, an offset is selected when its squared patch distance
    is at most ``sigma^2`` times the white-noise threshold (the origin
    always is); the denoised patch is the plain mean of the selected
    shifted patches, and each pixel averages the estimates of all patches
    containing it.  When a clean ``reference`` is given, the report also
    carries the PSNR against it.
    """
    u = np.asarray(u, dtype=np.float64)
    p, c = cfg.patch_side, cfg.search_radius
    h, w = u.shape
    if h < p or w < p:
        raise ValueError("image smaller than patch")
    if cfg.nfa_max == cfg.window_size:
        a_map = np.zeros((2 * c + 1, 2 * c + 1))
        mean_a = 0.0
    else:
        a_map, mean_a = nlmeans_a_priori_threshold(p, c, cfg.nfa_max)
    if cfg.threshold_mode == "constant-mean":
        applied = np.full((2 * c + 1, 2 * c + 1), mean_a)
        applied[c, c] = 0.0
    else:
        applied = a_map.copy()
    s2 = cfg.sigma**2

    n_anchors = (h - p + 1, w - p + 1)
    counts = np.zeros(n_anchors)
    accepted: list[tuple[int, int, np.ndarray]] = []
    for tx, ty in _offsets(c):
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
    # A generator: one float weight map is alive at a time, not (2c+1)^2.
    weights = ((tx, ty, acc / counts) for tx, ty, acc in accepted)
    denoised = _aggregate(u, p, c, weights)
    return DenoiseReport(
        denoised=denoised,
        selected_counts=counts,
        thresholds=applied,
        threshold_mean=mean_a,
        psnr_dB=None if reference is None else psnr(reference, denoised),
    )


def nlmeans_classic(u, cfg: DenoiseConfig, h_bandwidth: float) -> DenoiseReport:
    """Classical NL-means: exponential weights in the squared patch
    distance with bandwidth ``h_bandwidth``, normalized over the window."""
    if h_bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    u = np.asarray(u, dtype=np.float64)
    p, c = cfg.patch_side, cfg.search_radius
    h, w = u.shape
    if h < p or w < p:
        raise ValueError("image smaller than patch")
    n_anchors = (h - p + 1, w - p + 1)
    h2 = h_bandwidth * h_bandwidth
    z = np.zeros(n_anchors)
    raw: list[tuple[int, int, np.ndarray]] = []
    for tx, ty in _offsets(c):
        res = _patch_distances(u, p, tx, ty)
        if res is None:
            continue
        d, sy, sx = res
        w_t = np.zeros(n_anchors)
        w_t[sy, sx] = np.exp(-d / h2)
        z += w_t
        raw.append((tx, ty, w_t))
    weights = [(tx, ty, w_t / z) for tx, ty, w_t in raw]
    denoised = _aggregate(u, p, c, weights)
    sel = np.zeros(n_anchors)
    total = np.zeros(n_anchors)
    for _, _, w_t in weights:
        sel += w_t > 0
        total += w_t
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


def reconstruction_bound(cfg: DenoiseConfig, eps: float) -> float:
    """Radius such that each selected patch (hence their mean) lies within
    it of the clean patch with probability at least ``1 - eps``:
    ``sigma * (sqrt(max_t a(t)) + sqrt(chi-square quantile at 1 - eps))``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    a_map, _ = nlmeans_a_priori_threshold(
        cfg.patch_side, cfg.search_radius, cfg.nfa_max
    )
    a_t = float(a_map.max())
    a_w = float(stats.chi2.ppf(1.0 - eps, df=cfg.patch_side**2))
    return cfg.sigma * (math.sqrt(a_t) + math.sqrt(a_w))
