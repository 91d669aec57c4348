"""A-contrario detection of redundant offsets.

For each offset ``t`` the probability map holds the probability, under the
background model, that the auto-similarity statistic is at most its
observed value.  An offset is detected when that probability is at most
``nfa_max / |domain|``; the expected number of detections in the
background is then bounded by ``nfa_max``.  Equivalently, the statistic
itself can be compared against a per-offset quantile threshold.

Laws depend on the offset and the patch shape but not on the patch
anchor, so they are computed once into an :class:`OffsetLawTable` (the
law at ``-t`` equals the law at ``t``, halving the work) and reused
across maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import imgio
from .background import MicrotextureModel, cumulants
from .grid import PatchDomain, as_map
from .quadform import KIND_GAMMA, KIND_POINT, KIND_WOOD, WoodFParams, cdf, fit, quantile

__all__ = [
    "DetectionResult",
    "OffsetLawTable",
    "ap",
    "autosim_detection",
    "offset_laws",
    "save_detection",
    "stride_mask",
    "threshold_a",
    "window_mask",
]

def ap(model: MicrotextureModel, t, patch: PatchDomain, value: float) -> float:
    """Background probability that the statistic at ``t`` is <= ``value``."""
    if value < 0:
        raise ValueError("auto-similarity values are nonnegative")
    return cdf(fit(cumulants(model, t, patch)), value)


def threshold_a(model: MicrotextureModel, t, patch: PatchDomain, q: float) -> float:
    """Per-offset detection threshold: the ``q``-quantile of the law at ``t``."""
    return quantile(fit(cumulants(model, t, patch)), q)


@dataclass
class OffsetLawTable:
    """Fitted law parameters for every offset of a map shape.

    ``kind``, ``p0``, ``p1`` and ``scale`` are the ``(h, w)`` fields of
    one array :class:`~redlab.quadform.WoodFParams` (:attr:`params`), so
    the maps evaluate through :func:`~redlab.quadform.cdf` and
    :func:`~redlab.quadform.quantile`; the table only applies ``mask``.
    """

    shape: tuple[int, int]
    kind: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    scale: np.ndarray
    mask: np.ndarray | None = None

    @property
    def params(self) -> WoodFParams:
        """The table's laws as one array fit, indexed like an offset map."""
        return WoodFParams(self.kind, self.p0, self.p1, self.scale)

    def params_at(self, t) -> WoodFParams:
        h, w = self.shape
        i = (t[1] % h, t[0] % w)
        return WoodFParams(
            int(self.kind[i]), float(self.p0[i]), float(self.p1[i]), float(self.scale[i])
        )

    def fallback_counts(self) -> dict:
        sel = self.mask if self.mask is not None else np.ones(self.shape, bool)
        return {
            "wood_f": int(np.sum((self.kind == KIND_WOOD) & sel)),
            "gamma_two_moment": int(np.sum((self.kind == KIND_GAMMA) & sel)),
            "point_mass": int(np.sum((self.kind == KIND_POINT) & sel)),
        }

    def cdf_map(self, values: np.ndarray) -> np.ndarray:
        """CDF of each offset's law at the given statistic map.

        Masked offsets get probability 1 (never detected).
        """
        out = cdf(self.params, values)
        if self.mask is not None:
            out[~self.mask] = 1.0
        return out

    def quantile_map(self, q: float) -> np.ndarray:
        """Per-offset ``q``-quantiles (0 for point-mass and masked offsets)."""
        return np.where(self.live_mask(), quantile(self.params, q), 0.0)

    def live_mask(self) -> np.ndarray:
        """Offsets that can ever be detected: evaluated and nondegenerate."""
        live = self.kind != KIND_POINT
        if self.mask is not None:
            live &= self.mask
        return live

    def detect_by_threshold(self, as_values: np.ndarray, q: float) -> np.ndarray:
        """Statistic-side thresholding; equivalent to probability-side
        detection away from degenerate offsets (which never detect)."""
        a = self.quantile_map(q)
        return (np.asarray(as_values) <= a) & self.live_mask()


def stride_mask(shape: tuple[int, int], stride: int) -> np.ndarray:
    """Evaluate only offsets whose both components are multiples of
    ``stride`` (a compute-cost control; the NFA denominator is unchanged)."""
    h, w = shape
    ys = (np.arange(h) % stride == 0)[:, None]
    xs = (np.arange(w) % stride == 0)[None, :]
    return ys & xs


def window_mask(shape: tuple[int, int], radius: int) -> np.ndarray:
    """Evaluate only offsets within sup-norm ``radius`` of the origin."""
    h, w = shape
    tx = (np.arange(w) + w // 2) % w - w // 2
    ty = (np.arange(h) + h // 2) % h - h // 2
    return (np.abs(ty)[:, None] <= radius) & (np.abs(tx)[None, :] <= radius)


def offset_laws(
    model: MicrotextureModel, patch: PatchDomain, mask: np.ndarray | None = None
) -> OffsetLawTable:
    """Fit the statistic's law at every (unmasked) offset of the torus.

    The law at ``-t`` equals the law at ``t``, so an offset whose mirror
    comes first in row-major order, and is itself evaluated, copies it.
    The remaining offsets go through the cumulant engine in one call and
    through one array fit; an error is the one the first failing offset,
    in row-major order, raises.
    """
    h, w = model.shape
    flat = np.arange(h * w).reshape(h, w)
    mirror = ((-np.arange(h)) % h)[:, None] * w + (-np.arange(w)) % w
    sel = np.ones((h, w), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    copy = sel & (mirror < flat) & sel.ravel()[mirror]
    evaluate = sel & ~copy
    ys, xs = np.nonzero(evaluate)
    params = fit(cumulants(model, np.stack([xs, ys], axis=1), patch))

    def spread(values, fill=0.0, dtype=np.float64) -> np.ndarray:
        out = np.full((h, w), fill, dtype=dtype)
        out[evaluate] = values
        out[copy] = out.ravel()[mirror[copy]]
        return out

    return OffsetLawTable(
        shape=(h, w),
        kind=spread(params.kind, KIND_POINT, np.uint8),
        p0=spread(params.p0),
        p1=spread(params.p1),
        scale=spread(params.scale),
        mask=mask,
    )


@dataclass
class DetectionResult:
    """Probability map, binary detection map and run metadata."""

    p_map: np.ndarray
    d_map: np.ndarray
    as_values: np.ndarray
    nfa_max: float
    patch: PatchDomain
    model_descriptor: dict
    fallback_counts: dict
    mask: np.ndarray | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def n_detected(self) -> int:
        return int(self.d_map.sum())


def autosim_detection(
    u,
    patch: PatchDomain,
    model: MicrotextureModel,
    nfa_max: float,
    mask: np.ndarray | None = None,
    laws: OffsetLawTable | None = None,
) -> DetectionResult:
    """Detect offsets whose auto-similarity is improbably small.

    ``P_map(t)`` is the background CDF of the statistic at its observed
    value and ``D_map(t) = 1`` iff ``P_map(t) <= nfa_max / |domain|``.
    Masked offsets get ``P_map = 1`` and are never detected.  A
    precomputed law table may be passed to amortize fits across images
    drawn from the same model.
    """
    if nfa_max < 0:
        raise ValueError("nfa_max must be nonnegative")
    if laws is None:
        laws = offset_laws(model, patch, mask=mask)
    values = as_map(u, patch)
    p_map = laws.cdf_map(values)
    q = nfa_max / values.size
    d_map = p_map <= q
    if laws.mask is not None:
        d_map &= laws.mask
    warnings = []
    if model.degenerate and nfa_max >= values.size:
        warnings.append(
            "degenerate background model with nfa_max >= |domain|: "
            "every offset is trivially detected"
        )
    return DetectionResult(
        p_map=p_map,
        d_map=d_map,
        as_values=values,
        nfa_max=nfa_max,
        patch=patch,
        model_descriptor=model.descriptor(),
        fallback_counts=laws.fallback_counts(),
        mask=laws.mask,
        warnings=warnings,
    )


def save_detection(result: DetectionResult, outdir, basename: str = "") -> dict:
    """Write ``P_map`` (PFM), ``D_map`` (PGM) and a JSON sidecar."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = basename + "_" if basename else ""
    p_path = outdir / f"{stem}P_map.pfm"
    d_path = outdir / f"{stem}D_map.pgm"
    meta_path = outdir / f"{stem}detection.json"
    imgio.write_pfm(p_path, result.p_map)
    imgio.write_pgm(d_path, result.d_map.astype(np.float64) * 255.0, maxval=255)
    meta = {
        "patch": result.patch.descriptor(),
        "nfa_max": result.nfa_max,
        "model": result.model_descriptor,
        "mask": None
        if result.mask is None
        else {"evaluated_offsets": int(result.mask.sum())},
        "fallback_counts": result.fallback_counts,
        "n_detected": result.n_detected,
        "warnings": result.warnings,
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    return {"p_map": str(p_path), "d_map": str(d_path), "meta": str(meta_path)}
