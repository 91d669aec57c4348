"""A-contrario detection of redundant offsets.

For each offset ``t`` the probability map holds the probability, under the
background model, that the auto-similarity statistic is at most its
observed value.  An offset is detected when that probability is at most
``q = nfa_max / |domain|``; the expected number of detections in the
background is then bounded by ``nfa_max``.  The same rule in threshold
form, bit for bit, is ``x < a+(q)`` (:func:`~redlab.quadform.quantile`).

Laws depend on the offset and the patch shape but not on the patch
anchor, so they are fitted once into an :class:`OffsetLawTable`, an array
fit indexed like an offset map, and reused across maps.  ``t`` and ``-t``
share a law, and so do all offsets far from the support of ``Gamma``
(:func:`offset_laws`): white noise at 128², ``p = 8`` evaluates 114 offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .background import MicrotextureModel, cumulants
from .grid import PatchDomain, as_map
from .quadform import KIND_GAMMA, KIND_POINT, KIND_WOOD, WoodFParams, cdf, fit, quantile

__all__ = [
    "DetectionResult",
    "OffsetLawTable",
    "autosim_detection",
    "offset_laws",
    "stride_mask",
]


@dataclass(frozen=True)
class OffsetLawTable(WoodFParams):
    """Fitted laws of every offset of a map shape, with an offset mask.

    The table is one array :class:`~redlab.quadform.WoodFParams` whose
    ``(h, w)`` fields are indexed like an offset map, so its maps evaluate
    through :func:`~redlab.quadform.cdf` and
    :func:`~redlab.quadform.quantile`; the table only applies ``mask`` and
    keeps each quantile map it has computed.  ``evaluated`` is the number
    of offsets the cumulant engine evaluated; the others copy their law.
    """

    mask: np.ndarray | None = None
    evaluated: int = 0
    _quantiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def fallback_counts(self) -> dict:
        sel = self.mask if self.mask is not None else np.ones(self.kind.shape, bool)
        return {
            "wood_f": int(np.sum((self.kind == KIND_WOOD) & sel)),
            "gamma_two_moment": int(np.sum((self.kind == KIND_GAMMA) & sel)),
            "point_mass": int(np.sum((self.kind == KIND_POINT) & sel)),
        }

    def cdf_map(self, values: np.ndarray) -> np.ndarray:
        """CDF of each offset's law at the given statistic map.

        Masked offsets get probability 1 (never detected).
        """
        out = cdf(self, values)
        if self.mask is not None:
            out[~self.mask] = 1.0
        return out

    def quantile_map(self, q: float) -> np.ndarray:
        """Per-offset thresholds ``a+(q)``, 0 at masked offsets.

        Evaluated once per ``q`` and cached on the table; the map is
        read-only because every caller shares it.
        """
        if q not in self._quantiles:
            a_map = quantile(self, q)
            if self.mask is not None:
                a_map[~self.mask] = 0.0
            a_map.flags.writeable = False
            self._quantiles[q] = a_map
        return self._quantiles[q]

    def live_mask(self) -> np.ndarray:
        """Offsets that can be detected at ``q < 1``: evaluated, nondegenerate."""
        live = self.kind != KIND_POINT
        if self.mask is not None:
            live &= self.mask
        return live

    def detect_by_threshold(self, as_values: np.ndarray, q: float) -> np.ndarray:
        """``as_values < a+(q)``: bitwise ``(cdf_map(as_values) <= q) & mask``."""
        return np.asarray(as_values) < self.quantile_map(q)


def stride_mask(shape: tuple[int, int], stride: int) -> np.ndarray:
    """Evaluate only offsets whose both components are multiples of
    ``stride`` (a compute-cost control; the NFA denominator is unchanged)."""
    h, w = shape
    ys = (np.arange(h) % stride == 0)[:, None]
    xs = (np.arange(w) % stride == 0)[None, :]
    return ys & xs


def offset_laws(
    model: MicrotextureModel, patch: PatchDomain, mask: np.ndarray | None = None
) -> OffsetLawTable:
    """Fit the statistic's law at every (unmasked) offset of the torus.

    Offsets with the same ``delta`` table have bitwise equal cumulants, so
    an offset copies an earlier evaluated one in two cases.  The law at
    ``-t`` equals the law at ``t``, so an offset whose mirror comes first
    in row-major order, and is itself evaluated, copies it.  Let ``r_x``
    be the largest centred ``|z_x|`` with ``Gamma(z) != 0``, and ``r_y``
    likewise.  At a *far* offset, centred ``|t_x| >= p + r_x`` or ``|t_y|
    >= p + r_y``, ``Gamma(a + t)`` and ``Gamma(a - t)`` vanish at every
    patch difference ``|a| < p`` (a far offset needs a side of at least
    ``2(p + r)``, so nothing wraps): ``delta(t, .) = 2 Gamma(.)``, and
    every far offset copies the first one.  The rest, in row-major order,
    go through the cumulant engine in one call and one array fit; an
    error is the one the first failing offset, in row-major order, raises.
    """
    h, w = model.shape
    p = patch.side
    flat = np.arange(h * w).reshape(h, w)
    mirror = ((-np.arange(h)) % h)[:, None] * w + (-np.arange(w)) % w
    sel = np.ones((h, w), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    source = np.where(sel & (mirror < flat) & sel.ravel()[mirror], mirror, flat)
    cy, cx = (np.minimum(np.arange(n), n - np.arange(n)) for n in (h, w))
    sy, sx = np.nonzero(model.gamma)
    far = sel & ((cy >= p + cy[sy].max(initial=0))[:, None] | (cx >= p + cx[sx].max(initial=0)))
    source[far] = np.flatnonzero(far)[:1]
    evaluate = sel & (source == flat)
    ys, xs = np.nonzero(evaluate)
    params = fit(cumulants(model, np.stack([xs, ys], axis=1), patch))

    def spread(values, fill=0.0, dtype=np.float64) -> np.ndarray:
        out = np.full((h, w), fill, dtype=dtype)
        out[evaluate] = values
        return np.where(sel, out.ravel()[source], out)

    return OffsetLawTable(
        kind=spread(params.kind, KIND_POINT, np.uint8),
        p0=spread(params.p0),
        p1=spread(params.p1),
        scale=spread(params.scale),
        mask=mask,
        evaluated=len(xs),
    )


@dataclass
class DetectionResult:
    """Probability map, binary detection map, law counts and warnings."""

    p_map: np.ndarray
    d_map: np.ndarray
    fallback_counts: dict
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
) -> DetectionResult:
    """Detect offsets whose auto-similarity is improbably small.

    ``P_map(t)`` is the background CDF of the statistic at its observed
    value and ``D_map(t) = 1`` iff ``P_map(t) <= nfa_max / |domain|``.
    Masked offsets get ``P_map = 1`` and are never detected.
    """
    if nfa_max < 0:
        raise ValueError("nfa_max must be nonnegative")
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
        fallback_counts=laws.fallback_counts(),
        warnings=warnings,
    )

