"""Periodic image grids, patches and auto-similarity maps.

Conventions used across the package:

* an *image* is a 2-D ``float64`` array ``u`` of shape ``(height, width)``,
  accessed as ``u[y, x]``.  All pixel access is periodic: coordinates are
  taken modulo the image dimensions, so ``u`` represents one period of a
  field on the discrete torus.
* an *offset* is an integer translation ``t = (t_x, t_y)``.
* an *offset map* is a ``(height, width)`` array whose value for offset
  ``t`` lives at ``map[t_y % height, t_x % width]``.
* a patch is a ``p x p`` square at an anchor; it wraps around the torus,
  and a patch wider than a side covers some pixels more than once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchDomain",
    "as_map",
    "autocorrelation",
    "laplacian",
]

# Relative clamp applied to FFT auto-similarity values so exact repeats
# come out as exactly zero (detection compares against tiny quantiles).
AS_CLAMP_REL = 1e-9


@dataclass(frozen=True)
class PatchDomain:
    """The ``p x p`` square ``anchor + [0, side) x [0, side)`` of pixels,
    ``anchor`` being the (x, y) position of its corner."""

    anchor: tuple[int, int] = (0, 0)
    side: int | None = None

    def __post_init__(self):
        if self.side is None or self.side < 1:
            raise ValueError("patch side must be >= 1")

    def size(self) -> int:
        return self.side * self.side


def _as_image(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    if not np.all(np.isfinite(u)):
        raise ValueError("image contains non-finite values")
    return u


def as_map(u, patch: PatchDomain | list[PatchDomain]) -> np.ndarray:
    """Auto-similarity at every offset of the torus, via FFT correlations.

    Expands the squared distance of the mean-centered image (so the FFT
    sums round relative to its variance, not its energy) into a
    patch-masked energy term, a cross term and a constant; both
    offset-dependent sums are periodic cross-correlations.  Values below
    ``1e-9 * ||u||^2`` are clamped to zero so exact repeats beat any
    positive threshold.

    ``patch`` may also be a sequence of ``K`` patches: the image is then
    transformed once, and map ``k`` of the ``(K, h, w)`` result is bit for
    bit that of ``patch[k]`` alone.  Memory grows with ``K``.
    """
    u = _as_image(u)
    single = isinstance(patch, PatchDomain)
    patches = [patch] if single else patch
    h, w = u.shape
    # Patch indicators on the torus: the product of the wrapped row and
    # column counts, which counts each pixel as often as the patch covers it.
    ind = np.zeros((len(patches), h, w))
    for k, pd in enumerate(patches):
        (ax, ay), r = pd.anchor, np.arange(pd.side)
        ind[k] = np.outer(
            np.bincount((ay + r) % h, minlength=h), np.bincount((ax + r) % w, minlength=w)
        )
    # Periodic cross-correlations t -> sum_x a(x) b(x+t).
    v = u - u.mean()  # distances ignore a constant
    term1 = np.fft.irfft2(np.conj(np.fft.rfft2(ind)) * np.fft.rfft2(v * v), s=(h, w))
    term2 = np.fft.irfft2(np.conj(np.fft.rfft2(ind * v)) * np.fft.rfft2(v), s=(h, w))
    out = term1 - 2.0 * term2 + term1[:, :1, :1]
    clamp = AS_CLAMP_REL * float(np.sum(u * u))
    out[out < clamp] = 0.0
    return out[0] if single else out


def autocorrelation(f) -> np.ndarray:
    """Periodic autocorrelation ``z -> sum_y f(y) f(y-z)`` as an offset map."""
    f = _as_image(f)
    spec = np.fft.rfft2(f)
    return np.fft.irfft2(spec * np.conj(spec), s=f.shape)


def laplacian(u) -> np.ndarray:
    """Four-neighbor discrete Laplacian with periodic boundaries.

    ``(u(x+1,y) + u(x-1,y) + u(x,y+1) + u(x,y-1) - 4u(x,y)) / 4``; maps
    constants to zero and commutes with grid translations.
    """
    u = _as_image(u)
    out = (
        np.roll(u, -1, axis=1)
        + np.roll(u, 1, axis=1)
        + np.roll(u, -1, axis=0)
        + np.roll(u, 1, axis=0)
        - 4.0 * u
    ) / 4.0
    return out
