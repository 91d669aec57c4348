"""Periodic image grids, patches and auto-similarity maps.

Conventions used across the package:

* an *image* is a 2-D ``float64`` array ``u`` of shape ``(height, width)``,
  accessed as ``u[y, x]``.  All pixel access is periodic: coordinates are
  taken modulo the image dimensions, so ``u`` represents one period of a
  field on the discrete torus.
* an *offset* is an integer translation ``t = (t_x, t_y)``.
* an *offset map* is a ``(height, width)`` array whose value for offset
  ``t`` lives at ``map[t_y % height, t_x % width]``.  :func:`centered_coords`
  converts raw offsets to representatives in
  ``[-M/2, M/2) x [-M/2, M/2)``.
* patches are vectorized in a fixed canonical order (column-major over the
  patch coordinates: x varies slowest, then y), and every covariance
  matrix built elsewhere uses the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchDomain",
    "as_map",
    "auto_similarity",
    "autocorrelation",
    "centered_coords",
    "centered_offset",
    "extract_patch",
    "inertia",
    "laplacian",
]

# Relative clamp applied to FFT auto-similarity values so exact repeats
# come out as exactly zero (detection compares against tiny quantiles).
AS_CLAMP_REL = 1e-9


@dataclass(frozen=True)
class PatchDomain:
    """A finite set of pixel coordinates, canonically a ``p x p`` square.

    ``anchor`` is the (x, y) position of the patch corner.  For the square
    form the domain is ``anchor + [0, side) x [0, side)``.  An explicit
    coordinate list (shape ``(n, 2)``, columns x, y) may be given instead;
    it is kept in canonical order (sorted by x then y) and must not contain
    duplicates.
    """

    anchor: tuple[int, int] = (0, 0)
    side: int | None = None
    coords_list: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if (self.side is None) == (self.coords_list is None):
            raise ValueError("give exactly one of side= or coords_list=")
        if self.side is not None and self.side < 1:
            raise ValueError("patch side must be >= 1")
        if self.coords_list is not None:
            if len(self.coords_list) == 0:
                raise ValueError("empty patch domain")
            ordered = tuple(sorted((int(x), int(y)) for x, y in self.coords_list))
            if len(set(ordered)) != len(ordered):
                raise ValueError("duplicate coordinates in patch domain")
            object.__setattr__(self, "coords_list", ordered)

    @property
    def is_square(self) -> bool:
        return self.side is not None

    def size(self) -> int:
        if self.side is not None:
            return self.side * self.side
        return len(self.coords_list)

    def coords(self) -> np.ndarray:
        """Coordinates as an ``(n, 2)`` int array in canonical order."""
        if self.side is not None:
            ax, ay = self.anchor
            p = self.side
            xs = np.repeat(np.arange(p), p) + ax
            ys = np.tile(np.arange(p), p) + ay
            return np.stack([xs, ys], axis=1)
        return np.asarray(self.coords_list, dtype=np.int64)

    def descriptor(self) -> dict:
        if self.side is not None:
            return {"anchor": list(self.anchor), "side": self.side}
        return {"coords": [list(c) for c in self.coords_list]}


def _as_image(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    if not np.all(np.isfinite(u)):
        raise ValueError("image contains non-finite values")
    return u


def centered_offset(t: tuple[int, int], shape: tuple[int, int]) -> tuple[int, int]:
    """Remap a raw offset to its centered representative."""
    h, w = shape
    cx = (t[0] + w // 2) % w - w // 2
    cy = (t[1] + h // 2) % h - h // 2
    return (cx, cy)


def centered_coords(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Centered (t_x, t_y) grids for an offset map of the given shape.

    Returns two ``(h, w)`` integer arrays; entry ``[ty, tx]`` holds the
    centered representative of the raw offset ``(tx, ty)``.
    """
    h, w = shape
    tx = (np.arange(w) + w // 2) % w - w // 2
    ty = (np.arange(h) + h // 2) % h - h // 2
    return np.broadcast_to(tx, (h, w)).copy(), np.broadcast_to(ty[:, None], (h, w)).copy()


def extract_patch(u, patch: PatchDomain) -> np.ndarray:
    """Patch values in canonical order, wrapping coordinates periodically."""
    u = _as_image(u)
    h, w = u.shape
    c = patch.coords()
    return u[c[:, 1] % h, c[:, 0] % w]


def auto_similarity(u, t: tuple[int, int], patch: PatchDomain) -> float:
    """Squared distance between the patch and its copy shifted by ``t``.

    Direct evaluation; :func:`as_map` computes all offsets at once.
    """
    u = _as_image(u)
    h, w = u.shape
    c = patch.coords()
    base = u[c[:, 1] % h, c[:, 0] % w]
    shifted = u[(c[:, 1] + t[1]) % h, (c[:, 0] + t[0]) % w]
    return float(np.sum((shifted - base) ** 2))


def _indicator(shape: tuple[int, int], patch: PatchDomain) -> np.ndarray:
    """Patch indicator on the torus (with multiplicities if coords collide)."""
    h, w = shape
    ind = np.zeros((h, w))
    c = patch.coords()
    np.add.at(ind, (c[:, 1] % h, c[:, 0] % w), 1.0)
    return ind


def _cross_corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Periodic cross-correlation ``t -> sum_x a(x) b(x+t)``."""
    fa = np.fft.rfft2(a)
    fb = np.fft.rfft2(b)
    return np.fft.irfft2(np.conj(fa) * fb, s=a.shape)


def as_map(u, patch: PatchDomain) -> np.ndarray:
    """Auto-similarity at every offset of the torus, via FFT correlations.

    Uses the expansion of the squared distance into a patch-masked energy
    term, a cross term and a constant; both offset-dependent sums are
    periodic cross-correlations.  Values below ``1e-9 * ||u||^2`` are
    clamped to zero so exact repeats beat any positive threshold.
    """
    u = _as_image(u)
    ind = _indicator(u.shape, patch)
    term1 = _cross_corr(ind, u * u)
    term2 = _cross_corr(ind * u, u)
    out = term1 - 2.0 * term2 + term1[0, 0]
    clamp = AS_CLAMP_REL * float(np.sum(u * u))
    out[out < clamp] = 0.0
    return out


def autocorrelation(f) -> np.ndarray:
    """Periodic autocorrelation ``z -> sum_y f(y) f(y-z)`` as an offset map."""
    f = _as_image(f)
    spec = np.fft.rfft2(f)
    return np.fft.irfft2(spec * np.conj(spec), s=f.shape)


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
