"""Stationary Gaussian background models for the a-contrario tests.

A microtexture model is the law of ``U = f * W`` with ``*`` the periodic
convolution on the image torus and ``W`` unit white noise.  Under such a
model the auto-similarity statistic at offset ``t`` is a nonnegative
quadratic form in Gaussians whose matrix ``C_t`` is built from the offset
correlation ``delta(t, x) = 2 Gamma(x) - Gamma(x+t) - Gamma(x-t)``, where
``Gamma`` is the autocorrelation of ``f``.  This module constructs models
from an exemplar image or as white noise, evaluates the exact cumulants
of the quadratic form, and samples from a model by spectral convolution.

The cumulants are traces of powers of ``C_t``, with no eigendecomposition.
For square patches ``C_t`` is block-Toeplitz with Toeplitz blocks, and
:func:`cumulants` evaluates the traces from the ``(2p - 1)^2`` values of
``delta`` at the patch differences, for a whole chunk of offsets at once
and without forming ``C_t``.  Explicit coordinate-list patches use the
dense traces of ``C_t``.

Every law goes through :func:`cumulants`, the plane white-noise law of
:func:`white_noise_law` included: it is the torus law on a torus too
large to wrap.  The closed-form white-noise spectrum of square patches
(:func:`white_noise_eigenvalues`) is the engine's independent oracle.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import PatchDomain, autocorrelation, _as_image
from .quadform import QuadFormLaw

__all__ = [
    "MicrotextureModel",
    "cumulants",
    "from_exemplar",
    "sample",
    "white_noise",
    "white_noise_eigenvalue_blocks",
    "white_noise_eigenvalues",
    "white_noise_law",
]

# Side cap (entries per side) for the dense covariance matrices that
# cumulants forms for coordinate-list patches.  The structured traces of
# square patches never form the matrix.
COV_SIDE_CAP = 4096

# Entries per stacked array in the cumulant engine (512 KiB of float64): a
# chunk holds max(1, _CHUNK_ENTRIES // (2p - 1)^2) offsets of a p x p
# patch (291 at p = 8, 43 at p = 20), so memory stays flat however many
# offsets are evaluated.  Chunks are also the unit of parallelism: up to
# two threads take them in turn.  Results do not depend on the chunk size.
_CHUNK_ENTRIES = 2**16

# delta(t,0) below this fraction of Gamma(0) is round-off from an exact
# repeat in the exemplar; the law is then the point mass at zero.
_DEGENERATE_REL = 1e-12


@dataclass(frozen=True)
class MicrotextureModel:
    """Convolution kernel, its cached autocorrelation and a kind tag."""

    kernel: np.ndarray
    gamma: np.ndarray
    kind: str  # "white-noise" | "exemplar"

    @property
    def shape(self) -> tuple[int, int]:
        return self.kernel.shape

    @property
    def degenerate(self) -> bool:
        return self.gamma[0, 0] <= 0.0


def white_noise(shape: tuple[int, int], std: float = 1.0) -> MicrotextureModel:
    """White-noise model of pixel standard deviation ``std``."""
    kernel = np.zeros(shape)
    kernel[0, 0] = std
    gamma = np.zeros(shape)
    gamma[0, 0] = std * std
    return MicrotextureModel(kernel=kernel, gamma=gamma, kind="white-noise")


def _symmetrized(g: np.ndarray) -> np.ndarray:
    """Enforce the exact even symmetry ``g(z) = g(-z)`` (true for any
    autocorrelation; FFT round-off breaks it at the 1e-16 level)."""
    h, w = g.shape
    return 0.5 * (g + g[(-np.arange(h)) % h][:, (-np.arange(w)) % w])


def from_exemplar(u) -> MicrotextureModel:
    """Model whose covariance matches the empirical autocovariance of ``u``.

    The kernel is the centered exemplar scaled by ``|domain|^{-1/2}``, so
    ``Gamma(0)`` equals the empirical pixel variance.  A constant exemplar
    yields the zero model (degenerate; nothing is ever detected under it).
    """
    u = _as_image(u)
    kernel = (u - u.mean()) / math.sqrt(u.size)
    gamma = _symmetrized(autocorrelation(kernel))
    return MicrotextureModel(kernel=kernel, gamma=gamma, kind="exemplar")


def _coordinate_differences(patch: PatchDomain) -> tuple[np.ndarray, np.ndarray]:
    """``x_i - x_j`` and ``y_i - y_j`` over pairs of patch pixels."""
    c = patch.coords()
    return c[:, 0][:, None] - c[:, 0][None, :], c[:, 1][:, None] - c[:, 1][None, :]


def _delta_tables(g, tx, ty, d0, dx, dy) -> np.ndarray:
    """``delta(t, .)`` at the coordinate differences ``(dx, dy)`` (two
    broadcastable integer arrays) for each offset ``(tx[i], ty[i])``.

    Returns an array of shape ``(len(tx),) + broadcast shape``.  Entries
    at differences that vanish on the torus hold the clamped ``d0``.
    """
    h, w = g.shape
    tx = tx.reshape((-1,) + (1,) * dx.ndim)
    ty = ty.reshape((-1,) + (1,) * dy.ndim)
    out = 2.0 * g[dy % h, dx % w] - g[(dy + ty) % h, (dx + tx) % w]
    out -= g[(dy - ty) % h, (dx - tx) % w]
    zero = np.broadcast_to((dx % w == 0) & (dy % h == 0), out.shape[1:])
    out[:, zero] = d0[:, None]
    return out


def _axis_triples(p: int) -> np.ndarray:
    """``m[alpha + p - 1, beta + p - 1] = #{k in [0, p) : k + beta and
    k + alpha + beta in [0, p)}`` for ``alpha, beta`` in ``(-p, p)``."""
    a = np.arange(1 - p, p)[:, None]
    b = np.arange(1 - p, p)[None, :]
    lo = np.maximum(np.maximum(0, -b), -(a + b))
    hi = np.minimum(np.minimum(p, p - b), p - (a + b))
    return np.maximum(hi - lo, 0).astype(np.float64)


def _square_traces(d: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``tr C^2`` and ``tr C^3`` for a ``p x p`` patch, one per offset.

    ``d[i, ax + p - 1, ay + p - 1]`` is ``delta`` of offset ``i`` at the
    patch difference ``a``.  ``C`` is block-Toeplitz with Toeplitz blocks,
    so ``tr C^2`` weighs ``d(a)^2`` by the ``(p - |ax|)(p - |ay|)`` pixel
    pairs at difference ``a``.  ``tr C^3`` sums ``d(a) d(b) d(-a-b)`` over
    the pixel triples at differences ``a, b``, whose count factorizes into
    ``m(ax, bx) m(ay, by)`` (:func:`_axis_triples`).  Grouping by
    ``s = ax + bx`` gives, with ``G_s[ay, by] = m(ay, by) d(-s, -(ay+by))``,
    ``tr C^3 = sum_s sum_ax m(ax, s-ax) d[ax, :] G_s d[s-ax, :]^T``.
    ``Gamma`` is even, hence so is ``d``, and ``m(-a, -b) = m(a, b)``: the
    terms for ``s`` and ``-s`` are equal, which leaves ``p`` batched matrix
    products of side at most ``2p - 1``.
    """
    side = 2 * p - 1
    pairs = p - np.abs(np.arange(1 - p, p))
    tr2 = np.einsum("mij,mij,i,j->m", d, d, pairs, pairs)
    m = _axis_triples(p)
    rev = d[:, ::-1]
    # pad[:, p - 1 + k] holds the reversed row d[-s, side - 1 - k], so the
    # windows of pad form the Hankel matrix d[-s, -(ay + by)]; the zero
    # padding lies where m vanishes.
    pad = np.zeros((len(d), side + 2 * (p - 1)))
    tr3 = np.zeros(len(d))
    for s in range(p):
        pad[:, p - 1 : p - 1 + side] = d[:, p - 1 - s, ::-1]
        g = sliding_window_view(pad, side, axis=1) * m
        x = np.matmul(d[:, s:], g)  # rows ax >= s - p + 1, so |s - ax| < p
        rows = np.arange(s, side)
        pair = np.einsum("mij,mij->mi", x, rev[:, : side - s])
        # einsum, not a BLAS product: BLAS sums in an order that depends on
        # the number of rows, which would tie an offset's bits to its chunk.
        term = np.einsum("mi,i->m", pair, m[rows, side - 1 + s - rows])
        tr3 += term if s == 0 else 2.0 * term
    return tr2, tr3


def _dense_traces(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``tr C^2`` and ``tr C^3`` of a stack of dense covariance matrices."""
    return np.einsum("mij,mij->m", c, c), np.einsum("mij,mij->m", c, c @ c)


def cumulants(model: MicrotextureModel, t, patch: PatchDomain) -> QuadFormLaw:
    """First three cumulants of the auto-similarity law at offset ``t``.

    ``t`` is one offset ``(tx, ty)``, giving float cumulants, or an
    ``(m, 2)`` integer array of offsets, giving arrays of ``m`` cumulants
    evaluated in chunks of bounded memory.

    ``k1 = tr C = n delta(t, 0)``, ``k2 = 2 tr C^2`` and ``k3 = 8 tr C^3``,
    with no eigendecomposition and, for square patches, without forming
    ``C``: the traces come from the ``(2p - 1)^2`` values of ``delta`` at
    the patch differences (see :func:`_square_traces`), in ``O(p^4)``
    operations per offset.  Explicit coordinate-list patches, whose triple
    counts do not factorize, use the dense traces of ``C`` (``O(n^3)``,
    capped at ``COV_SIDE_CAP`` pixels).  Offsets whose increment variance
    is round-off relative to ``Gamma(0)`` give the degenerate law.  With
    several offsets, the error raised is the one the first failing offset
    raises alone.

    Chunks run on ``min(2, os.cpu_count(), chunks)`` threads, with no pool
    for one.  An offset's cumulants are bitwise the same whatever its chunk,
    so they do not depend on the chunk size, the mask or the thread count.
    """
    offsets = np.asarray(t, dtype=np.int64)
    if offsets.ndim not in (1, 2) or offsets.shape[-1] != 2:
        raise ValueError(f"offsets must be (tx, ty) or (m, 2), got shape {offsets.shape}")
    single = offsets.ndim == 1
    offsets = offsets.reshape(-1, 2)
    n = patch.size()
    if patch.is_square:
        p = patch.side
        dx = np.arange(1 - p, p)[:, None]
        dy = np.arange(1 - p, p)[None, :]
        entries = (2 * p - 1) ** 2
        traces = partial(_square_traces, p=p)
    else:
        if n > COV_SIDE_CAP:
            raise ValueError(f"patch size {n} exceeds covariance cap {COV_SIDE_CAP}")
        dx, dy = _coordinate_differences(patch)
        entries = n * n
        traces = _dense_traces
    g = model.gamma
    h, w = g.shape
    tx, ty = offsets[:, 0] % w, offsets[:, 1] % h
    d0 = 2.0 * (g[0, 0] - g[ty, tx])
    bad = d0 < -1e-10 * max(1.0, abs(g[0, 0]))
    # Offsets past the first badly negative delta(t, 0) are left alone,
    # as a loop over the offsets would stop there.
    stop = int(np.argmax(bad)) if bad.any() else len(d0)
    d0_clamped = np.where(d0 < 0.0, 0.0, d0)
    live = np.flatnonzero(d0_clamped[:stop] > 2.0 * _DEGENERATE_REL * g[0, 0])
    k1, k2, k3 = (np.zeros(len(d0)) for _ in range(3))
    k1[live] = n * d0_clamped[live]
    step = max(1, _CHUNK_ENTRIES // entries)
    chunks = [live[start : start + step] for start in range(0, live.size, step)]

    def chunk_traces(sel):
        return traces(_delta_tables(g, tx[sel], ty[sel], d0_clamped[sel], dx, dy))

    workers = min(2, os.cpu_count() or 1, len(chunks))
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(chunk_traces, chunks))
    else:
        results = map(chunk_traces, chunks)
    for sel, (tr2, tr3) in zip(chunks, results):
        k2[sel] = 2.0 * tr2
        k3[sel] = 8.0 * tr3
        neg = k3[sel] < -1e-8 * np.maximum(k2[sel] ** 1.5, 1.0)
        if neg.any():
            raise ArithmeticError(f"tr C^3 = {float(tr3[np.argmax(neg)])} badly negative")
    if stop < len(d0):
        raise ArithmeticError(f"delta(t,0) = {float(d0[stop])} badly negative")
    k3 = np.maximum(k3, 0.0)
    if single:
        return QuadFormLaw(k1=float(k1[0]), k2=float(k2[0]), k3=float(k3[0]))
    return QuadFormLaw(k1=k1, k2=k2, k3=k3)


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


def white_noise_law(p: int, t) -> QuadFormLaw:
    """Auto-similarity law under unit white noise on the plane, for a
    square ``p x p`` patch.

    ``t`` is one offset or an ``(m, 2)`` array of offsets, as in
    :func:`cumulants`.  The law depends on ``|tx|`` and ``|ty|`` only, and
    not at all once the offset clears the patch, so each is clipped at
    ``p``.  On the white-noise torus of side ``p + max|t|``, every
    component of ``x``, ``x + t`` and ``x - t`` is smaller than the side in
    absolute value for each patch difference ``x``, so nothing wraps: the
    torus law that the engine evaluates is the plane law.
    """
    offsets = np.minimum(np.abs(np.asarray(t, dtype=np.int64)), p)
    side = p + int(offsets.max(initial=0))
    return cumulants(white_noise((side, side)), offsets, PatchDomain(side=p))


def sample(model: MicrotextureModel, seed_or_rng) -> np.ndarray:
    """One draw of ``f * W`` via the spectral product; seeded and exact up
    to FFT round-off."""
    rng = np.random.default_rng(seed_or_rng) if not isinstance(
        seed_or_rng, np.random.Generator
    ) else seed_or_rng
    w = rng.standard_normal(model.shape)
    spec = np.fft.rfft2(model.kernel) * np.fft.rfft2(w)
    return np.fft.irfft2(spec, s=model.shape)
