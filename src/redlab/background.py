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
For a ``p x p`` patch ``C_t`` is block-Toeplitz with Toeplitz blocks, and
:func:`cumulants` evaluates the traces from the ``(2p - 1)^2`` values of
``delta`` at the patch differences, for a whole chunk of offsets at once
and without forming ``C_t``.  ``tr C^3`` sums ``delta`` over triples of
differences that add up to zero, weighted by a pixel-triple count that
factorizes over the axes; along one axis it is ``max(0, p - max(|a|,
|b|, |a + b|))``.  That count, and the even ``delta``, make a term
invariant under the 12 permutations and sign changes of its x-triple,
so the sum visits one x-triple per orbit, weighted by the orbit size
(1, 6 or 12).  Each orbit class contracts as ``sum(K_s * m * H_s)``:
``K_s`` a weighted sum of outer products of ``delta`` rows (one batched
matrix product), ``m`` the y-triple count and ``H_s`` a Hankel view of
one row.  The tests check the engine against the dense traces of ``C_t``
and the closed-form white-noise spectrum.
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
]

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
    """Convolution kernel, its cached autocorrelation and a kind tag.

    ``gamma`` must be exactly even, ``gamma(z) = gamma(-z)`` bit for bit,
    as :func:`white_noise` and :func:`from_exemplar` build it: the
    cumulant engine reads ``Gamma(a - t)`` as ``Gamma(t - a)``.
    """

    kernel: np.ndarray
    gamma: np.ndarray
    kind: str  # "white-noise" | "exemplar"

    def __post_init__(self):
        if not np.array_equal(self.gamma, _mirrored(self.gamma), equal_nan=True):
            raise ValueError("gamma must be even: gamma(z) == gamma(-z) bit for bit")

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


def _mirrored(g: np.ndarray) -> np.ndarray:
    """``g(-z)`` on the torus."""
    h, w = g.shape
    return g[(-np.arange(h)) % h][:, (-np.arange(w)) % w]


def _symmetrized(g: np.ndarray) -> np.ndarray:
    """Enforce the exact even symmetry ``g(z) = g(-z)`` (true for any
    autocorrelation; FFT round-off breaks it at the 1e-16 level)."""
    return 0.5 * (g + _mirrored(g))


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


def _delta_tables(windows, tx, ty, d0) -> np.ndarray:
    """``delta(t, .)`` at the patch differences for each offset ``(tx[i],
    ty[i])``, indexed ``[i, ax + p - 1, ay + p - 1]``.

    ``windows[tx, ty]`` is the ``(2p - 1)^2`` window of the periodic
    ``Gamma`` holding ``Gamma(a + t)`` at ``[ax + p - 1, ay + p - 1]``;
    ``Gamma`` is even, so the same window reversed holds ``Gamma(a - t)``.
    Entries at differences that vanish on the torus hold the clamped ``d0``.
    """
    w, h, side = windows.shape[:3]
    shifted = windows[tx, ty]
    out = 2.0 * windows[0, 0] - shifted
    out -= shifted[:, ::-1, ::-1]
    a = np.arange(side) - side // 2
    out[:, (a % w == 0)[:, None] & (a % h == 0)] = d0[:, None]
    return out


def _axis_triples(p: int) -> np.ndarray:
    """``m[alpha + p - 1, beta + p - 1] = #{k in [0, p) : k + beta and
    k + alpha + beta in [0, p)}`` for ``alpha, beta`` in ``(-p, p)``.

    The points ``k``, ``k + beta`` and ``k + alpha + beta`` span
    ``max(|alpha|, |beta|, |alpha + beta|)``, so the count is ``p`` minus
    that span, or zero: symmetric under every permutation of
    ``(alpha, beta, -alpha - beta)`` and under a change of sign.
    """
    a = np.arange(1 - p, p)
    span = np.maximum(np.maximum.outer(np.abs(a), np.abs(a)), np.abs(np.add.outer(a, a)))
    return np.maximum(p - span, 0).astype(np.float64)


def _orbits(p: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The ``tr C^3`` schedule of a ``p x p`` patch: for each ``s`` in
    ``[0, p)``, the rows of ``d`` at ``alpha`` in ``[0, s // 2]`` and at
    ``beta = s - alpha``, and the weights ``(p - s) * |orbit|``.

    ``(alpha, beta, -s)`` represents the x-triples obtained from it by
    permutations and a change of sign: 1 at ``s = 0``, 6 when ``alpha = 0``
    or ``alpha = beta``, and 12 otherwise.  ``p - s`` is their common
    x-count :func:`_axis_triples`.
    """
    schedule = []
    for s in range(p):
        alpha = np.arange(s // 2 + 1)
        size = np.where((alpha == 0) | (2 * alpha == s), 6.0, 12.0) if s else np.ones(1)
        schedule.append((p - 1 + alpha, p - 1 + s - alpha, (p - s) * size))
    return schedule


def _square_traces(d: np.ndarray, p: int, m: np.ndarray, orbits) -> tuple[np.ndarray, np.ndarray]:
    """``tr C^2`` and ``tr C^3`` for a ``p x p`` patch, one per offset.

    ``d[i, ax + p - 1, ay + p - 1]`` is ``delta`` of offset ``i`` at the
    patch difference ``a``; ``m`` is :func:`_axis_triples` and ``orbits``
    :func:`_orbits` of ``p``.  ``C`` is block-Toeplitz with Toeplitz
    blocks, so ``tr C^2`` weighs ``d(a)^2`` by the ``(p - |ax|)(p - |ay|)``
    pixel pairs at difference ``a``.  ``tr C^3`` sums ``d(a) d(b) d(c)``
    over the pixel triples at differences ``a + b + c = 0``, whose count
    factorizes into ``m(ax, bx) m(ay, by)``.  Summed over the y-components
    first, a term depends on the x-triple ``(ax, bx, cx)`` only up to
    permutations and a change of sign: ``m`` is symmetric under both, and
    ``Gamma``, hence ``d``, is even.  So each orbit of x-triples is
    visited once, at ``(alpha, s - alpha, -s)`` with the weight of
    :func:`_orbits`, where its term is ``d[alpha, :] G_s d[s-alpha, :]^T``
    with ``G_s[ay, by] = m(ay, by) d(-s, -(ay + by))``.  Summing the
    outer products first gives ``K_s = sum_alpha w d[alpha, :]^T
    d[s-alpha, :]``, one batched matrix product, and ``tr C^3 = sum_s
    sum(K_s * m * H_s)`` with ``H_s`` the Hankel matrix of row ``-s``, a
    strided view that is never multiplied out.
    """
    side = 2 * p - 1
    pairs = p - np.abs(np.arange(1 - p, p))
    tr2 = np.einsum("mij,mij,i,j->m", d, d, pairs, pairs)
    # pad[:, s, p - 1 + k] holds the reversed row d[-s, side - 1 - k], so
    # the windows of pad[:, s] form H_s[ay, by] = d[-s, -(ay + by)]; the
    # zero padding lies where m vanishes.
    pad = np.zeros((len(d), p, side + 2 * (p - 1)))
    pad[:, :, p - 1 : p - 1 + side] = d[:, p - 1 :: -1, ::-1]
    hankel = sliding_window_view(pad, side, axis=2)
    tr3 = np.zeros(len(d))
    for s, (alpha, beta, weight) in enumerate(orbits):
        k = np.matmul((d[:, alpha] * weight[:, None]).transpose(0, 2, 1), d[:, beta])
        # einsum, not a BLAS product over the offsets: BLAS sums in an order
        # that depends on the number of rows, which would tie an offset's
        # bits to its chunk.
        tr3 += np.einsum("mij,ij,mij->m", k, m, hankel[:, s])
    return tr2, tr3


def cumulants(model: MicrotextureModel, t, patch: PatchDomain) -> QuadFormLaw:
    """First three cumulants of the auto-similarity law at offset ``t``.

    ``t`` is one offset ``(tx, ty)``, giving float cumulants, or an
    ``(m, 2)`` integer array of offsets, giving arrays of ``m`` cumulants
    evaluated in chunks of bounded memory.

    ``k1 = tr C = n delta(t, 0)``, ``k2 = 2 tr C^2`` and ``k3 = 8 tr C^3``,
    with no eigendecomposition and without forming ``C``: the traces come
    from the ``(2p - 1)^2`` values of ``delta`` at the patch differences
    (see :func:`_square_traces`), in ``O(p^4)`` operations per offset.
    Offsets whose increment variance is round-off relative to ``Gamma(0)``
    give the degenerate law.  With several offsets, the error raised is
    the one the first failing offset raises alone.

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
    p = patch.side
    traces = partial(_square_traces, p=p, m=_axis_triples(p), orbits=_orbits(p))
    g = model.gamma
    h, w = g.shape
    # C order, as the traces' sums run in an order that follows the strides.
    padded = np.pad(np.ascontiguousarray(g.T), p - 1, mode="wrap")
    windows = sliding_window_view(padded, (2 * p - 1, 2 * p - 1))
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
    step = max(1, _CHUNK_ENTRIES // (2 * p - 1) ** 2)
    chunks = [live[start : start + step] for start in range(0, live.size, step)]

    def chunk_traces(sel):
        return traces(_delta_tables(windows, tx[sel], ty[sel], d0_clamped[sel]))

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


def sample(model: MicrotextureModel, seed_or_rng) -> np.ndarray:
    """One draw of ``f * W`` via the spectral product; seeded and exact up
    to FFT round-off."""
    rng = np.random.default_rng(seed_or_rng) if not isinstance(
        seed_or_rng, np.random.Generator
    ) else seed_or_rng
    w = rng.standard_normal(model.shape)
    spec = np.fft.rfft2(model.kernel) * np.fft.rfft2(w)
    return np.fft.irfft2(spec, s=model.shape)
