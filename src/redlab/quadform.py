"""Laws of nonnegative quadratic forms in Gaussian variables.

A law ``sum_k lambda_k Z_k`` (``Z_k`` independent chi-square with one
degree of freedom, ``lambda_k >= 0``) is summarized by its first three
cumulants.  CDF and quantile evaluation go through the Wood F method: a
three-moment fit of a scaled beta-prime (Fisher-Snedecor) distribution.
Near-chi-square laws, for which the F fit degenerates, fall back to a
two-moment scaled chi-square fit; the zero law is an explicit point mass.
A seeded Monte-Carlo CDF is provided as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = ["QuadFormLaw", "WoodFParams", "fit", "cdf", "quantile", "mc_cdf"]

# Fits with alpha2 beyond this are numerically indistinguishable from the
# gamma limit while stressing the incomplete beta routine; reroute them.
_ALPHA2_CAP = 1e7
_NEG_CUMULANT_TOL = 1e-10


@dataclass(frozen=True)
class QuadFormLaw:
    """First three cumulants of ``sum lambda_k Z_k``, plus the eigenvalues
    when they are known explicitly (as ``(value, multiplicity)`` pairs).

    The cumulants may also be equal-shape arrays, one law per entry.
    """

    k1: float
    k2: float
    k3: float
    eigenvalues: tuple[tuple[float, int], ...] | None = None

    @classmethod
    def from_eigenvalues(cls, pairs) -> "QuadFormLaw":
        pairs = tuple((float(v), int(m)) for v, m in pairs)
        s1 = sum(v * m for v, m in pairs)
        s2 = sum(v * v * m for v, m in pairs)
        s3 = sum(v * v * v * m for v, m in pairs)
        return cls(k1=s1, k2=2.0 * s2, k3=8.0 * s3, eigenvalues=pairs)

    @property
    def degenerate(self) -> bool:
        return self.k1 == 0.0


# Branch codes of a fitted law.
KIND_WOOD = 0  # beta-prime (Wood F) three-moment fit
KIND_GAMMA = 1  # two-moment scaled chi-square fallback
KIND_POINT = 2  # point mass at zero
_FALLBACK_NAMES = ("none", "gamma-two-moment", "point-mass")


@dataclass(frozen=True)
class WoodFParams:
    """Parameters of the fitted CDF of one law, or of an array of laws.

    ``kind`` codes the branch.  For ``KIND_WOOD`` (the beta-prime fit)
    ``p0``, ``p1`` are the shapes ``alpha1``, ``alpha2`` and ``scale`` is
    ``beta``; for ``KIND_GAMMA`` (the scaled chi-square fallback) ``p0``
    is the degrees of freedom and ``p1`` the multiplier; ``KIND_POINT`` is
    the zero law.  Fields are scalars for one law and equal-shape arrays
    for many; ``fallback`` and the Wood F shapes ``alpha1``, ``alpha2``,
    ``beta`` read a scalar fit.
    """

    kind: int | np.ndarray
    p0: float | np.ndarray = 0.0
    p1: float | np.ndarray = 0.0
    scale: float | np.ndarray = 0.0

    @property
    def fallback(self) -> str:
        """``"none"`` (beta-prime fit), ``"gamma-two-moment"`` or
        ``"point-mass"``."""
        return _FALLBACK_NAMES[int(self.kind)]

    def _branch(self, kind: int, value) -> float:
        return float(value) if int(self.kind) == kind else 0.0

    @property
    def alpha1(self) -> float:
        return self._branch(KIND_WOOD, self.p0)

    @property
    def alpha2(self) -> float:
        return self._branch(KIND_WOOD, self.p1)

    @property
    def beta(self) -> float:
        return self._branch(KIND_WOOD, self.scale)


def fit(law: QuadFormLaw) -> WoodFParams:
    """Fit evaluation parameters to a law given by its cumulants.

    Solves the three raw-moment equations of the scaled beta-prime family
    in closed form.  Falls back to the two-moment scaled chi-square when
    the solution is infeasible (nonpositive shapes, third moment not
    finite, or essentially-gamma laws) and to a point mass when the first
    cumulant vanishes.  Cumulant arrays are fitted elementwise; scalar
    cumulants give scalar parameters.
    """
    k1, k2, k3 = (np.asarray(k, dtype=np.float64) for k in (law.k1, law.k2, law.k3))
    neg = np.minimum(np.minimum(k1, k2), k3) < -_NEG_CUMULANT_TOL
    if np.any(neg):
        i = np.unravel_index(np.argmax(neg), neg.shape)
        first = tuple(float(k[i]) for k in (k1, k2, k3))
        raise ValueError(f"negative cumulants: {first}")
    k1, k2, k3 = np.maximum(k1, 0.0), np.maximum(k2, 0.0), np.maximum(k3, 0.0)
    point = (k1 == 0.0) | (k2 == 0.0)

    # Infeasible branches and point masses produce inf/nan here; the
    # feasibility mask below discards them.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m1 = k1
        m2 = k2 + k1 * k1
        m3 = k3 + 3.0 * k1 * k2 + k1**3
        r1 = m2 / (m1 * m1)
        r2 = m3 / (m1 * m2)
        denom = 2.0 * r2 - r1 - r1 * r2
        a1 = 2.0 * (r1 - r2) / denom
        d = a1 * (r1 - 1.0) - 1.0
        a2 = ((2.0 * r1 - 1.0) * a1 - 1.0) / d
        beta = m1 * (a2 - 1.0) / a1
        wood = (
            ~point
            & (denom != 0.0)
            & (a1 > 0.0)
            & (d != 0.0)
            & (a2 > 3.0)
            & (a2 <= _ALPHA2_CAP)
            & (beta > 0.0)
        )
        # Matches the first two cumulants; exact for equal-eigenvalue laws.
        dof = 2.0 * k1 * k1 / k2
        mult = k2 / (2.0 * k1)

    kind = np.where(point, KIND_POINT, np.where(wood, KIND_WOOD, KIND_GAMMA))
    p0 = np.where(point, 0.0, np.where(wood, a1, dof))
    p1 = np.where(point, 0.0, np.where(wood, a2, mult))
    scale = np.where(wood, beta, 0.0)
    if kind.ndim == 0:
        return WoodFParams(int(kind), float(p0), float(p1), float(scale))
    return WoodFParams(kind.astype(np.uint8), p0, p1, scale)


def cdf(params: WoodFParams, x: float) -> float:
    """CDF of the fitted law at ``x``; monotone, 0 below the support."""
    if params.kind == KIND_POINT:
        return 1.0 if x >= 0.0 else 0.0
    if x <= 0.0:
        return 0.0
    if params.kind == KIND_WOOD:
        y = x / params.scale
        return float(special.betainc(params.p0, params.p1, y / (1.0 + y)))
    return float(special.gammainc(params.p0 / 2.0, x / (2.0 * params.p1)))


def _mean(params: WoodFParams) -> float:
    if params.kind == KIND_WOOD:
        return params.scale * params.p0 / (params.p1 - 1.0)
    if params.kind == KIND_GAMMA:
        return params.p0 * params.p1
    return 0.0


def quantile(params: WoodFParams, q: float) -> float:
    """Generalized inverse CDF: ``inf{x : cdf(x) >= q}`` for ``q in (0,1)``.

    Bracketing bisection to 1e-10 relative width.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {q}")
    if params.kind == KIND_POINT:
        return 0.0
    hi = max(_mean(params), 1.0)
    for _ in range(2048):
        if cdf(params, hi) >= q:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("quantile bracket expansion failed")
    lo = 0.0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if cdf(params, mid) >= q:
            hi = mid
        else:
            lo = mid
    return hi


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
