"""Laws of nonnegative quadratic forms in Gaussian variables.

A law ``sum_k lambda_k Z_k`` (``Z_k`` independent chi-square with one
degree of freedom, ``lambda_k >= 0``) is summarized by its first three
cumulants.  CDF and quantile evaluation go through the Wood F method: a
three-moment fit of a scaled beta-prime (Fisher-Snedecor) distribution.
Near-chi-square laws, for which the F fit degenerates, fall back to a
two-moment scaled chi-square fit; the zero law is an explicit point mass.

:func:`fit`, :func:`cdf` and :func:`quantile` work elementwise on arrays
of laws, and a scalar law is their 0-d case, so one code path serves a
single offset and a whole offset map.  :func:`quantile` bisects each law
to adjacent floats, and a verified bracket around the closed-form inverse
CDF spares it the CDF calls far from the quantile, without changing a bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = ["QuadFormLaw", "WoodFParams", "fit", "cdf", "quantile"]

# Fits with alpha2 beyond this are numerically indistinguishable from the
# gamma limit while stressing the incomplete beta routine; reroute them.
_ALPHA2_CAP = 1e7
_NEG_CUMULANT_TOL = 1e-10
# Quantile bracket doublings from max(mean, 1); 2**1000 is still finite.
_MAX_DOUBLINGS = 1000
# Relative half-width of the verified quantile bracket; at 2**-47 float
# noise in the inverse fails the check on up to 20 entries of a 48x48 table.
_BRACKET_REL = 2.0**-40


@dataclass(frozen=True)
class QuadFormLaw:
    """First three cumulants of ``sum lambda_k Z_k``.

    The cumulants may also be equal-shape arrays, one law per entry.
    """

    k1: float
    k2: float
    k3: float


# Branch codes of a fitted law.
KIND_WOOD = 0  # beta-prime (Wood F) three-moment fit
KIND_GAMMA = 1  # two-moment scaled chi-square fallback
KIND_POINT = 2  # point mass at zero


@dataclass(frozen=True)
class WoodFParams:
    """Parameters of the fitted CDF of one law, or of an array of laws.

    ``kind`` codes the branch.  For ``KIND_WOOD`` (the beta-prime fit)
    ``p0``, ``p1`` are the two shape parameters and ``scale`` is the
    scale; for ``KIND_GAMMA`` (the scaled chi-square fallback) ``p0``
    is the degrees of freedom and ``p1`` the multiplier; ``KIND_POINT`` is
    the zero law.  Fields are scalars for one law and equal-shape arrays
    for many.
    """

    kind: int | np.ndarray
    p0: float | np.ndarray = 0.0
    p1: float | np.ndarray = 0.0
    scale: float | np.ndarray = 0.0


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


def cdf(params: WoodFParams, x):
    """CDF of the fitted law at ``x``; monotone, 0 below the support.

    ``params`` and ``x`` broadcast against each other (one law at many
    points, or one point per law of an array fit); a 0-d result is a
    Python float.
    """
    kind, p0, p1, scale, x = np.broadcast_arrays(
        params.kind, params.p0, params.p1, params.scale, np.asarray(x, dtype=np.float64)
    )
    out = np.where((kind == KIND_POINT) & (x >= 0.0), 1.0, 0.0)
    wood = (kind == KIND_WOOD) & (x > 0.0)
    gam = (kind == KIND_GAMMA) & (x > 0.0)
    y = x[wood] / scale[wood]
    out[wood] = special.betainc(p0[wood], p1[wood], y / (1.0 + y))
    out[gam] = special.gammainc(p0[gam] / 2.0, x[gam] / (2.0 * p1[gam]))
    return float(out) if out.ndim == 0 else out


def _take(params: WoodFParams, index) -> WoodFParams:
    return WoodFParams(*(a[index] for a in (params.kind, params.p0, params.p1, params.scale)))


def _bracket(law: WoodFParams, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``L < U`` with ``cdf(L) < q <= cdf(U)`` around each law's
    closed-form inverse; ``(-inf, inf)`` where that seed or check fails."""
    wood = law.kind == KIND_WOOD
    x0 = np.empty(law.kind.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = special.betaincinv(law.p0[wood], law.p1[wood], q)
        x0[wood] = law.scale[wood] * b / (1.0 - b)
        x0[~wood] = 2.0 * law.p1[~wood] * special.gammaincinv(law.p0[~wood] / 2.0, q)
        lo, hi = x0 * (1.0 - _BRACKET_REL), x0 * (1.0 + _BRACKET_REL)
    ok = np.isfinite(x0) & (x0 > 0.0)
    # NaN CDFs fail both comparisons.
    ok[ok] = (cdf(_take(law, ok), lo[ok]) < q) & (cdf(_take(law, ok), hi[ok]) >= q)
    lo[~ok], hi[~ok] = -np.inf, np.inf
    return lo, hi


def quantile(params: WoodFParams, q: float):
    """Generalized inverse CDF of each law at ``q in (0,1)``.

    Elementwise over an array fit; a 0-d result is a Python float.  The
    point mass gives 0.  Other laws are bracketed by doubling from
    ``max(mean, 1)``, then bisected from 0 to adjacent floats: the result
    ``x`` has ``cdf(x) >= q > cdf(prev(x))``, ``prev(x)`` the float below.

    Each step asks whether ``cdf(x) >= q``.  The closed-form inverse seeds
    a bracket ``[L, U]`` of relative width ``2**-39``, verified by two CDF
    sweeps; steps below ``L`` are "below" and steps above ``U`` "above"
    without a CDF call.  So the search takes the path, and gives the bits,
    of evaluating every step, but only about 14 of its 60-odd steps per
    law cost a call.  A law whose seed fails the check evaluates them all.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {q}")
    kind, p0, p1, scale = np.broadcast_arrays(params.kind, params.p0, params.p1, params.scale)
    live = kind != KIND_POINT
    # Equal laws, such as a law table's laws at t and -t, share one search.
    rows = np.stack([a[live] for a in (kind, p0, p1, scale)], axis=1, dtype=np.float64)
    _, first, inverse = np.unique(rows.view("V32").ravel(), return_index=True, return_inverse=True)
    law = _take(WoodFParams(kind[live], p0[live], p1[live], scale[live]), first)
    low, high = _bracket(law, q)

    def reaches(todo: np.ndarray, x: np.ndarray) -> np.ndarray:
        # NaN (an overflowed Wood F ratio) counts as below q.
        out = x > high[todo]
        inside = np.flatnonzero(~out & (x >= low[todo]))
        if inside.size:
            out[inside] = cdf(_take(law, todo[inside]), x[inside]) >= q
        return out

    # A fitted alpha2 exceeds 3; the floor keeps the unused Wood F means
    # of gamma laws finite.
    wood_mean = law.scale * law.p0 / np.maximum(law.p1 - 1.0, 1e-12)
    hi = np.maximum(np.where(law.kind == KIND_WOOD, wood_mean, law.p0 * law.p1), 1.0)
    todo = np.arange(hi.size)
    for _ in range(_MAX_DOUBLINGS):
        todo = todo[~reaches(todo, hi[todo])]
        if todo.size == 0:
            break
        hi[todo] *= 2.0
    else:
        raise ArithmeticError("quantile bracket expansion failed")
    lo = np.zeros_like(hi)
    todo = np.arange(hi.size)
    while todo.size:
        mid = 0.5 * (lo[todo] + hi[todo])
        gap = (mid != lo[todo]) & (mid != hi[todo])
        todo, mid = todo[gap], mid[gap]
        above = reaches(todo, mid)
        hi[todo[above]] = mid[above]
        lo[todo[~above]] = mid[~above]
    out = np.zeros(kind.shape)
    out[live] = hi[inverse]
    return float(out) if out.ndim == 0 else out
