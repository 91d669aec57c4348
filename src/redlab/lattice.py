"""Lattice extraction from detection maps and texture periodicity ranking.

Detected offsets are grouped into the 8-connected components of the torus,
each grown by one flood fill over the flat indices of its cells.  A
component contributes one graph vertex at its auto-similarity argmin
(ties broken by the centered offset), and vertices are linked to their
four nearest neighbors.  Edge vectors are then explained as integer
combinations of a two-vector basis plus isotropic Gaussian noise, and the
regularized least-squares energy

    q(B, M | E) = sum_e ||m_e b1 + n_e b2 - e||^2
                  + delta_b ||B||^2 + delta_m ||M||^2

is minimized by alternating an (exact, then rounded) coefficient update
with an exact basis update.  The rounded coefficients are only accepted
when they strictly decrease the energy, which makes the energy
nonincreasing and the iterates stationary after finitely many steps.
The fitted noise level, component count and basis determinant combine
into the periodicity score ``pi * sigma^2 / (N_C |det B|)`` (lower is
more periodic) used by the ranking protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .background import from_exemplar
from .detect import offset_laws
from .grid import PatchDomain, as_map

__all__ = [
    "DetectionGraph",
    "GraphTooSmall",
    "LatticeFit",
    "alternate_minimization",
    "build_graph",
    "c_per",
    "fit_anchor",
    "nearest_neighbor_edges",
    "q_energy",
    "rank_textures",
    "round_half_away",
    "update_basis",
    "update_coeffs",
]


class GraphTooSmall(Exception):
    """Fewer than two vertices: nothing to fit a basis to."""


@dataclass
class DetectionGraph:
    """Vertices (centered offsets), undirected edges and component count."""

    vertices: np.ndarray  # (n, 2) int, centered (tx, ty)
    edges: np.ndarray  # (m, 2) int vertex indices, i < j
    edge_vectors: np.ndarray  # (m, 2) float, canonical orientation
    n_components: int


def build_graph(d_map: np.ndarray, as_values: np.ndarray) -> DetectionGraph:
    """Detection graph: one vertex per component at the statistic's argmin
    (lexicographic tie-break), each linked to its four nearest neighbors.

    The component containing the origin offset, if any, is excluded from
    the vertex set.  Raises :class:`GraphTooSmall` below two vertices.
    """
    d_map = np.asarray(d_map, dtype=bool)
    if d_map.shape != np.asarray(as_values).shape:
        raise ValueError("map shape mismatch")
    h, w = d_map.shape
    iy, ix = np.nonzero(d_map)
    dy, dx = np.mgrid[-1:2, -1:2].reshape(2, 9)  # a cell and its 8 torus neighbours
    cells = (iy * w + ix).tolist()
    ring = ((iy[:, None] + dy) % h) * w + (ix[:, None] + dx) % w
    near = dict(zip(cells, ring.tolist()))
    ctx = (ix + w // 2) % w - w // 2  # oracles.centered_coords
    cty = (iy + h // 2) % h - h // 2
    key = dict(zip(cells, zip(as_values[iy, ix].tolist(), ctx.tolist(), cty.tolist())))
    todo, n_components, verts = set(cells), 0, []
    while todo:  # flood-fill one component
        comp = [todo.pop()]
        for cell in comp:
            grown = todo.intersection(near[cell])
            todo -= grown
            comp.extend(grown)
        n_components += 1
        if 0 not in comp:  # the origin's component carries no repetition offset
            verts.append(min(key[cell] for cell in comp)[1:])
    if len(verts) < 2:
        raise GraphTooSmall(f"{len(verts)} vertex(es); need at least 2")
    verts.sort()
    v = np.asarray(verts, dtype=np.int64)
    edges, vec = nearest_neighbor_edges(v)
    return DetectionGraph(vertices=v, edges=edges, edge_vectors=vec, n_components=n_components)


def nearest_neighbor_edges(vertices) -> tuple[np.ndarray, np.ndarray]:
    """Link every vertex to its (up to) four nearest neighbors.

    Ties break on coordinates, then on the index, for determinism; the
    undirected union is deduplicated.  Each vertex's neighbors are the
    head of one lexsort of its row of squared distances, taken a block of
    rows at a time.  Returns index pairs (i < j) and canonically oriented
    edge vectors.
    """
    v = np.asarray(vertices, dtype=np.float64)
    n = len(v)
    near = np.empty((n, max(0, min(4, n - 1))), dtype=np.int64)
    step = max(1, 2**18 // max(n, 1))  # rows of squared distances at a time
    for lo in range(0, n, step):
        rows = np.arange(lo, min(n, lo + step))
        dx, dy = (v[:, a] - v[rows, a, None] for a in (0, 1))
        d2 = dx * dx + dy * dy
        d2[rows - lo, rows] = np.inf
        x, y = (np.broadcast_to(col, d2.shape) for col in v.T)
        near[rows] = np.lexsort((y, x, d2), axis=-1)[:, : near.shape[1]]
    i, j = np.repeat(np.arange(n), near.shape[1]), near.ravel()
    pairs = np.unique(np.minimum(i, j) * n + np.maximum(i, j))  # sorted by (i, j)
    edges = np.stack(np.divmod(pairs, max(n, 1)), axis=1)
    vec = (v[edges[:, 1]] - v[edges[:, 0]]).astype(np.float64)
    flip = (vec[:, 0] < 0) | ((vec[:, 0] == 0) & (vec[:, 1] < 0))
    vec[flip] *= -1.0
    return edges, vec


def q_energy(basis, coeffs, edge_vectors, delta_b: float, delta_m: float) -> float:
    """Regularized residual energy of a basis/coefficient assignment."""
    basis = np.asarray(basis, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    e = np.asarray(edge_vectors, dtype=np.float64)
    resid = coeffs @ basis - e
    with np.errstate(over="ignore"):  # an infinite energy, reported downstream
        return float(
            np.sum(resid * resid)
            + delta_b * np.sum(basis * basis)
            + delta_m * np.sum(coeffs * coeffs)
        )


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Nearest integer, halves rounded away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def update_coeffs(basis, edge_vectors, delta_m: float) -> np.ndarray:
    """Real minimizer of the energy over the coefficients at fixed basis:
    one shared 2x2 solve applied to every edge."""
    basis = np.asarray(basis, dtype=np.float64)
    e = np.asarray(edge_vectors, dtype=np.float64)
    gram = basis @ basis.T + delta_m * np.eye(2)
    rhs = e @ basis.T
    return np.linalg.solve(gram, rhs.T).T


def update_basis(coeffs, edge_vectors, delta_b: float) -> np.ndarray:
    """Exact minimizer of the energy over the basis at fixed coefficients."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    e = np.asarray(edge_vectors, dtype=np.float64)
    gram = coeffs.T @ coeffs + delta_b * np.eye(2)
    rhs = coeffs.T @ e
    return np.linalg.solve(gram, rhs)


@dataclass
class LatticeFit:
    """Basis, integer coefficients, noise level and optimization trace."""

    basis: np.ndarray  # rows b1, b2
    coeffs: np.ndarray  # (m, 2) ints
    sigma2: float
    # Field order is the key order of fit.json (dataclasses.asdict).
    det: float = field(init=False)
    degenerate: bool = field(init=False)
    q_trajectory: list[float]
    log_posterior_trajectory: list[float]
    converged_at: int | None
    n_edges: int

    def __post_init__(self):
        b = self.basis
        self.det = float(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])
        self.degenerate = abs(self.det) < 1e-9 or self.sigma2 == 0.0


def _median_init(edge_vectors: np.ndarray) -> np.ndarray:
    order = sorted(
        range(len(edge_vectors)),
        key=lambda i: (
            float(edge_vectors[i] @ edge_vectors[i]),
            float(edge_vectors[i, 0]),
            float(edge_vectors[i, 1]),
        ),
    )
    e = edge_vectors[order[(len(order) - 1) // 2]]
    return np.array([[e[0], e[1]], [-e[1], e[0]]])  # direct orthogonal pair


def _log_posterior(q: float, m: int) -> float:
    if q <= 0.0:
        return math.inf
    s2 = q / (4.0 * (m + 1))
    return -2.0 * (m + 1) * math.log(s2) - q / (2.0 * s2)


def alternate_minimization(
    edge_vectors,
    delta_b: float,
    delta_m: float,
    n_iter: int,
    init: str = "median",
    seed: int | None = None,
) -> LatticeFit:
    """Alternating descent on the lattice energy.

    Coefficients start at zero; the basis starts as a direct orthogonal
    pair built from an edge of median norm (``init="median"``) or from a
    seeded uniformly-chosen edge (``init="random"``).  Each iteration
    solves for the real coefficient minimizer, rounds it, keeps the
    rounding only if it strictly decreases the energy, then refits the
    basis exactly.  The returned noise level is the stationary point of
    the log-posterior in the noise variance, ``q / (4 (|E| + 1))``.
    """
    e = np.asarray(edge_vectors, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != 2 or len(e) < 1:
        raise ValueError("edge_vectors must be (m, 2) with m >= 1")
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    m = len(e)
    if init == "median":
        basis = _median_init(e)
    elif init == "random":
        rng = np.random.default_rng(seed)
        pick = e[rng.integers(0, m)]
        basis = np.array([[pick[0], pick[1]], [-pick[1], pick[0]]])
    else:
        raise ValueError(f"unknown init {init!r}")
    coeffs = np.zeros((m, 2))
    q_cur = q_energy(basis, coeffs, e, delta_b, delta_m)
    q_traj = [q_cur]
    lp_traj = [_log_posterior(q_cur, m)]
    converged_at = None
    for it in range(1, n_iter + 1):
        prev_basis, prev_coeffs = basis, coeffs
        cand = round_half_away(update_coeffs(basis, e, delta_m))
        if q_energy(basis, cand, e, delta_b, delta_m) < q_cur:
            coeffs = cand
        basis = update_basis(coeffs, e, delta_b)
        q_cur = q_energy(basis, coeffs, e, delta_b, delta_m)
        q_traj.append(q_cur)
        lp_traj.append(_log_posterior(q_cur, m))
        if np.array_equal(coeffs, prev_coeffs) and np.array_equal(basis, prev_basis):
            converged_at = it
            break
    sigma2 = q_cur / (4.0 * (m + 1))
    return LatticeFit(
        basis=basis,
        coeffs=coeffs.astype(np.int64),
        sigma2=sigma2,
        q_trajectory=q_traj,
        log_posterior_trajectory=lp_traj,
        converged_at=converged_at,
        n_edges=m,
    )


def c_per(fit: LatticeFit, n_components: int) -> float:
    """Periodicity score ``pi sigma^2 / (N_C |det B|)``; lower is more
    periodic.  Collapsed bases give the infinite sentinel."""
    if n_components < 1:
        raise ValueError("need at least one component")
    if abs(fit.det) < 1e-9:
        return math.inf
    return math.pi * fit.sigma2 / (n_components * abs(fit.det))


def fit_anchor(
    a_map, values, delta_b: float, delta_m: float, n_iter: int,
    init: str = "median", seed: int | None = None,
) -> tuple[DetectionGraph, LatticeFit, float]:  # fmt: skip
    """One anchor's lattice: detect the offsets ``values < a_map`` of its
    statistic map, ``a_map`` being a law table's
    :meth:`~redlab.detect.OffsetLawTable.quantile_map`, build their graph,
    fit a basis and score it; returns the graph, the fit and
    :func:`c_per`.  Raises :class:`GraphTooSmall`."""
    graph = build_graph(values < a_map, values)
    fit = alternate_minimization(graph.edge_vectors, delta_b, delta_m, n_iter, init, seed)
    return graph, fit, c_per(fit, graph.n_components)


def rank_textures(
    images,
    n_anchors: int = 150,
    patch_side: int = 20,
    nfa_max: float = 1.0,
    delta_m: float = 10.0,
    delta_b: float = 1e-2,
    n_iter: int = 10,
    seed: int = 0,
    labels=None,
) -> list[dict]:
    """Rank images by periodicity.

    For each image: build its exemplar background model, fit the law table
    and compute its threshold map once (the laws do not depend on the
    patch anchor), then for each of ``n_anchors`` seeded uniform patch
    positions (mapped a few at a time by one stacked ``as_map`` call) run
    :func:`fit_anchor` on that map; the image's score is the median
    periodicity criterion over the anchors whose graph could be built.
    The returned records are sorted by ascending score; images with no
    successful anchor are reported unranked and sort last (ties keep input
    order).
    """
    images = [np.asarray(u, dtype=np.float64) for u in images]
    if n_anchors < 1:
        raise ValueError(f"n_anchors = {n_anchors} must be >= 1")
    # Validate every image before the first law table is built.
    for idx, u in enumerate(images):
        h, w = u.shape
        name = labels[idx] if labels is not None else f"image {idx}"
        if h < patch_side or w < patch_side:
            raise ValueError(f"{name} smaller than the patch")
        if not 0.0 < nfa_max / (h * w) < 1.0:
            raise ValueError(
                f"nfa_max = {nfa_max} must lie in (0, |domain|) = (0, {h * w}) for {name}"
            )
    records = []
    for idx, u in enumerate(images):
        h, w = u.shape
        laws = offset_laws(from_exemplar(u), PatchDomain(anchor=(0, 0), side=patch_side))
        a_map = laws.quantile_map(nfa_max / (h * w))
        # One anchor stream per master seed, shared by all images: scores
        # are compared at common positions, and the ranking cannot depend
        # on the input order.
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA17C)))
        patches = []
        for _ in range(n_anchors):
            ax, ay = (int(rng.integers(0, n - patch_side + 1)) for n in (w, h))
            patches.append(PatchDomain(anchor=(ax, ay), side=patch_side))
        values_list: list[float] = []
        n_failed = 0
        # Stacks of at most 2**14 map values: one image transform per stack.
        chunk = max(1, 2**14 // (h * w))
        for start in range(0, n_anchors, chunk):
            for values in as_map(u, patches[start : start + chunk]):
                try:
                    values_list.append(fit_anchor(a_map, values, delta_b, delta_m, n_iter)[2])
                except GraphTooSmall:
                    n_failed += 1
        score = float(np.median(values_list)) if values_list else None
        records.append(
            {
                "index": idx,
                "label": labels[idx] if labels is not None else str(idx),
                "score": score,
                "n_success": len(values_list),
                "n_failed": n_failed,
                "c_per_values": values_list,
            }
        )
    records.sort(key=lambda r: (r["score"] is None, r["score"] or 0.0, r["index"]))
    for rank, rec in enumerate(records):
        rec["rank"] = rank
    return records
