"""Acceptance gate: one test per release criterion.

Each test pins the tolerances stated in the project contract, prints one
PASS/FAIL line, and checks its runtime budget.  Expected values come from
independent oracles (dense eigendecompositions, chi-square references,
seeded Monte-Carlo, exhaustive search, planted instances), never from the
code paths under test.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from oracles import (
    auto_similarity,
    covariance_matrix,
    inertia,
    law_from_eigenvalues,
    mc_cdf,
    white_noise_covariance,
    white_noise_eigenvalue_blocks,
)

from redlab.background import cumulants, from_exemplar, sample
from redlab.denoise import (
    DenoiseConfig,
    nlmeans_a_priori_threshold,
    nlmeans_classic,
    nlmeans_threshold,
    psnr,
)
from redlab.detect import offset_laws
from redlab.grid import PatchDomain, as_map
from redlab.lattice import (
    alternate_minimization,
    nearest_neighbor_edges,
    q_energy,
    rank_textures,
    round_half_away,
    update_basis,
    update_coeffs,
)
from redlab.quadform import cdf, fit, quantile


class Budget:
    """Context manager asserting a wall-clock budget and reporting."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} [{elapsed:.1f}s / budget {self.seconds:.0f}s]")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: exceeded runtime budget"
        return False


def test_c01_white_noise_eigenvalue_closed_form():
    with Budget("criterion 1: closed-form eigenvalues", 30):
        for p in range(2, 7):
            for tx in range(-(p - 1), p):
                for ty in range(-(p - 1), p):
                    if tx == 0 or ty == 0:
                        continue
                    blocks = white_noise_eigenvalue_blocks(p, (tx, ty))
                    q = math.ceil(p / max(abs(tx), abs(ty)))

                    def edge_rem(tc):
                        c = math.ceil(p / tc)
                        return (c - q) * tc + tc - (tc * c - p)

                    by_m: dict[int, set[int]] = {}
                    for m, k, _, r in blocks:
                        by_m.setdefault(m, set()).add(r)
                    for m, rs in by_m.items():
                        assert len(rs) == 1  # (a) independent of k
                        if 2 <= m < q:
                            assert rs == {2 * abs(tx) * abs(ty)}  # (b)
                        if m == q + 1:
                            assert rs == {edge_rem(abs(tx)) * edge_rem(abs(ty))}  # (c)
                    assert sum(r for _, _, _, r in blocks) == p * p  # (d)

                    # dense-eigendecomposition oracle
                    closed = np.sort(
                        np.concatenate(
                            [[lam] * r for _, _, lam, r in blocks if r > 0]
                        )
                    )
                    dense = np.sort(
                        np.linalg.eigvalsh(white_noise_covariance(p, (tx, ty)))
                    )
                    assert np.max(np.abs(closed - dense)) <= 1e-9


def test_c02_cumulants_match_eigendecomposition():
    with Budget("criterion 2: trace cumulants vs eigendecomposition", 60):
        rng = np.random.default_rng(202)
        for _ in range(200):
            n = int(rng.integers(8, 24))
            model = from_exemplar(rng.standard_normal((n, n)) * rng.uniform(0.5, 3))
            t = (int(rng.integers(0, n)), int(rng.integers(0, n)))
            p = int(rng.integers(1, 9))
            anchor = (int(rng.integers(0, n)), int(rng.integers(0, n)))
            patch = PatchDomain(anchor=anchor, side=p)
            law = cumulants(model, t, patch)
            lam = np.linalg.eigvalsh(covariance_matrix(model, t, patch))
            ref = law_from_eigenvalues([(float(v), 1) for v in lam])
            for got, want in ((law.k1, ref.k1), (law.k2, ref.k2), (law.k3, ref.k3)):
                assert abs(got - want) <= 1e-6 * max(abs(want), 1e-9)


def test_c03_wood_f_cdf_accuracy():
    with Budget("criterion 3: Wood-F CDF vs Monte-Carlo", 300):
        rng = np.random.default_rng(303)
        n_samples = 1_000_000
        laws = []
        for i in range(50):
            size = int(rng.integers(3, 101))
            lam = rng.uniform(0.0, 5.0, size=size)
            lam[lam == 0.0] = 1e-3
            law = law_from_eigenvalues([(float(v), 1) for v in lam])
            params = fit(law)
            probes = np.array(
                [quantile(params, q) for q in (0.05, 0.25, 0.5, 0.75, 0.95)]
            )
            laws.append((i, lam, params, probes))

        def empirical(case):
            i, lam, _, probes = case
            return mc_cdf(lam, probes, n_samples, seed=9000 + i)

        # Each law draws its own seeded sample, so the laws split over two threads.
        with ThreadPoolExecutor(2) as pool:
            emps = list(pool.map(empirical, laws))
        violations = 0
        probes_total = 0
        for (_, _, params, probes), emp in zip(laws, emps):
            ref = np.array([cdf(params, float(x)) for x in probes])
            band = 3.0 * np.sqrt(np.maximum(emp * (1 - emp), 1e-12) / n_samples)
            violations += int(np.sum(np.abs(emp - ref) > 0.01 + band))
            probes_total += len(probes)
        assert violations <= 0.02 * probes_total


def test_c04_nfa_calibration():
    with Budget("criterion 4: NFA calibration", 600):
        rng = np.random.default_rng(404)
        exemplar = rng.standard_normal((32, 32))
        model = from_exemplar(exemplar)
        patch = PatchDomain(side=4)
        laws = offset_laws(model, patch)
        nfa_max = 1.0
        n_offsets = 32 * 32
        q = nfa_max / n_offsets

        # ANFA identity with quantile-inverted thresholds (the origin's
        # degenerate law contributes probability 1)
        a_map = laws.quantile_map(q)
        p_at_a = laws.cdf_map(a_map)
        anfa = float(p_at_a.sum())
        assert abs(anfa - nfa_max) <= 1e-3 * n_offsets

        counts = []
        for s in range(200):
            u = sample(model, 40_000 + s)
            values = as_map(u, patch)
            detected = values < a_map
            counts.append(int(detected.sum()))
        counts = np.array(counts)
        se_mean = counts.std(ddof=1) / np.sqrt(len(counts))
        assert counts.mean() <= nfa_max + 3 * se_mean
        for n in (1, 2, 5):
            frac = float(np.mean(counts >= n))
            se = math.sqrt(max(frac * (1 - frac), 1e-12) / len(counts))
            assert frac <= nfa_max / n + 3 * se


def test_c05_denoise_rejection_calibration():
    with Budget("criterion 5: rejection calibration and threshold spread", 300):
        # threshold spread at nfa_max = 0.5 (patch 8x8, radius 10)
        a_map, _ = nlmeans_a_priori_threshold(8, 10, 0.5)
        nonzero = a_map[a_map > 0]
        spread = float(nonzero.max() / nonzero.min()) - 1.0
        assert 0.08 <= spread <= 0.18

        # rejected fraction per patch on pure unit noise at the 1% budget
        rng = np.random.default_rng(505)
        u = rng.standard_normal((48, 48))
        cfg = DenoiseConfig(
            sigma=1.0,
            patch_side=8,
            search_radius=10,
            nfa_max=4.41,
            threshold_mode="per-offset",
        )
        report = nlmeans_threshold(u, cfg)
        interior = report.selected_counts[10:31, 10:31]
        assert interior.size >= 100
        rejected = (441 - interior) / 441.0
        assert 0.005 <= float(rejected.mean()) <= 0.015


def test_c06_denoise_utility():
    with Budget("criterion 6: denoising utility", 120):
        rng = np.random.default_rng(606)
        xs = np.arange(64)
        stripes = 127.5 + 90.0 * np.sign(np.sin(2 * np.pi * xs / 8.0))
        clean = np.tile(stripes, (64, 1))
        clean[:, 40:] = 120.0  # flat region
        noisy = clean + 20.0 * rng.standard_normal(clean.shape)
        cfg = DenoiseConfig(sigma=20.0, patch_side=8, search_radius=10, nfa_max=4.41)
        denoised = nlmeans_threshold(noisy, cfg).denoised
        base = psnr(clean, noisy)
        ours = psnr(clean, denoised)
        assert ours >= base + 3.0

        best_classic = -np.inf
        for ratio in np.linspace(0.05, 0.5, 10):
            h = ratio * 20.0 * 64
            out = nlmeans_classic(noisy, cfg, h_bandwidth=h).denoised
            best_classic = max(best_classic, psnr(clean, out))
        assert ours >= best_classic - 0.2


def test_c07_inertia_equivalence():
    with Budget("criterion 7: co-occurrence inertia equivalence", 5):
        rng = np.random.default_rng(707)
        for _ in range(20):
            u = rng.integers(0, 8, size=(10, 10)).astype(float)
            for _ in range(20):
                t = (int(rng.integers(-12, 13)), int(rng.integers(-12, 13)))
                patch = PatchDomain(
                    anchor=(int(rng.integers(0, 10)), int(rng.integers(0, 10))),
                    side=int(rng.integers(1, 7)),
                )
                left = inertia(u, t, patch, n_gray=7)
                right = auto_similarity(u, t, patch)
                assert left == right  # exact integer equality


def test_c08_optimizer_contracts():
    with Budget("criterion 8: optimizer contracts", 60):
        rng = np.random.default_rng(808)
        # monotone energy and finite-time stationarity
        for _ in range(50):
            m = int(rng.integers(1, 14))
            e = rng.standard_normal((m, 2)) * rng.uniform(1, 25)
            fit_ = alternate_minimization(e, 1e-2, 10.0, n_iter=200)
            q = fit_.q_trajectory
            assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(q, q[1:]))
            assert fit_.converged_at is not None and fit_.converged_at <= 200

        # rounding is exact on orthogonal bases (delta_m = 0)
        grid = np.arange(-10, 11)
        mm, nn = np.meshgrid(grid, grid, indexing="ij")
        for _ in range(20):
            b1 = rng.standard_normal(2)
            b1 *= rng.uniform(0.8, 2.5) / np.linalg.norm(b1)
            basis = np.vstack([b1, [-b1[1], b1[0]]])
            e = rng.uniform(-8, 8, size=(4, 2))
            rounded = round_half_away(update_coeffs(basis, e, 0.0))
            for k in range(len(e)):
                resid = mm[..., None] * basis[0] + nn[..., None] * basis[1] - e[k]
                cost = np.sum(resid**2, axis=-1)
                best = np.unravel_index(np.argmin(cost), cost.shape)
                assert (rounded[k] == (grid[best[0]], grid[best[1]])).all()

        # exact basis update beats random probes
        for _ in range(10):
            coeffs = rng.integers(-2, 3, size=(8, 2)).astype(float)
            e = rng.standard_normal((8, 2)) * 5
            best_b = update_basis(coeffs, e, 0.3)
            q_best = q_energy(best_b, coeffs, e, 0.3, 0.0)
            for _ in range(100):
                probe = best_b + rng.standard_normal((2, 2)) * rng.uniform(0.01, 4)
                assert q_energy(probe, coeffs, e, 0.3, 0.0) >= q_best - 1e-10


def test_c09_planted_lattice_recovery():
    with Budget("criterion 9: planted lattice recovery", 60):
        basis_true = np.array([[20.0, 0.0], [0.0, 15.0]])
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            ii, jj = np.mgrid[0:5, 0:5]
            points = (
                ii.ravel()[:, None] * basis_true[0]
                + jj.ravel()[:, None] * basis_true[1]
            )
            points = points + 0.5 * rng.standard_normal(points.shape)
            _, edges = nearest_neighbor_edges(points)
            fit_ = alternate_minimization(
                edges, delta_b=1e-2, delta_m=10.0, n_iter=40
            )
            resid = fit_.coeffs @ fit_.basis - edges
            mean_resid = float(np.linalg.norm(resid, axis=1).mean())
            if abs(abs(fit_.det) - 300.0) <= 0.05 * 300.0 and mean_resid <= 1.0:
                hits += 1
        assert hits >= 18


def _ranking_board(n=48, cell=12):
    ys, xs = np.mgrid[0:n, 0:n]
    board = np.where(((xs // cell) + (ys // cell)) % 2 == 0, 220.0, 30.0)
    board[4:10, 4:10] = 125.0  # local defect: breaks exact self-periodicity
    return board


def _ranking_images(seed, noise_std):
    rng = np.random.default_rng(seed)
    clean = _ranking_board()
    noisy = np.clip(clean + noise_std * rng.standard_normal(clean.shape), 0, 255)
    flat = clean.ravel().copy()
    rng.shuffle(flat)
    return [clean, noisy, flat.reshape(clean.shape)]


def test_c10_ranking_sanity():
    with Budget("criterion 10: ranking sanity", 600):
        correct = 0
        for seed in range(20):
            images = _ranking_images(10_000 + seed, noise_std=15.0)
            records = rank_textures(
                images,
                n_anchors=30,
                patch_side=20,
                nfa_max=1.0,
                delta_m=10.0,
                delta_b=1e-2,
                n_iter=10,
                seed=seed,
                labels=["board", "board+noise", "shuffled"],
            )
            order = [r["label"] for r in records]
            scores = {r["label"]: r["score"] for r in records}
            strict = (
                order == ["board", "board+noise", "shuffled"]
                and scores["board"] is not None
                and scores["board+noise"] is not None
                and scores["shuffled"] is None
                and scores["board"] < scores["board+noise"]
            )
            correct += int(strict)
        assert correct >= 19
