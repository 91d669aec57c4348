"""Output checks for benchmark commands, independent of redlab's own code.

Nothing here imports redlab: images are read and written by the small
PGM/PFM routines below, and the detection oracle builds the increment
covariance of a patch directly from the exemplar's autocovariance and
takes its cumulants from a dense eigendecomposition (redlab uses matrix
traces).  Every check returns ``(problems, stats)``; an empty problem list
means the command's outputs are correct, and ``stats`` carries exact
counts read from the outputs.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
from scipy import stats as sps

_HEADER = re.compile(rb"(P5|Pf)\s+(\d+)\s+(\d+)\s+(\S+)\s")


def write_pgm(path: Path, image: np.ndarray) -> None:
    """8-bit binary PGM, samples rounded and clipped to [0, 255]."""
    h, w = image.shape
    body = np.clip(np.rint(image), 0, 255).astype(np.uint8).tobytes()
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + body)


def _read(path: Path, magic: bytes):
    data = Path(path).read_bytes()
    m = _HEADER.match(data)
    if m is None or m.group(1) != magic:
        raise ValueError(f"{path}: not a {magic.decode()} file")
    w, h = int(m.group(2)), int(m.group(3))
    return data[m.end() :], h, w, m.group(4)


def read_pgm(path: Path) -> np.ndarray:
    body, h, w, maxval = _read(path, b"P5")
    dtype = np.dtype(">u2") if int(maxval) > 255 else np.dtype("u1")
    arr = np.frombuffer(body, dtype=dtype, count=h * w)
    return arr.astype(np.float64).reshape(h, w)


def read_pfm(path: Path) -> np.ndarray:
    body, h, w, scale = _read(path, b"Pf")
    dtype = np.dtype("<f4") if float(scale) < 0 else np.dtype(">f4")
    arr = np.frombuffer(body, dtype=dtype, count=h * w).astype(np.float64)
    return np.flipud(arr.reshape(h, w))  # PFM rows run bottom to top


# ---------------------------------------------------------------- detect


def autocovariance(u: np.ndarray) -> np.ndarray:
    """``G(z) = mean_x c(x) c(x+z)`` of the centred image on the torus,
    made exactly even."""
    c = u - u.mean()
    f = np.fft.fft2(c)
    g = np.fft.ifft2(f * np.conj(f)).real / c.size
    h, w = g.shape
    return 0.5 * (g + g[(-np.arange(h)) % h][:, (-np.arange(w)) % w])


def increment_covariance(g: np.ndarray, coords: np.ndarray, t) -> np.ndarray:
    """Covariance of ``u(x+t) - u(x)`` over the patch pixels:
    ``2 G(z) - G(z+t) - G(z-t)`` at every pixel difference ``z``."""
    h, w = g.shape
    tx, ty = t
    dx = coords[:, 0][None, :] - coords[:, 0][:, None]
    dy = coords[:, 1][None, :] - coords[:, 1][:, None]
    c = 2.0 * g[dy % h, dx % w] - g[(dy + ty) % h, (dx + tx) % w] - g[(dy - ty) % h, (dx - tx) % w]
    return 0.5 * (c + c.T)


def _law_cdfs(lam: np.ndarray, x: float) -> list[float]:
    """CDF values at ``x`` of the three-moment law fitted to ``sum lam_k
    chi2_1``: scaled beta-prime when its moment equations have a solution
    with a finite third moment, else the two-moment scaled chi-square.
    Near a branch boundary both values are returned."""
    k1 = float(lam.sum())
    k2 = 2.0 * float(np.sum(lam**2))
    k3 = 8.0 * float(np.sum(lam**3))
    m1, m2 = k1, k2 + k1 * k1
    m3 = k3 + 3.0 * k1 * k2 + k1**3
    r1, r2 = m2 / (m1 * m1), m3 / (m1 * m2)
    # Beta-prime(a, b) scaled by s: E[X^r] = s^r prod_{i<r} (a+i)/(b-1-i),
    # so r1 = (a+1)(b-1) / (a(b-2)) and r2 = (a+2)(b-1) / (a(b-3)).
    gamma = sps.gamma.cdf(x, a=k1 * k1 / k2, scale=k2 / k1)
    den = 2.0 * r2 - r1 - r1 * r2
    if den == 0.0:
        return [gamma]
    a = 2.0 * (r1 - r2) / den
    bm1_den = a * (r1 - 1.0) - 1.0
    if a <= 0.0 or bm1_den == 0.0:
        return [gamma]
    b = r1 * a / bm1_den + 1.0
    s = m1 * (b - 1.0) / a
    out = []
    feasible = 3.0 < b <= 1e7 and s > 0.0
    near_edge = abs(b - 3.0) < 1e-6 * 3.0 or abs(b - 1e7) < 1e-6 * 1e7
    if (feasible or near_edge) and b > 1.0 and s > 0.0:
        out.append(float(sps.betaprime.cdf(x, a, b, scale=s)))
    if not feasible or near_edge:
        out.append(float(gamma))
    return out


def check_detect(
    u: np.ndarray, model: str, anchor, p: int, nfa: float, outdir: Path, rng
) -> tuple[list[str], dict]:
    """Check ``D_map`` against ``P_map <= nfa / |domain|`` wherever the
    float32 probability is clear of the threshold, and ``P_map`` against
    the dense oracle at probe offsets drawn from ``rng``: the origin, six
    random offsets and up to two detected ones."""
    problems = []
    p_map = read_pfm(outdir / "P_map.pfm")
    d_map = read_pgm(outdir / "D_map.pgm")
    meta = json.loads((outdir / "detection.json").read_text())
    h, w = u.shape
    if p_map.shape != (h, w) or d_map.shape != (h, w):
        return [f"map shapes {p_map.shape}, {d_map.shape} != {(h, w)}"], {}
    if not np.isin(d_map, (0.0, 255.0)).all():
        problems.append("D_map holds values other than 0 and 255")
    detected = d_map == 255.0
    q = nfa / (h * w)
    band = 1e-6
    if np.any(detected & (p_map > q * (1 + band))):
        problems.append("D_map marks offsets with P_map above the threshold")
    if np.any(~detected & (p_map < q * (1 - band))):
        problems.append("D_map misses offsets with P_map below the threshold")
    if meta["n_detected"] != int(detected.sum()):
        problems.append(f"detection.json n_detected {meta['n_detected']} != D_map count")
    if sum(meta["fallback_counts"].values()) != h * w:
        problems.append("law branch counts do not cover every offset")

    if model == "exemplar":
        g = autocovariance(u)
    else:
        g = np.zeros((h, w))
        g[0, 0] = float(u.std()) ** 2
    ii, jj = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    coords = np.stack([anchor[0] + ii.ravel(), anchor[1] + jj.ravel()], axis=1)
    xs, ys = coords[:, 0] % w, coords[:, 1] % h
    slack = 2e-9 * float(np.sum(u * u))  # redlab zeroes statistics below 1e-9 |u|^2
    probes = [(0, 0)] + [(int(rng.integers(0, w)), int(rng.integers(0, h))) for _ in range(6)]
    hits = np.argwhere(detected)
    probes += [(int(ix), int(iy)) for iy, ix in hits[rng.permutation(len(hits))[:2]]]
    for tx, ty in probes:
        got = p_map[ty % h, tx % w]
        d0 = 2.0 * g[0, 0] - g[ty % h, tx % w] - g[(-ty) % h, (-tx) % w]
        if d0 <= 1e-12 * g[0, 0]:  # the law is the point mass at zero
            if got != 1.0:
                problems.append(f"P_map{(tx, ty)} = {got}, expected 1 (point mass)")
            continue
        if d0 < 4e-12 * g[0, 0]:
            continue  # too close to redlab's degeneracy cut to call
        lam = np.clip(np.linalg.eigvalsh(increment_covariance(g, coords, (tx, ty))), 0.0, None)
        diff = u[(ys + ty) % h, (xs + tx) % w] - u[ys, xs]
        a = float(np.sum(diff * diff))
        lo_x, hi_x = max(a - slack, 0.0), a + slack
        bounds = list(zip(_law_cdfs(lam, lo_x), _law_cdfs(lam, hi_x)))
        if not any(lo * (1 - 1e-5) - 1e-40 <= got <= hi * (1 + 1e-5) + 1e-40 for lo, hi in bounds):
            problems.append(f"P_map{(tx, ty)} = {got:.6g}, oracle bounds {bounds}")
    return problems, {"n_detected": int(detected.sum())}


# ------------------------------------------------------------------ rank


def check_rank(outdir: Path, labels: list[str], k: int) -> tuple[list[str], dict]:
    """Every image reported once, ``n_success + n_failed = K``, unranked
    exactly when no anchor succeeded, and records in score order (finite,
    then infinite, then unranked; ties by input index)."""
    problems = []
    # json accepts the bare ``Infinity`` redlab writes for infinite scores
    records = json.loads((outdir / "ranking.json").read_text())
    if sorted(r["label"] for r in records) != sorted(labels):
        problems.append("ranking does not list each image exactly once")
    keys = []
    for pos, r in enumerate(records):
        if r["n_success"] + r["n_failed"] != k:
            problems.append(f"{r['label']}: n_success + n_failed != {k}")
        if (r["score"] is None) != (r["n_success"] == 0):
            problems.append(f"{r['label']}: score {r['score']} with {r['n_success']} successes")
        if r["score"] is not None and not r["score"] >= 0.0:
            problems.append(f"{r['label']}: negative score {r['score']}")
        if r["rank"] != pos:
            problems.append(f"{r['label']}: rank {r['rank']} at position {pos}")
        keys.append((1, 0.0, r["index"]) if r["score"] is None else (0, r["score"], r["index"]))
    if keys != sorted(keys):
        problems.append("records are not in score order")
    stats = {
        "n_success": sum(r["n_success"] for r in records),
        "n_anchors": k * len(records),
        "inf_scores": sum(
            1 for r in records if r["score"] is not None and math.isinf(r["score"])
        ),
    }
    return problems, stats


# --------------------------------------------------------------- denoise


def check_denoise(noisy: Path, clean: Path, outdir: Path) -> tuple[list[str], dict]:
    """The denoised image is closer to the clean one than the noisy input
    is (PSNR rises), in the written file and in ``report.json``."""
    problems = []
    u_noisy, u_clean = read_pgm(noisy), read_pgm(clean)
    den = read_pgm(outdir / "denoised.pgm")
    if den.shape != u_clean.shape:
        return [f"denoised shape {den.shape} != {u_clean.shape}"], {}
    mse_noisy = float(np.mean((u_noisy - u_clean) ** 2))
    mse_den = float(np.mean((den - u_clean) ** 2))
    if not mse_den < mse_noisy:
        problems.append(f"denoised MSE {mse_den:.4g} not below noisy MSE {mse_noisy:.4g}")
    report = json.loads((outdir / "report.json").read_text())
    if not report["psnr_denoised_dB"] > report["psnr_noisy_dB"]:
        problems.append("report.json: PSNR did not rise")
    return problems, {}
