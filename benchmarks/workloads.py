"""The three benchmark workloads: seeded inputs written as PGM files, and
the cycle of ``redlab`` commands each workload repeats.

* ``detect-many-offsets``: ``redlab detect`` at 128x128, p=8.  Law tables
  at p=8 are bound by per-offset overhead (8194 cumulant evaluations of a
  64x64 covariance per table), so this workload exposes the Python loop
  in ``offset_laws`` and the per-call cost of ``cumulants`` and ``fit``.
* ``rank-paper``: ``redlab rank`` with the paper's protocol (48x48, p=20,
  K=150).  At n=400 patch pixels each cumulant evaluation is an n^3
  matrix product, so the law table is flop-bound; each table is then
  reused by 150 anchors through ``quantile_map``, ``as_map``,
  ``build_graph`` and ``alternate_minimization``.
* ``denoise-large``: ``redlab denoise`` at 256x256.  It never builds a law
  table and never touches ``lattice``: the control that must not move
  when the law-table code changes.

The four image families are the three of the acceptance tests' ranking
criterion (a checkerboard with a small defect, so it is not exactly
self-periodic; the same board with Gaussian noise; its pixels shuffled)
and a smooth correlated Gaussian field.
"""

from __future__ import annotations

import itertools
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Command:
    """One CLI invocation, its output directory, the outputs whose sha256
    goes into the run report, and the check of those outputs."""

    label: str
    argv: tuple[str, ...]
    outdir: Path
    digested: tuple[str, ...]
    check: Callable[[], tuple[list[str], dict]]


@dataclass(frozen=True)
class Plan:
    cycle: tuple[Command, ...]
    warmup: Command


def checkerboard(n: int, cell: int, defect: bool = True) -> np.ndarray:
    ys, xs = np.mgrid[0:n, 0:n]
    board = np.where(((xs // cell) + (ys // cell)) % 2 == 0, 220.0, 30.0)
    if defect:
        board[4:10, 4:10] = 125.0
    return board


def with_noise(u: np.ndarray, std: float, rng: np.random.Generator) -> np.ndarray:
    return np.clip(u + std * rng.standard_normal(u.shape), 0.0, 255.0)


def shuffled(u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    flat = u.ravel().copy()
    rng.shuffle(flat)
    return flat.reshape(u.shape)


def gaussian_field(n: int, corr: float, rng: np.random.Generator) -> np.ndarray:
    """White noise smoothed on the torus by a Gaussian of ``corr`` pixels,
    scaled to mean 128 and standard deviation 40."""
    f = np.fft.fftfreq(n)
    gain = np.exp(-2.0 * (np.pi * corr) ** 2 * (f[:, None] ** 2 + f[None, :] ** 2))
    g = np.fft.ifft2(np.fft.fft2(rng.standard_normal((n, n))) * gain).real
    return np.clip(128.0 + 40.0 * (g - g.mean()) / g.std(), 0.0, 255.0)


def stripes(n: int) -> np.ndarray:
    """Vertical stripes of period 8 beside a flat region (the scene of
    ``scripts/denoise_demo.py``)."""
    xs = np.arange(n)
    u = np.tile(127.5 + 90.0 * np.sign(np.sin(2 * np.pi * xs / 8.0)), (n, 1))
    u[:, int(0.6 * n) :] = 120.0
    return u


def _write(path: Path, image: np.ndarray) -> np.ndarray:
    """Write an input image and return it as the program will read it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    checks.write_pgm(path, image)
    return checks.read_pgm(path)


def _four_families(n: int, cell: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    board = checkerboard(n, cell)
    return {
        "board": board,
        "noisy": with_noise(board, 15.0, rng),
        "shuffled": shuffled(board, rng),
        "gaussian": gaussian_field(n, 2.0, rng),
    }


def _detect(work: Path, seed: int, tiny: bool) -> Plan:
    n, cell, p = (32, 8, 4) if tiny else (128, 16, 8)
    nfa = 1.0
    rng = np.random.default_rng([seed, 1])
    images = {
        fam: _write(work / "in" / f"{fam}.pgm", img)
        for fam, img in _four_families(n, cell, rng).items()
    }
    anchor = (int(rng.integers(0, n - p + 1)), int(rng.integers(0, n - p + 1)))

    def command(label: str, fam: str, model: str, probe_seed: int) -> Command:
        out = work / "out" / label
        argv = (
            "detect", str(work / "in" / f"{fam}.pgm"),
            "--patch", f"{anchor[0]},{anchor[1]},{p}",
            "--nfa", str(nfa), "--model", model, "--out", str(out),
        )  # fmt: skip

        def check():
            probe_rng = np.random.default_rng([seed, 2, probe_seed])
            return checks.check_detect(images[fam], model, anchor, p, nfa, out, probe_rng)

        return Command(label, argv, out, ("P_map.pfm", "D_map.pgm", "detection.json"), check)

    # alternate the exemplar and white-noise models
    cycle = tuple(
        command(f"{fam}-{model}", fam, model, i)
        for i, (fam, model) in enumerate(itertools.product(images, ("exemplar", "white")))
    )
    return Plan(cycle, command("warmup", "board", "exemplar", 0))


def _rank(work: Path, seed: int, tiny: bool) -> Plan:
    n, cell, p, k = (24, 6, 6, 12) if tiny else (48, 12, 20, 150)
    rng = np.random.default_rng([seed, 3])
    names = {"board": "a_board.pgm", "noisy": "b_noisy.pgm",
             "shuffled": "c_shuffled.pgm", "gaussian": "d_gaussian.pgm"}  # fmt: skip
    for fam, img in _four_families(n, cell, rng).items():
        _write(work / "in" / names[fam], img)
    # the warm-up ranks the board alone: same code path, a quarter the cost
    (work / "warmup_in").mkdir()
    shutil.copyfile(work / "in" / names["board"], work / "warmup_in" / names["board"])

    def command(label: str, indir: Path, labels: list[str]) -> Command:
        out = work / "out" / label
        argv = (
            "rank", str(indir), "--K", str(k), "--p", str(p), "--nfa", "1",
            "--seed", str(seed), "--out", str(out),
        )  # fmt: skip
        return Command(
            label, argv, out, ("ranking.json",), lambda: checks.check_rank(out, labels, k)
        )

    return Plan(
        (command("four-families", work / "in", sorted(names.values())),),
        command("warmup", work / "warmup_in", [names["board"]]),
    )


def _denoise(work: Path, seed: int, tiny: bool) -> Plan:
    n, cell, p, c = (48, 8, 4, 3) if tiny else (256, 16, 8, 10)
    sigma = 20.0
    rng = np.random.default_rng([seed, 4])
    for scene, clean in (("stripes", stripes(n)), ("board", checkerboard(n, cell, defect=False))):
        _write(work / "in" / f"{scene}_clean.pgm", clean)
        _write(work / "in" / f"{scene}_noisy.pgm", with_noise(clean, sigma, rng))

    def command(label: str, scene: str, mode: str) -> Command:
        out = work / "out" / label
        noisy, clean = work / "in" / f"{scene}_noisy.pgm", work / "in" / f"{scene}_clean.pgm"
        argv = (
            "denoise", str(noisy), "--sigma", str(sigma), "--p", str(p), "--c", str(c),
            "--mode", mode, "--clean", str(clean), "--out", str(out),
        )  # fmt: skip
        return Command(
            label, argv, out, ("denoised.pgm",), lambda: checks.check_denoise(noisy, clean, out)
        )

    # alternate the constant-mean and per-offset threshold modes
    cycle = tuple(
        command(f"{scene}-{mode}", scene, mode)
        for scene in ("stripes", "board")
        for mode in ("constant-mean", "per-offset")
    )
    return Plan(cycle, command("warmup", "stripes", "constant-mean"))


_BUILDERS = {"detect-many-offsets": _detect, "rank-paper": _rank, "denoise-large": _denoise}


def prepare(name: str, work: Path, seed: int, tiny: bool = False) -> Plan:
    """Regenerate the workload's inputs under ``work`` (relative to the
    repository root, so manifests and paths repeat) and return its plan."""
    shutil.rmtree(work, ignore_errors=True)
    return _BUILDERS[name](work, seed, tiny)
