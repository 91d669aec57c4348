"""Work ledger: exact counts of the work each subcommand does.

Each subcommand runs once through ``cli.main`` on the benchmark's tiny
sizes (detect 32², p = 4; rank 24², p = 6, K = 12; denoise 48², p = 4,
c = 3), and the test counts calls of one layer.  Counts carry no timing
noise, so a change that does more work fails here, not only in a bench.

Threshold maps: ``detect`` decides by probabilities and inverts no law;
``lattice`` and ``denoise`` invert one table once; ``rank`` inverts one
table per image, once for all its anchors.  Inside ``quantile`` the CDF
points split into the two check sweeps of each distinct law's bracket and
the bisection steps that fall inside it.
"""

import numpy as np
import pytest
from test_cli import board_image

import redlab.detect as detect
import redlab.quadform as quadform
from redlab.cli import main
from redlab.imgio import write_pgm


def noisy(board: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(11)
    return np.clip(board + 15.0 * rng.standard_normal(board.shape), 0, 255)


def argv_of(command: str, tmp_path) -> list[str]:
    path, out = tmp_path / "board.pgm", ["--out", str(tmp_path / "out")]
    if command == "rank":  # the bench's families: board, noisy, shuffled, a noise field
        board = board_image(path, cell=6, n=24)
        rng = np.random.default_rng(12)
        (tmp_path / "in").mkdir()
        for name, image in {
            "board": board,
            "noisy": noisy(board),
            "shuffled": rng.permutation(board.ravel()).reshape(board.shape),
            "field": np.clip(128.0 + 40.0 * rng.standard_normal(board.shape), 0, 255),
        }.items():
            write_pgm(tmp_path / "in" / f"{name}.pgm", image)
        return ["rank", str(tmp_path / "in"), "--K", "12", "--p", "6", "--nfa", "1", *out]
    if command == "detect":
        write_pgm(path, noisy(board_image(path, cell=8, n=32)))
        return ["detect", str(path), "--patch", "5,9,4", "--nfa", "1", *out]
    if command == "denoise":
        write_pgm(path, noisy(board_image(path, cell=8, n=48)))
        return ["denoise", str(path), "--sigma", "20", "--p", "4", "--c", "3", *out]
    board_image(path, cell=8, n=32)
    if command == "lattice":
        return ["lattice", str(path), "--patch", "5,9,4", "--nfa", "1", *out]
    return ["sample", "--model-from", str(path), "--seed", "3", *out]


@pytest.mark.parametrize(
    "command, calls",
    [("detect", 0), ("lattice", 1), ("rank", 4), ("denoise", 1), ("sample", 0)],
)
def test_threshold_maps_per_subcommand(tmp_path, monkeypatch, command, calls):
    levels, quantile = [], detect.quantile

    def counted(params, q):
        levels.append(q)
        return quantile(params, q)

    monkeypatch.setattr(detect, "quantile", counted)
    assert main(argv_of(command, tmp_path)) == 0
    assert len(levels) == calls


@pytest.mark.parametrize(
    "command, sweeps, steps",
    [
        ("detect", 0, 0),
        ("lattice", 412, 2968),
        ("rank", 2048, 14825),
        ("denoise", 16, 117),
        ("sample", 0, 0),
    ],
)
def test_quantile_cdf_points_per_subcommand(tmp_path, monkeypatch, command, sweeps, steps):
    # quadform.cdf is looked up by _bracket and by the search's steps only.
    points, phase = {"sweeps": 0, "steps": 0}, ["steps"]
    bracket, cdf = quadform._bracket, quadform.cdf

    def in_bracket(law, q):
        phase[0] = "sweeps"
        try:
            return bracket(law, q)
        finally:
            phase[0] = "steps"

    def counted(params, x):
        points[phase[0]] += np.size(x)
        return cdf(params, x)

    monkeypatch.setattr(quadform, "_bracket", in_bracket)
    monkeypatch.setattr(quadform, "cdf", counted)
    assert main(argv_of(command, tmp_path)) == 0
    assert points == {"sweeps": sweeps, "steps": steps}
