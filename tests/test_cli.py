import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_imgio import NOT_NETPBM_PGM

from redlab.background import from_exemplar
from redlab.cli import _build_parser, main
from redlab.detect import autosim_detection
from redlab.grid import PatchDomain, laplacian
from redlab.imgio import read_pfm, read_pgm, write_pgm


@pytest.fixture()
def stripe_image(tmp_path):
    xs = np.arange(24)
    u = np.tile(128 + 80 * np.sin(2 * np.pi * xs / 6.0), (24, 1))
    path = tmp_path / "stripes.pgm"
    write_pgm(path, u)
    return path, u


def board_image(path, cell=8, n=48):
    ys, xs = np.mgrid[0:n, 0:n]
    u = np.where(((xs // cell) + (ys // cell)) % 2 == 0, 220.0, 30.0)
    u[3:9, 3:9] = 125.0
    write_pgm(path, u)
    return u


def strict_outputs(out) -> dict:
    """Every JSON file of a run, parsed with bare ``NaN``/``Infinity``
    rejected; ``ranking.json`` is the one file that may hold them."""

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return {
        path.name: json.loads(path.read_text(), parse_constant=reject)
        for path in sorted(out.glob("*.json"))
        if path.name != "ranking.json"
    }


# ------------------------------------------------------------------ detect


def test_detect_stripes_outputs(tmp_path, stripe_image):
    path, _ = stripe_image
    out = tmp_path / "out"
    rc = main(
        ["detect", str(path), "--patch", "3,3,4", "--nfa", "1", "--model", "white",
         "--out", str(out)]
    )
    assert rc == 0
    d_map, _ = read_pgm(out / "D_map.pgm")
    p_map = read_pfm(out / "P_map.pfm")
    assert d_map[0, 6] > 0 and d_map[0, 12] > 0  # stripe periods
    assert d_map[0, 0] == 0
    assert p_map[0, 0] == 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "detect"
    assert manifest["params"]["patch"] == [3, 3, 4]


def test_detect_takes_a_negative_anchor_after_an_equals_sign(tmp_path, capsys, stripe_image):
    path, _ = stripe_image
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["detect", str(path), "--patch", "-1,2,4", "--out", str(out)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["detect", "--help"])
    assert "--patch=-1,2,4" in " ".join(capsys.readouterr().out.split())
    assert main(["detect", str(path), "--patch=-1,2,4", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["patch"] == [-1, 2, 4]
    meta = json.loads((out / "detection.json").read_text())
    assert meta["patch"] == {"anchor": [-1, 2], "side": 4}


def test_detect_outputs_match_autosim_detection(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "in.pgm"
    write_pgm(path, rng.uniform(0, 255, (16, 16)))
    u, _ = read_pgm(path)
    model = from_exemplar(u)
    res = autosim_detection(u, PatchDomain(anchor=(2, 1), side=3), model, 5.0)
    out = tmp_path / "out"
    assert main(["detect", str(path), "--patch", "2,1,3", "--nfa", "5", "--out", str(out)]) == 0
    assert np.array_equal(read_pfm(out / "P_map.pfm"), res.p_map.astype(np.float32))
    d_back, _ = read_pgm(out / "D_map.pgm")
    assert np.array_equal(d_back > 0, res.d_map)
    meta = json.loads((out / "detection.json").read_text())
    assert meta["nfa_max"] == 5.0
    assert meta["patch"] == {"anchor": [2, 1], "side": 3}
    assert meta["model"] == {"kind": "exemplar", "dims": [16, 16], "variance": model.gamma[0, 0]}
    assert meta["mask"] is None
    assert meta["n_detected"] == res.n_detected
    assert meta["fallback_counts"] == res.fallback_counts


def test_detect_missing_input(tmp_path, capsys):
    rc = main(["detect", str(tmp_path / "nope.pgm"), "--patch", "0,0,4"])
    assert rc == 2
    assert not (tmp_path / "P_map.pfm").exists()


def test_detect_calibration_harness(tmp_path):
    # feed the detector samples of the very background model it assumes:
    # the mean detection count stays within the NFA budget
    from redlab.background import from_exemplar, sample

    rng = np.random.default_rng(5)
    exemplar = rng.standard_normal((16, 16))
    model = from_exemplar(exemplar)
    counts = []
    for s in range(25):
        draw = sample(model, 7000 + s)
        scaled = 128 + 40 * draw / draw.std()
        in_path = tmp_path / f"in_{s}.pgm"
        write_pgm(in_path, scaled)
        out = tmp_path / f"out_{s}"
        rc = main(
            ["detect", str(in_path), "--patch", "0,0,3", "--nfa", "1",
             "--model", "exemplar", "--out", str(out)]
        )
        assert rc == 0
        meta = json.loads((out / "detection.json").read_text())
        counts.append(meta["n_detected"])
    counts = np.array(counts, dtype=float)
    se = counts.std(ddof=1) / np.sqrt(len(counts)) if counts.std() > 0 else 0.3
    assert counts.mean() <= 1.0 + 3 * se + 1e-9


def test_bright_16bit_noise_detects_nothing(tmp_path):
    # White noise of std 5 on a gray level of 30000: the as_map clamp is a
    # fraction of the centered energy, so the bright mean does not turn
    # noise into exact repeats.
    rng = np.random.default_rng(8)
    path = tmp_path / "bright.pgm"
    write_pgm(path, 30000.0 + 5.0 * rng.standard_normal((64, 64)), maxval=65535)
    out = tmp_path / "out"
    assert main(["detect", str(path), "--patch", "5,5,8", "--nfa", "1", "--out", str(out)]) == 0
    assert json.loads((out / "detection.json").read_text())["n_detected"] == 0


def test_detect_reruns_bit_identical(tmp_path, stripe_image):
    path, _ = stripe_image
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert (
            main(
                ["detect", str(path), "--patch", "2,2,4", "--nfa", "2",
                 "--out", str(out), "--mask", "2"]
            )
            == 0
        )
    for name in ("P_map.pfm", "D_map.pgm", "detection.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ----------------------------------------------------------------- denoise


def test_denoise_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    xs = np.arange(40)
    clean = np.tile(128 + 90 * np.sign(np.sin(2 * np.pi * xs / 8.0)), (40, 1))
    noisy = np.clip(clean + 15 * rng.standard_normal(clean.shape), 0, 255)
    clean_p = tmp_path / "clean.pgm"
    noisy_p = tmp_path / "noisy.pgm"
    write_pgm(clean_p, clean)
    write_pgm(noisy_p, noisy)
    out = tmp_path / "out"
    rc = main(
        ["denoise", str(noisy_p), "--sigma", "15", "--clean", str(clean_p),
         "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["psnr_denoised_dB"] > report["psnr_noisy_dB"]
    denoised, maxval = read_pgm(out / "denoised.pgm")
    assert maxval == 255 and denoised.shape == (40, 40)


def test_denoise_validation(tmp_path, stripe_image):
    path, _ = stripe_image
    assert main(["denoise", str(path), "--sigma", "0"]) == 2
    assert main(["denoise", str(path), "--sigma", "-3"]) == 2
    assert main(["denoise", str(tmp_path / "gone.pgm"), "--sigma", "5"]) == 2


def test_denoise_constant_all_accept(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((16, 16), 77.0))
    out = tmp_path / "out"
    rc = main(
        ["denoise", str(path), "--sigma", "5", "--nfa", "0", "--p", "4", "--c", "3",
         "--out", str(out)]
    )
    assert rc == 0
    denoised, _ = read_pgm(out / "denoised.pgm")
    assert np.array_equal(denoised, np.full((16, 16), 77.0))


@pytest.mark.parametrize("nfa", ["0", "0.5"])
def test_denoise_origin_only_window_writes_strict_json(tmp_path, stripe_image, nfa):
    path, _ = stripe_image
    out = tmp_path / "out"
    argv = ["denoise", str(path), "--sigma", "5", "--c", "0", "--nfa", nfa, "--p", "4",
            "--out", str(out)]
    assert main(argv) == 0
    report = strict_outputs(out)["report.json"]
    assert report["threshold_mean"] == 0.0
    assert report["thresholds"] == [[0.0]]


@pytest.mark.parametrize("mode", ["constant-mean", "per-offset"])
def test_denoise_nfa_zero_writes_infinite_thresholds_as_strings(tmp_path, stripe_image, mode):
    path, _ = stripe_image
    out = tmp_path / "out"
    argv = ["denoise", str(path), "--sigma", "20", "--p", "4", "--c", "2", "--nfa", "0",
            "--mode", mode, "--out", str(out)]
    assert main(argv) == 0
    report = strict_outputs(out)["report.json"]
    assert report["threshold_mean"] == "inf"
    expected = [["inf"] * 5 for _ in range(5)]
    expected[2][2] = 0.0
    assert report["thresholds"] == expected


def test_denoise_clean_equal_to_input_writes_infinite_psnr(tmp_path, stripe_image):
    path, _ = stripe_image
    out = tmp_path / "out"
    argv = ["denoise", str(path), "--sigma", "5", "--p", "4", "--c", "2", "--clean", str(path),
            "--out", str(out)]
    assert main(argv) == 0
    written = strict_outputs(out)
    assert written["report.json"]["psnr_noisy_dB"] == "inf"
    assert set(written["manifest.json"]["outputs"]) == {"denoised", "report"}


@pytest.mark.parametrize("mode", ["constant-mean", "per-offset"])
def test_denoise_reruns_bit_identical(tmp_path, stripe_image, mode):
    path, _ = stripe_image
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        argv = ["denoise", str(path), "--sigma", "12", "--p", "4", "--c", "5",
                "--nfa", "3", "--mode", mode, "--out", str(out)]
        assert main(argv) == 0
    for name in ("denoised.pgm", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("denoise_demo.py", ["--size", "32"], "classical NL-means"),
        ("threshold_study.py", [], "threshold profile along the x axis"),
        ("rank_demo.py", [], "checkerboard+noise"),
    ],
    ids=["denoise_demo", "threshold_study", "rank_demo"],
)
def test_denoise_demo_script_runs(script, args, expected):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert expected in run.stdout


# ----------------------------------------------------------------- lattice


def test_lattice_on_board(tmp_path):
    path = tmp_path / "board.pgm"
    board_image(path)
    out = tmp_path / "out"
    rc = main(
        ["lattice", str(path), "--patch", "12,12,12", "--nfa", "1",
         "--out", str(out)]
    )
    assert rc == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["status"] == "ok"
    assert abs(abs(fit["det"])) > 0
    assert (out / "overlay.pgm").exists()
    overlay, _ = read_pgm(out / "overlay.pgm")
    assert overlay.shape == (48, 48)


def test_lattice_overlay_of_an_anchor_outside_the_image_wraps(tmp_path):
    # Patches wrap, so anchors a period of the image apart fit the same
    # lattice, and the overlay marks its points from the wrapped anchor.
    path = tmp_path / "board.pgm"
    u = board_image(path, n=64)
    overlays = []
    for anchor in ("30,30", "-34,30", "94,30"):
        out = tmp_path / anchor
        assert main(["lattice", str(path), f"--patch={anchor},8", "--nfa", "1",
                     "--out", str(out)]) == 0  # fmt: skip
        overlays.append((out / "overlay.pgm").read_bytes())
    assert overlays[1] == overlays[0] and overlays[2] == overlays[0]
    overlay, _ = read_pgm(tmp_path / "30,30" / "overlay.pgm")
    assert (overlay != u).sum() > 0


def test_lattice_infinite_log_posterior_is_written_as_inf(tmp_path):
    # A perfect fit (q = 0 with dB = dM = 0) has an infinite log posterior.
    ys, xs = np.mgrid[0:64, 0:64]
    board = np.where(((xs // 8) + (ys // 8)) % 2 == 0, 220.0, 30.0)
    board[4:10, 4:10] = 125.0
    path = tmp_path / "b.pgm"
    write_pgm(path, board)
    out = tmp_path / "out"
    argv = ["lattice", str(path), "--patch", "30,30,8", "--nfa", "10", "--dB", "0", "--dM", "0",
            "--out", str(out)]
    assert main(argv) == 0
    fit = strict_outputs(out)["fit.json"]
    assert fit["status"] == "ok"
    assert "inf" in fit["log_posterior_trajectory"]


def test_lattice_singular_basis_fit_exits_3(tmp_path, capsys):
    # dB = 0 with a huge dM rounds every coefficient to zero, so the basis
    # update solves a singular system: a numerical failure, not bad input.
    path = tmp_path / "board.pgm"
    board_image(path)
    rc = main(
        ["lattice", str(path), "--patch", "12,12,12", "--nfa", "1", "--dM", "1e6",
         "--dB", "0", "--out", str(tmp_path / "out")]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_out_naming_an_existing_file_exits_2(tmp_path, capsys, stripe_image):
    path, _ = stripe_image
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    rc = main(["detect", str(path), "--patch", "2,2,4", "--out", str(taken)])
    assert rc == 2
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


def test_lattice_insufficient_detections(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "noise.pgm"
    write_pgm(path, rng.uniform(0, 255, (32, 32)))
    out = tmp_path / "out"
    rc = main(
        ["lattice", str(path), "--patch", "4,4,6", "--nfa", "0.05", "--out", str(out)]
    )
    assert rc == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["status"] == "insufficient detections"


def test_lattice_laplacian_preprocess_matches_meanfree(tmp_path):
    path = tmp_path / "board.pgm"
    u = board_image(path)
    out = tmp_path / "out"
    rc = main(
        ["lattice", str(path), "--patch", "12,12,12", "--nfa", "1",
         "--preprocess", "laplacian", "--out", str(out)]
    )
    assert rc == 0
    # filtering is linear with periodic boundaries: constants vanish
    assert np.allclose(laplacian(u + 40.0), laplacian(u), atol=1e-10)


# -------------------------------------------------------------------- rank


def test_rank_directory(tmp_path):
    rng = np.random.default_rng(2)
    imgdir = tmp_path / "imgs"
    imgdir.mkdir()
    board_image(imgdir / "a_board.pgm")
    write_pgm(imgdir / "b_noise.pgm", rng.uniform(0, 255, (48, 48)))
    out = tmp_path / "out"
    rc = main(
        ["rank", str(imgdir), "--K", "6", "--p", "12", "--out", str(out),
         "--seed", "4"]
    )
    assert rc == 0
    ranking = json.loads((out / "ranking.json").read_text())
    assert ranking[0]["label"] == "a_board.pgm"
    assert ranking[0]["rank"] == 0


def test_rank_validation(tmp_path):
    assert main(["rank", str(tmp_path / "missing")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["rank", str(empty)]) == 2


# ------------------------------------------------------------------ sample


def test_sample_white_deterministic(tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
    for out, seed in ((out1, "9"), (out2, "9"), (out3, "10")):
        rc = main(["sample", "--white", "32x16", "--seed", seed, "--out", str(out)])
        assert rc == 0
    b1 = (out1 / "sample.pgm").read_bytes()
    assert b1 == (out2 / "sample.pgm").read_bytes()
    assert b1 != (out3 / "sample.pgm").read_bytes()
    img, _ = read_pgm(out1 / "sample.pgm")
    assert img.shape == (16, 32)


def test_sample_from_exemplar(tmp_path, stripe_image):
    path, u = stripe_image
    out = tmp_path / "out"
    rc = main(["sample", "--model-from", str(path), "--seed", "3", "--out", str(out)])
    assert rc == 0
    img, _ = read_pgm(out / "sample.pgm")
    assert img.shape == u.shape
    assert img.std() > 1.0  # inherits the exemplar's variance


def test_sample_validation(tmp_path, stripe_image):
    path, _ = stripe_image
    assert main(["sample", "--out", str(tmp_path)]) == 2
    assert main(["sample", "--white", "8", "--out", str(tmp_path)]) == 2
    assert (
        main(["sample", "--white", "4x4", "--model-from", str(path),
              "--out", str(tmp_path)])
        == 2
    )


def test_sample_overflowing_draw_exits_3_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sample", "--white", "4x4", "--std", "1e308", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, module, stage, named",
    [
        (["sample", "--white", "4x4"], "background", "sample", "--white 4x4"),
        (["sample", "--model-from", "{image}"], "background", "sample", "{image}"),
        (["detect", "{image}", "--patch", "2,2,4"], "detect", "autosim_detection", "{image}"),
        (["rank", "{dir}", "--K", "2", "--p", "4"], "lattice", "rank_textures", "{dir}"),
    ],
)
def test_memory_error_exits_2_naming_the_input(
    tmp_path, capsys, monkeypatch, stripe_image, argv, module, stage, named
):
    import importlib

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(importlib.import_module(f"redlab.{module}"), stage, out_of_memory)
    path, _ = stripe_image
    names = {"{image}": str(path), "{dir}": str(path.parent)}
    out = tmp_path / "out"
    assert main([names.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: not enough memory for {names.get(named, named)}\n"
    assert not out.exists()


def test_threads_flag_is_rejected(tmp_path, stripe_image):
    path, _ = stripe_image
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["detect", str(path), "--patch", "2,2,4", "--out", str(out), "--threads", "2"])
    assert exc.value.code == 2
    assert main(["detect", str(path), "--patch", "2,2,4", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "threads" not in manifest["params"]


@pytest.mark.parametrize("command", ["detect", "denoise"])
def test_seed_flag_is_rejected_where_nothing_is_seeded(tmp_path, stripe_image, command):
    path, _ = stripe_image
    out = tmp_path / "out"
    argv = {
        "detect": ["detect", str(path), "--patch", "2,2,4"],
        "denoise": ["denoise", str(path), "--sigma", "10", "--p", "4", "--c", "2"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out), "--seed", "3"])
    assert exc.value.code == 2
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "seed" not in manifest["params"]


@pytest.mark.parametrize("nfa", ["0", "-1", "2304", "5000"])
def test_rank_rejects_nfa_before_any_law_table(tmp_path, capsys, monkeypatch, nfa):
    import redlab.lattice

    def no_table(*args, **kwargs):
        raise AssertionError("law table built before --nfa was checked")

    monkeypatch.setattr(redlab.lattice, "offset_laws", no_table)
    imgdir = tmp_path / "imgs"
    imgdir.mkdir()
    board_image(imgdir / "a_board.pgm")  # 48 x 48: 2304 offsets
    rc = main(["rank", str(imgdir), "--K", "2", "--p", "8", "--nfa", nfa,
               "--out", str(tmp_path / "out")])  # fmt: skip
    assert rc == 2
    err = capsys.readouterr().err
    assert "nfa" in err
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_stats_unloaded():
    import redlab

    src = str(Path(redlab.__file__).resolve().parents[1])
    code = "import sys, redlab.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "False"


# --------------------------------------------------------- output contract


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "{image}", "--patch", "2,2,4", "--model", "white"],
        ["detect", "{image}", "--patch", "2,2,4", "--mask", "2"],
        ["denoise", "{image}", "--sigma", "10", "--p", "4", "--c", "2", "--clean", "{image}"],
        ["denoise", "{image}", "--sigma", "10", "--p", "4", "--c", "2", "--nfa", "0"],
        ["lattice", "{board}", "--patch", "12,12,12", "--nfa", "1"],
        ["lattice", "{image}", "--patch", "0,0,4", "--nfa", "0.001"],
        ["rank", "{folder}", "--p", "8", "--K", "3"],
        ["sample", "--white", "8x8", "--seed", "1"],
        ["sample", "--model-from", "{image}"],
    ],
)
def test_every_json_output_is_strict_and_in_the_manifest(
    tmp_path, monkeypatch, stripe_image, argv
):
    import redlab.imgio

    read = []

    def recording_read_pgm(path):
        read.append(str(path))
        return read_pgm(path)

    monkeypatch.setattr(redlab.imgio, "read_pgm", recording_read_pgm)
    path, _ = stripe_image
    board_image(tmp_path / "board.pgm")
    argv = [a.format(image=path, board=tmp_path / "board.pgm", folder=tmp_path) for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = strict_outputs(out)["manifest.json"]
    assert manifest["command"] == argv[0]
    listed = {Path(p).name for p in manifest["outputs"].values()}
    assert listed | {"manifest.json"} == {p.name for p in out.iterdir()}
    # Each option is recorded once, under its own name; rank resolves its folder.
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[argv[0]]._actions} - {"help", "out"}
    assert set(manifest["params"]) == dests
    if argv[0] == "rank":
        assert manifest["params"]["images"] == read


def test_nan_in_a_json_output_exits_3(tmp_path, capsys, monkeypatch, stripe_image):
    import redlab.denoise

    monkeypatch.setattr(redlab.denoise, "psnr", lambda ref, est: float("nan"))
    path, _ = stripe_image
    board_image(tmp_path / "board.pgm")
    runs = [
        (["denoise", str(path), "--sigma", "5", "--p", "4", "--c", "2", "--clean", str(path)],
         "report.json"),
        # The lattice energy overflows to inf, so the fit's log-posterior is NaN.
        (["lattice", str(tmp_path / "board.pgm"), "--patch", "0,0,4", "--dB", "1e308",
          "--dM", "1e308"], "fit.json"),
    ]  # fmt: skip
    out = tmp_path / "out"
    for argv, name in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"NaN in {name}" in err
        assert "Warning" not in err and "Traceback" not in err and caught == []
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "{image}", "--patch", "2,2,4", "--model", "white"],
        ["denoise", "{image}", "--sigma", "10", "--p", "4", "--c", "2"],
        ["lattice", "{board}", "--patch", "12,12,12", "--nfa", "1"],
        ["rank", "{folder}", "--p", "8", "--K", "3"],
        ["sample", "--white", "8x8", "--seed", "1"],
    ],
    ids=["detect", "denoise", "lattice", "rank", "sample"],
)
def test_nan_in_the_manifest_exits_3_and_writes_nothing(
    tmp_path, capsys, monkeypatch, stripe_image, argv
):
    # Only the manifest fails to encode, so every other output is ready
    # when the run fails: none of them may reach --out.
    import redlab.cli

    monkeypatch.setattr(redlab.cli, "__version__", float("nan"))
    path, _ = stripe_image
    board_image(tmp_path / "board.pgm")
    argv = [a.format(image=path, board=tmp_path / "board.pgm", folder=tmp_path) for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert "NaN in manifest.json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["fresh-out", "existing-out"])
def test_failed_write_leaves_nothing_of_the_run(tmp_path, capsys, monkeypatch, stripe_image, existing):
    # D_map.pgm is the second output: P_map.pfm is written before it fails.
    import redlab.imgio

    def full(path, image, maxval=255):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(redlab.imgio, "write_pgm", full)
    path, _ = stripe_image
    out = tmp_path / "out"
    before = {}
    if existing:
        out.mkdir()
        (out / "keep.txt").write_text("kept\n")
        (out / "D_map.pgm").write_bytes(b"old")  # the failing write's target
        before = {p.name: p.read_bytes() for p in out.iterdir()}
    target = out / "nested" if not existing else out
    argv = ["detect", str(path), "--patch", "2,2,4", "--model", "white", "--out", str(target)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "D_map.pgm" in err and "Traceback" not in err
    if existing:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    else:
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "{image}", "--patch", "2,2,4", "--nfa", "nan"],
        ["detect", "{image}", "--patch", "2,2,4", "--nfa", "inf"],
        ["detect", "{image}", "--patch", "2,2,4", "--mask", "0"],
        ["denoise", "{image}", "--sigma", "nan"],
        ["denoise", "{image}", "--sigma", "10", "--nfa=-inf"],
        ["lattice", "{image}", "--patch", "2,2,4", "--dB", "nan"],
        ["lattice", "{image}", "--patch", "2,2,4", "--iters", "0"],
        ["rank", "{folder}", "--dM", "nan"],
        ["rank", "{folder}", "--K", "-3"],
        ["rank", "{folder}", "--iters", "0"],
        ["sample", "--white", "8x8", "--std", "nan"],
        ["denoise", "{image}", "--sigma", "5", "--c", "-1"],
        ["denoise", "{image}", "--sigma", "5", "--p", "0"],
        ["rank", "{folder}", "--p", "0"],
        ["detect", "{image}", "--patch", "1,2"],
        ["detect", "{image}", "--patch", "1,2,0"],
    ],
)
def test_non_finite_floats_and_counts_below_one_exit_2(tmp_path, capsys, stripe_image, argv):
    path, _ = stripe_image
    argv = [a.format(image=path, folder=tmp_path) for a in argv]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    option = re.search(r"argument (--\w+): invalid", capsys.readouterr().err)
    assert option and option[1] in [a.split("=")[0] for a in argv]
    assert not out.exists()


# ----------------------------------------------------------- bad inputs


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "{bad}", "--patch", "0,0,2"],
        ["denoise", "{bad}", "--sigma", "10"],
        ["lattice", "{bad}", "--patch", "0,0,2"],
        ["rank", "{dir}", "--K", "2", "--p", "4"],
    ],
)
def test_truncated_header_exits_2_naming_the_file(tmp_path, capsys, argv):
    imgdir = tmp_path / "imgs"
    imgdir.mkdir()
    board_image(imgdir / "a_good.pgm", n=16)
    bad = imgdir / "b_cut.pgm"
    bad.write_bytes(b"P5\n4 ")
    argv = [a.format(bad=bad, dir=imgdir) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "b_cut.pgm" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(NOT_NETPBM_PGM))
def test_a_pgm_outside_netpbm_exits_2_naming_the_file(tmp_path, capsys, case):
    bad = tmp_path / "odd.pgm"
    bad.write_bytes(NOT_NETPBM_PGM[case])
    assert main(["detect", str(bad), "--patch", "0,0,1", "--out", str(tmp_path / "out")]) == 2
    assert "odd.pgm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, option",
    [
        (["denoise", "{image}", "--sigma", "5", "--p", "30"], 2, "--p"),
        (["denoise", "{image}", "--sigma", "5", "--p", "1", "--c", "0"], 2, "--nfa"),  # 4.41 > 1
        (["rank", "{folder}", "--p", "30"], 2, "--p"),
        (["denoise", "{image}", "--sigma", "1e160", "--p", "4", "--c", "2"], 3, "--sigma"),
        (["denoise", "{image}", "--sigma", "1e-300", "--p", "4", "--c", "1"], 2, "--sigma"),
        (["detect", "{image}", "--patch", "2,2,4", "--nfa=-1"], 2, "--nfa"),
        (["lattice", "{image}", "--patch", "2,2,4", "--nfa=-1e-300"], 2, "--nfa"),
    ],
)
def test_option_out_of_range_names_the_input_and_the_option(
    tmp_path, capsys, stripe_image, argv, code, option
):
    path, _ = stripe_image  # 24 x 24
    argv = [a.format(image=path, folder=tmp_path) for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert path.name in err and option in err
    assert "Traceback" not in err
    assert not out.exists()


# ------------------------------------------------------- edge geometries


def _edge_images(tmp_path) -> dict:
    # One image per folder, so rank can take a folder.
    rng = np.random.default_rng(12)
    images = {
        "tiny": rng.integers(0, 256, (6, 6)).astype(np.float64),
        "row": rng.integers(0, 256, (1, 32)).astype(np.float64),
        "column": rng.integers(0, 256, (32, 1)).astype(np.float64),
        "constant": np.full((16, 16), 77.0),
    }
    paths = {}
    for name in ("board", *images):
        (tmp_path / name).mkdir()
        paths[name] = tmp_path / name / f"{name}.pgm"
    board_image(paths["board"], cell=4, n=32)
    for name, u in images.items():
        write_pgm(paths[name], u)
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "{board}", "--patch", "0,0,1"],
        ["lattice", "{board}", "--patch", "0,0,1"],
        ["rank", "{board_dir}", "--p", "1", "--K", "5"],
        ["detect", "{tiny}", "--patch", "0,0,9"],
        ["detect", "{row}", "--patch", "0,0,4"],
        ["detect", "{column}", "--patch", "0,0,4"],
        ["lattice", "{row}", "--patch", "0,0,4"],
        ["lattice", "{column}", "--patch", "0,0,4"],
        ["detect", "{board}", "--patch", "0,0,4", "--mask", "64"],
    ],
)
def test_edge_geometry_runs(tmp_path, capsys, argv):
    # p = 1, a patch larger than the image, 1 x N and N x 1 images, and a
    # stride mask coarser than the image all give a defined result.
    paths = _edge_images(tmp_path)
    fields = {**paths, "board_dir": paths["board"].parent}
    argv = [a.format(**fields) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name", ["row", "column"])
@pytest.mark.parametrize(
    "argv",
    [
        ["denoise", "{image}", "--sigma", "10", "--p", "4", "--c", "2"],
        ["rank", "{folder}", "--p", "4", "--K", "3"],
    ],
)
def test_edge_geometry_thin_images_exit_2(tmp_path, capsys, name, argv):
    # Denoising and ranking use unwrapped p x p windows, which a 1-pixel
    # side cannot hold.
    image = _edge_images(tmp_path)[name]
    argv = [a.format(image=image, folder=image.parent) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "smaller than" in capsys.readouterr().err


def test_edge_geometry_constant_image(tmp_path):
    path = _edge_images(tmp_path)["constant"]
    out = tmp_path / "detect"
    assert main(["detect", str(path), "--patch", "0,0,4", "--out", str(out)]) == 0
    assert json.loads((out / "detection.json").read_text())["n_detected"] == 0
    out = tmp_path / "lattice"
    assert main(["lattice", str(path), "--patch", "0,0,4", "--out", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["status"] == "insufficient detections"


# ----------------------------------------------------------- --nfa edges


def planted_repeats(path) -> None:
    """A 32 x 32 noise image whose window [2, 12)^2 repeats exactly at the
    offsets (14, 3) and (5, 11), so a patch inside it has a zero distance
    there and nowhere else."""
    u = np.random.default_rng(13).integers(0, 256, (32, 32)).astype(np.float64)
    for tx, ty in ((14, 3), (5, 11)):
        u[2 + ty : 12 + ty, 2 + tx : 12 + tx] = u[2:12, 2:12]
    write_pgm(path, u)


@pytest.mark.parametrize("model", ["white", "exemplar"])
def test_detect_at_nfa_zero_detects_exactly_the_zero_probabilities(tmp_path, model):
    path = tmp_path / "planted.pgm"
    planted_repeats(path)
    out = tmp_path / "out"
    argv = ["detect", str(path), "--patch", "4,4,6", "--nfa", "0", "--model", model]
    assert main(argv + ["--out", str(out)]) == 0
    d_map = read_pgm(out / "D_map.pgm")[0] > 0
    assert np.array_equal(d_map, read_pfm(out / "P_map.pfm") == 0.0)
    assert sorted(zip(*np.nonzero(d_map))) == [(3, 14), (11, 5)]


def test_lattice_at_nfa_zero_links_exactly_the_zero_probabilities(tmp_path):
    path = tmp_path / "planted.pgm"
    planted_repeats(path)
    out = tmp_path / "out"
    assert main(["lattice", str(path), "--patch", "4,4,6", "--nfa", "0", "--out", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["status"] == "ok"
    assert fit["vertices"] == [[5, 11], [14, 3]]
    assert fit["n_components"] == 2


@pytest.mark.parametrize("nfa", ["1024", "1e9"])
def test_nfa_of_the_domain_size_detects_every_offset(tmp_path, capsys, nfa):
    # |domain| = 32 * 32: every offset is detected, the origin included, so
    # the one component holds the origin and lattice has no vertex.
    path = tmp_path / "planted.pgm"
    planted_repeats(path)
    out = tmp_path / "detect"
    assert main(["detect", str(path), "--patch", "4,4,6", "--nfa", nfa, "--out", str(out)]) == 0
    assert np.all(read_pgm(out / "D_map.pgm")[0] == 255)
    assert json.loads((out / "detection.json").read_text())["n_detected"] == 1024
    out = tmp_path / "lattice"
    assert main(["lattice", str(path), "--patch", "4,4,6", "--nfa", nfa, "--out", str(out)]) == 0
    assert json.loads((out / "fit.json").read_text())["status"] == "insufficient detections"
    assert "insufficient detections" in capsys.readouterr().err


@pytest.mark.parametrize("image, model", [("planted", "exemplar"), ("planted", "white"),
                                          ("constant", "exemplar")])  # fmt: skip
def test_detect_warns_when_the_nfa_reaches_the_domain_size(tmp_path, capsys, image, model):
    # q = nfa / |domain| reaches 1 at --nfa 1024 on a 32 x 32 image, so every
    # offset is detected under any model; the word "degenerate" is kept for
    # a degenerate model, here the exemplar of a constant image.
    path = tmp_path / f"{image}.pgm"
    if image == "planted":
        planted_repeats(path)
    else:
        write_pgm(path, np.full((32, 32), 77.0))
    seen = {}
    for nfa in ("1023", "1024"):
        out = tmp_path / nfa
        argv = ["detect", str(path), "--patch", "4,4,6", "--nfa", nfa, "--model", model]
        assert main(argv + ["--out", str(out)]) == 0
        seen[nfa] = json.loads((out / "detection.json").read_text()), capsys.readouterr().err
    assert seen["1023"][0]["warnings"] == [] and "warning" not in seen["1023"][1]
    meta, err = seen["1024"]
    assert meta["n_detected"] == 1024
    (message,) = meta["warnings"]
    assert "nfa_max >= |domain|" in message
    assert ("degenerate" in message) == (image == "constant")
    assert f"warning: {message}" in err


@pytest.mark.parametrize("nfa, off_origin", [("0", "inf"), ("1e-300", "inf"), ("25", 0.0)])
def test_denoise_nfa_edge_thresholds(tmp_path, stripe_image, nfa, off_origin):
    # 1 - 1e-300 / 25 rounds to the level 1, whose thresholds are infinite.
    path, _ = stripe_image
    out = tmp_path / "out"
    argv = ["denoise", str(path), "--sigma", "20", "--p", "4", "--c", "2", "--nfa", nfa,
            "--mode", "per-offset", "--out", str(out)]  # fmt: skip
    assert main(argv) == 0
    report = strict_outputs(out)["report.json"]
    expected = [[off_origin] * 5 for _ in range(5)]
    expected[2][2] = 0.0
    assert report["thresholds"] == expected
    assert report["threshold_mean"] == off_origin


def test_denoise_tiny_sigma_keeps_infinite_thresholds_selecting(tmp_path):
    # At --nfa 0 every threshold off the origin is infinite, and 1e-100
    # squares to 1e-200, not 0: an inner patch selects its whole 3 x 3
    # window.  (A sigma squaring to 0, which would make 0 * inf, exits 2.)
    path = tmp_path / "r16.pgm"
    write_pgm(path, np.random.default_rng(14).integers(0, 256, (16, 16)).astype(np.float64))
    out = tmp_path / "out"
    argv = ["denoise", str(path), "--sigma", "1e-100", "--nfa", "0", "--p", "4", "--c", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert strict_outputs(out)["report.json"]["selected_max"] == 9
