import json

import numpy as np
import pytest

from redlab.cli import main
from redlab.grid import laplacian
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


def test_detect_missing_input(tmp_path, capsys):
    rc = main(["detect", str(tmp_path / "nope.pgm"), "--patch", "0,0,4"])
    assert rc == 2
    assert not (tmp_path / "P_map.pfm").exists()


def test_detect_bad_patch_spec(tmp_path, stripe_image):
    path, _ = stripe_image
    assert main(["detect", str(path), "--patch", "1,2"]) == 2
    assert main(["detect", str(path), "--patch", "1,2,0"]) == 2


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


def test_threads_flag_is_rejected(tmp_path, stripe_image):
    path, _ = stripe_image
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["detect", str(path), "--patch", "2,2,4", "--out", str(out), "--threads", "2"])
    assert exc.value.code == 2
    assert main(["detect", str(path), "--patch", "2,2,4", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "threads" not in manifest["params"]


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
