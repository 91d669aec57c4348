import numpy as np
import pytest

from redlab.imgio import read_pfm, read_pgm, write_pfm, write_pgm


def test_pgm_binary_roundtrip_8bit(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.integers(0, 256, size=(7, 5)).astype(float)
    path = tmp_path / "img.pgm"
    write_pgm(path, u, maxval=255)
    back, maxval = read_pgm(path)
    assert maxval == 255
    assert np.array_equal(back, u)


def test_pgm_binary_roundtrip_16bit(tmp_path):
    rng = np.random.default_rng(1)
    u = rng.integers(0, 65536, size=(4, 9)).astype(float)
    path = tmp_path / "img16.pgm"
    write_pgm(path, u, maxval=65535)
    back, maxval = read_pgm(path)
    assert maxval == 65535
    assert np.array_equal(back, u)


def test_pgm_16bit_is_big_endian(tmp_path):
    path = tmp_path / "one.pgm"
    write_pgm(path, np.array([[258.0]]), maxval=65535)
    raw = path.read_bytes()
    assert raw.endswith(bytes([0x01, 0x02]))  # 258 = 0x0102, MSB first


def test_pgm_ascii_roundtrip(tmp_path):
    # ASCII PGM is read, and written back as binary PGM.
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 63\n127 255\n")
    u, maxval = read_pgm(path)
    assert maxval == 255
    assert u.tolist() == [[0.0, 63.0], [127.0, 255.0]]
    write_pgm(tmp_path / "binary.pgm", u, maxval=maxval)
    assert (tmp_path / "binary.pgm").read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 63, 127, 255])


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "commented.pgm"
    for raw in (
        b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]),
        b"P5\n# a comment ended by CR\r2 2\n255\n" + bytes([1, 2, 3, 4]),
        b"P2\n2 2\n255#c\n1 2\n3 4\n",  # a comment glued to a token
        b"P5\x0b2\x0c2\x0b255\x0c" + bytes([1, 2, 3, 4]),  # VT and FF are whitespace
    ):
        path.write_bytes(raw)
        back, maxval = read_pgm(path)
        assert maxval == 255
        assert back.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_pgm_clips_and_rounds(tmp_path):
    path = tmp_path / "clip.pgm"
    write_pgm(path, np.array([[-4.0, 99.6, 300.0]]), maxval=255)
    back, _ = read_pgm(path)
    assert back.tolist() == [[0.0, 100.0, 255.0]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_writer_rejects_a_non_finite_sample_before_opening(tmp_path, bad):
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError, match="finite"):
        write_pgm(path, np.array([[1.0, bad]]))
    assert not path.exists()


def test_pgm_errors(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(ValueError):
        read_pgm(path)
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), maxval=0)


def test_pfm_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    u = rng.standard_normal((6, 3)) * 1e3
    path = tmp_path / "map.pfm"
    write_pfm(path, u)
    back = read_pfm(path)
    assert back.shape == u.shape
    assert np.allclose(back, u, rtol=1e-6)


def test_pfm_rows_stored_bottom_to_top(tmp_path):
    u = np.array([[1.0, 2.0], [3.0, 4.0]])  # row 0 is the top row
    path = tmp_path / "tiny.pfm"
    write_pfm(path, u)
    raw = path.read_bytes()
    header = b"Pf\n2 2\n-1.0\n"
    assert raw.startswith(header)
    data = np.frombuffer(raw[len(header):], dtype="<f4")
    # bottom row first in the file
    assert data.tolist() == [3.0, 4.0, 1.0, 2.0]


def test_pfm_big_endian_and_scale(tmp_path):
    path = tmp_path / "be.pfm"
    payload = np.array([2.0, 8.0], dtype=">f4").tobytes()
    path.write_bytes(b"Pf\n2 1\n2.5\n" + payload)
    back = read_pfm(path)
    assert np.allclose(back, [[5.0, 20.0]])


def test_pfm_errors(tmp_path):
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
    with pytest.raises(ValueError):
        read_pfm(path)
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 4)
    with pytest.raises(ValueError):
        read_pfm(path)


# ------------------------------------------------------- malformed files


@pytest.mark.parametrize(
    "payload",
    [b"", b"P5", b"P5\n4 ", b"P5\n4 4", b"P5\n4 4\n", b"P2\n# only a comment\n"],
)
def test_pgm_truncated_header_names_the_file(tmp_path, payload):
    path = tmp_path / "cut.pgm"
    path.write_bytes(payload)
    with pytest.raises(ValueError, match="cut.pgm"):
        read_pgm(path)


@pytest.mark.parametrize("payload", [b"", b"Pf", b"Pf\n2 ", b"Pf\n2 2\n"])
def test_pfm_truncated_header_names_the_file(tmp_path, payload):
    path = tmp_path / "cut.pfm"
    path.write_bytes(payload)
    with pytest.raises(ValueError, match="cut.pfm"):
        read_pfm(path)


@pytest.mark.parametrize("scale", [b"0", b"-0.0", b"nan", b"inf", b"-inf"])
def test_pfm_rejects_zero_and_non_finite_scale(tmp_path, scale):
    path = tmp_path / "scale.pfm"
    path.write_bytes(b"Pf\n2 1\n" + scale + b"\n" + np.ones(2, dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="scale"):
        read_pfm(path)


# ------------------------------------------------------- the Netpbm rules


def test_a_comment_glued_to_maxval_or_scale_ends_the_header(tmp_path):
    # The raster starts after the comment's line end, not inside the comment.
    path = tmp_path / "glued.pgm"
    path.write_bytes(b"P5\n2 2\n255#c\n" + bytes([1, 2, 3, 4]))
    assert read_pgm(path)[0].tolist() == [[1.0, 2.0], [3.0, 4.0]]
    path = tmp_path / "glued.pfm"
    path.write_bytes(b"Pf\n1 1\n-1.0#x\n" + np.array([3.0], dtype="<f4").tobytes())
    assert read_pfm(path).tolist() == [[3.0]]


NOT_NETPBM_PGM = {
    "P2 sample above maxval": b"P2 2 1 10 300 5",
    "P5 sample above maxval": b"P5\n2 1\n200\n" + bytes([255, 1]),
    "16-bit P5 sample above maxval": b"P5\n1 1\n1000\n" + bytes([3, 233]),
    "negative sample": b"P2 2 1 10 -5 3",
    "signed sample": b"P2 2 1 10 +5 3",
    "underscore in a sample": b"P2 2 1 255 5_0 3",
    "underscore in the width": b"P2 1_0 1 255 " + b"1 " * 10,
    "underscore in maxval": b"P5 2 1 0_255 " + bytes([1, 2]),
    "signed height": b"P5 2 +1 255 " + bytes([1, 2]),
}


@pytest.mark.parametrize("case", sorted(NOT_NETPBM_PGM))
def test_pgm_outside_netpbm_names_the_file(tmp_path, case):
    path = tmp_path / "odd.pgm"
    path.write_bytes(NOT_NETPBM_PGM[case])
    with pytest.raises(ValueError, match="odd.pgm"):
        read_pgm(path)


@pytest.mark.parametrize("header", [b"Pf\n1 1\n-1_0\n", b"Pf\n+1 1\n-1.0\n", b"Pf\n1 1\n0x1p0\n"])
def test_pfm_outside_netpbm_names_the_file(tmp_path, header):
    path = tmp_path / "odd.pfm"
    path.write_bytes(header + np.ones(1, dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="odd.pfm"):
        read_pfm(path)
