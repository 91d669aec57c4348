"""Truncated and mutated image files make the readers raise ValueError,
never anything else."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redlab.imgio import read_pfm, read_pgm, write_pfm, write_pgm


def _valid_files() -> dict[str, bytes]:
    rng = np.random.default_rng(0)
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_pgm(tmp / "a.pgm", rng.integers(0, 256, (3, 4)), maxval=255)
        write_pgm(tmp / "b.pgm", rng.integers(0, 65536, (2, 3)), maxval=65535)
        ascii_rows = rng.integers(0, 256, (3, 2))
        write_pfm(tmp / "d.pfm", rng.standard_normal((3, 3)))
        for path in tmp.iterdir():
            files[path.name] = path.read_bytes()
    files["c.pgm"] = b"P2\n2 3\n255\n" + b"".join(b"%d %d\n" % tuple(r) for r in ascii_rows)
    files["e.pfm"] = b"Pf\n2 1\n2.5\n" + np.array([2.0, 8.0], dtype=">f4").tobytes()
    return files


VALID = _valid_files()


def _read_both(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.img"
        path.write_bytes(data)
        for reader in (read_pgm, read_pfm):
            try:
                reader(path)
            except ValueError:
                pass


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(VALID)), cut=st.floats(0.0, 1.0))
def test_truncated_files_raise_only_value_error(name, cut):
    data = VALID[name]
    _read_both(data[: int(cut * len(data))])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(VALID)),
    edits=st.lists(
        st.tuples(
            st.floats(0.0, 1.0), st.sampled_from(b" \n#-+.0123456789eEfinPa\xff\x00")
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_mutated_files_raise_only_value_error(name, edits):
    data = bytearray(VALID[name])
    for where, byte in edits:
        data[min(int(where * len(data)), len(data) - 1)] = byte
    _read_both(bytes(data))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.binary(max_size=64))
def test_arbitrary_bytes_raise_only_value_error(data):
    _read_both(data)


# ----------------------------------------------- round trip under the spec
#
# A drawn file is valid Netpbm, with its expected samples, or carries one
# defect that the spec rejects.  Header fields are separated by whitespace
# and comments; the last field ends in one whitespace byte or a glued
# comment with its line end, after which the raster starts.

_WS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c", b"  \n"])
_COMMENT = st.builds(
    lambda text, end: b"#" + text + end,
    st.sampled_from([b"", b" c", b"#x", b" 255 1", b"Pf"]),
    st.sampled_from([b"\n", b"\r"]),
)


@st.composite
def _separator(draw) -> bytes:
    ws = draw(_WS)
    if not draw(st.booleans()):
        return ws
    comment = draw(_COMMENT)
    return draw(st.sampled_from([ws + comment, comment, comment + ws]))


@st.composite
def _header(draw, magic: bytes, fields: list[bytes]) -> bytes:
    out = magic
    for field in fields:
        out += draw(_separator()) + field
    return out + draw(st.one_of(st.sampled_from([b" ", b"\n", b"\t", b"\r"]), _COMMENT))


def _uint_field(n: int, zeros: int) -> bytes:
    return b"0" * zeros + b"%d" % n


@st.composite
def pgm_cases(draw):
    """``(bytes, (samples, maxval) or None)``: a PGM file and what it holds."""
    plain = draw(st.booleans())
    maxval = draw(st.sampled_from([1, 2, 200, 255, 256, 1000, 65535]))
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    samples = draw(st.lists(st.integers(0, maxval), min_size=h * w, max_size=h * w))
    zeros = draw(st.integers(0, 2))
    fields = [_uint_field(w, zeros), _uint_field(h, 0), _uint_field(maxval, zeros)]
    magic = b"P2" if plain else b"P5"
    defect = draw(
        st.sampled_from(
            [None, None, "magic", "above", "maxval", "signed", "underscore", "fraction", "short"]
        )
    )
    if defect == "magic":
        magic = draw(st.sampled_from([b"P1", b"P3", b"P6", b"Pf", b"p5"]))
    elif defect == "above":
        top = 65535 if maxval > 255 or plain else 255
        if maxval == top:
            maxval -= 1
            fields[2] = _uint_field(maxval, 0)
        samples[draw(st.integers(0, h * w - 1))] = draw(st.integers(maxval + 1, top))
    elif defect == "maxval":
        fields[2] = draw(st.sampled_from([b"0", b"00", b"65536", b"100000"]))
    elif defect in ("signed", "underscore", "fraction"):
        i = draw(st.integers(0, 2))
        fields[i] = {"signed": draw(st.sampled_from([b"+", b"-"])) + fields[i],
                     "underscore": b"0_" + fields[i],
                     "fraction": fields[i] + b".0"}[defect]  # fmt: skip
    head = draw(_header(magic, fields))
    if plain:
        kept = samples[:-1] if defect == "short" else samples
        raster = b"".join(b"%d" % s + draw(_WS) for s in kept)
    else:
        raster = np.array(samples, dtype=">u2" if maxval > 255 else "u1").tobytes()
        if defect == "short":
            raster = raster[: -draw(st.integers(1, len(raster)))]
    want = None if defect else (np.array(samples, float).reshape(h, w), maxval)
    return head + raster, want


# Normal float32 magnitudes, so that a power-of-two scale keeps them exact.
_MAGNITUDE = st.floats(2.0**-99, 2.0**99, width=32)
_FLOAT32 = st.one_of(
    st.just(0.0),
    st.builds(lambda x, neg: -x if neg else x, _MAGNITUDE, st.booleans()),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


@st.composite
def pfm_cases(draw):
    """``(bytes, samples or None)``: a PFM file and the map it holds."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stored = np.array(draw(st.lists(_FLOAT32, min_size=h * w, max_size=h * w)), np.float32)
    # Scales of 1 or a power of two, spelled in several decimal forms.
    scale, text = draw(st.sampled_from([
        (-1.0, b"-1.0"), (1.0, b"1"), (1.0, b"+1"), (-0.5, b"-0.5"), (0.5, b".5"),
        (2.0, b"2e0"), (-4.0, b"-4."), (0.25, b"0.25"), (-2.0, b"-2E+0"),
    ]))  # fmt: skip
    fields = [_uint_field(w, draw(st.integers(0, 2))), _uint_field(h, 0), text]
    magic = b"Pf"
    defect = draw(st.sampled_from([None, None, "magic", "scale", "signed", "short"]))
    if defect == "magic":
        magic = draw(st.sampled_from([b"PF", b"P5", b"pf"]))
    elif defect == "scale":
        fields[2] = draw(st.sampled_from([b"0", b"-0.0", b"0e5", b"nan", b"inf", b"0x1p0"]))
    elif defect == "signed":
        i = draw(st.integers(0, 1))
        fields[i] = b"+" + fields[i]
    raster = stored.astype("<f4" if scale < 0 else ">f4").tobytes()
    if defect == "short":
        raster = raster[: -draw(st.integers(1, len(raster)))]
    want = None if defect else np.flipud(stored.reshape(h, w).astype(np.float64)) * abs(scale)
    return draw(_header(magic, fields)) + raster, want


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=pgm_cases())
def test_pgm_parses_to_its_samples_and_re_encodes_or_raises(case):
    data, want = case
    with tempfile.TemporaryDirectory() as tmp:
        path, copy = Path(tmp) / "case.pgm", Path(tmp) / "copy.pgm"
        path.write_bytes(data)
        if want is None:
            with pytest.raises(ValueError):
                read_pgm(path)
            return
        image, maxval = read_pgm(path)
        assert maxval == want[1] and np.array_equal(image, want[0])
        write_pgm(copy, image, maxval=maxval)
        again, maxval = read_pgm(copy)
        assert maxval == want[1] and np.array_equal(again, want[0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=pfm_cases())
def test_pfm_parses_to_its_samples_and_re_encodes_or_raises(case):
    data, want = case
    with tempfile.TemporaryDirectory() as tmp:
        path, copy = Path(tmp) / "case.pfm", Path(tmp) / "copy.pfm"
        path.write_bytes(data)
        if want is None:
            with pytest.raises(ValueError):
                read_pfm(path)
            return
        image = read_pfm(path)
        assert np.array_equal(image, want, equal_nan=True)
        write_pfm(copy, image)
        assert np.array_equal(read_pfm(copy), want, equal_nan=True)
