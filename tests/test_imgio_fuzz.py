"""Truncated and mutated image files make the readers raise ValueError,
never anything else."""

import tempfile
from pathlib import Path

import numpy as np
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
