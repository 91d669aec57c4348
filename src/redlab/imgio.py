"""PGM and PFM image files.

PGM covers 8- and 16-bit grayscale images, 16-bit samples big-endian as
required by the format; the binary ``P5`` and ASCII ``P2`` flavors are
read, and ``P5`` is written.  PFM (grayscale ``Pf``, little-endian,
scanlines stored bottom-to-top) carries real-valued maps such as
probability maps.

The readers follow the Netpbm rules: header fields and ASCII samples are
unsigned decimal digits (PFM's scale a decimal float), every sample lies
in ``[0, maxval]``, and a comment may end the header, in which case the
raster starts after the comment's line end.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

__all__ = ["read_pgm", "write_pgm", "read_pfm", "write_pfm"]


# A header token, or a comment running to the end of its line.
_TOKEN = re.compile(rb"#[^\r\n]*|[^\s#]+")
_COMMENT = re.compile(rb"#[^\r\n]*")
_FLOAT = re.compile(rb"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    for m in _TOKEN.finditer(data):
        if not m[0].startswith(b"#"):
            yield m[0], m.end()


def _header(it, count: int) -> tuple[list[bytes], int]:
    """The next ``count`` header tokens and the offset just past the last."""
    fields, end = [], 0
    for tok, end in itertools.islice(it, count):
        fields.append(tok)
    if len(fields) < count:
        raise ValueError("truncated header")
    return fields, end


def _raster_start(data: bytes, end: int) -> int:
    """Offset of a binary raster whose header's last token ends at ``end``:
    past one whitespace byte, or past the line end of a comment glued to
    that token."""
    comment = _COMMENT.match(data, end)
    return (comment.end() if comment else end) + 1


def _uint(tok: bytes, what: str) -> int:
    """A field of unsigned decimal digits (no sign, no underscore)."""
    if not tok.isdigit():
        raise ValueError(f"invalid {what} {tok!r}")
    return int(tok)


def _read(path, parse):
    """Parse a file's bytes; a malformed file raises ``ValueError`` naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a PGM file.  Returns ``(image, maxval)`` with float64 pixels.

    Sample values are kept on their stored scale ([0, maxval]); no
    rescaling is applied.
    """
    return _read(path, _parse_pgm)


def _parse_pgm(data: bytes) -> tuple[np.ndarray, int]:
    it = _tokens(data)
    (magic,), _ = _header(it, 1)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a PGM file (magic {magic!r})")
    (width, height, maxval), end = _header(it, 3)
    width, height = _uint(width, "PGM width"), _uint(height, "PGM height")
    maxval = _uint(maxval, "PGM maxval")
    if not (0 < maxval < 65536):
        raise ValueError(f"invalid PGM maxval {maxval}")
    n = width * height
    if magic == b"P2":
        samples = [_uint(tok, "PGM sample") for tok, _ in itertools.islice(it, n)]
        if len(samples) != n:
            raise ValueError("truncated ASCII PGM")
        top = max(samples, default=0)
    else:
        start = _raster_start(data, end)
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        raw = data[start : start + n * dtype.itemsize]
        if len(raw) != n * dtype.itemsize:
            raise ValueError("truncated binary PGM")
        samples = np.frombuffer(raw, dtype=dtype)
        top = int(samples.max(initial=0))
    if top > maxval:
        raise ValueError(f"PGM sample {top} above maxval {maxval}")
    return np.array(samples, dtype=np.float64).reshape(height, width), maxval


def write_pgm(path, image, maxval: int = 255) -> None:
    """Write a binary PGM file, clipping and rounding finite samples to
    ``[0, maxval]``; a NaN or infinite sample raises ``ValueError``."""
    u = np.asarray(image, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError("PGM image must be 2-D")
    if not np.isfinite(u).all():
        raise ValueError("PGM samples must be finite")
    if not (0 < maxval < 65536):
        raise ValueError(f"invalid PGM maxval {maxval}")
    q = np.clip(np.rint(u), 0, maxval)
    height, width = u.shape
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    body = q.astype(dtype).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + body)


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM file into a float64 array."""
    return _read(path, _parse_pfm)


def _parse_pfm(data: bytes) -> np.ndarray:
    it = _tokens(data)
    (magic,), _ = _header(it, 1)
    if magic != b"Pf":
        raise ValueError(f"not a grayscale PFM file (magic {magic!r})")
    (width, height, scale), end = _header(it, 3)
    width, height = _uint(width, "PFM width"), _uint(height, "PFM height")
    if not _FLOAT.fullmatch(scale):
        raise ValueError(f"invalid PFM scale {scale!r}")
    scale = float(scale)
    if scale == 0.0 or not math.isfinite(scale):
        raise ValueError(f"invalid PFM scale {scale}")
    dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
    start = _raster_start(data, end)
    n = width * height
    raw = data[start : start + 4 * n]
    if len(raw) != 4 * n:
        raise ValueError("truncated PFM")
    arr = np.frombuffer(raw, dtype=dtype).astype(np.float64).reshape(height, width)
    if scale not in (-1.0, 1.0):
        arr = arr * abs(scale)
    # PFM stores rows bottom-to-top.
    return np.flipud(arr).copy()


def write_pfm(path, image) -> None:
    """Write a float map as little-endian grayscale PFM."""
    u = np.asarray(image, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError("PFM image must be 2-D")
    height, width = u.shape
    header = f"Pf\n{width} {height}\n-1.0\n".encode("ascii")
    body = np.flipud(u).astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header + body)
