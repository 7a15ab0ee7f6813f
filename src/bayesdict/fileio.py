"""Binary PGM images and plain-text matrices: the one file boundary.

`_read` and `_write` do every open of the package, and `_write` makes
the file's directory. A file that cannot be read, decoded or written
raises IoFailure. PGM support is deliberately narrow: P5, maxval 255,
8-bit grayscale; comments are tolerated when reading. A matrix file is
a "rows cols" header line, then the rows as np.savetxt writes them at
%.17e, enough to round-trip float64 exactly; np.loadtxt reads them.
"""

import io
import re
from pathlib import Path

import numpy as np

from .errors import IoFailure, MalformedHeader, UnsupportedMaxval

# Whitespace and comments, then one header token; the lookahead keeps a
# failed match from backtracking into a comment for a token.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")


def _read(path, binary=False):
    """The whole file, as bytes or as decoded text."""
    try:
        with open(path, "rb" if binary else "r") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _write(path, data) -> None:
    """Write str or bytes to path, making its directory first. data may
    also be a function that writes to the open text file, which streams
    a large matrix out row by row instead of holding all its text."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data)
    except (OSError, UnicodeError) as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def load_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM into a row-major float matrix in [0, 255]."""
    buf = _read(path, binary=True)
    tokens, end = [], 0
    for _ in range(4):  # magic, width, height, maxval
        m = _PGM_TOKEN.match(buf, end)
        if m is None:
            raise MalformedHeader("PGM header ended early")
        tokens.append(m.group(1))
        end = m.end()
    if not buf[end:end + 1].isspace():
        raise MalformedHeader("PGM header not followed by whitespace")
    if tokens[0] != b"P5":
        raise MalformedHeader(f"not a binary PGM: magic {tokens[0]!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise MalformedHeader(f"non-numeric PGM header field: {exc}") from exc
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedMaxval(f"only maxval 255 supported, got {maxval}")
    raster = buf[end + 1:end + 1 + width * height]
    if len(raster) < width * height:
        raise MalformedHeader(
            f"raster truncated: {len(raster)} of {width * height} bytes")
    img = np.frombuffer(raster, dtype=np.uint8).reshape((height, width))
    return img.astype(np.float64)


def save_pgm(image: np.ndarray, path) -> None:
    """Write a matrix as binary P5, rounding half away from zero."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise MalformedHeader(f"image must be 2-d, got ndim={image.ndim}")
    clipped = np.clip(image, 0.0, 255.0)
    quantized = np.floor(clipped + 0.5).astype(np.uint8)
    height, width = image.shape
    _write(path, f"P5\n{width} {height}\n255\n".encode("ascii")
           + quantized.tobytes())


def save_matrix(A: np.ndarray, path) -> None:
    """Text export: "rows cols" header then one row per line, %.17e."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise MalformedHeader(f"matrix must be 2-d, got ndim={A.ndim}")
    _write(path, lambda fh: np.savetxt(
        fh, A, fmt="%.17e", header=f"{A.shape[0]} {A.shape[1]}", comments=""))


def load_matrix(path) -> np.ndarray:
    first, _, body = _read(path).partition("\n")
    header = first.split()
    if len(header) != 2:
        raise MalformedHeader(
            f"matrix header must be 'rows cols', got {first!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MalformedHeader(f"non-integer matrix dimensions: {exc}") from exc
    if rows < 0 or cols < 0:
        raise MalformedHeader(f"negative matrix dimensions {rows}x{cols}")
    if not body.strip():  # zero-width rows are written as blank lines
        A = np.empty((0 if cols else rows, cols))
    else:
        try:
            A = np.loadtxt(io.StringIO(body), ndmin=2, comments=None)
        except ValueError as exc:
            raise MalformedHeader(f"bad matrix value: {exc}") from exc
    if A.shape != (rows, cols):
        raise MalformedHeader(
            f"matrix body does not match declared {rows}x{cols}")
    return A
