"""Binary PGM images and plain-text matrices.

PGM support is deliberately narrow: P5, maxval 255, 8-bit grayscale.
Comments are tolerated when reading. The matrix text format is a
"rows cols" header line followed by one line per row with 17+
significant digits, enough to round-trip float64 exactly.
"""

import numpy as np

from .errors import IoFailure, MalformedHeader, UnsupportedMaxval


def _read_pgm_tokens(buf: bytes, count: int) -> tuple[list, int]:
    """First `count` whitespace-separated header tokens, skipping comments.

    Returns the tokens and the offset one whitespace byte past the last
    token, which is where the raster starts.
    """
    tokens = []
    i = 0
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i:i + 1].isspace():
            i += 1
        if i < n and buf[i:i + 1] == b"#":
            while i < n and buf[i:i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        start = i
        while i < n and not buf[i:i + 1].isspace() and buf[i:i + 1] != b"#":
            i += 1
        if i == start:
            raise MalformedHeader("PGM header ended early")
        tokens.append(buf[start:i])
        if len(tokens) == count:
            if i >= n or not buf[i:i + 1].isspace():
                raise MalformedHeader("PGM header not followed by whitespace")
            i += 1
    return tokens, i


def load_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM into a row-major float matrix in [0, 255]."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    tokens, offset = _read_pgm_tokens(buf, 4)
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
    raster = buf[offset:offset + width * height]
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
    try:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(quantized.tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def save_matrix(A: np.ndarray, path) -> None:
    """Text export: "rows cols" header then one row per line, %.17e."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise MalformedHeader(f"matrix must be 2-d, got ndim={A.ndim}")
    try:
        with open(path, "w") as fh:
            fh.write(f"{A.shape[0]} {A.shape[1]}\n")
            for row in A:
                fh.write(" ".join(f"{v:.17e}" for v in row) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedHeader(
            f"matrix header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MalformedHeader(f"non-integer matrix dimensions: {exc}") from exc
    if rows < 0 or cols < 0:
        raise MalformedHeader(f"negative matrix dimensions {rows}x{cols}")
    values = []
    for line in lines[1:]:
        if line.strip():
            try:
                values.append([float(v) for v in line.split()])
            except ValueError as exc:
                raise MalformedHeader(f"bad matrix value: {exc}") from exc
    if cols == 0 and not values:
        return np.empty((rows, 0))  # zero-width rows are written as blank lines
    if len(values) != rows or any(len(r) != cols for r in values):
        raise MalformedHeader(
            f"matrix body does not match declared {rows}x{cols}")
    return np.array(values, dtype=np.float64).reshape((rows, cols))
