"""Overlapping-patch extraction and averaging reassembly.

Training grids place patch top-left corners at [r*i, r*j] for
i, j = 0..floor((Q - p)/r). Denoising codes the full stride-1 grid
through `map_patches`, one band of whole patch rows at a time, so that
only one band's patches are held at once, and averages the rebuilt
patches back into the image. Patches are vectorized column-major within
the patch, and patch columns are ordered row-major over (i, j), both
fixed so golden files stay stable.
"""

import numpy as np

from .errors import ImageTooSmall, NonPositiveHyperparameter, ShapeMismatch

# Patches per band of map_patches, rounded down to whole patch rows (at
# least one): 1936 for a 128² image and 8 x 8 patches, whose band then
# holds 1 MiB of patches. Denoising with the 64 x 256 overcomplete DCT
# on one BLAS thread of a 2-vCPU host, the traced peak of a 256² image
# fell from 68.8 MiB for the whole grid at once to 8.5 MiB and the peak
# RSS of a 512² run from 336 to 56 MiB. Bands of 1024, 2048 and the
# whole 128² grid timed within 2% of each other, interleaved.
_BAND_PATCHES = 2048


def _offset_slices(p: int, stride: int, rows: int, cols: int,
                   top: int = 0):
    """(a, b, window) for each in-patch offset (a, b): window selects that
    pixel of the rows x cols patches whose origins are (top + stride*i,
    stride*j), in row-major patch order.

    Offsets run from (p-1, p-1) down to (0, 0), so each pixel receives
    its patches in row-major order of their origins, the order a loop
    over patches would add them in.
    """
    row_span = stride * (rows - 1) + 1
    col_span = stride * (cols - 1) + 1
    for a in range(p - 1, -1, -1):
        for b in range(p - 1, -1, -1):
            yield a, b, (slice(top + a, top + a + row_span, stride),
                         slice(b, b + col_span, stride))


def _gather(image, p, stride, rows, cols, top=0):
    out = np.empty((p * p, rows * cols))
    for a, b, window in _offset_slices(p, stride, rows, cols, top):
        out[a + b * p] = image[window].ravel()
    return out


def _scatter(acc, count, patches, p, rows, cols, top):
    for a, b, window in _offset_slices(p, 1, rows, cols, top):
        acc[window] += patches[a + b * p].reshape(rows, cols)
        count[window] += 1.0


def _grid_side(image, patch_size, stride):
    """The checked float image and its number of patch origins per side."""
    for name, value in (("patch_size", patch_size), ("stride", stride)):
        if value < 1:
            raise NonPositiveHyperparameter(name, value, "a positive integer")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ShapeMismatch(f"expected a square image, got {image.shape}")
    Q = image.shape[0]
    if Q < patch_size:
        raise ImageTooSmall(f"image side {Q} < patch size {patch_size}")
    return image, (Q - patch_size) // stride + 1


def extract_patches(image: np.ndarray, patch_size: int = 8,
                    stride: int = 2) -> np.ndarray:
    """All patches on the stride grid as columns of a (p*p, P) matrix."""
    image, n = _grid_side(image, patch_size, stride)
    return _gather(image, patch_size, stride, n, n)


def map_patches(image: np.ndarray, patch_size: int, fn) -> np.ndarray:
    """Rebuild image from fn of its stride-1 patches, averaged back.

    fn takes a (p*p, B) matrix of patches in extract_patches' layout and
    returns a matrix of that shape, its rebuilt patches. It is called once
    per band of whole patch rows, top band first. Each pixel becomes the
    mean of the rebuilt patches covering it, added in row-major order of
    their origins, clamped to [0, 255]; so when fn treats each column on
    its own, the result does not depend on the band size. A stride-1 grid
    covers every pixel.
    """
    image, n = _grid_side(image, patch_size, 1)
    p = patch_size
    acc = np.zeros(image.shape)
    count = np.zeros(image.shape)
    band = max(1, _BAND_PATCHES // n)
    for top in range(0, n, band):
        rows = min(band, n - top)
        rebuilt = fn(_gather(image, p, 1, rows, n, top))
        if rebuilt.shape != (p * p, rows * n):
            raise ShapeMismatch(
                f"rebuilt patches {rebuilt.shape} do not fit the band "
                f"({p * p} x {rows * n})")
        _scatter(acc, count, rebuilt, p, rows, n, top)
    return np.clip(acc / count, 0.0, 255.0)
