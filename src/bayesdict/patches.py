"""Overlapping-patch extraction and averaging reassembly.

Training grids place patch top-left corners at [r*i, r*j] for
i, j = 0..floor((Q - p)/r). Denoising codes the full stride-1 grid
through `map_patches`, one band of whole patch rows at a time, so that
only one band's patches are held at once, and averages the rebuilt
patches back into the image. Patches are vectorized column-major within
the patch, and patch columns are ordered row-major over (i, j), both
fixed so golden files stay stable. Both functions copy their patches
out of one sliding-window view of the image.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ImageTooSmall, NonPositiveHyperparameter, ShapeMismatch

# Patches per band of map_patches, rounded down to whole patch rows (at
# least one): 1936 for a 128² image and 8 x 8 patches, whose band then
# holds 1 MiB of patches. Denoising with the 64 x 256 overcomplete DCT
# on one BLAS thread of a 2-vCPU host, the traced peak of a 256² image
# fell from 68.8 MiB for the whole grid at once to 8.5 MiB and the peak
# RSS of a 512² run from 336 to 56 MiB. Bands of 1024, 2048 and the
# whole 128² grid timed within 2% of each other, interleaved.
_BAND_PATCHES = 2048


def _gather(windows):
    """The (p*p, rows*cols) patch matrix of a rows x cols x p x p window
    view, copied: entry (a + b*p, i*cols + j) is windows[i, j, a, b]."""
    p = windows.shape[-1]
    return windows.transpose(3, 2, 0, 1).copy().reshape(p * p, -1)


def _windows(image, patch_size, stride):
    """The p x p windows of the checked float image, [i, j] the one whose
    top-left corner is at (i, j)."""
    for name, value in (("patch_size", patch_size), ("stride", stride)):
        if value < 1:
            raise NonPositiveHyperparameter(name, value, "a positive integer")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ShapeMismatch(f"expected a square image, got {image.shape}")
    if image.shape[0] < patch_size:
        raise ImageTooSmall(
            f"image side {image.shape[0]} < patch size {patch_size}")
    return sliding_window_view(image, (patch_size, patch_size))


def extract_patches(image: np.ndarray, patch_size: int = 8,
                    stride: int = 2) -> np.ndarray:
    """All patches on the stride grid as columns of a (p*p, P) matrix."""
    return _gather(_windows(image, patch_size, stride)[::stride, ::stride])


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
    windows = _windows(image, patch_size, 1)
    n, p = len(windows), patch_size
    acc = np.zeros((n + p - 1, n + p - 1))
    band = max(1, _BAND_PATCHES // n)
    for top in range(0, n, band):
        rows = min(band, n - top)
        rebuilt = fn(_gather(windows[top:top + rows]))
        if rebuilt.shape != (p * p, rows * n):
            raise ShapeMismatch(
                f"rebuilt patches {rebuilt.shape} do not fit the band "
                f"({p * p} x {rows * n})")
        # rebuilt[a + b*p] holds pixel (a, b) of every patch; offsets run
        # from (p-1, p-1) down to (0, 0), so each pixel receives its
        # patches in row-major order of their origins
        rebuilt = rebuilt.reshape(p, p, rows, n)
        for a in range(p - 1, -1, -1):
            for b in range(p - 1, -1, -1):
                acc[top + a:top + a + rows, b:b + n] += rebuilt[b, a]
    # how many of the n windows along an axis cover each of its pixels
    per_axis = np.convolve(np.ones(n), np.ones(p))
    return np.clip(acc / np.outer(per_axis, per_axis), 0.0, 255.0)
