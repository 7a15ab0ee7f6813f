"""Overlapping-patch extraction and averaging reassembly.

Training grids place patch top-left corners at [r*i, r*j] for
i, j = 0..floor((Q - p)/r); denoising always codes the full stride-1
grid. Patches are vectorized column-major within the patch, and patch
columns are ordered row-major over (i, j), both fixed so golden files
stay stable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageGap,
    ImageTooSmall,
    NonPositiveHyperparameter,
    ShapeMismatch,
)


@dataclass(frozen=True)
class PatchGrid:
    patch_size: int
    stride: int
    origin_rows: tuple
    origin_cols: tuple
    image_dims: tuple


def _offset_slices(p: int, stride: int, n: int):
    """(a, b, window) for each in-patch offset (a, b): window selects that
    pixel of all n x n patches on the grid, in row-major patch order.

    Offsets run from (p-1, p-1) down to (0, 0), so each pixel receives
    its patches in row-major order of their origins, the order a loop
    over patches would add them in.
    """
    span = stride * (n - 1) + 1
    for a in range(p - 1, -1, -1):
        for b in range(p - 1, -1, -1):
            yield a, b, (slice(a, a + span, stride),
                         slice(b, b + span, stride))


def extract_patches(image: np.ndarray, patch_size: int = 8,
                    stride: int = 2) -> tuple[np.ndarray, PatchGrid]:
    """All patches on the stride grid as columns of a (p*p, P) matrix."""
    for name, value in (("patch_size", patch_size), ("stride", stride)):
        if value < 1:
            raise NonPositiveHyperparameter(name, value, "a positive integer")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ShapeMismatch(f"expected a square image, got {image.shape}")
    Q = image.shape[0]
    if Q < patch_size:
        raise ImageTooSmall(f"image side {Q} < patch size {patch_size}")
    offsets = tuple(stride * i for i in range((Q - patch_size) // stride + 1))
    grid = PatchGrid(patch_size=patch_size, stride=stride,
                     origin_rows=offsets, origin_cols=offsets,
                     image_dims=(Q, Q))
    n = len(offsets)
    out = np.empty((patch_size * patch_size, n * n))
    for a, b, window in _offset_slices(patch_size, stride, n):
        out[a + b * patch_size] = image[window].ravel()
    return out, grid


def reassemble_image(patches: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Average every pixel over all patches covering it, clamp to [0, 255]."""
    p = grid.patch_size
    Q = grid.image_dims[0]
    expect = len(grid.origin_rows) * len(grid.origin_cols)
    if patches.shape != (p * p, expect):
        raise ShapeMismatch(
            f"patch matrix {patches.shape} does not fit grid "
            f"({p * p} x {expect})")
    n = len(grid.origin_rows)
    acc = np.zeros((Q, Q))
    count = np.zeros((Q, Q))
    for a, b, window in _offset_slices(p, grid.stride, n):
        acc[window] += patches[a + b * p].reshape(n, n)
        count[window] += 1.0
    if np.any(count == 0):
        raise CoverageGap("grid leaves uncovered pixels; use stride 1")
    return np.clip(acc / count, 0.0, 255.0)
