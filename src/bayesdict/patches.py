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
    P = len(offsets) ** 2
    out = np.empty((patch_size * patch_size, P))
    col = 0
    for r0 in offsets:
        for c0 in offsets:
            block = image[r0:r0 + patch_size, c0:c0 + patch_size]
            out[:, col] = block.flatten(order="F")
            col += 1
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
    acc = np.zeros((Q, Q))
    count = np.zeros((Q, Q))
    col = 0
    for r0 in grid.origin_rows:
        for c0 in grid.origin_cols:
            block = patches[:, col].reshape((p, p), order="F")
            acc[r0:r0 + p, c0:c0 + p] += block
            count[r0:r0 + p, c0:c0 + p] += 1.0
            col += 1
    if np.any(count == 0):
        raise CoverageGap("grid leaves uncovered pixels; use stride 1")
    return np.clip(acc / count, 0.0, 255.0)
