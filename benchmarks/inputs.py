"""Seeded inputs for the image workloads.

The repository ships no test images and the benchmark downloads
nothing, so every image is drawn here from the workload seed. An image
is split into four quadrants holding a flat patch, a straight edge, a
sinusoidal grating and a checkerboard, so OMP support sizes vary from
patch to patch (one atom on flat areas, many on edges and gratings).
The dictionary is the fixed 64 x 256 overcomplete DCT of Elad & Aharon
(IEEE TIP 2006).
"""

import numpy as np

PATCH = 8
DCT_ATOMS_1D = 16


def clean_image(side: int, seed: int) -> np.ndarray:
    """A side x side image in [0, 255] with four seeded texture regions."""
    if side < 2 * PATCH or side % 2:
        raise ValueError(f"side must be even and at least {2 * PATCH}")
    rng = np.random.default_rng(seed)
    h = side // 2
    rr, cc = np.mgrid[0:h, 0:h].astype(np.float64)
    # Texture parameters vary only a little with the seed, so the
    # denoising gain (the workload's quality score) measures the program
    # rather than the draw; the noise realization changes completely.
    flat = np.full((h, h), rng.uniform(110.0, 150.0))

    angle = rng.uniform(0.2, 0.3) * np.pi
    offset = rng.uniform(-0.05, 0.05) * h
    side_of = (rr - h / 2) * np.cos(angle) + (cc - h / 2) * np.sin(angle)
    edge = np.where(side_of > offset, rng.uniform(190.0, 200.0),
                    rng.uniform(50.0, 60.0))

    period = rng.uniform(15.0, 17.0)
    theta = rng.uniform(0.6, 0.7) * np.pi
    phase = (rr * np.cos(theta) + cc * np.sin(theta)) * 2.0 * np.pi / period
    grating = 128.0 + rng.uniform(65.0, 75.0) * np.sin(phase)

    cell = 12
    shift = int(rng.integers(0, cell))
    squares = (rr + shift) // cell + (cc + shift) // cell
    checker = np.where(squares % 2 == 0,
                       rng.uniform(40.0, 50.0), rng.uniform(200.0, 210.0))

    image = np.block([[flat, edge], [grating, checker]])
    return np.clip(image, 0.0, 255.0)


def noisy_image(clean: np.ndarray, sigma: float, seed: int,
                draw: int = 0) -> np.ndarray:
    """clean plus N(0, sigma^2) noise, rounded and clipped to 8 bits as a
    PGM file would hold it. Each draw is an independent noise sample."""
    rng = np.random.default_rng([seed, 1 + draw])
    noisy = clean + sigma * rng.standard_normal(clean.shape)
    return np.clip(np.floor(noisy + 0.5), 0.0, 255.0)


def overcomplete_dct() -> np.ndarray:
    """The 64 x 256 separable overcomplete DCT with unit-norm atoms.

    The 1-D factor samples 16 cosines of increasing frequency on 8
    points; every atom but the constant one has its mean removed before
    normalization.
    """
    n = np.arange(PATCH)[:, None]
    k = np.arange(DCT_ATOMS_1D)[None, :]
    D1 = np.cos(np.pi * n * k / DCT_ATOMS_1D)
    D1[:, 1:] -= D1[:, 1:].mean(axis=0)
    D1 /= np.linalg.norm(D1, axis=0)
    return np.kron(D1, D1)
