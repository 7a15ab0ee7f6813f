"""Synthetic recovery benchmark data.

A ground-truth dictionary with standard-normal entries and unit-norm
columns generates L signals, each a combination of K_l randomly chosen
atoms with standard-normal weights, plus white Gaussian noise at a
target SNR. Everything is driven by one seeded generator so a spec maps
to exactly one dataset.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NonPositiveHyperparameter, ZeroSignal


@dataclass(frozen=True)
class SyntheticSpec:
    """sparsity is either an int (every signal K-sparse) or a (lo, hi)
    tuple for K_l drawn uniformly from {lo, ..., hi}."""

    M: int
    N: int
    L: int
    sparsity: Union[int, tuple]
    snr_db: float
    seed: int


def _sparsity_bounds(spec: SyntheticSpec) -> tuple[int, int]:
    if isinstance(spec.sparsity, int):
        lo = hi = spec.sparsity
    else:
        lo, hi = spec.sparsity
    if lo < 1 or hi < lo:
        raise NonPositiveHyperparameter("sparsity", spec.sparsity,
                                        "a valid sparsity or (lo, hi) range")
    if hi > spec.N:
        raise NonPositiveHyperparameter("sparsity", spec.sparsity,
                                        f"at most N={spec.N}")
    return lo, hi


def snr_to_noise_std(clean: np.ndarray, snr_db: float) -> float:
    """Noise std giving the target SNR in dB against per-entry signal power."""
    power = float(np.mean(clean ** 2))
    if power == 0.0:
        raise ZeroSignal("clean signal is identically zero")
    return float(np.sqrt(power / 10.0 ** (snr_db / 10.0)))


def generate_synthetic(spec: SyntheticSpec):
    """Returns (D_true, X_true, Y, sigma); pure function of spec."""
    lo, hi = _sparsity_bounds(spec)
    if not spec.snr_db > -np.inf:  # also catches nan; +inf is noiseless
        raise NonPositiveHyperparameter("snr_db", spec.snr_db,
                                        "a number or +inf")
    for name in ("M", "N", "L"):
        if getattr(spec, name) < 1:
            raise NonPositiveHyperparameter(name, getattr(spec, name),
                                            "a positive integer")
    rng = np.random.default_rng(spec.seed)
    D = rng.standard_normal((spec.M, spec.N))
    D /= np.linalg.norm(D, axis=0)
    if lo == hi:
        ks = np.full(spec.L, lo)
    else:
        ks = rng.integers(lo, hi + 1, size=spec.L)
    X = np.zeros((spec.N, spec.L))
    for l in range(spec.L):
        support = rng.choice(spec.N, size=int(ks[l]), replace=False)
        X[support, l] = rng.standard_normal(int(ks[l]))
    clean = D @ X
    if spec.snr_db == np.inf:
        return D, X, clean.copy(), 0.0
    sigma = snr_to_noise_std(clean, spec.snr_db)
    Y = clean + sigma * rng.standard_normal((spec.M, spec.L))
    return D, X, Y, sigma
