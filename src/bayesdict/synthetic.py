"""Synthetic recovery benchmark data.

A ground-truth dictionary with standard-normal entries and unit-norm
columns generates L signals, each a combination of K_l randomly chosen
atoms with standard-normal weights, plus white Gaussian noise at a
target SNR. Everything is driven by one seeded generator so a spec maps
to exactly one dataset.
"""

from dataclasses import dataclass
from numbers import Integral
from typing import Union

import numpy as np

from .errors import NonPositiveHyperparameter, ZeroSignal


@dataclass(frozen=True)
class SyntheticSpec:
    """sparsity is an integer K or a (lo, hi) tuple of two integers for
    K_l drawn uniformly from {lo, ..., hi}. Checked when built:
    1 <= lo <= hi <= N, snr_db > -inf (+inf is noiseless), M, N, L >= 1
    and seed >= 0."""

    M: int
    N: int
    L: int
    sparsity: Union[int, tuple]
    snr_db: float
    seed: int

    def __post_init__(self):
        bounds = (self.sparsity,) * 2 \
            if isinstance(self.sparsity, Integral) else self.sparsity
        if not (isinstance(bounds, tuple) and len(bounds) == 2
                and all(isinstance(k, Integral) for k in bounds)) \
                or not 1 <= bounds[0] <= bounds[1]:
            raise NonPositiveHyperparameter(
                "sparsity", self.sparsity, "a valid sparsity or (lo, hi) range")
        if bounds[1] > self.N:
            raise NonPositiveHyperparameter("sparsity", self.sparsity,
                                            f"at most N={self.N}")
        if not self.snr_db > -np.inf:  # also catches nan; +inf is noiseless
            raise NonPositiveHyperparameter("snr_db", self.snr_db,
                                            "a number or +inf")
        for name in ("M", "N", "L"):
            if getattr(self, name) < 1:
                raise NonPositiveHyperparameter(name, getattr(self, name),
                                                "a positive integer")
        if self.seed < 0:
            raise NonPositiveHyperparameter("seed", self.seed, "non-negative")


def snr_to_noise_std(clean: np.ndarray, snr_db: float) -> float:
    """Noise std giving the target SNR in dB against per-entry signal power."""
    power = float(np.mean(clean ** 2))
    if power == 0.0:
        raise ZeroSignal("clean signal is identically zero")
    return float(np.sqrt(power / 10.0 ** (snr_db / 10.0)))


def generate_synthetic(spec: SyntheticSpec):
    """Returns (D_true, X_true, Y, sigma); pure function of spec."""
    lo, hi = (spec.sparsity,) * 2 if isinstance(spec.sparsity, Integral) \
        else spec.sparsity
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
