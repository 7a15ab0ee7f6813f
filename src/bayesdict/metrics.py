"""Recovery and denoising metrics.

The atom distance is angular: 1 - |d'dhat| / (||d|| ||dhat||), blind to
sign flips and positive rescaling. Dictionary recovery is scored by
greedily matching true atoms to learned atoms without replacement on
globally smallest distance, then counting matches under a threshold
(default 0.01).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveHyperparameter, ShapeMismatch, ZeroVector

SUCCESS_THRESHOLD = 0.01


@dataclass
class RecoveryReport:
    """matched_pairs holds (true_index, learned_index, distance) triples."""

    matched_pairs: list
    success_rate: float
    threshold: float


def atom_distance(d: np.ndarray, dhat: np.ndarray) -> float:
    d = np.asarray(d, dtype=np.float64).ravel()
    dhat = np.asarray(dhat, dtype=np.float64).ravel()
    if d.shape != dhat.shape:
        raise ShapeMismatch(f"atom shapes differ: {d.shape} vs {dhat.shape}")
    if np.linalg.norm(d) == 0.0 or np.linalg.norm(dhat) == 0.0:
        raise ZeroVector("atom distance undefined for a zero vector")
    return float(_distance_matrix(d[:, None], dhat[:, None])[0, 0])


def _distance_matrix(D_true: np.ndarray, D_learned: np.ndarray) -> np.ndarray:
    """Pairwise angular distances; zero-norm columns are distance 1 to all."""
    tn = np.linalg.norm(D_true, axis=0)
    ln = np.linalg.norm(D_learned, axis=0)
    ts = np.where(tn > 0, tn, 1.0)
    ls = np.where(ln > 0, ln, 1.0)
    cos = np.abs((D_true / ts).T @ (D_learned / ls))
    cos[tn == 0, :] = 0.0
    cos[:, ln == 0] = 0.0
    return np.maximum(0.0, 1.0 - cos)


def check_threshold(threshold: float) -> None:
    """Atom distances lie in [0, 1]: a threshold outside (0, 1] fixes
    every score."""
    if not 0.0 < threshold <= 1.0:  # also rejects nan
        raise NonPositiveHyperparameter("success_threshold", threshold,
                                        "in (0, 1]")


def match_and_score(D_true: np.ndarray, D_learned: np.ndarray,
                    threshold: float = SUCCESS_THRESHOLD) -> RecoveryReport:
    """Greedy global-minimum matching without replacement.

    Repeatedly pairs the closest remaining (true, learned) columns until
    either side is exhausted; success_rate is the fraction of true atoms
    whose match lies under the threshold (unmatched true atoms count as
    failures). An empty true dictionary has no rate and is rejected, as
    is a threshold outside (0, 1].
    """
    check_threshold(threshold)
    if D_true.ndim != 2 or D_learned.ndim != 2 \
            or D_true.shape[0] != D_learned.shape[0] or D_true.shape[1] == 0:
        raise ShapeMismatch(
            f"dictionaries not comparable: {D_true.shape} vs {D_learned.shape}")
    dist = _distance_matrix(D_true, D_learned)
    n_true, n_learned = dist.shape
    pairs = []
    work = dist.copy()
    for _ in range(min(n_true, n_learned)):
        flat = int(np.argmin(work))
        i, j = divmod(flat, n_learned)
        pairs.append((int(i), int(j), float(dist[i, j])))
        work[i, :] = np.inf
        work[:, j] = np.inf
    pairs.sort()
    hits = sum(1 for _, _, dd in pairs if dd < threshold)
    return RecoveryReport(matched_pairs=pairs,
                          success_rate=hits / n_true,
                          threshold=threshold)


def psnr(clean: np.ndarray, test: np.ndarray) -> float:
    """20 log10(255 P / ||test - clean||_F) with P the pixel count.

    For a Q x Q image P = Q^2, which puts an extra factor of the image
    side in the numerator relative to conventional PSNR; both variants
    are reported so the difference stays visible. Identical images give
    inf.
    """
    clean = np.asarray(clean, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if clean.shape != test.shape:
        raise ShapeMismatch(f"images differ: {clean.shape} vs {test.shape}")
    err = float(np.linalg.norm(test - clean))
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 * clean.size / err)


def psnr_conventional(clean: np.ndarray, test: np.ndarray) -> float:
    """Usual 10 log10(255^2 / MSE); inf for identical images."""
    clean = np.asarray(clean, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if clean.shape != test.shape:
        raise ShapeMismatch(f"images differ: {clean.shape} vs {test.shape}")
    mse = float(np.mean((test - clean) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def reconstruction_error(Y: np.ndarray, D: np.ndarray, X: np.ndarray) -> float:
    """Frobenius residual ||Y - D X||_F."""
    if D.shape[1] != X.shape[0] or Y.shape != (D.shape[0], X.shape[1]):
        raise ShapeMismatch(
            f"Y {Y.shape}, D {D.shape}, X {X.shape} not conformable")
    return float(np.linalg.norm(Y - D @ X))
