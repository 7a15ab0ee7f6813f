"""Symmetric positive-definite factorizations used by both inference engines.

Every precision inverse in the toolkit goes through a Cholesky
factorization, never an unstructured matrix inverse. On a factorization
failure a single jitter of 1e-10 * trace/n is added to the diagonal; a
second failure raises SingularPrecision, which callers treat as a
numerical blow-up. The engines factor their batched systems in RFP
storage with LAPACK directly; VB comes here only for one that fails.
"""

import numpy as np
import scipy.linalg

from .errors import SingularPrecision

JITTER_SCALE = 1e-10


def spd_factor(P: np.ndarray):
    """Cholesky-factor an SPD matrix with the one-shot jitter policy.

    Returns a (cho_factor, logdet_of_P) pair; the factor is lower
    triangular, for scipy.linalg.solve_triangular or cho_solve.
    """
    try:
        c, low = scipy.linalg.cho_factor(P, lower=True, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError):
        n = P.shape[0]
        jitter = JITTER_SCALE * np.trace(P) / n
        try:
            c, low = scipy.linalg.cho_factor(
                P + jitter * np.eye(n), lower=True, check_finite=False)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise SingularPrecision(
                f"{n}x{n} precision matrix not positive definite "
                f"after jitter {jitter:g}") from exc
    logdet = 2.0 * np.sum(np.log(np.diag(c)))
    return (c, low), logdet


def spd_logdet(S: np.ndarray) -> float:
    """log det of an SPD matrix (e.g. a stored covariance)."""
    _, logdet = spd_factor(S)
    return logdet


def _rfp_diagonal(n: int) -> np.ndarray:
    """Positions of the diagonal of an n x n matrix in LAPACK's RFP
    storage for transr='T', uplo='U': 2h + 1 rows of n - h, h = n // 2."""
    h = n // 2
    i = np.arange(n)
    return np.where(i < h, (h + i + 1) * (n - h) + i, i * (n - h) + i - h)
