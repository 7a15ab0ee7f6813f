"""Symmetric positive-definite factorizations used by both inference engines.

Every precision inverse in the toolkit goes through a Cholesky
factorization, never an unstructured matrix inverse. On a factorization
failure a single jitter of 1e-10 * trace/n is added to the diagonal; a
second failure raises SingularPrecision, which callers treat as a
numerical blow-up. The engines factor their batched systems in RFP
storage with LAPACK directly; VB comes here only for one that fails.
_rfp_layout is the one place that layout is defined: a slot-to-entry
table both engines pack and unpack through.
"""

import numpy as np

from .errors import SingularPrecision

JITTER_SCALE = 1e-10


def spd_factor(P: np.ndarray):
    """Cholesky-factor an SPD matrix with the one-shot jitter policy.

    Returns (chol, logdet_of_P): the lower factor is chol's lower
    triangle, and its strict upper triangle is not zeroed.
    """
    import scipy.linalg

    try:
        chol, _ = scipy.linalg.cho_factor(P, lower=True, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError):
        n = P.shape[0]
        jitter = JITTER_SCALE * np.trace(P) / n
        try:
            chol, _ = scipy.linalg.cho_factor(
                P + jitter * np.eye(n), lower=True, check_finite=False)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise SingularPrecision(
                f"{n}x{n} precision matrix not positive definite "
                f"after jitter {jitter:g}") from exc
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return chol, logdet


def spd_logdet(S: np.ndarray) -> float:
    """log det of an SPD matrix (e.g. a stored covariance)."""
    _, logdet = spd_factor(S)
    return logdet


def _rfp_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK's Rectangular Full Packed (RFP) storage of a symmetric
    n x n matrix (transr='T', uplo='U') as (rows, cols, diag): slot k
    holds upper-triangle entry (rows[k], cols[k]), so A[rows, cols] packs
    A, and slot diag[i] holds (i, i). It is read off dtrttf, packing the
    matrix whose entry (i, j) is its own flat index i n + j."""
    from scipy.linalg.lapack import dtrttf

    arf, _ = dtrttf(np.arange(n * n, dtype=np.float64).reshape(n, n), "T", "U")
    rows, cols = np.divmod(arf.astype(np.intp), n)
    return rows, cols, np.lexsort((rows, rows != cols))[:n]  # diagonal, by i


def _rfp_unpack(x: np.ndarray, layout) -> np.ndarray:
    """The symmetric matrix whose upper triangle x holds in RFP storage,
    layout = _rfp_layout(n)."""
    rows, cols, diag = layout
    A = np.empty((len(diag), len(diag)))
    A[rows, cols] = A[cols, rows] = x
    return A
