"""Orthogonal matching pursuit for coding signals against a dictionary.

Standard greedy OMP: pick the atom most correlated with the current
residual, refit all selected coefficients by least squares, repeat until
a stopping rule fires. Columns are coded in blocks by Batch-OMP in Gram
form (Rubinstein, Zibulevsky & Elad 2008, "Efficient Implementation of
the K-SVD Algorithm using Batch Orthogonal Matching Pursuit", Technion
CS-2008-08):

- `G = DᵀD` is formed once per call and `Dᵀy` once per column.
- The correlations are never formed from the residual. Step 0 reads
  `|Dᵀy|`; step k reads `|Dᵀy - G[S, :]ᵀc|` with the k kept
  coefficients, which equals `|Dᵀr|` in exact arithmetic and costs k x N
  work per column instead of M x N.
- Each step takes, for every column still running, one argmax of those
  correlations with the atoms already selected masked out; ties go to
  the lowest atom index.
- The refit solves the stacked k x k normal equations
  `G[S, S] c = D_Sᵀ y` in one batched solve.
- The residual is formed explicitly, `r = y - D_S c`. The normal-equation
  form `‖y‖² - cᵀD_Sᵀy` cancels once the residual is small next to `y`,
  and the stall check and the threshold test must see the true residual.
  The correlations may come from G because they only feed the argmax:
  their round-off can only swap two atoms whose correlations tie to
  round-off, and every stopping rule still reads the true residual.

Stall and rank rule: a trial atom whose refit does not shrink the
residual norm by at least STALL_REL of it is dropped, and that column
stops. A singular `G[S, S]` (the trial atom lies in the span of the
support, e.g. a duplicate atom) counts as such a stall; the other
columns of the block are unaffected.

Exact-fit rule: after each step a column stops once its residual norm
is at most `max(residual_threshold, STALL_REL * ‖y‖)`, or
`STALL_REL * ‖y‖` alone under max_sparsity. A residual that small is
round-off, and so are the Gram-form correlations of such a column:
unlike `Dᵀr`, which is exactly 0 when the residual is, they do not
vanish, so without this rule a fitted column would go on to pick an
atom from noise, and keep it whenever the refit happens to shrink the
round-off residual.

Non-finite entries in the dictionary or the signals raise NonFinite
before any column is coded.

Every per-column product is a stacked matmul, one identical BLAS call
per column, and the batched solve factors each matrix on its own. A
column's code therefore does not depend on its neighbours or on where
the block boundaries fall: `batch_encode(D, Y)[p]` equals
`omp_encode(D, Y[:, p])` bit for bit, and `omp_encode` is the one-column
case of the same kernel.

A call of P columns is split into max(1, P // _BLOCK) blocks of
near-equal size, so every block holds _BLOCK = 256 to 511 columns
(fewer only when P < 256). Each block runs as many steps as its
longest-coded column needs, so a small leftover block would add a whole
block's per-step overhead for a few columns; denoising codes its
patches in bands of ~2000, and with full blocks plus a leftover one each
band added such a block. The size trades per-step Python overhead
against the size of a block's work arrays. Denoising a 128² image
(14 641 patches, 64 x 256 DCT, one BLAS thread, 2-vCPU host) took a
median 0.35 s with blocks of 256, 0.32 s with 512 and 0.38 s with 1024
(fastest 0.23, 0.21 and 0.26 s, 11 interleaved runs); the peak traced
allocation was 6.1, 10.5 and 22.7 MiB.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonPositiveHyperparameter

STALL_REL = 1e-12
_BLOCK = 256


@dataclass(frozen=True)
class OmpStop:
    """Stopping rule; at least one criterion must be set."""

    max_sparsity: Optional[int] = None
    residual_threshold: Optional[float] = None

    def __post_init__(self):
        if self.max_sparsity is None and self.residual_threshold is None:
            raise NonPositiveHyperparameter(
                "max_sparsity or residual_threshold", None, "set")
        if self.max_sparsity is not None and not (
                isinstance(self.max_sparsity, Integral)
                and self.max_sparsity >= 1):
            raise NonPositiveHyperparameter(
                "max_sparsity", self.max_sparsity, "a positive integer")
        # written as a negated range so that nan is rejected too; an inf
        # threshold would code every column with no atom
        if self.residual_threshold is not None \
                and not 0 <= self.residual_threshold < np.inf:
            raise NonPositiveHyperparameter(
                "residual_threshold", self.residual_threshold,
                "finite and non-negative")


@dataclass
class SparseCode:
    """OMP output for one signal.

    support and coeffs are aligned, in selection order; renormalized
    flags that the dictionary columns were rescaled to unit norm
    internally, so coeffs refer to the rescaled atoms.
    """

    support: list
    coeffs: np.ndarray
    residual_norm: float
    renormalized: bool = False


@dataclass(frozen=True, eq=False)
class SparseCodes(Sequence):
    """OMP output for a batch: the N x P code matrix in compressed-column
    form, without storing its zeros.

    Column p's atoms are indices[indptr[p]:indptr[p + 1]] in selection
    order, with the aligned coeffs; residual_norms[p] is its residual.
    Indexing builds a SparseCode view of one column.
    """

    indptr: np.ndarray
    indices: np.ndarray
    coeffs: np.ndarray
    residual_norms: np.ndarray
    renormalized: bool = False

    def __len__(self) -> int:
        return len(self.residual_norms)

    def __getitem__(self, p) -> SparseCode:
        p = range(len(self))[p]
        lo, hi = self.indptr[p], self.indptr[p + 1]
        return SparseCode(self.indices[lo:hi].tolist(),
                          self.coeffs[lo:hi].copy(),
                          float(self.residual_norms[p]), self.renormalized)

    def reconstruct(self, D: np.ndarray) -> np.ndarray:
        """Dn @ X: every column rebuilt from the (normalized) dictionary.

        Row by row, each column's weighted atom entries are summed in
        selection order, without forming X or any nnz x M array.
        """
        Dn, _ = normalize_dictionary(np.asarray(D, dtype=np.float64))
        cols = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        out = np.empty((Dn.shape[0], len(self)))
        for m, row in enumerate(Dn):
            out[m] = np.bincount(cols, row[self.indices] * self.coeffs,
                                 len(self))
        return out


def normalize_dictionary(D: np.ndarray) -> tuple[np.ndarray, bool]:
    """Unit-norm columns; second value reports whether rescaling happened.

    Columns already within 1e-6 of unit norm are passed through
    untouched; zero columns are left as zeros (they can never win the
    correlation step).
    """
    D = np.asarray(D, dtype=np.float64)
    norms = np.linalg.norm(D, axis=0)
    if np.max(np.abs(norms - 1.0), initial=0.0) <= 1e-6:
        return D, False
    safe = np.where(norms > 0, norms, 1.0)
    return D / safe, True


def _row_norms(R: np.ndarray) -> np.ndarray:
    return np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])


def _solve_stacked(A: np.ndarray, b: np.ndarray):
    """Solve every A[i] c = b[i]; singular systems come back as False."""
    solved = np.ones(len(A), bool)
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0], solved
    except np.linalg.LinAlgError:
        pass
    c = np.zeros_like(b)
    for i in range(len(A)):
        try:
            c[i] = np.linalg.solve(A[i:i + 1], b[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            solved[i] = False
    return c, solved


def _encode_block(Dn, G, Y, thr, cap):
    """Code every row of Y (B x M, one signal per row).

    Returns support sizes, supports and coefficients (B x cap, padded
    past each size) and residual norms.
    """
    B = Y.shape[0]
    DtY = (Dn.T @ Y[:, :, None])[:, :, 0]
    norms = _row_norms(Y)
    fitted = STALL_REL * norms
    if thr is not None:
        fitted = np.maximum(fitted, thr)
    sizes = np.zeros(B, dtype=np.intp)
    sup = np.zeros((B, cap), dtype=np.intp)
    coef = np.zeros((B, cap))
    act = np.flatnonzero(norms > fitted)
    for k in range(cap):
        if act.size == 0:
            break
        corr = DtY[act]
        if k:
            corr = corr - (coef[act, None, :k] @ G[sup[act, :k]])[:, 0, :]
        corr = np.abs(corr)
        rows = np.arange(len(act))
        corr[rows[:, None], sup[act, :k]] = -1.0
        atom = np.argmax(corr, axis=1)
        moving = corr[rows, atom] > 0.0
        act, atom = act[moving], atom[moving]
        S = np.concatenate([sup[act, :k], atom[:, None]], axis=1)
        c, solved = _solve_stacked(G[S[:, :, None], S[:, None, :]],
                                   DtY[act[:, None], S])
        trial = Y[act] - (c[:, None, :] @ Dn.T[S])[:, 0, :]
        trial_norms = _row_norms(trial)
        gained = solved & (norms[act] - trial_norms >= STALL_REL * norms[act])
        act = act[gained]
        norms[act] = trial_norms[gained]
        sup[act, k] = atom[gained]
        coef[act, :k + 1] = c[gained]
        sizes[act] = k + 1
        act = act[norms[act] > fitted[act]]
    return sizes, sup, coef, norms


def batch_encode(D: np.ndarray, signals: np.ndarray,
                 stop: OmpStop) -> SparseCodes:
    """Code every column of signals independently, preserving order."""
    signals = np.asarray(signals, dtype=np.float64)
    if D.ndim != 2 or signals.ndim != 2 or D.shape[0] != signals.shape[0]:
        raise DimensionMismatch(
            f"dictionary {D.shape} incompatible with signals {signals.shape}")
    for name, values in (("dictionary", D), ("signals", signals)):
        bad = np.size(values) - np.count_nonzero(np.isfinite(values))
        if bad:
            raise NonFinite(f"non-finite entries in the OMP {name}: {bad}")
    Dn, renorm = normalize_dictionary(np.asarray(D, dtype=np.float64))
    M, N = Dn.shape
    cap = stop.max_sparsity if stop.max_sparsity is not None else min(M, N)
    cap = min(cap, N)
    G = Dn.T @ Dn
    P = signals.shape[1]
    sizes = np.zeros(P, dtype=np.intp)
    norms = np.zeros(P)
    indices, coeffs = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    blocks = max(1, P // _BLOCK)
    for b in range(blocks):
        lo, hi = P * b // blocks, P * (b + 1) // blocks
        Y = np.ascontiguousarray(signals[:, lo:hi].T)
        sizes[lo:hi], sup, coef, norms[lo:hi] = _encode_block(
            Dn, G, Y, stop.residual_threshold, cap)
        kept = np.arange(cap) < sizes[lo:hi, None]
        indices.append(sup[kept])
        coeffs.append(coef[kept])
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    return SparseCodes(indptr, np.concatenate(indices),
                       np.concatenate(coeffs), norms, renorm)


def omp_encode(D: np.ndarray, y: np.ndarray, stop: OmpStop) -> SparseCode:
    """Code one signal. Columns of D are normalized internally if needed."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise DimensionMismatch(
            f"dictionary {D.shape} incompatible with signal {y.shape}")
    return batch_encode(D, y[:, None], stop)[0]
