"""Blocked Gibbs sampler over (X, D, alpha, gamma).

Each iteration draws the code columns, then the dictionary atoms one at
a time (model._atom_sweep, shared with the VB engine), then the
coefficient precisions, then the noise precision, all from their exact
conditionals. The chain is a pure function of (config, data): one
seeded generator drives every draw in a fixed order.

The code step is exact but works in the M-dimensional data space rather
than in coefficient space: D'D has rank at most M, so each column's
conditional is drawn with one M x M SPD solve (Bhattacharya, Chakraborty
& Mallick, Biometrika 2016). One skeleton draws the normals, applies the
kappa guard and assembles X block by block of columns; how a block's
systems are formed, factored and solved depends on M:

- M <= _SLAB_MAX_M (the 20 x 50 bench cell): _Slab forms every system
  of a block in one (M + 1, M, B) array, one GEMM per triangle column,
  then runs a left-looking Cholesky, which also carries the forward
  solve, and the back solve as M vectorized steps each over the B
  columns. At small M a per-column LAPACK call costs more in call
  overhead than the column's flops, and this makes none.
- M > _SLAB_MAX_M (the 64 x 256 image dictionaries): _Rfp forms each
  system by one GEMM per block directly in LAPACK's Rectangular Full
  Packed (RFP) storage: the M(M+1)/2 entries of a triangle, laid out so
  that the blocked level-3 dpftrf factors it in place and dpftrs solves
  against it (Gustavson, Wasniewski, Dongarra & Langou, ACM TOMS 2010),
  in the slot order that linalg._rfp_layout reads off LAPACK.

Either way a factor whose first bad pivot is <= 0 or nan raises
SingularPrecision naming the column. The solve loses about
eps * kappa_l of relative accuracy, with
kappa_l = 1 + g sum_n ||d_n||^2 / alpha_nl bounding its condition
number, so columns with kappa_l above _KAPPA_MAX are drawn by a dense
N x N Cholesky factorization instead; ChainTrace counts them per sweep.
After every sweep a non-finite gamma, D or X raises NonFinite.

On the RFP path, when a call has more than one block, one block's GEMM
holds at least _OVERLAP_MACS multiply-adds and the process may run on
at least two CPUs, one worker thread forms block k + 1's systems while
the calling thread factors block k's. The worker runs a single
np.matmul, which releases the GIL for its whole run; scipy's LAPACK
wrappers hold it, so the per-column loop stays on the caller. It is one
OS thread beyond any the BLAS starts, it lives for one call, and every
draw is bit-identical to running the GEMMs inline.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTrace, NonFinite, SingularPrecision
from .linalg import _rfp_layout, spd_factor
from .model import (
    GibbsState,
    ModelConfig,
    TrainingSet,
    _atom_sweep,
    initialize_gibbs_state,
    parse_estimate_mode,
)

# a Python float, so a gamma clamped to it is written as a plain number
_TINY = float(np.finfo(np.float64).tiny)
# Columns per block in sample_codes on the RFP path. It bounds the
# per-block temporaries (normals, the RFP M x M systems) whatever L is. The
# normal stream does not depend on it, but the GEMMs round differently,
# so draws under two block sizes agree to round-off, not bit for bit.
_BLOCK = 64
# Multiply-adds in one block's system GEMM (_BLOCK * N * M(M+1)/2) from
# which sample_codes runs that GEMM on a worker thread, overlapped with
# the previous block's factorizations. That pays only when the second
# vCPU is free and the GEMM there does not slow the caller: at
# 64/256/3721 (34M per block, one BLAS thread, 2-vCPU Xeon guest) a call
# took 101-135 ms against 160-222 inline when first timed, but later 162
# against 159 ms with the other vCPU idle (the caller's loop ran ~1.4x
# slower beside the GEMM), 227 against 224 with it busy and 189 against
# 179 forced onto one CPU (medians of 15 alternating calls). At 20/50
# (0.67M) the handoffs cost more: 100-sweep chains ran ~10% slower.
_OVERLAP_MACS = 2**23
# kappa_l above this sends a column to the dense draw: the data-space
# mean's relative error grows like eps * kappa_l (1e-11 at kappa 1e5,
# 1e-7 at 1e9 against a high-precision reference).
_KAPPA_MAX = 1e6
# Standard-gamma draws held at once by sample_alpha, rounded to whole
# rows of alpha (at least one). The stream does not depend on it. At
# N x L = 256 x 3721 on one thread of a 2-vCPU Xeon guest a call took
# the same time (8.0-8.2 ms, median of 40) at 2^14 to 2^20 elements and
# 8.6 ms at 2^12; 2^16 holds 0.5 MiB of draws.
_DRAW_CHUNK = 2**16
# Largest M whose code step runs in the slab kernel (_Slab) rather than
# one dpftrf and one dpftrs per column (_Rfp). A slab block costs about
# 8M NumPy calls and holds fewer columns as M grows, so RFP wins from
# M ~ 32 on. Medians of 41 alternating calls at N = 2.5M, L = 1000, one
# BLAS thread, 2-vCPU Xeon guest; one cell per round of calls:
#    M | slab ms     | RFP ms      | slab faster (of 41)
#    8 | 2.3         | 6.7         | 41
#   16 | 4.5         | 9.4         | 41
#   24 | 6.2, 8.0    | 7.9, 12.4   | 41, 41
#   28 | 8.1, 9.9    | 9.2, 12.5   | 38, 38
#   32 | 15.8, 10.8  | 18.4, 10.3  | 39, 4 (and 8, 3 in two more rounds)
#   40 | 27.0, 18.0  | 24.7, 15.0  | 0, 0
#   48 | 44.5        | 28.5        | 0
_SLAB_MAX_M = 28
# Bytes of one _Slab, (M + 1) M doubles per column: 624 columns at
# M = 20, so the bench cell's L = 1000 takes two blocks. A 4 MiB slab
# (one block) took 3.4 against 4.1 ms per call, but raised synth-gibbs's
# peak RSS over the RFP path's by 4.3 MiB, against 2.3 MiB at 2 MiB.
_SLAB_BYTES = 2**21


@dataclass
class ChainTrace:
    """D after each of the last k of cfg.iters sweeps (k from
    cfg.dict_estimate_mode), the ones estimate_dictionary averages (so
    kept_dicts[-1] is the final D), plus per-sweep diagnostics."""

    kept_dicts: list = field(default_factory=list)
    residual_per_iter: list = field(default_factory=list)
    gamma_per_iter: list = field(default_factory=list)
    dense_fallback_per_iter: list = field(default_factory=list)


def sample_codes(state: GibbsState, data: TrainingSet) -> int:
    """Draw each code column from N(g S D'y_l, S), S = (g D'D + A_l)^-1.

    With phi = sqrt(g) D, column l takes N + M standard normals z, sets
    u = z[:N] / sqrt(alpha_l) ~ N(0, A_l^-1) and delta = z[N:], solves
    S_l w = sqrt(g) y_l - phi u - delta with S_l = I_M + phi A_l^-1 phi'
    and returns u + A_l^-1 phi' w, an exact draw. S_l is SPD, so only
    one triangle is formed, block by block of columns. The normals are
    drawn one row per column, so the stream does not depend on the block
    size. Columns with kappa_l > _KAPPA_MAX are drawn densely from their
    first N normals instead. Returns the number of such columns. A
    failure of either draw raises SingularPrecision starting
    "column <l>: ".

    Only forming, factoring and solving the systems depends on M:
    - M <= _SLAB_MAX_M (the bench cell): _Slab holds a block's systems
      side by side and factors and solves all of them in M vectorized
      steps, with no LAPACK call per column.
    - M > _SLAB_MAX_M (the image-train shape): _Rfp forms them in RFP
      storage, and LAPACK dpftrf factors and dpftrs solves each column.
      With more than one block, _BLOCK * N * M(M+1)/2 >= _OVERLAP_MACS
      and two usable CPUs, each block's GEMM runs on the module
      docstring's worker thread, joined before the call returns or
      raises.
    """
    D, rng = state.D, state.rng
    M, N = D.shape
    root_g = np.sqrt(state.gamma)
    phi = root_g * D
    norms2 = np.einsum("in,in->n", phi, phi)
    # form(k, inv_alpha) returns a callable that gives block k's systems
    # (it may defer the writing to that call: prepare(k + 1) runs before
    # block k is solved, and _Slab has one buffer);
    # solve(S, w) overwrites w with S^-1 w, or returns (j, reason) for
    # the block's first column j whose factorization fails
    systems = (_Slab if M <= _SLAB_MAX_M else _Rfp)(phi, data.L)
    blocks = [slice(l0, min(l0 + systems.width, data.L))
              for l0 in range(0, data.L, systems.width)]

    def prepare(k):
        """Block k's 1/alpha, dense columns and (pending) systems."""
        inv_alpha = 1.0 / state.alpha[:, blocks[k]].T
        with np.errstate(over="ignore"):  # inf kappa also goes dense
            dense = np.flatnonzero(1.0 + inv_alpha @ norms2 > _KAPPA_MAX)
        # the dense draws below replace these rows; zeroing keeps S finite
        inv_alpha[dense] = 0.0
        return inv_alpha, dense, systems.form(k, inv_alpha)

    G = None
    n_dense = 0
    try:
        pending = prepare(0)
        for k, block in enumerate(blocks):
            inv_alpha, dense, formed = pending
            S = formed()
            if k + 1 < len(blocks):
                pending = prepare(k + 1)
            l0 = block.start
            z = rng.standard_normal((block.stop - l0, N + M))
            u = z[:, :N] * np.sqrt(inv_alpha)
            w = root_g * data.Y[:, block].T - u @ phi.T - z[:, N:]
            failed = systems.solve(S, w)
            if failed is not None:
                raise SingularPrecision(
                    f"column {l0 + failed[0]}: data-space system is not "
                    f"positive definite ({failed[1]})")
            state.X[:, block] = (u + inv_alpha * (w @ phi)).T
            if dense.size:
                if G is None:
                    G = state.gamma * (D.T @ D)
                for j in dense:
                    try:
                        state.X[:, l0 + j] = _dense_draw(
                            G, state.gamma * (D.T @ data.Y[:, l0 + j]),
                            state.alpha[:, l0 + j], z[j, :N])
                    except SingularPrecision as exc:
                        raise SingularPrecision(
                            f"column {l0 + j}: {exc}") from exc
                n_dense += dense.size
    finally:
        systems.close()
    return n_dense


class _Slab:
    """A block's systems as one (M + 1, M, B) slab, B columns on its
    last axis, factored and solved by vectorized steps over that axis.

    form writes lower-triangle column j of every system with one GEMM of
    phi[j:] * phi[j] against the block's 1/alpha. solve puts w' in row M,
    so the left-looking Cholesky's M steps also carry out the forward
    solve there, then solves with L' in M more steps. The slab and the
    update buffer are allocated once per call, _SLAB_BYTES for the slab.
    """

    def __init__(self, phi: np.ndarray, L: int):
        M = phi.shape[0]
        self.width = max(1, _SLAB_BYTES // (8 * (M + 1) * M))
        self.outers = [phi[j:] * phi[j] for j in range(M)]
        width = min(self.width, L)
        self.slab = np.empty((M + 1) * M * width)
        self.update = np.empty((M + 1) * width)

    def form(self, k: int, inv_alpha: np.ndarray):
        # lazy: there is one slab, and sample_codes prepares block k + 1
        # before it solves block k, so writing here would overwrite k
        return lambda: self._form(inv_alpha)

    def _form(self, inv_alpha: np.ndarray) -> np.ndarray:
        M, B = len(self.outers), len(inv_alpha)
        S = self.slab[:(M + 1) * M * B].reshape(M + 1, M, B)
        for j, outer in enumerate(self.outers):
            np.matmul(outer, inv_alpha.T, out=S[j:M, j])
        S.reshape(-1, B)[:M * M:M + 1] += 1.0  # the diagonal
        return S

    def solve(self, S: np.ndarray, w: np.ndarray):
        M, B = len(self.outers), S.shape[2]
        y = S[M, :M]  # w', then L^-1 w', then the solution
        y[...] = w.T
        with np.errstate(invalid="ignore", divide="ignore"):
            for j in range(M):
                col = S[j:, j]
                if j:
                    update = self.update[:(M + 1 - j) * B]
                    col -= np.einsum("ikb,kb->ib", S[j:, :j], S[j, :j],
                                     out=update.reshape(M + 1 - j, B))
                np.sqrt(col[0], out=col[0])
                col[1:] /= col[0]
            for j in range(M - 1, -1, -1):
                if j + 1 < M:
                    y[j] -= np.einsum("kb,kb->b", S[j + 1:M, j], y[j + 1:],
                                      out=self.update[:B])
                y[j] /= S[j, j]
        # sqrt of the first pivot <= 0 or nan in a column is <= 0 or nan
        failed = _first_bad_pivot(S.reshape(-1, B)[:M * M:M + 1] > 0.0)
        if failed is None:
            w[...] = y.T
        return failed

    def close(self) -> None:
        pass


class _Rfp:
    """A block's systems in RFP storage, factored in place by dpftrf and
    solved by dpftrs, two LAPACK calls per column.

    form is one GEMM per block against K (N x M(M+1)/2), whose row n
    holds phi_n phi_n' at the slots of _rfp_layout(M), into one of two
    buffers: on the worker thread, if sample_codes starts one, block k's
    is formed while the caller factors block k - 1's in the other.
    """

    def __init__(self, phi: np.ndarray, L: int):
        M, N = phi.shape
        rows, cols, self.diag = _rfp_layout(M)
        self.K = np.empty((N, len(rows)))
        for k in range(0, len(rows), M):  # M slots at a time: N x M gathers
            np.multiply(phi.T[:, rows[k:k + M]], phi.T[:, cols[k:k + M]],
                        out=self.K[:, k:k + M])
        self.width = _BLOCK
        self.buffers = np.empty((2, min(_BLOCK, L), len(rows)))
        self.worker = None
        if L > _BLOCK and _BLOCK * N * len(rows) >= _OVERLAP_MACS \
                and _usable_cpus() >= 2:
            from concurrent.futures import ThreadPoolExecutor
            self.worker = ThreadPoolExecutor(max_workers=1)

    def form(self, k: int, inv_alpha: np.ndarray):
        S = self.buffers[k % 2, :len(inv_alpha)]
        if self.worker is None:
            np.matmul(inv_alpha, self.K, out=S)
            return lambda: S
        return self.worker.submit(np.matmul, inv_alpha, self.K, out=S).result

    def solve(self, S: np.ndarray, w: np.ndarray):
        from scipy.linalg.lapack import dpftrf, dpftrs

        M = w.shape[1]
        S[:, self.diag] += 1.0
        failed = None
        # s and b are views of rows of S and w: both calls work in place
        for j, (s, b) in enumerate(zip(S, w[:, :, None])):
            _, info = dpftrf(M, s, "T", "U", 1)
            if info:
                failed = j, f"dpftrf info {info}"
                break
            dpftrs(M, s, b, "T", "U", 1)
        # dpftrf passes a nan pivot, which leaves a nan on U's diagonal
        factored = S[:len(S) if failed is None else failed[0]]
        return _first_bad_pivot((factored[:, self.diag] > 0.0).T) or failed

    def close(self) -> None:
        if self.worker is not None:
            self.worker.shutdown()  # waits for a GEMM still running


def _first_bad_pivot(ok: np.ndarray):
    """(b, reason) for the first column b of ok (M x B, whether each
    factor's diagonal entry is > 0) with an entry that is not, naming
    its leading minor; None if there is none."""
    if ok.all():
        return None
    b = int(np.argmin(ok.all(axis=0)))
    return b, f"leading minor {int(np.argmin(ok[:, b])) + 1}"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _dense_draw(G: np.ndarray, c: np.ndarray, alpha_col: np.ndarray,
                z: np.ndarray) -> np.ndarray:
    """One column drawn from N(P^-1 c, P^-1), P = G + diag(alpha_col).

    Factors P = LL' under spd_factor's jitter policy and returns
    L'^-1 (L^-1 c + z) = P^-1 c + L'^-1 z, so no covariance is formed.
    Both solves call dtrtrs, the LAPACK routine solve_triangular wraps.
    """
    from scipy.linalg.lapack import dtrtrs

    chol, _ = spd_factor(G + np.diag(alpha_col))
    w, _ = dtrtrs(chol, c, lower=1)
    x, _ = dtrtrs(chol, w + z, lower=1, trans=1)
    return x


def sample_atoms(state: GibbsState, data: TrainingSet, beta: float) -> None:
    """Draw atoms sequentially from their isotropic Gaussian conditionals.

    Atom n conditions on all other atoms at their latest values through
    model._atom_sweep, with one row of M standard normals per atom.
    """
    noise = state.rng.standard_normal(state.D.shape[::-1])
    _atom_sweep(state.D, data.Y, state.X, 0.0, state.gamma, beta, noise)


def sample_alpha(state: GibbsState, cfg: ModelConfig) -> None:
    """alpha_nl ~ Gamma(a + 1/2, b + x_nl^2 / 2), independently.

    Overwrites state.alpha in place, so a caller that keeps the old
    array across this call must copy it first. Only _DRAW_CHUNK
    standard-gamma draws are held at a time.
    """
    alpha = state.alpha
    np.square(state.X, out=alpha)  # becomes the scale 1 / (b + x^2 / 2)
    alpha *= 0.5
    alpha += cfg.b
    np.reciprocal(alpha, out=alpha)
    # numpy draws gamma(k, theta) as theta * standard_gamma(k) and fills
    # its output in C order, so whole rows at a time give
    # rng.gamma(a + 1/2, scale) bit for bit
    N, L = alpha.shape
    rows = max(1, _DRAW_CHUNK // max(1, L))
    draws = np.empty((min(rows, N), L))
    for n0 in range(0, N, rows):
        chunk = alpha[n0:n0 + rows]
        drawn = draws[:len(chunk)]
        state.rng.standard_gamma(cfg.a + 0.5, out=drawn)
        chunk *= drawn
        np.maximum(chunk, _TINY, out=chunk)


def sample_gamma(state: GibbsState, data: TrainingSet,
                 cfg: ModelConfig) -> float:
    """gamma ~ Gamma(c + ML/2, d + R / 2), R = ||Y - DX||_F^2; returns R."""
    resid = state.D @ state.X  # becomes Y - DX, then its square, in place
    np.subtract(data.Y, resid, out=resid)
    sq_resid = float(np.sum(np.square(resid, out=resid)))
    shape = cfg.c + data.M * data.L / 2.0
    rate = cfg.d + 0.5 * sq_resid
    state.gamma = max(float(state.rng.gamma(shape, 1.0 / rate)), _TINY)
    return sq_resid


def run_gibbs(cfg: ModelConfig, data: TrainingSet) -> tuple[ChainTrace, GibbsState]:
    """Run the chain for cfg.iters sweeps, keeping D after each of the
    last k = parse_estimate_mode(cfg.dict_estimate_mode), the ones
    estimate_dictionary averages."""
    state = initialize_gibbs_state(cfg, data)
    trace = ChainTrace()
    k = parse_estimate_mode(cfg.dict_estimate_mode)
    for t in range(1, cfg.iters + 1):
        n_dense = sample_codes(state, data)
        sample_atoms(state, data, cfg.beta)
        sample_alpha(state, cfg)
        sq_resid = sample_gamma(state, data, cfg)
        _check_finite(state, t)
        trace.residual_per_iter.append(float(np.sqrt(sq_resid)))
        trace.gamma_per_iter.append(state.gamma)
        trace.dense_fallback_per_iter.append(n_dense)
        if t > cfg.iters - k:
            trace.kept_dicts.append(state.D.copy())
    return trace, state


def _check_finite(state: GibbsState, sweep: int) -> None:
    """Stop a diverged chain: max(nan, _TINY) is nan, so without this a
    nan would flow on through every later draw."""
    for name, value in (("gamma", state.gamma), ("D", state.D),
                        ("X", state.X)):
        if not np.all(np.isfinite(value)):
            raise NonFinite(f"sweep {sweep}: {name} is not finite")


def estimate_dictionary(trace: ChainTrace) -> np.ndarray:
    """The mean of the kept samples, the last k sweeps of a run_gibbs
    chain; a trace a caller built with none raises EmptyTrace."""
    if not trace.kept_dicts:
        raise EmptyTrace("no dictionary samples were kept")
    return np.mean(trace.kept_dicts, axis=0)
