"""Blocked Gibbs sampler over (X, D, alpha, gamma).

Each iteration draws the code columns, then the dictionary atoms one at
a time (model._atom_sweep, shared with the VB engine), then the
coefficient precisions, then the noise precision, all from their exact
conditionals. The chain is a pure function of (config, data): one
seeded generator drives every draw in a fixed order.

The code step is exact but works in the M-dimensional data space rather
than in coefficient space: D'D has rank at most M, so each column's
conditional is drawn with one M x M SPD solve (Bhattacharya, Chakraborty
& Mallick, Biometrika 2016). Each system is formed by one GEMM per block
of columns directly in LAPACK's Rectangular Full Packed (RFP) storage:
the M(M+1)/2 entries of a triangle, laid out so that the blocked level-3
dpftrf factors it in place and dpftrs solves against it (Gustavson,
Wasniewski, Dongarra & Langou, ACM TOMS 2010), in the slot order that
linalg._rfp_layout reads off LAPACK. A failed factorization raises
SingularPrecision naming the column. That solve loses about
eps * kappa_l of relative accuracy, with
kappa_l = 1 + g sum_n ||d_n||^2 / alpha_nl bounding its condition
number, so columns with kappa_l above _KAPPA_MAX are drawn by a dense
N x N Cholesky factorization instead; ChainTrace counts them per sweep.
After every sweep a non-finite gamma, D or X raises NonFinite.

When a call has more than one block, one block's GEMM holds at least
_OVERLAP_MACS multiply-adds and the process may run on at least two
CPUs, one worker thread forms block k + 1's systems while the calling
thread factors block k's. The worker runs a single np.matmul, which
releases the GIL for its whole run; scipy's LAPACK wrappers hold it, so
the per-column loop stays on the caller. It is one OS thread beyond any
the BLAS starts, it lives for one call, and every draw is bit-identical
to running the GEMMs inline.
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
# Columns per block in sample_codes. It bounds the per-block
# temporaries (normals, the RFP M x M systems) whatever L is. The
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
    one triangle is formed, in RFP storage: one GEMM per block against
    K (N x M(M+1)/2), whose row n holds phi_n phi_n' at the slots of
    _rfp_layout(M). LAPACK dpftrf factors it in place and dpftrs
    solves into w, two calls per column. The normals are drawn one row
    per column, so the stream does not depend on the block size.
    Columns with kappa_l > _KAPPA_MAX are drawn densely from their first
    N normals instead. Returns the number of such columns. A failure of
    either draw raises SingularPrecision starting "column <l>: ".

    With more than one block, _BLOCK * N * M(M+1)/2 >= _OVERLAP_MACS
    (the image-train shape, not the bench cell) and two usable CPUs, each
    block's GEMM runs on the module docstring's worker thread into one
    of two preallocated buffers; it is joined before the call returns or
    raises.
    """
    from scipy.linalg.lapack import dpftrf, dpftrs

    D, rng = state.D, state.rng
    M, N = D.shape
    root_g = np.sqrt(state.gamma)
    phi = root_g * D
    rows, cols, diag = _rfp_layout(M)
    K = np.empty((N, len(rows)))
    for k in range(0, len(rows), M):  # M slots at a time: N x M gathers
        np.multiply(phi.T[:, rows[k:k + M]], phi.T[:, cols[k:k + M]],
                    out=K[:, k:k + M])
    norms2 = np.einsum("in,in->n", phi, phi)
    blocks = [slice(l0, min(l0 + _BLOCK, data.L))
              for l0 in range(0, data.L, _BLOCK)]
    # block k's systems are formed in buffers[k % 2] while the caller
    # factors block k - 1's in the other one
    buffers = np.empty((2, blocks[0].stop, len(rows)))
    worker = None
    if len(blocks) > 1 and _BLOCK * N * len(rows) >= _OVERLAP_MACS \
            and _usable_cpus() >= 2:
        from concurrent.futures import ThreadPoolExecutor
        worker = ThreadPoolExecutor(max_workers=1)

    def form(k):
        """Block k's 1/alpha, dense columns and (pending) systems S."""
        inv_alpha = 1.0 / state.alpha[:, blocks[k]].T
        with np.errstate(over="ignore"):  # inf kappa also goes dense
            dense = np.flatnonzero(1.0 + inv_alpha @ norms2 > _KAPPA_MAX)
        # the dense draws below replace these rows; zeroing keeps S finite
        inv_alpha[dense] = 0.0
        S = buffers[k % 2, :len(inv_alpha)]
        if worker is None:
            np.matmul(inv_alpha, K, out=S)
            return inv_alpha, dense, S, None
        return inv_alpha, dense, S, worker.submit(np.matmul, inv_alpha, K,
                                                  out=S)

    G = None
    n_dense = 0
    try:
        pending = form(0)
        for k, block in enumerate(blocks):
            inv_alpha, dense, S, gemm = pending
            if gemm is not None:
                gemm.result()
            if k + 1 < len(blocks):
                pending = form(k + 1)
            l0 = block.start
            S[:, diag] += 1.0
            z = rng.standard_normal((block.stop - l0, N + M))
            u = z[:, :N] * np.sqrt(inv_alpha)
            w = root_g * data.Y[:, block].T - u @ phi.T - z[:, N:]
            # s and b are views of rows of S and w: both calls work in place
            for j, (s, b) in enumerate(zip(S, w[:, :, None])):
                _, info = dpftrf(M, s, "T", "U", 1)
                if info:
                    raise SingularPrecision(
                        f"column {l0 + j}: data-space system is not "
                        f"positive definite (dpftrf info {info})")
                dpftrs(M, s, b, "T", "U", 1)
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
        if worker is not None:
            worker.shutdown()  # waits for a GEMM still running
    return n_dense


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
