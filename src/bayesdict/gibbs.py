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
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpftrf, dpftrs

from .errors import (
    EmptyTrace,
    NonFinite,
    SingularPrecision,
    TailLargerThanTrace,
)
from .linalg import _rfp_layout, spd_factor
from .model import (
    GibbsState,
    ModelConfig,
    TrainingSet,
    _atom_sweep,
    initialize_gibbs_state,
    parse_estimate_mode,
    validate_config,
)

# a Python float, so a gamma clamped to it is written as a plain number
_TINY = float(np.finfo(np.float64).tiny)
# Columns per block in sample_codes. It bounds the per-block
# temporaries (normals, the RFP M x M systems) whatever L is; the
# draws do not depend on it.
_BLOCK = 64
# kappa_l above this sends a column to the dense draw: the data-space
# mean's relative error grows like eps * kappa_l (1e-11 at kappa 1e5,
# 1e-7 at 1e9 against a high-precision reference).
_KAPPA_MAX = 1e6


@dataclass
class ChainTrace:
    """Kept dictionary samples plus per-iteration diagnostics."""

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
    """
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
    G = None
    n_dense = 0
    for l0 in range(0, data.L, _BLOCK):
        block = slice(l0, min(l0 + _BLOCK, data.L))
        z = rng.standard_normal((block.stop - l0, N + M))
        inv_alpha = 1.0 / state.alpha[:, block].T
        u = z[:, :N] * np.sqrt(inv_alpha)
        with np.errstate(over="ignore"):  # inf kappa also goes dense
            dense = np.flatnonzero(1.0 + inv_alpha @ norms2 > _KAPPA_MAX)
        # the dense draws below replace these rows; zeroing keeps S finite
        inv_alpha[dense] = 0.0
        S = inv_alpha @ K
        S[:, diag] += 1.0
        w = root_g * data.Y[:, block].T - u @ phi.T - z[:, N:]
        # s and b are views of rows of S and w: both calls work in place
        for j, (s, b) in enumerate(zip(S, w[:, :, None])):
            _, info = dpftrf(M, s, "T", "U", 1)
            if info:
                raise SingularPrecision(
                    f"column {l0 + j}: data-space system is not positive "
                    f"definite (dpftrf info {info})")
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
                    raise SingularPrecision(f"column {l0 + j}: {exc}") from exc
            n_dense += dense.size
    return n_dense


def _dense_draw(G: np.ndarray, c: np.ndarray, alpha_col: np.ndarray,
                z: np.ndarray) -> np.ndarray:
    """One column drawn from N(P^-1 c, P^-1), P = G + diag(alpha_col).

    Factors P = LL' under spd_factor's jitter policy and returns
    L'^-1 (L^-1 c + z) = P^-1 c + L'^-1 z, so no covariance is formed.
    """
    P = G.copy()
    P[np.diag_indices_from(P)] += alpha_col
    (chol, _), _ = spd_factor(P)
    w = scipy.linalg.solve_triangular(chol, c, lower=True, check_finite=False)
    return scipy.linalg.solve_triangular(chol, w + z, lower=True, trans=1,
                                         check_finite=False)


def sample_atoms(state: GibbsState, data: TrainingSet, beta: float) -> None:
    """Draw atoms sequentially from their isotropic Gaussian conditionals.

    Atom n conditions on all other atoms at their latest values through
    model._atom_sweep, with one row of M standard normals per atom.
    """
    noise = state.rng.standard_normal(state.D.shape[::-1])
    _atom_sweep(state.D, data.Y, state.X, 0.0, state.gamma, beta, noise)


def sample_alpha(state: GibbsState, cfg: ModelConfig) -> None:
    """alpha_nl ~ Gamma(a + 1/2, b + x_nl^2 / 2), independently."""
    scale = np.square(state.X)  # one N x L buffer: 1 / (b + x^2 / 2)
    scale *= 0.5
    scale += cfg.b
    np.reciprocal(scale, out=scale)
    # numpy draws gamma(k, theta) as theta * standard_gamma(k), so this is
    # rng.gamma(a + 1/2, scale) bit for bit, without its broadcast over scale
    draws = state.rng.standard_gamma(cfg.a + 0.5, scale.shape)
    draws *= scale
    state.alpha = np.maximum(draws, _TINY, out=draws)


def sample_gamma(state: GibbsState, data: TrainingSet,
                 cfg: ModelConfig) -> float:
    """gamma ~ Gamma(c + ML/2, d + R / 2), R = ||Y - DX||_F^2; returns R."""
    resid = data.Y - state.D @ state.X
    sq_resid = float(np.sum(resid * resid))
    shape = cfg.c + data.M * data.L / 2.0
    rate = cfg.d + 0.5 * sq_resid
    state.gamma = max(float(state.rng.gamma(shape, 1.0 / rate)), _TINY)
    return sq_resid


def run_gibbs(cfg: ModelConfig, data: TrainingSet) -> tuple[ChainTrace, GibbsState]:
    """Run the chain for max_iters sweeps, keeping dictionaries after burn-in.

    With thinning k, every k-th post-burn-in sample is kept, starting
    with the first one.
    """
    validate_config(cfg, data)
    state = initialize_gibbs_state(cfg, data)
    trace = ChainTrace()
    for t in range(1, cfg.max_iters + 1):
        n_dense = sample_codes(state, data)
        sample_atoms(state, data, cfg.beta)
        sample_alpha(state, cfg)
        sq_resid = sample_gamma(state, data, cfg)
        _check_finite(state, t)
        trace.residual_per_iter.append(float(np.sqrt(sq_resid)))
        trace.gamma_per_iter.append(state.gamma)
        trace.dense_fallback_per_iter.append(n_dense)
        if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0:
            trace.kept_dicts.append(state.D.copy())
    return trace, state


def _check_finite(state: GibbsState, sweep: int) -> None:
    """Stop a diverged chain: max(nan, _TINY) is nan, so without this a
    nan would flow on through every later draw."""
    for name, value in (("gamma", state.gamma), ("D", state.D),
                        ("X", state.X)):
        if not np.all(np.isfinite(value)):
            raise NonFinite(f"sweep {sweep}: {name} is not finite")


def estimate_dictionary(trace: ChainTrace, mode: str) -> np.ndarray:
    """Point estimate from the kept samples: last one, or a tail average."""
    kind, k = parse_estimate_mode(mode)
    if not trace.kept_dicts:
        raise EmptyTrace("no dictionary samples were kept")
    if kind == "last_sample":
        return trace.kept_dicts[-1].copy()
    if k > len(trace.kept_dicts):
        raise TailLargerThanTrace(
            f"average_tail({k}) needs {k} samples, trace holds "
            f"{len(trace.kept_dicts)}")
    tail = np.stack(trace.kept_dicts[-k:])
    return tail.mean(axis=0)
