"""Blocked Gibbs sampler over (X, D, alpha, gamma).

Each iteration draws the code columns, then the dictionary atoms one at
a time against a running residual, then the coefficient precisions, then
the noise precision, all from their exact conditionals. The chain is a
pure function of (config, data): one seeded generator drives every draw
in a fixed order.

The code step is exact but works in the M-dimensional data space rather
than in coefficient space: D'D has rank at most M, so each column's
conditional is drawn with one M x M solve (Bhattacharya, Chakraborty &
Mallick, Biometrika 2016), batched over blocks of columns. That solve
loses about eps * kappa_l of relative accuracy, with
kappa_l = 1 + g sum_n ||d_n||^2 / alpha_nl bounding its condition
number, so columns with kappa_l above _KAPPA_MAX are drawn by a dense
N x N Cholesky factorization instead; ChainTrace counts them per sweep.
After every sweep a non-finite gamma, D or X raises NonFinite.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    EmptyTrace,
    NonFinite,
    SingularPrecision,
    TailLargerThanTrace,
)
from .linalg import spd_factor, spd_solve
from .model import (
    GibbsState,
    ModelConfig,
    TrainingSet,
    initialize_gibbs_state,
    parse_estimate_mode,
    validate_config,
)

_TINY = np.finfo(np.float64).tiny
# Columns per batched data-space solve in sample_codes. It bounds the
# per-block temporaries (normals, the M x M systems) whatever L is; the
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
    (I_M + phi A_l^-1 phi') w = sqrt(g) y_l - phi u - delta and returns
    u + A_l^-1 phi' w, an exact draw. The normals are drawn one row per
    column, so the stream does not depend on the block size. Columns
    with kappa_l > _KAPPA_MAX are drawn densely from their first N
    normals instead. Returns the number of such columns.
    """
    D, rng = state.D, state.rng
    M, N = D.shape
    root_g = np.sqrt(state.gamma)
    phi = root_g * D
    # K[n] = vec(phi_n phi_n'), so (1/alpha_l)' K = vec(phi A_l^-1 phi')
    K = np.einsum("in,jn->nij", phi, phi).reshape(N, M * M)
    norms2 = np.einsum("in,in->n", phi, phi)
    G = None
    n_dense = 0
    for l0 in range(0, data.L, _BLOCK):
        cols = slice(l0, min(l0 + _BLOCK, data.L))
        z = rng.standard_normal((cols.stop - l0, N + M))
        inv_alpha = 1.0 / state.alpha[:, cols].T
        u = z[:, :N] * np.sqrt(inv_alpha)
        with np.errstate(over="ignore"):  # inf kappa also goes dense
            dense = np.flatnonzero(1.0 + inv_alpha @ norms2 > _KAPPA_MAX)
        # the dense draws below replace these rows; zeroing keeps S finite
        inv_alpha[dense] = 0.0
        S = inv_alpha @ K
        S[:, ::M + 1] += 1.0
        rhs = root_g * data.Y[:, cols].T - u @ phi.T - z[:, N:]
        w = np.linalg.solve(S.reshape(-1, M, M), rhs[:, :, np.newaxis])
        state.X[:, cols] = (u + inv_alpha * (w[:, :, 0] @ phi)).T
        if dense.size:
            if G is None:
                G = state.gamma * (D.T @ D)
            for j in dense:
                state.X[:, l0 + j] = _dense_draw(
                    G, state.gamma * (D.T @ data.Y[:, l0 + j]),
                    state.alpha[:, l0 + j], z[j, :N])
            n_dense += dense.size
    return n_dense


def _dense_draw(G: np.ndarray, c: np.ndarray, alpha_col: np.ndarray,
                z: np.ndarray) -> np.ndarray:
    """One column drawn from N(P^-1 c, P^-1), P = G + diag(alpha_col).

    Factors P = R'R (R the upper Cholesky factor) under spd_factor's
    jitter policy and returns P^-1 c + R^-1 z, so no covariance is
    formed.
    """
    P = G.copy()
    P[np.diag_indices_from(P)] += alpha_col
    (chol, _), _ = spd_factor(P)
    mean = spd_solve((chol, True), c)
    return mean + scipy.linalg.solve_triangular(
        chol, z, lower=True, trans=1, check_finite=False)


def sample_atoms(state: GibbsState, data: TrainingSet, beta: float) -> None:
    """Draw atoms sequentially from their isotropic Gaussian conditionals.

    Atom n conditions on all other atoms at their latest values through
    the deflated data Y^-n = Y - D^-n X, maintained as a running
    residual R = Y - DX with rank-1 corrections as each atom changes.
    """
    inv_beta = 0.0 if np.isinf(beta) else 1.0 / beta
    gamma, rng = state.gamma, state.rng
    M, N = state.D.shape
    R = data.Y - state.D @ state.X
    for n in range(N):
        xn = state.X[n, :]
        Rn = R + np.outer(state.D[:, n], xn)
        prec = gamma * float(xn @ xn) + inv_beta
        if prec <= 0:
            raise SingularPrecision(
                f"atom {n}: nonpositive scalar precision {prec:g}")
        var = 1.0 / prec
        mu = (gamma * var) * (Rn @ xn)
        d_new = mu + np.sqrt(var) * rng.standard_normal(M)
        state.D[:, n] = d_new
        R = Rn - np.outer(d_new, xn)


def sample_alpha(state: GibbsState, cfg: ModelConfig) -> None:
    """alpha_nl ~ Gamma(a + 1/2, b + x_nl^2 / 2), independently."""
    rates = cfg.b + 0.5 * state.X ** 2
    draws = state.rng.gamma(cfg.a + 0.5, 1.0 / rates)
    state.alpha = np.maximum(draws, _TINY)


def sample_gamma(state: GibbsState, data: TrainingSet,
                 cfg: ModelConfig) -> None:
    """gamma ~ Gamma(c + ML/2, d + ||Y - DX||_F^2 / 2)."""
    resid = data.Y - state.D @ state.X
    shape = cfg.c + data.M * data.L / 2.0
    rate = cfg.d + 0.5 * float(np.sum(resid * resid))
    state.gamma = max(float(state.rng.gamma(shape, 1.0 / rate)), _TINY)


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
        sample_gamma(state, data, cfg)
        _check_finite(state, t)
        resid = data.Y - state.D @ state.X
        trace.residual_per_iter.append(float(np.linalg.norm(resid)))
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
