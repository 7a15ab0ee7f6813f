"""Mean-field variational inference engine.

The posterior over (X, D, alpha, gamma) is approximated by a factorized
q optimized by coordinate ascent, one factor at a time, in the fixed
order codes -> dictionary -> alpha -> gamma. Each update has the usual
conjugate closed form:

  q(x_l)   = N(mu_l, Sigma_l),  Sigma_l = (<g> <D'D> + diag<alpha_l>)^-1,
                                mu_l    = <g> Sigma_l <D>' y_l
  q(D) rows ~ N(b_m A, A),      A = (<g> <XX'> + (1/beta) I)^-1,
                                B = <g> Y <X>'
  q(alpha_nl) = Gamma(a + 1/2, b + <x_nl^2>/2)
  q(gamma)    = Gamma(ML/2 + c, d + <||Y - DX||_F^2>/2)

where <g> is the current noise-precision mean. The expected residual
uses the exact second-moment expansion, not a plug-in of the means.

The other updates read q(X) only through diag(Sigma_l) (for <x_nl^2>),
sum_l Sigma_l (for <XX'>) and sum_l log det Sigma_l (for the entropy),
so the state keeps those three reductions instead of the L x N x N
stack of Sigma_l. update_codes reduces them, a block of columns at a
time, from the inverse Cholesky factor R_l = L_l^-1 of each column's
precision P_l = L_l L_l' (LAPACK potrf, then trtri), since
Sigma_l = R_l' R_l; update_dictionary_full takes A the same way. A
precision that potrf rejects goes through linalg.spd_factor's jitter
policy instead.

Two dictionary updates are provided: the whole-matrix form above and a
sequential one-atom-at-a-time form whose per-atom covariance is a
scalar times the identity (the atom sweep the Gibbs engine also uses).
Both leave dict_row_cov in a shape where <D'D> = <D>'<D> + M *
dict_row_cov holds.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.special import digamma, gammaln

from .errors import NegativeResidual, NonFinite, SingularPrecision
from .linalg import spd_factor, spd_logdet
from .model import (
    ModelConfig,
    TrainingSet,
    VBState,
    _atom_sweep,
    initialize_vb_state,
    validate_config,
)

LN_2PI = float(np.log(2.0 * np.pi))
# Columns per block of update_codes. It bounds the one stack of N x N
# inverse factors at _BLOCK * N^2 doubles whatever L is (16 MiB at
# N = 256); larger blocks bought no speed at N = 50 or 256 and only
# raised peak memory. The means and variances do not depend on it.
_BLOCK = 32


@dataclass
class VBMoments:
    """Posterior expectations consumed by the coordinate updates.

    x_mean (N,L), x_outer (N,N) = <XX'>, x_sq (N,L) = <x_nl^2>,
    d_mean (M,N), dtd (N,N) = <D'D>, gamma_mean, alpha_mean (N,L).
    """

    x_mean: np.ndarray
    x_outer: np.ndarray
    x_sq: np.ndarray
    d_mean: np.ndarray
    dtd: np.ndarray
    gamma_mean: float
    alpha_mean: np.ndarray


def code_second_moments(state: VBState) -> np.ndarray:
    """<x_nl^2> = mu_nl^2 + Sigma_l[n,n], as an (N, L) matrix."""
    return state.code_means ** 2 + state.code_vars


def _dtd(state: VBState) -> np.ndarray:
    """<D'D> = <D>'<D> + M dict_row_cov, symmetrized."""
    M = state.dict_mean.shape[0]
    dtd = state.dict_mean.T @ state.dict_mean + M * state.dict_row_cov
    return 0.5 * (dtd + dtd.T)


def _x_outer(state: VBState) -> np.ndarray:
    """<XX'> = <X><X>' + sum_l Sigma_l, symmetrized."""
    x_mean = state.code_means
    x_outer = x_mean @ x_mean.T + state.code_cov_sum
    return 0.5 * (x_outer + x_outer.T)


def moments_from_state(state: VBState) -> VBMoments:
    """Every expectation at once; the updates form only those they read."""
    return VBMoments(
        x_mean=state.code_means,
        x_outer=_x_outer(state),
        x_sq=code_second_moments(state),
        d_mean=state.dict_mean,
        dtd=_dtd(state),
        gamma_mean=state.gamma_shape / state.gamma_rate,
        alpha_mean=state.alpha_shape / state.alpha_rates,
    )


def expected_residual(state: VBState, data: TrainingSet) -> float:
    """<||Y - DX||_F^2> under the factorized posterior.

    Expands to ||Y - <D><X>||_F^2 + tr{<D'D><XX'>} - tr{<D>'<D><X><X>'}
    so the covariance contributions of both factors enter exactly.
    Tiny negative values from cancellation are clamped to zero; a
    materially negative value means the moments are inconsistent.
    """
    D, X = state.dict_mean, state.code_means
    fit = data.Y - D @ X
    resid = (float(np.sum(fit * fit))
             + float(np.sum(_dtd(state) * _x_outer(state)))
             - float(np.sum((D.T @ D) * (X @ X.T))))
    floor = -1e-8 * float(np.sum(data.Y ** 2))
    if resid < floor:
        raise NegativeResidual(
            f"expected residual {resid:.6e} below tolerance {floor:.6e}")
    return max(resid, 0.0)


def _inverse_factors(R: np.ndarray, G: np.ndarray, diags: np.ndarray,
                     label) -> int:
    """Overwrite the (J, N, N) stack R with inverse Cholesky factors.

    R[j] becomes L_j^-1, lower triangular, where P_j = G + diag(diags[j])
    = L_j L_j', so P_j^-1 = R[j]' R[j]. Each P_j is factored in place by
    LAPACK potrf and inverted by trtri; a P_j that potrf rejects is
    factored by spd_factor under its one-shot jitter policy instead.
    Returns how many took that path. If it fails too, SingularPrecision
    is raised with label(j) in front of its message.
    """
    N = G.shape[0]
    rows = np.arange(N)
    R[:] = G
    R[:, rows, rows] += diags
    fallbacks = 0
    for j, r in enumerate(R):
        # r.T is the Fortran-ordered view, so LAPACK writes r in place;
        # its upper factor U = L' is the lower factor L of r itself.
        _, info = dpotrf(r.T, lower=0, clean=1, overwrite_a=1)
        if info != 0:
            P = G.copy()
            P[rows, rows] += diags[j]
            try:
                (chol, _), _ = spd_factor(P)
            except SingularPrecision as exc:
                raise SingularPrecision(f"{label(j)}: {exc}") from exc
            r[:] = np.tril(chol)
            fallbacks += 1
        dtrtri(r.T, lower=0, overwrite_c=1)
    return fallbacks


def update_codes(state: VBState, data: TrainingSet) -> int:
    """Closed-form refresh of every per-column code posterior.

    Columns are independent given the dictionary moments and share the
    <g><D'D> block of their precisions. Blocks of _BLOCK columns are
    reduced from their inverse Cholesky factors R_l (Sigma_l = R_l'R_l):
    mu_l = R_l'(R_l c_l), diag Sigma_l as the column sums of R_l^2, the
    block's share of sum_l Sigma_l as W'W with W the R_l stacked, and
    log det Sigma_l = 2 sum log diag R_l; no Sigma_l is formed. Returns
    the number of columns whose precision took spd_factor's jitter path.
    """
    gamma_mean = state.gamma_shape / state.gamma_rate
    alpha_mean = state.alpha_shape / state.alpha_rates
    G = gamma_mean * _dtd(state)
    C = gamma_mean * (state.dict_mean.T @ data.Y)
    N = G.shape[0]
    cov_sum = np.zeros((N, N))
    logdet_sum = 0.0
    fallbacks = 0
    stack = np.empty((min(_BLOCK, data.L), N, N))
    for l0 in range(0, data.L, _BLOCK):
        cols = slice(l0, min(l0 + _BLOCK, data.L))
        R = stack[:cols.stop - l0]
        fallbacks += _inverse_factors(R, G, alpha_mean[:, cols].T,
                                      lambda j: f"column {l0 + j}")
        Rc = R @ C[:, cols].T[:, :, np.newaxis]
        state.code_means[:, cols] = (R.transpose(0, 2, 1) @ Rc)[:, :, 0].T
        state.code_vars[:, cols] = np.einsum("jkn,jkn->nj", R, R)
        W = R.reshape(-1, N)
        cov_sum += W.T @ W
        logdet_sum += 2.0 * float(np.sum(np.log(
            np.diagonal(R, axis1=1, axis2=2))))
    state.code_cov_sum = cov_sum
    state.code_logdet_sum = logdet_sum
    return fallbacks


def update_dictionary_full(state: VBState, data: TrainingSet,
                           beta: float) -> None:
    """Whole-dictionary refresh: shared row covariance A and mean B A.

    A = R'R from the inverse Cholesky factor R of its precision
    <g><XX'> + (1/beta) I (beta = inf adds nothing).
    """
    N = state.dict_mean.shape[1]
    gamma_mean = state.gamma_shape / state.gamma_rate
    R = np.empty((1, N, N))
    _inverse_factors(R, gamma_mean * _x_outer(state),
                     np.full((1, N), 1.0 / beta),
                     lambda j: "dictionary row precision")
    A = R[0].T @ R[0]
    B = gamma_mean * (data.Y @ state.code_means.T)
    state.dict_mean = B @ A
    state.dict_row_cov = A


def update_dictionary_atomwise(state: VBState, data: TrainingSet,
                               beta: float) -> None:
    """Sequential per-atom refresh using the latest values of other atoms.

    Atom n sees the deflated data Y - <D^-n><X> (model._atom_sweep, no
    noise). Its posterior is isotropic: variance (<g> <x_n. x_n.'> +
    1/beta)^-1 on every entry, <x_n. x_n.'> including sum_l Sigma_l[n,n].
    The shared row covariance becomes diag of these scalars.
    """
    var = _atom_sweep(state.dict_mean, data.Y, state.code_means,
                      state.code_vars.sum(axis=1),
                      state.gamma_shape / state.gamma_rate, beta)
    state.dict_row_cov = np.diag(var)


def update_alpha(state: VBState, cfg: ModelConfig) -> None:
    state.alpha_shape = cfg.a + 0.5
    state.alpha_rates = cfg.b + 0.5 * code_second_moments(state)


def update_gamma(state: VBState, data: TrainingSet, cfg: ModelConfig) -> None:
    state.gamma_shape = data.M * data.L / 2.0 + cfg.c
    state.gamma_rate = cfg.d + 0.5 * expected_residual(state, data)


def _gamma_entropy(shape: float, rate) -> np.ndarray:
    return shape - np.log(rate) + gammaln(shape) + (1.0 - shape) * digamma(shape)


def compute_elbo(state: VBState, data: TrainingSet, cfg: ModelConfig) -> float:
    """Evidence lower bound E_q[ln p(Y,X,D,alpha,gamma)] - E_q[ln q].

    With beta = inf the flat dictionary prior contributes only an
    additive constant, which is dropped; the remaining terms are still
    monotone under the coordinate updates.
    """
    M, L = data.M, data.L
    N = state.dict_mean.shape[1]
    a, b, c, d = cfg.a, cfg.b, cfg.c, cfg.d

    e_ln_gamma = float(digamma(state.gamma_shape) - np.log(state.gamma_rate))
    e_gamma = state.gamma_shape / state.gamma_rate
    e_ln_alpha = digamma(state.alpha_shape) - np.log(state.alpha_rates)
    e_alpha = state.alpha_shape / state.alpha_rates
    x_sq = code_second_moments(state)

    lik = 0.5 * M * L * (e_ln_gamma - LN_2PI) \
        - 0.5 * e_gamma * expected_residual(state, data)
    lp_x = 0.5 * float(np.sum(e_ln_alpha)) - 0.5 * N * L * LN_2PI \
        - 0.5 * float(np.sum(e_alpha * x_sq))
    lp_alpha = N * L * (a * np.log(b) - gammaln(a)) \
        + (a - 1.0) * float(np.sum(e_ln_alpha)) - b * float(np.sum(e_alpha))
    if np.isfinite(cfg.beta):
        tr_dtd = float(np.sum(state.dict_mean ** 2)) \
            + M * float(np.trace(state.dict_row_cov))
        lp_d = -0.5 * M * N * (LN_2PI + np.log(cfg.beta)) \
            - 0.5 * tr_dtd / cfg.beta
    else:
        lp_d = 0.0
    lp_gamma = c * np.log(d) - gammaln(c) + (c - 1.0) * e_ln_gamma \
        - d * e_gamma

    h_x = 0.5 * N * L * (1.0 + LN_2PI) + 0.5 * state.code_logdet_sum
    h_d = 0.5 * M * N * (1.0 + LN_2PI) + 0.5 * M * spd_logdet(state.dict_row_cov)
    h_alpha = N * L * float(_gamma_entropy(state.alpha_shape, 1.0)) \
        - float(np.sum(np.log(state.alpha_rates)))
    h_gamma = float(_gamma_entropy(state.gamma_shape, state.gamma_rate))

    elbo = lik + lp_x + lp_alpha + lp_d + lp_gamma \
        + h_x + h_d + h_alpha + h_gamma
    if not np.isfinite(elbo):
        parts = dict(lik=lik, lp_x=lp_x, lp_alpha=lp_alpha, lp_d=lp_d,
                     lp_gamma=lp_gamma, h_x=h_x, h_d=h_d, h_alpha=h_alpha,
                     h_gamma=h_gamma)
        raise NonFinite(f"non-finite bound, terms: {parts}")
    return float(elbo)


@dataclass
class VBTrace:
    """Per-sweep diagnostics from run_vb."""

    elbo: list = field(default_factory=list)
    dict_change: list = field(default_factory=list)
    jitter_fallback_per_iter: list = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False


def run_vb(cfg: ModelConfig, data: TrainingSet,
           variant: str = "full") -> tuple[VBState, VBTrace]:
    """Coordinate ascent until the dictionary stabilizes or the budget ends.

    variant selects the dictionary update: "full" refreshes the whole
    matrix jointly, "atomwise" sweeps atoms sequentially. Stopping is
    max_iters or relative Frobenius change of <D> below cfg.tol; hitting
    the budget is a normal outcome, left on the trace as converged=False.
    """
    if variant not in ("full", "atomwise"):
        raise ValueError(f"unknown variant {variant!r}")
    validate_config(cfg, data)
    state = initialize_vb_state(cfg, data)
    trace = VBTrace()
    for sweep in range(cfg.max_iters):
        d_prev = state.dict_mean.copy()
        trace.jitter_fallback_per_iter.append(update_codes(state, data))
        if variant == "full":
            update_dictionary_full(state, data, cfg.beta)
        else:
            update_dictionary_atomwise(state, data, cfg.beta)
        update_alpha(state, cfg)
        update_gamma(state, data, cfg)
        trace.elbo.append(compute_elbo(state, data, cfg))
        denom = float(np.linalg.norm(d_prev)) or 1.0
        change = float(np.linalg.norm(state.dict_mean - d_prev)) / denom
        trace.dict_change.append(change)
        trace.iterations_run = sweep + 1
        if change < cfg.tol:
            trace.converged = True
            break
    return state, trace
