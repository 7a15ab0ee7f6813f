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
stack of Sigma_l. Each precision P = U'U is held in LAPACK's
Rectangular Full Packed (RFP) storage, in the slot order of
linalg._rfp_layout as in the Gibbs code step, and turned into its
covariance in place by dpftrf and dpftri; update_codes solves for mu_l
with dpftrs and reads log det Sigma_l off U between the two. A
precision that dpftrf rejects goes through linalg.spd_factor's jitter
policy instead.

Two dictionary updates are provided: the whole-matrix form above and a
sequential one-atom-at-a-time form whose per-atom covariance is a
scalar times the identity (the atom sweep the Gibbs engine also uses).
Both leave dict_row_cov in a shape where <D'D> = <D>'<D> + M *
dict_row_cov holds.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigParseError,
    NegativeResidual,
    NonFinite,
    SingularPrecision,
)
from .linalg import _rfp_layout, _rfp_unpack, spd_factor, spd_logdet
from .metrics import reconstruction_error
from .model import (
    ModelConfig,
    Trace,
    TrainingSet,
    VBState,
    _atom_sweep,
    initialize_vb_state,
)

LN_2PI = float(np.log(2.0 * np.pi))
# Columns per block of update_codes. It bounds the one stack of RFP
# precisions at _BLOCK * N(N+1)/2 doubles whatever L is (8.0 MiB at
# N = 256); 16 and 64 ran no faster at N = 50 or 256. The means and
# variances do not depend on it.
_BLOCK = 32
# Columns per right-hand-side GEMM of update_codes, <g> Y[:, chunk]' <D>.
# A GEMM's bits for a row can depend on how many rows it has (a single
# row goes through GEMV), so this is fixed apart from _BLOCK and a
# one-column remainder joins the last chunk. Chunks of any multiple of
# 32 gave the whole L x N product's bits at 3/4/20, 20/50/1000,
# 20/51/70, 20/50/65 and 64/256 with L up to 62 001, on one and on two
# BLAS threads.
_RHS_COLUMNS = 64


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
    x_sq = np.square(state.code_means)
    x_sq += state.code_vars
    return x_sq


def _dtd(state: VBState, DD=None) -> np.ndarray:
    """<D'D> = <D>'<D> + M dict_row_cov, symmetrized; DD is <D>'<D>."""
    D = state.dict_mean
    dtd = (D.T @ D if DD is None else DD) + D.shape[0] * state.dict_row_cov
    return 0.5 * (dtd + dtd.T)


def _x_outer(state: VBState, XX=None) -> np.ndarray:
    """<XX'> = <X><X>' + sum_l Sigma_l, symmetrized; XX is <X><X>'."""
    X = state.code_means
    x_outer = (X @ X.T if XX is None else XX) + state.code_cov_sum
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
    fit = D @ X  # becomes Y - <D><X>, then its square, in place
    np.subtract(data.Y, fit, out=fit)
    DD, XX = D.T @ D, X @ X.T
    resid = (float(np.sum(np.square(fit, out=fit)))
             + float(np.sum(_dtd(state, DD) * _x_outer(state, XX)))
             - float(np.sum(DD * XX)))
    if resid < 0.0:
        floor = -1e-8 * float(np.sum(data.Y ** 2))
        if resid < floor:
            raise NegativeResidual(
                f"expected residual {resid:.6e} below tolerance {floor:.6e}")
    return max(resid, 0.0)


def _rfp_inverses(S: np.ndarray, G: np.ndarray, diags: np.ndarray, layout,
                  label, rhs=None) -> tuple[int, float]:
    """Overwrite the (J, N(N+1)/2) stack S with the RFP images of P_j^-1,
    P_j = G + diag(diags[j]); returns (fallbacks, sum_j log det P_j).

    On entry every row of S holds G[rows, cols], (rows, cols, diag) =
    layout = _rfp_layout(N). Each P_j is factored in place by dpftrf
    (P_j = U_j'U_j) and inverted by dpftri; in between, dpftrs
    overwrites rhs[j], if given, with P_j^-1 rhs[j]. A P_j that dpftrf
    rejects is factored by spd_factor under its one-shot jitter policy
    and the factor written back; if that fails too, SingularPrecision is
    raised with label(j) in front.
    """
    from scipy.linalg.lapack import dpftrf, dpftri, dpftrs

    N = G.shape[0]
    rows, cols, diag = layout
    S[:, diag] += diags
    pivots = np.empty((len(S), N))
    fallbacks = 0
    for j, s in enumerate(S):  # s is a row view: LAPACK works in place
        if dpftrf(N, s, "T", "U", 1)[1]:
            try:
                chol, _ = spd_factor(G + np.diag(diags[j]))
            except SingularPrecision as exc:
                raise SingularPrecision(f"{label(j)}: {exc}") from exc
            s[:] = chol[cols, rows]  # U = L', off chol's lower half
            fallbacks += 1
        if rhs is not None:
            dpftrs(N, s, rhs[j, :, None], "T", "U", 1)
        pivots[j] = s[diag]
        info = dpftri(N, s, "T", "U", 1)[1]
        if info:
            raise SingularPrecision(f"{label(j)}: dpftri info {info}")
    return fallbacks, 2.0 * float(np.sum(np.log(pivots)))


def update_codes(state: VBState, data: TrainingSet) -> int:
    """Closed-form refresh of every per-column code posterior.

    Columns are independent given the dictionary moments and share the
    <g><D'D> block of their precisions. _rfp_inverses turns each block
    of _BLOCK precisions into Sigma_l in RFP storage, solving for mu_l
    and summing log det P_l = -log det Sigma_l on the way; diag Sigma_l
    is a gather at the RFP diagonal and sum_l Sigma_l a sum of the rows,
    unpacked once; no Sigma_l is formed in full. The right-hand sides
    <g> <D>' y_l are formed _RHS_COLUMNS columns at a time and solved in
    place into mu_l. Returns the number of columns whose precision took
    spd_factor's jitter path.
    """
    gamma_mean = state.gamma_shape / state.gamma_rate
    G = gamma_mean * _dtd(state)
    layout = rows, cols, diag = _rfp_layout(G.shape[0])
    packed = G[rows, cols]
    cov_sum = np.zeros_like(packed)
    logdet_sum = 0.0
    fallbacks = 0
    stack = np.empty((min(_BLOCK, data.L), len(packed)))
    edges = [*range(0, max(data.L - 1, 1), _RHS_COLUMNS), data.L]
    for c0, c1 in zip(edges, edges[1:]):
        chunk = slice(c0, c1)
        mu = gamma_mean * (data.Y[:, chunk].T @ state.dict_mean)
        for l0 in range(c0, c1, _BLOCK):
            block = slice(l0, min(l0 + _BLOCK, c1))
            S = stack[:block.stop - l0]
            S[:] = packed
            alpha_mean = state.alpha_shape / state.alpha_rates[:, block]
            count, logdet = _rfp_inverses(
                S, G, alpha_mean.T, layout, lambda j: f"column {l0 + j}",
                mu[l0 - c0:block.stop - c0])
            fallbacks += count
            logdet_sum -= logdet
            state.code_vars[:, block] = S[:, diag].T
            cov_sum += S.sum(axis=0)
        state.code_means[:, chunk] = mu.T  # solved row by row
    state.code_cov_sum = _rfp_unpack(cov_sum, layout)
    state.code_logdet_sum = logdet_sum
    return fallbacks


def update_dictionary_full(state: VBState, data: TrainingSet,
                           beta: float) -> int:
    """Whole-dictionary refresh: shared row covariance A and mean B A.

    A inverts the precision <g><XX'> + (1/beta) I (beta = inf adds
    nothing) in RFP storage. Returns 1 if that precision took
    spd_factor's jitter path, else 0.
    """
    N = state.dict_mean.shape[1]
    gamma_mean = state.gamma_shape / state.gamma_rate
    G = gamma_mean * _x_outer(state)
    layout = rows, cols, _ = _rfp_layout(N)
    S = G[rows, cols][None]
    fallbacks, _ = _rfp_inverses(S, G, np.full((1, N), 1.0 / beta), layout,
                                 lambda j: "dictionary row precision")
    A = _rfp_unpack(S[0], layout)
    B = gamma_mean * (data.Y @ state.code_means.T)
    state.dict_mean = B @ A
    state.dict_row_cov = A
    return fallbacks


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
    """q(alpha_nl) = Gamma(a + 1/2, b + <x_nl^2> / 2).

    Writes the rates into state.alpha_rates in place, so a caller that
    keeps the old array across this call must copy it first.
    """
    state.alpha_shape = cfg.a + 0.5
    rates = state.alpha_rates
    np.square(state.code_means, out=rates)
    rates += state.code_vars
    rates *= 0.5
    rates += cfg.b


def update_gamma(state: VBState, data: TrainingSet, cfg: ModelConfig) -> float:
    """q(gamma) from the expected residual, which it returns."""
    resid = expected_residual(state, data)
    state.gamma_shape = data.M * data.L / 2.0 + cfg.c
    state.gamma_rate = cfg.d + 0.5 * resid
    return resid


def _gamma_entropy(shape: float, rate) -> np.ndarray:
    from scipy.special import digamma, gammaln

    return shape - np.log(rate) + gammaln(shape) + (1.0 - shape) * digamma(shape)


def compute_elbo(state: VBState, data: TrainingSet, cfg: ModelConfig,
                 resid: float | None = None) -> float:
    """Evidence lower bound E_q[ln p(Y,X,D,alpha,gamma)] - E_q[ln q].

    resid is expected_residual(state, data), as update_gamma returns it;
    without it the bound forms it. With beta = inf the flat dictionary
    prior contributes only an additive constant, which is dropped; the
    remaining terms are still monotone under the coordinate updates.
    """
    from scipy.special import digamma, gammaln

    M, L = data.M, data.L
    N = state.dict_mean.shape[1]
    a, b, c, d = cfg.a, cfg.b, cfg.c, cfg.d

    e_ln_gamma = float(digamma(state.gamma_shape) - np.log(state.gamma_rate))
    e_gamma = state.gamma_shape / state.gamma_rate
    lik = 0.5 * M * L * (e_ln_gamma - LN_2PI) \
        - 0.5 * e_gamma * (expected_residual(state, data) if resid is None
                           else resid)

    # one N x L buffer holds in turn ln rates, E[ln alpha], <alpha> and
    # <alpha> <x^2>; only the sums over the whole array are kept
    buf = np.log(state.alpha_rates)
    sum_ln_rates = float(np.sum(buf))
    np.subtract(digamma(state.alpha_shape), buf, out=buf)
    sum_e_ln_alpha = float(np.sum(buf))
    np.divide(state.alpha_shape, state.alpha_rates, out=buf)
    sum_e_alpha = float(np.sum(buf))
    buf *= code_second_moments(state)
    sum_e_alpha_x_sq = float(np.sum(buf))

    lp_x = 0.5 * sum_e_ln_alpha - 0.5 * N * L * LN_2PI \
        - 0.5 * sum_e_alpha_x_sq
    lp_alpha = N * L * (a * np.log(b) - gammaln(a)) \
        + (a - 1.0) * sum_e_ln_alpha - b * sum_e_alpha
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
        - sum_ln_rates
    h_gamma = float(_gamma_entropy(state.gamma_shape, state.gamma_rate))

    elbo = lik + lp_x + lp_alpha + lp_d + lp_gamma \
        + h_x + h_d + h_alpha + h_gamma
    if not np.isfinite(elbo):
        parts = dict(lik=lik, lp_x=lp_x, lp_alpha=lp_alpha, lp_d=lp_d,
                     lp_gamma=lp_gamma, h_x=h_x, h_d=h_d, h_alpha=h_alpha,
                     h_gamma=h_gamma)
        raise NonFinite(f"non-finite bound, terms: {parts}")
    return float(elbo)


def run_vb(cfg: ModelConfig, data: TrainingSet,
           variant: str = "full") -> tuple[VBState, Trace]:
    """Coordinate ascent until the dictionary stabilizes or the budget ends.

    variant selects the dictionary update: "full" refreshes the whole
    matrix jointly, "atomwise" sweeps atoms sequentially. Stopping is
    cfg.iters sweeps or relative Frobenius change of <D> below cfg.tol;
    hitting the budget is normal, left in trace.results as converged=False.
    """
    if variant not in ("full", "atomwise"):
        raise ConfigParseError(f"unknown variant {variant!r}")
    state = initialize_vb_state(cfg, data)
    trace = Trace()
    n_codes = n_dict = 0
    converged = False
    for _ in range(cfg.iters):
        d_prev = state.dict_mean.copy()
        n_codes += update_codes(state, data)
        if variant == "full":
            n_dict += update_dictionary_full(state, data, cfg.beta)
        else:
            update_dictionary_atomwise(state, data, cfg.beta)
        update_alpha(state, cfg)
        resid = update_gamma(state, data, cfg)
        elbo = compute_elbo(state, data, cfg, resid)
        denom = float(np.linalg.norm(d_prev)) or 1.0
        change = float(np.linalg.norm(state.dict_mean - d_prev)) / denom
        trace.record(elbo=elbo, dict_change=change)
        if change < cfg.tol:
            converged = True
            break
    trace.results.update(
        converged=converged,
        elbo_final=trace.columns["elbo"][-1],
        final_residual=reconstruction_error(data.Y, state.dict_mean,
                                            state.code_means),
        jitter_fallback_columns=n_codes,
        jitter_fallback_dictionary=n_dict,
    )
    return state, trace
