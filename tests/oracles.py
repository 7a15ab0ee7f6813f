"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the dumb way: dense inverses via
numpy.linalg.inv, residuals recomputed from scratch, expectations by
Monte Carlo or numerical quadrature through scipy.stats. None of it
shares code with the package, so agreement is evidence rather than
tautology.
"""

import numpy as np
import scipy.linalg
from scipy import stats
from scipy.special import gammaln


# ---------------------------------------------------------------------------
# deterministic mean-field updates, dense form


def code_posterior_dense(d_mean, dtd, alpha_col, gamma_mean, y):
    """Optimal q(x_l) = N(mu, Sigma) for one signal column, by dense inverse."""
    P = gamma_mean * dtd + np.diag(alpha_col)
    Sigma = np.linalg.inv(P)
    mu = gamma_mean * (Sigma @ (d_mean.T @ y))
    return mu, Sigma


def dict_posterior_dense(Y, x_mean, x_outer, gamma_mean, beta):
    """Optimal q(D) row family: mean and shared row covariance, dense."""
    N = x_outer.shape[0]
    P = gamma_mean * x_outer
    if np.isfinite(beta):
        P = P + np.eye(N) / beta
    A = np.linalg.inv(P)
    D_mean = gamma_mean * (Y @ x_mean.T) @ A
    return D_mean, A


def mc_expected_residual(Y, x_mean, code_covs, d_mean, dict_row_cov,
                         n_draws, seed):
    """E||Y - D X||_F^2 under the factorized posterior, by sampling.

    Returns (estimate, standard_error). X columns and D rows are drawn
    independently per the mean-field factorization.
    """
    rng = np.random.default_rng(seed)
    M, L = Y.shape
    N = d_mean.shape[1]
    chol_rows = np.linalg.cholesky(dict_row_cov)
    chol_cols = [np.linalg.cholesky(code_covs[l]) for l in range(L)]
    vals = np.empty(n_draws)
    for t in range(n_draws):
        D = d_mean + rng.standard_normal((M, N)) @ chol_rows.T
        X = np.empty((N, L))
        for l in range(L):
            X[:, l] = x_mean[:, l] + chol_cols[l] @ rng.standard_normal(N)
        R = Y - D @ X
        vals[t] = np.sum(R * R)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_draws))


def gamma_posterior_grid_gap(shape, rate, log_unnorm, grid):
    """Sup-norm gap between Gamma(shape, rate) and a normalized density.

    log_unnorm maps the grid to the log of an unnormalized density; both
    densities are normalized by trapezoid rule on the grid before
    comparison, so the check is independent of any constant offset.
    """
    lu = log_unnorm(grid)
    lu = lu - lu.max()
    unnorm = np.exp(lu)
    ref = unnorm / np.trapezoid(unnorm, grid)
    gam = stats.gamma.pdf(grid, a=shape, scale=1.0 / rate)
    gam = gam / np.trapezoid(gam, grid)
    return float(np.max(np.abs(ref - gam))), float(np.max(ref))


# ---------------------------------------------------------------------------
# Gibbs conditionals, analytic moments and an independent kernel


def code_conditional_moments(D, alpha_col, gamma, y):
    """Exact mean/covariance of x_l | D, alpha_l, gamma, y_l."""
    P = gamma * (D.T @ D) + np.diag(alpha_col)
    Sigma = np.linalg.inv(P)
    mean = gamma * (Sigma @ (D.T @ y))
    return mean, Sigma


def sample_codes_dense(state, data, normals=None):
    """Per-column coefficient-space draw of every code column.

    Column l factors its own N x N precision P = g D'D + diag(alpha_l) and
    returns P^-1 g D'y_l + L^-T z_l, L the lower Cholesky factor. normals
    (N x L) supplies z; without it each column draws N fresh normals from
    state.rng, in column order.
    """
    D, gamma = state.D, state.gamma
    N = D.shape[1]
    G = gamma * (D.T @ D)
    for l in range(data.L):
        P = G + np.diag(state.alpha[:, l])
        chol = scipy.linalg.cholesky(P, lower=True)
        mean = scipy.linalg.cho_solve((chol, True),
                                      gamma * (D.T @ data.Y[:, l]))
        z = state.rng.standard_normal(N) if normals is None else normals[:, l]
        state.X[:, l] = mean + scipy.linalg.solve_triangular(
            chol, z, lower=True, trans=1)


def atom_conditional_moments(D, X, Y, gamma, beta, n):
    """Exact mean and scalar variance of d_n | D_{-n}, X, gamma, Y."""
    deflated = Y - D @ X + np.outer(D[:, n], X[n, :])
    xn = X[n, :]
    inv_beta = 0.0 if np.isinf(beta) else 1.0 / beta
    prec = gamma * float(xn @ xn) + inv_beta
    var = 1.0 / prec
    mean = gamma * var * (deflated @ xn)
    return mean, var


def atoms_sweep_independent(D0, X, Y, gamma, beta, rng):
    """One full sequential atom sweep, residual recomputed from scratch.

    Mirrors the sampler's conditional structure but shares no code with
    it: each atom's deflated data is rebuilt by an explicit sum over the
    other atoms at their current values.
    """
    D = D0.copy()
    M, N = D.shape
    inv_beta = 0.0 if np.isinf(beta) else 1.0 / beta
    for n in range(N):
        others = [j for j in range(N) if j != n]
        deflated = Y.copy()
        for j in others:
            deflated -= np.outer(D[:, j], X[j, :])
        xn = X[n, :]
        prec = gamma * float(xn @ xn) + inv_beta
        var = 1.0 / prec
        mean = gamma * var * (deflated @ xn)
        D[:, n] = mean + np.sqrt(var) * rng.standard_normal(M)
    return D


def mean_se(samples):
    """Per-coordinate standard error of the sample mean (axis 0)."""
    n = samples.shape[0]
    return samples.std(axis=0, ddof=1) / np.sqrt(n)


def cov_se(cov, n):
    """Approximate standard error of each empirical covariance entry."""
    d = np.diag(cov)
    return np.sqrt((np.outer(d, d) + cov ** 2) / n)


# ---------------------------------------------------------------------------
# scalar ELBO by quadrature (M = N = L = 1)


def scalar_elbo_quadrature(y, cfg, q):
    """Evidence lower bound for the one-signal, one-atom model.

    q holds the variational parameters: x_mean, x_var, d_mean, d_var,
    alpha_shape, alpha_rate, gamma_shape, gamma_rate. Every expectation
    is taken through scipy.stats moments/entropies rather than hand
    algebra, so this is an independent check of the closed-form bound.
    """
    ln2pi = np.log(2.0 * np.pi)
    qx = stats.norm(loc=q["x_mean"], scale=np.sqrt(q["x_var"]))
    qd = stats.norm(loc=q["d_mean"], scale=np.sqrt(q["d_var"]))
    qa = stats.gamma(a=q["alpha_shape"], scale=1.0 / q["alpha_rate"])
    qg = stats.gamma(a=q["gamma_shape"], scale=1.0 / q["gamma_rate"])

    e_x, e_x2 = qx.mean(), qx.moment(2)
    e_d, e_d2 = qd.mean(), qd.moment(2)
    e_a = qa.mean()
    e_ln_a = qa.expect(np.log)
    e_g = qg.mean()
    e_ln_g = qg.expect(np.log)

    # E (y - d x)^2 factorizes because q(d) and q(x) are independent
    e_sq = y * y - 2.0 * y * e_d * e_x + e_d2 * e_x2
    lik = 0.5 * (e_ln_g - ln2pi) - 0.5 * e_g * e_sq
    lp_x = 0.5 * (e_ln_a - ln2pi) - 0.5 * e_a * e_x2
    a, b, c, d = cfg.a, cfg.b, cfg.c, cfg.d
    lp_a = a * np.log(b) - gammaln(a) + (a - 1.0) * e_ln_a - b * e_a
    if np.isfinite(cfg.beta):
        lp_d = -0.5 * (ln2pi + np.log(cfg.beta)) - 0.5 * e_d2 / cfg.beta
    else:
        lp_d = 0.0
    lp_g = c * np.log(d) - gammaln(c) + (c - 1.0) * e_ln_g - d * e_g

    h = qx.entropy() + qd.entropy() + qa.entropy() + qg.entropy()
    return float(lik + lp_x + lp_a + lp_d + lp_g + h)
