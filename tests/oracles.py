"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the dumb way: dense inverses via
numpy.linalg.inv, residuals recomputed from scratch, expectations by
Monte Carlo or numerical quadrature through scipy.stats. None of it
shares code with the package, so agreement is evidence rather than
tautology. Two exceptions: denoise_whole_image composes the package's
extraction and OMP over the whole image, with reassemble_patches in
place of its banded reassembly, to check how denoising splits the image
into bands, and the *_allocating functions are the engines' per-sweep
alpha, gamma and ELBO steps as they were written before they updated
the state's arrays in place, kept to check the in-place forms bit for
bit; they call the package's unchanged helpers.
"""

import numpy as np
import scipy.linalg
from scipy import stats
from scipy.linalg.lapack import dpotrf, dppsv, dtrtri
from scipy.special import gammaln

from bayesdict.linalg import spd_logdet
from bayesdict.omp import OmpStop, batch_encode, normalize_dictionary
from bayesdict.patches import extract_patches
from bayesdict.vb import LN_2PI, _dtd, _gamma_entropy, _x_outer


# ---------------------------------------------------------------------------
# deterministic mean-field updates, dense form


def code_posterior_dense(d_mean, dtd, alpha_col, gamma_mean, y):
    """Optimal q(x_l) = N(mu, Sigma) for one signal column, by dense inverse."""
    P = gamma_mean * dtd + np.diag(alpha_col)
    Sigma = np.linalg.inv(P)
    mu = gamma_mean * (Sigma @ (d_mean.T @ y))
    return mu, Sigma


def reduce_code_covs(covs):
    """The q(X) fields VBState keeps of a dense (L, N, N) covariance stack.

    Returns keyword arguments for VBState: per-column variances (N, L),
    the sum over columns (N, N) and the summed log-determinants.
    """
    covs = np.asarray(covs, dtype=np.float64)
    _, logdets = np.linalg.slogdet(covs)
    return dict(
        code_vars=np.diagonal(covs, axis1=1, axis2=2).T.copy(),
        code_cov_sum=covs.sum(axis=0),
        code_logdet_sum=float(np.sum(logdets)),
    )


def code_moments_inverse_factors(state, data, jitter_scale):
    """The q(X) reductions of every column from inverse Cholesky factors.

    Each block of 32 columns stacks R_l = L_l^-1, with P_l = L_l L_l' =
    <g><D'D> + diag<alpha_l> factored by LAPACK potrf and inverted in
    place by trtri, so Sigma_l = R_l'R_l. A P_l that potrf rejects gets
    one diagonal jitter of jitter_scale * trace(P_l) / N. The block gives
    mu_l = R_l'(R_l c_l), diag Sigma_l as the column sums of R_l^2, its
    share of sum_l Sigma_l as one GEMM W'W over the stacked R_l, and
    log det Sigma_l = 2 sum log diag R_l. Returns the four VBState
    fields as a dict, plus the number of jittered columns.
    """
    gamma_mean = state.gamma_shape / state.gamma_rate
    alpha_mean = state.alpha_shape / state.alpha_rates
    M = state.dict_mean.shape[0]
    dtd = state.dict_mean.T @ state.dict_mean + M * state.dict_row_cov
    G = gamma_mean * 0.5 * (dtd + dtd.T)
    C = gamma_mean * (state.dict_mean.T @ data.Y)
    N, L = C.shape
    rows = np.arange(N)
    means, variances = np.empty((N, L)), np.empty((N, L))
    cov_sum, logdet_sum, jittered = np.zeros((N, N)), 0.0, 0
    for l0 in range(0, L, 32):
        cols = slice(l0, min(l0 + 32, L))
        R = np.repeat(G[np.newaxis], cols.stop - l0, axis=0)
        R[:, rows, rows] += alpha_mean[:, cols].T
        for j, r in enumerate(R):
            # r.T is the Fortran-ordered view, so LAPACK writes r in place;
            # its upper factor U = L' is the lower factor L of r itself.
            _, info = dpotrf(r.T, lower=0, clean=1, overwrite_a=1)
            if info != 0:
                P = G + np.diag(alpha_mean[:, l0 + j])
                r[:] = P + jitter_scale * np.trace(P) / N * np.eye(N)
                _, info = dpotrf(r.T, lower=0, clean=1, overwrite_a=1)
                assert info == 0
                jittered += 1
            dtrtri(r.T, lower=0, overwrite_c=1)
        Rc = R @ C[:, cols].T[:, :, np.newaxis]
        means[:, cols] = (R.transpose(0, 2, 1) @ Rc)[:, :, 0].T
        variances[:, cols] = np.einsum("jkn,jkn->nj", R, R)
        W = R.reshape(-1, N)
        cov_sum += W.T @ W
        logdet_sum += 2.0 * float(np.sum(np.log(
            np.diagonal(R, axis1=1, axis2=2))))
    return dict(code_means=means, code_vars=variances, code_cov_sum=cov_sum,
                code_logdet_sum=logdet_sum), jittered


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


def sample_codes_lu(state, data, block=64, kappa_max=1e6):
    """Data-space draw of every code column by a batched general LU solve.

    The full M x M system I + phi A_l^-1 phi' (phi = sqrt(g) D) of each
    column comes from one GEMM against the N x M^2 matrix whose row n is
    vec(phi_n phi_n'), and np.linalg.solve factors a block of them by LU.
    It takes the sampler's normals stream (one row of N + M per column,
    in blocks of `block`). Columns with kappa_l > kappa_max are drawn in
    coefficient space from their first N normals, by a lower Cholesky
    factor of their N x N precision. Returns the number of such columns.
    """
    D, rng = state.D, state.rng
    M, N = D.shape
    root_g = np.sqrt(state.gamma)
    phi = root_g * D
    K = np.einsum("in,jn->nij", phi, phi).reshape(N, M * M)
    norms2 = np.einsum("in,in->n", phi, phi)
    n_dense = 0
    for l0 in range(0, data.L, block):
        cols = slice(l0, min(l0 + block, data.L))
        z = rng.standard_normal((cols.stop - l0, N + M))
        inv_alpha = 1.0 / state.alpha[:, cols].T
        u = z[:, :N] * np.sqrt(inv_alpha)
        with np.errstate(over="ignore"):
            dense = np.flatnonzero(1.0 + inv_alpha @ norms2 > kappa_max)
        inv_alpha[dense] = 0.0
        S = inv_alpha @ K
        S[:, ::M + 1] += 1.0
        rhs = root_g * data.Y[:, cols].T - u @ phi.T - z[:, N:]
        w = np.linalg.solve(S.reshape(-1, M, M), rhs[:, :, np.newaxis])
        state.X[:, cols] = (u + inv_alpha * (w[:, :, 0] @ phi)).T
        for j in dense:
            _dense_column(state, data, l0 + j, z[j, :N])
        n_dense += dense.size
    return n_dense


def sample_codes_packed(state, data, block=64, kappa_max=1e6):
    """Data-space draw of every code column, one LAPACK dppsv per column.

    Each column's system I + phi A_l^-1 phi' (phi = sqrt(g) D) is formed
    in LAPACK's column-major 'U' packed layout (np.tril_indices order) by
    one GEMM per block against the N x M(M+1)/2 matrix whose row n is
    phi_n phi_n' packed, and dppsv factors and solves it by the unblocked
    packed Cholesky. The normals stream and the kappa guard are those of
    sample_codes_lu. Returns the number of columns drawn densely.
    """
    D, rng = state.D, state.rng
    M, N = D.shape
    root_g = np.sqrt(state.gamma)
    phi = root_g * D
    r, c = np.tril_indices(M)
    K = (phi[r] * phi[c]).T
    diag = np.flatnonzero(r == c)
    norms2 = np.einsum("in,in->n", phi, phi)
    n_dense = 0
    for l0 in range(0, data.L, block):
        cols = slice(l0, min(l0 + block, data.L))
        z = rng.standard_normal((cols.stop - l0, N + M))
        inv_alpha = 1.0 / state.alpha[:, cols].T
        u = z[:, :N] * np.sqrt(inv_alpha)
        with np.errstate(over="ignore"):
            dense = np.flatnonzero(1.0 + inv_alpha @ norms2 > kappa_max)
        inv_alpha[dense] = 0.0
        S = inv_alpha @ K
        S[:, diag] += 1.0
        w = root_g * data.Y[:, cols].T - u @ phi.T - z[:, N:]
        for j in range(w.shape[0]):
            w[j], info = dppsv(M, S[j], w[j])
            assert info == 0
        state.X[:, cols] = (u + inv_alpha * (w @ phi)).T
        for j in dense:
            _dense_column(state, data, l0 + j, z[j, :N])
        n_dense += dense.size
    return n_dense


def _dense_column(state, data, l, z):
    """Column l drawn in coefficient space from the normals z, by a lower
    Cholesky factor of its N x N precision."""
    D, gamma = state.D, state.gamma
    P = gamma * (D.T @ D) + np.diag(state.alpha[:, l])
    chol = scipy.linalg.cholesky(P, lower=True)
    mean = scipy.linalg.cho_solve((chol, True), gamma * (D.T @ data.Y[:, l]))
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


def omp_lstsq(D, y, max_sparsity=None, residual_threshold=None):
    """Per-signal greedy OMP with a least-squares refit of the whole
    support at every step, by numpy.linalg.lstsq.

    D must already have unit-norm columns. Selection takes the largest
    |D'r| over atoms not yet chosen, ties to the lowest index; a trial
    atom that shrinks the residual by less than 1e-12 of it is dropped
    and coding stops. Returns (support, coeffs, residual_norm).
    """
    M, N = D.shape
    cap = min(max_sparsity if max_sparsity is not None else min(M, N), N)
    support, coeffs = [], np.zeros(0)
    res_norm = float(np.linalg.norm(y))
    if res_norm == 0.0 or (residual_threshold is not None
                           and res_norm <= residual_threshold):
        return support, coeffs, res_norm
    residual = y.copy()
    while len(support) < cap:
        corr = np.abs(D.T @ residual)
        corr[support] = -1.0
        atom = int(np.argmax(corr))
        if corr[atom] <= 0.0:
            break
        trial = support + [atom]
        sol, *_ = np.linalg.lstsq(D[:, trial], y, rcond=None)
        new_residual = y - D[:, trial] @ sol
        new_norm = float(np.linalg.norm(new_residual))
        if res_norm - new_norm < 1e-12 * res_norm:
            break
        support, coeffs, residual = trial, sol, new_residual
        res_norm = new_norm
        if residual_threshold is not None and res_norm <= residual_threshold:
            break
    return support, coeffs, res_norm


def omp_residual_form(D, Y, max_sparsity=None, residual_threshold=None):
    """Batched greedy OMP that reads every correlation from the residual,
    `|Dᵀr|` with `r = y - D_S c`, as `omp._encode_block` did before its
    correlations came from `DᵀY` and the Gram matrix.

    D must already have unit-norm columns; Y holds one signal per column.
    Selection, the tie rule, the stacked refit with its per-column
    singular fallback, the stall check and the threshold test are the
    package's, and there is no exact-fit stop: an exact fit stops because
    `Dᵀr` is exactly zero or because the next pick stalls. Returns support
    sizes, supports and coefficients (P x cap, padded past each size) and
    residual norms.
    """
    M, N = D.shape
    cap = min(max_sparsity if max_sparsity is not None else min(M, N), N)
    thr = residual_threshold
    G = D.T @ D
    Y = np.ascontiguousarray(np.asarray(Y, dtype=np.float64).T)
    P = Y.shape[0]
    DtY = (D.T @ Y[:, :, None])[:, :, 0]
    R = Y.copy()
    norms = np.sqrt((Y[:, None, :] @ Y[:, :, None])[:, 0, 0])
    sizes = np.zeros(P, dtype=np.intp)
    sup = np.zeros((P, cap), dtype=np.intp)
    coef = np.zeros((P, cap))
    running = norms > 0.0
    if thr is not None:
        running &= norms > thr
    act = np.flatnonzero(running)
    for k in range(cap):
        if act.size == 0:
            break
        corr = np.abs((D.T @ R[act, :, None])[:, :, 0])
        np.put_along_axis(corr, sup[act, :k], -1.0, axis=1)
        atom = np.argmax(corr, axis=1)
        moving = np.take_along_axis(corr, atom[:, None], axis=1)[:, 0] > 0.0
        act, atom = act[moving], atom[moving]
        S = np.concatenate([sup[act, :k], atom[:, None]], axis=1)
        A = G[S[:, :, None], S[:, None, :]]
        b = np.take_along_axis(DtY[act], S, axis=1)
        solved = np.ones(len(A), bool)
        try:
            c = np.linalg.solve(A, b[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            c = np.zeros_like(b)
            for i in range(len(A)):
                try:
                    c[i] = np.linalg.solve(A[i:i + 1],
                                           b[i:i + 1, :, None])[0, :, 0]
                except np.linalg.LinAlgError:
                    solved[i] = False
        trial = Y[act] - (c[:, None, :] @ D.T[S])[:, 0, :]
        trial_norms = np.sqrt((trial[:, None, :] @ trial[:, :, None])[:, 0, 0])
        gained = solved & (norms[act] - trial_norms >= 1e-12 * norms[act])
        act = act[gained]
        R[act] = trial[gained]
        norms[act] = trial_norms[gained]
        sup[act, k] = atom[gained]
        coef[act, :k + 1] = c[gained]
        sizes[act] = k + 1
        if thr is not None:
            act = act[norms[act] > thr]
    return sizes, sup, coef, norms


def extract_patches_loop(image, patch_size, stride):
    """Every patch on the stride grid, one at a time: the patch at origin
    (r, c), origins taken row-major over 0, stride, 2*stride, ..., is
    image[r:r+p, c:c+p] vectorized column-major into the next column."""
    p = patch_size
    origins = range(0, image.shape[0] - p + 1, stride)
    columns = [image[r:r + p, c:c + p].flatten(order="F")
               for r in origins for c in origins]
    return np.stack(columns, axis=1)


def reassemble_patches(patches, side, patch_size, stride):
    """Average patch columns back into a side x side image, one patch at
    a time: the patch at origin (r, c), origins taken row-major over
    0, stride, 2*stride, ..., is its column unvectorized column-major and
    added at [r:r+p, c:c+p]. Each pixel is then divided by the number of
    patches covering it and clamped to [0, 255]."""
    p = patch_size
    origins = range(0, side - p + 1, stride)
    assert patches.shape == (p * p, len(origins) ** 2)
    acc = np.zeros((side, side))
    count = np.zeros((side, side))
    col = 0
    for r in origins:
        for c in origins:
            acc[r:r + p, c:c + p] += patches[:, col].reshape(p, p, order="F")
            count[r:r + p, c:c + p] += 1.0
            col += 1
    return np.clip(acc / count, 0.0, 255.0)


def denoise_whole_image(noisy, D, threshold, remove_dc):
    """The denoise pipeline over the whole stride-1 grid at once, as
    `cli.cmd_denoise` ran it before it coded one band of patch rows at a
    time: extract every patch, remove the means if remove_dc, code all
    patches in one batch_encode call, rebuild them and reassemble them
    with reassemble_patches.

    It checks the banding and the reassembly, not extraction or OMP.
    Returns the denoised image and the patches_coded and mean_support
    metrics.
    """
    side = int(np.sqrt(D.shape[0]))
    Dn, _ = normalize_dictionary(D)
    patches = extract_patches(noisy, patch_size=side, stride=1)
    means = patches.mean(axis=0) if remove_dc else 0.0
    patches -= means
    codes = batch_encode(Dn, patches, OmpStop(residual_threshold=threshold))
    rebuilt = codes.reconstruct(Dn)
    rebuilt += means
    return reassemble_patches(rebuilt, noisy.shape[0], side, 1), {
        "patches_coded": len(codes),
        "mean_support": float(codes.indptr[-1] / len(codes))}


# ---------------------------------------------------------------------------
# allocating forms of the engines' per-sweep N x L steps


def sample_alpha_allocating(state, cfg):
    """gibbs.sample_alpha with a fresh N x L scale and one N x L draw."""
    scale = np.square(state.X)
    scale *= 0.5
    scale += cfg.b
    np.reciprocal(scale, out=scale)
    draws = state.rng.standard_gamma(cfg.a + 0.5, scale.shape)
    draws *= scale
    state.alpha = np.maximum(draws, np.finfo(np.float64).tiny, out=draws)


def sample_gamma_allocating(state, data, cfg):
    """gibbs.sample_gamma forming DX, Y - DX and its square apart."""
    resid = data.Y - state.D @ state.X
    sq_resid = float(np.sum(resid * resid))
    shape = cfg.c + data.M * data.L / 2.0
    rate = cfg.d + 0.5 * sq_resid
    state.gamma = max(float(state.rng.gamma(shape, 1.0 / rate)),
                      float(np.finfo(np.float64).tiny))
    return sq_resid


def update_alpha_allocating(state, cfg):
    """vb.update_alpha binding a new rates array."""
    state.alpha_shape = cfg.a + 0.5
    state.alpha_rates = cfg.b + 0.5 * (state.code_means ** 2
                                       + state.code_vars)


def expected_residual_allocating(state, data):
    """vb.expected_residual forming DX, Y - DX and its square apart."""
    D, X = state.dict_mean, state.code_means
    fit = data.Y - D @ X
    resid = (float(np.sum(fit * fit))
             + float(np.sum(_dtd(state) * _x_outer(state)))
             - float(np.sum((D.T @ D) * (X @ X.T))))
    floor = -1e-8 * float(np.sum(data.Y ** 2))
    assert resid >= floor
    return max(resid, 0.0)


def compute_elbo_allocating(state, data, cfg):
    """vb.compute_elbo with E[ln alpha], <alpha>, <x^2> and their product
    each a fresh N x L array, and ln rates taken twice."""
    from scipy.special import digamma

    M, L = data.M, data.L
    N = state.dict_mean.shape[1]
    a, b, c, d = cfg.a, cfg.b, cfg.c, cfg.d

    e_ln_gamma = float(digamma(state.gamma_shape) - np.log(state.gamma_rate))
    e_gamma = state.gamma_shape / state.gamma_rate
    e_ln_alpha = digamma(state.alpha_shape) - np.log(state.alpha_rates)
    e_alpha = state.alpha_shape / state.alpha_rates
    x_sq = state.code_means ** 2 + state.code_vars

    lik = 0.5 * M * L * (e_ln_gamma - LN_2PI) \
        - 0.5 * e_gamma * expected_residual_allocating(state, data)
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

    return float(lik + lp_x + lp_alpha + lp_d + lp_gamma
                 + h_x + h_d + h_alpha + h_gamma)


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
