"""Variational updates against dense, Monte-Carlo, and quadrature oracles."""

import copy
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack

from bayesdict import (
    ModelConfig,
    TrainingSet,
    compute_elbo,
    initialize_vb_state,
    moments_from_state,
    run_vb,
    update_alpha,
    update_codes,
    update_dictionary_atomwise,
    update_dictionary_full,
    update_gamma,
)
from bayesdict import vb
from bayesdict.errors import (
    ConfigParseError,
    NegativeResidual,
    NonFinite,
    SingularPrecision,
)
from bayesdict.linalg import JITTER_SCALE
from bayesdict.model import VBState
from bayesdict.vb import code_second_moments, expected_residual

import oracles


def random_spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    S = A @ A.T + n * np.eye(n)
    return scale * S / n


def random_state_with_covs(rng, M, N, L):
    """A generic, non-degenerate posterior state for oracle comparisons,
    plus the dense per-column code covariances it was reduced from."""
    covs = np.stack([random_spd(rng, N, 0.5) for _ in range(L)])
    return VBState(
        code_means=rng.standard_normal((N, L)),
        **oracles.reduce_code_covs(covs),
        dict_mean=rng.standard_normal((M, N)),
        dict_row_cov=random_spd(rng, N, 0.1),
        alpha_shape=1.3,
        alpha_rates=0.5 + rng.random((N, L)),
        gamma_shape=7.5,
        gamma_rate=2.0,
    ), covs


def random_state(rng, M, N, L):
    return random_state_with_covs(rng, M, N, L)[0]


def make_problem(M=3, N=4, L=5, seed=0):
    rng = np.random.default_rng(seed)
    data = TrainingSet.from_matrix(rng.standard_normal((M, L)))
    return rng, data


# ---------------------------------------------------------------------------
# moment bookkeeping


def test_code_second_moments_definition():
    rng, _ = make_problem()
    st, covs = random_state_with_covs(rng, 3, 4, 5)
    sq = code_second_moments(st)
    for n in range(4):
        for l in range(5):
            expect = st.code_means[n, l] ** 2 + covs[l][n, n]
            assert sq[n, l] == pytest.approx(expect, rel=1e-14)


def test_second_moment_identities():
    rng, _ = make_problem()
    st, covs = random_state_with_covs(rng, 3, 4, 5)
    m = moments_from_state(st)
    x_outer = st.code_means @ st.code_means.T + covs.sum(axis=0)
    np.testing.assert_allclose(m.x_outer, x_outer, rtol=1e-13)
    dtd = st.dict_mean.T @ st.dict_mean + 3 * st.dict_row_cov
    np.testing.assert_allclose(m.dtd, dtd, rtol=1e-13)


def test_expected_residual_monte_carlo():
    rng, data = make_problem(M=3, N=4, L=5, seed=1)
    st, covs = random_state_with_covs(rng, 3, 4, 5)
    got = expected_residual(st, data)
    mc, se = oracles.mc_expected_residual(
        data.Y, st.code_means, covs, st.dict_mean, st.dict_row_cov,
        n_draws=100_000, seed=99)
    assert abs(got - mc) < 3.0 * se


def test_expected_residual_rejects_negative_definite_code_covariance():
    rng, data = make_problem(M=3, N=4, L=5, seed=1)
    st = random_state(rng, 3, 4, 5)
    st.code_cov_sum = -1e3 * np.eye(4)
    with pytest.raises(NegativeResidual):
        expected_residual(st, data)


def exact_fit_state(shortfall):
    """Y = <D><X> exactly and no dictionary covariance, so the expected
    residual is tr{<D>'<D> code_cov_sum}; code_cov_sum = -eps I puts it
    at -shortfall * 1e-8 * ||Y||^2, i.e. shortfall times the floor."""
    rng = np.random.default_rng(7)
    D, X = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
    data = TrainingSet.from_matrix(D @ X)
    st = random_state(rng, 3, 4, 5)
    st.dict_mean, st.code_means = D, X
    st.dict_row_cov = np.zeros((4, 4))
    eps = shortfall * 1e-8 * np.sum(data.Y ** 2) / np.trace(D.T @ D)
    st.code_cov_sum = -eps * np.eye(4)
    return st, data


def test_expected_residual_clamps_cancellation_inside_the_floor():
    st, data = exact_fit_state(0.5)
    assert expected_residual(st, data) == 0.0
    st, data = exact_fit_state(2.0)
    with pytest.raises(NegativeResidual):
        expected_residual(st, data)


# ---------------------------------------------------------------------------
# closed-form coordinate updates vs dense oracles


def test_update_codes_matches_dense_oracle():
    """N = 1, even and odd N take different RFP layouts."""
    for N in (1, 4, 5):
        rng, data = make_problem(M=3, N=N, L=5, seed=2)
        st = random_state(rng, 3, N, 5)
        pre = moments_from_state(st)
        update_codes(st, data)
        covs = []
        for l in range(data.L):
            mu, Sigma = oracles.code_posterior_dense(
                st.dict_mean, pre.dtd, pre.alpha_mean[:, l], pre.gamma_mean,
                data.Y[:, l])
            np.testing.assert_allclose(st.code_means[:, l], mu, rtol=1e-10,
                                       err_msg=f"N={N}")
            covs.append(Sigma)
        want = oracles.reduce_code_covs(np.stack(covs))
        np.testing.assert_allclose(st.code_vars, want["code_vars"],
                                   rtol=1e-10, err_msg=f"N={N}")
        np.testing.assert_allclose(st.code_cov_sum, want["code_cov_sum"],
                                   rtol=1e-10, err_msg=f"N={N}")
        assert st.code_logdet_sum == pytest.approx(want["code_logdet_sum"],
                                                   rel=1e-10), N


def test_update_codes_scalar_arithmetic():
    """1x1x1 posterior: variance 1/(1*1+1), mean 1*0.5*1*2."""
    st = VBState(
        code_means=np.zeros((1, 1)),
        **oracles.reduce_code_covs(np.ones((1, 1, 1))),
        dict_mean=np.array([[1.0]]),
        dict_row_cov=np.array([[0.0]]),  # <D^2> = 1 exactly
        alpha_shape=2.0,
        alpha_rates=np.array([[2.0]]),   # <alpha> = 1
        gamma_shape=3.0,
        gamma_rate=3.0,                  # <gamma> = 1
    )
    data = TrainingSet.from_matrix(np.array([[2.0]]))
    update_codes(st, data)
    assert st.code_vars[0, 0] == pytest.approx(0.5, rel=1e-14)
    assert st.code_cov_sum[0, 0] == pytest.approx(0.5, rel=1e-14)
    assert st.code_logdet_sum == pytest.approx(np.log(0.5), rel=1e-14)
    assert st.code_means[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_update_codes_prior_dominates_at_vanishing_noise_precision():
    rng, data = make_problem(M=3, N=4, L=5, seed=14)
    st = random_state(rng, 3, 4, 5)
    st.gamma_shape, st.gamma_rate = 1e-30, 1.0  # <gamma> = 1e-30
    alpha_mean = st.alpha_shape / st.alpha_rates
    update_codes(st, data)
    assert np.max(np.abs(st.code_means)) < 1e-12
    want = oracles.reduce_code_covs(
        [np.diag(1.0 / alpha_mean[:, l]) for l in range(data.L)])
    np.testing.assert_allclose(st.code_vars, want["code_vars"], atol=1e-12)
    np.testing.assert_allclose(st.code_cov_sum, want["code_cov_sum"],
                               atol=1e-12)
    assert st.code_logdet_sum == pytest.approx(want["code_logdet_sum"],
                                               abs=1e-12)


def test_update_codes_is_columnwise_independent():
    """Permuting the training columns permutes the posteriors verbatim;
    the covariance sum differs only by summation-order round-off."""
    rng, data = make_problem(M=3, N=4, L=6, seed=15)
    st = random_state(rng, 3, 4, 6)
    perm = np.array([4, 2, 0, 5, 1, 3])

    st_p = VBState(
        code_means=st.code_means[:, perm].copy(),
        code_vars=st.code_vars[:, perm].copy(),
        code_cov_sum=st.code_cov_sum.copy(),
        code_logdet_sum=st.code_logdet_sum,
        dict_mean=st.dict_mean.copy(),
        dict_row_cov=st.dict_row_cov.copy(),
        alpha_shape=st.alpha_shape,
        alpha_rates=st.alpha_rates[:, perm].copy(),
        gamma_shape=st.gamma_shape,
        gamma_rate=st.gamma_rate,
    )
    data_p = TrainingSet.from_matrix(data.Y[:, perm])

    update_codes(st, data)
    update_codes(st_p, data_p)
    np.testing.assert_array_equal(st_p.code_means, st.code_means[:, perm])
    np.testing.assert_array_equal(st_p.code_vars, st.code_vars[:, perm])
    np.testing.assert_allclose(st_p.code_cov_sum, st.code_cov_sum,
                               rtol=1e-14)
    assert st_p.code_logdet_sum == pytest.approx(st.code_logdet_sum,
                                                 rel=1e-14)


def clone_vb(st):
    return VBState(**{k: np.copy(v) if isinstance(v, np.ndarray) else v
                      for k, v in vars(st).items()})


def test_update_codes_independent_of_block_size(monkeypatch):
    """Each column's mean and variance come from per-column calls only,
    so they are bit-equal whatever block the column lands in; the sums
    over columns differ only by summation-order round-off."""
    rng, data = make_problem(M=3, N=4, L=20, seed=22)
    base = random_state(rng, 3, 4, 20)
    states = []
    for block in (1, 7, data.L):
        monkeypatch.setattr(vb, "_BLOCK", block)
        st = clone_vb(base)
        assert update_codes(st, data) == 0
        states.append(st)
    for st in states[1:]:
        np.testing.assert_array_equal(st.code_means, states[0].code_means)
        np.testing.assert_array_equal(st.code_vars, states[0].code_vars)
        np.testing.assert_allclose(st.code_cov_sum, states[0].code_cov_sum,
                                   rtol=1e-14)
        assert st.code_logdet_sum == pytest.approx(
            states[0].code_logdet_sum, rel=1e-14)


def test_update_codes_column_needing_jitter_matches_jittered_oracle():
    """Atom 1 is zero and column 2 gives it no prior precision, so that
    column's precision has an exactly zero pivot: it takes spd_factor's
    one-shot jitter, and its posterior is the dense one of the jittered
    precision. The other columns are untouched by it."""
    rng, data = make_problem(M=3, N=4, L=5, seed=23)
    st = random_state(rng, 3, 4, 5)
    st.dict_mean[:, 1] = 0.0
    st.dict_row_cov[1, :] = st.dict_row_cov[:, 1] = 0.0
    st.alpha_rates[1, 2] = np.inf  # <alpha_12> = 0
    pre = moments_from_state(st)
    assert update_codes(st, data) == 1
    covs = []
    for l in range(data.L):
        alpha_col = pre.alpha_mean[:, l].copy()
        if l == 2:
            P = pre.gamma_mean * pre.dtd + np.diag(alpha_col)
            alpha_col += JITTER_SCALE * np.trace(P) / 4
        mu, Sigma = oracles.code_posterior_dense(
            st.dict_mean, pre.dtd, alpha_col, pre.gamma_mean, data.Y[:, l])
        np.testing.assert_allclose(st.code_means[:, l], mu, rtol=1e-10,
                                   atol=1e-12)
        covs.append(Sigma)
    want = oracles.reduce_code_covs(np.stack(covs))
    np.testing.assert_allclose(st.code_vars, want["code_vars"], rtol=1e-10)
    np.testing.assert_allclose(st.code_cov_sum, want["code_cov_sum"],
                               rtol=1e-10, atol=1e-12)
    assert st.code_logdet_sum == pytest.approx(want["code_logdet_sum"],
                                               rel=1e-10)


@pytest.mark.parametrize("block", [2, 32])
def test_update_codes_names_the_column_with_indefinite_precision(
        monkeypatch, block):
    """A row covariance with a negative eigenvalue makes <D'D> indefinite;
    only column 3 has too little prior precision to cover it, and the
    error names that column whichever block it falls in."""
    monkeypatch.setattr(vb, "_BLOCK", block)
    rng, data = make_problem(M=3, N=4, L=5, seed=24)
    st = random_state(rng, 3, 4, 5)
    st.dict_row_cov = -np.eye(4)
    st.alpha_rates[:] = st.alpha_shape / 1e3  # <alpha> = 1e3
    st.alpha_rates[:, 3] = st.alpha_shape / 1e-3
    with pytest.raises(SingularPrecision, match=r"^column 3: "):
        update_codes(st, data)


@pytest.mark.parametrize("N, jitter_column", [(50, None), (51, None),
                                               (50, 40)])
def test_update_codes_matches_inverse_factor_oracle(N, jitter_column):
    """The RFP path against the stacked potrf + trtri reductions it
    replaced, over L = 70 columns (three blocks of 32). With a
    jitter_column, atom 7 is zero and that column gives it no prior
    precision, so both paths take the one-shot jitter there."""
    rng, data = make_problem(M=20, N=N, L=70, seed=27)
    st = random_state(rng, 20, N, 70)
    if jitter_column is not None:
        st.dict_mean[:, 7] = 0.0
        st.dict_row_cov[7, :] = st.dict_row_cov[:, 7] = 0.0
        st.alpha_rates[7, jitter_column] = np.inf
    want, jittered = oracles.code_moments_inverse_factors(st, data,
                                                          JITTER_SCALE)
    assert update_codes(st, data) == jittered == (jitter_column is not None)
    for key in ("code_means", "code_vars", "code_cov_sum"):
        np.testing.assert_allclose(
            getattr(st, key), want[key], rtol=0,
            atol=1e-12 * np.max(np.abs(want[key])), err_msg=key)
    assert st.code_logdet_sum == pytest.approx(want["code_logdet_sum"],
                                               rel=1e-12)


def test_update_codes_names_the_column_dpftri_rejects(monkeypatch):
    """A zero pivot reported by dpftri raises SingularPrecision naming
    its column."""
    rng, data = make_problem(M=3, N=4, L=5, seed=28)
    st = random_state(rng, 3, 4, 5)
    calls = []

    def failing(n, a, *args):
        calls.append(n)
        return a, 2 if len(calls) == 4 else 0

    monkeypatch.setattr(scipy.linalg.lapack, "dpftri", failing)
    with pytest.raises(SingularPrecision, match=r"^column 3: "):
        update_codes(st, data)


def test_code_posterior_state_does_not_grow_with_l_times_n_squared():
    """q(X) is held as reductions: no array in the state has more than
    max(N*L, N^2) entries, where the per-column stack had L*N^2."""
    N, L = 64, 2000
    rng = np.random.default_rng(21)
    data = TrainingSet.from_matrix(rng.standard_normal((16, L)))
    st = initialize_vb_state(ModelConfig(num_atoms=N, seed=2), data)
    update_codes(st, data)
    limit = max(N * L, N * N)
    for name, value in vars(st).items():
        assert np.size(value) <= limit, (name, np.shape(value))


@pytest.mark.parametrize("beta", [0.7, 1e8, float("inf")])
def test_update_dictionary_full_matches_dense_oracle(beta):
    """N = 1, even and odd N take different RFP layouts."""
    for N in (1, 4, 5):
        rng, data = make_problem(M=3, N=N, L=5, seed=3)
        st = random_state(rng, 3, N, 5)
        pre = moments_from_state(st)
        assert update_dictionary_full(st, data, beta) == 0
        D_mean, A = oracles.dict_posterior_dense(
            data.Y, pre.x_mean, pre.x_outer, pre.gamma_mean, beta)
        np.testing.assert_allclose(st.dict_mean, D_mean, rtol=1e-10,
                                   err_msg=f"N={N}")
        np.testing.assert_allclose(st.dict_row_cov, A, rtol=1e-10,
                                   err_msg=f"N={N}")


def test_update_dictionary_full_jitters_a_zero_code_row():
    """Code row 2 and its covariance are zero, so under a flat prior the
    q(D) precision has an exactly zero pivot: it takes spd_factor's
    one-shot jitter, and A and the mean are the dense ones of the
    jittered precision."""
    rng, data = make_problem(M=3, N=4, L=5, seed=26)
    st = random_state(rng, 3, 4, 5)
    st.code_means[2] = 0.0
    st.code_cov_sum[2, :] = st.code_cov_sum[:, 2] = 0.0
    pre = moments_from_state(st)
    assert update_dictionary_full(st, data, beta=np.inf) == 1
    jitter = JITTER_SCALE * np.trace(pre.gamma_mean * pre.x_outer) / 4
    D_mean, A = oracles.dict_posterior_dense(
        data.Y, pre.x_mean, pre.x_outer + jitter / pre.gamma_mean * np.eye(4),
        pre.gamma_mean, np.inf)
    np.testing.assert_allclose(st.dict_row_cov, A, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(A)))
    np.testing.assert_allclose(st.dict_mean, D_mean, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(D_mean)))


def test_update_dictionary_full_names_its_singular_precision():
    """All-zero code moments under a flat prior leave q(D) with a zero
    precision, which no jitter of 1e-10 * trace / N can repair."""
    rng, data = make_problem(M=3, N=4, L=5, seed=25)
    st = random_state(rng, 3, 4, 5)
    st.code_means[:] = 0.0
    st.code_cov_sum[:] = 0.0
    with pytest.raises(SingularPrecision,
                       match=r"^dictionary row precision: "):
        update_dictionary_full(st, data, beta=np.inf)


def test_dictionary_fit_with_identity_codes_returns_data():
    """Flat prior + identity codes reduce the dictionary fit to Y itself."""
    rng = np.random.default_rng(16)
    Y = rng.standard_normal((4, 3))
    data = TrainingSet.from_matrix(Y)
    st = VBState(
        code_means=np.eye(3),
        **oracles.reduce_code_covs(np.zeros((3, 3, 3))),
        dict_mean=rng.standard_normal((4, 3)),
        dict_row_cov=np.zeros((3, 3)),
        alpha_shape=1.0,
        alpha_rates=np.ones((3, 3)),
        gamma_shape=2.0,
        gamma_rate=2.0,  # <gamma> = 1
    )
    update_dictionary_full(st, data, beta=1e30)
    np.testing.assert_allclose(st.dict_mean, Y, rtol=1e-10)


def test_update_alpha_closed_form():
    rng, data = make_problem(seed=4)
    st = random_state(rng, 3, 4, 5)
    cfg = ModelConfig(num_atoms=4, a=0.8, b=0.02)
    sq = code_second_moments(st)
    update_alpha(st, cfg)
    assert st.alpha_shape == pytest.approx(0.8 + 0.5)
    np.testing.assert_allclose(st.alpha_rates, 0.02 + 0.5 * sq, rtol=1e-14)


def test_update_alpha_density_matches_mean_field_optimum():
    """q*(alpha) ∝ exp(E ln p(x | alpha) + ln p(alpha)), checked pointwise."""
    rng, data = make_problem(seed=5)
    st = random_state(rng, 3, 4, 5)
    cfg = ModelConfig(num_atoms=4, a=0.7, b=0.3)
    x_sq = float(code_second_moments(st)[1, 2])
    update_alpha(st, cfg)

    def log_unnorm(t):
        e_ln_lik = 0.5 * np.log(t) - 0.5 * t * x_sq
        log_prior = (cfg.a - 1.0) * np.log(t) - cfg.b * t
        return e_ln_lik + log_prior

    grid = np.linspace(1e-6, 30.0, 20_001)
    gap, peak = oracles.gamma_posterior_grid_gap(
        st.alpha_shape, float(st.alpha_rates[1, 2]), log_unnorm, grid)
    assert gap < 1e-6 * peak


def test_update_alpha_default_hyperparameter_arithmetic():
    """Pinned values at a=0.5, b=1e-6: dead coefficient vs <x^2> = 2."""
    st = VBState(
        code_means=np.array([[0.0, np.sqrt(2.0)]]),
        **oracles.reduce_code_covs(np.zeros((2, 1, 1))),
        dict_mean=np.ones((3, 1)),
        dict_row_cov=np.zeros((1, 1)),
        alpha_shape=1.0,
        alpha_rates=np.ones((1, 2)),
        gamma_shape=1.0,
        gamma_rate=1.0,
    )
    cfg = ModelConfig(num_atoms=1)  # a=0.5, b=1e-6
    update_alpha(st, cfg)
    assert st.alpha_shape == 1.0
    assert st.alpha_rates[0, 0] == 1e-6
    assert st.alpha_shape / st.alpha_rates[0, 0] == pytest.approx(1e6)
    assert st.alpha_rates[0, 1] == pytest.approx(1.000001, rel=1e-12)
    assert st.alpha_shape / st.alpha_rates[0, 1] == \
        pytest.approx(0.999999, abs=1e-6)


def states_along_a_run(variant, beta):
    """The states after 0-3 sweeps of run_vb's update order at 6/9/40,
    each a deep copy."""
    rng = np.random.default_rng(33)
    data = TrainingSet.from_matrix(rng.standard_normal((6, 40)))
    cfg = ModelConfig(num_atoms=9, beta=beta, seed=4)
    st = initialize_vb_state(cfg, data)
    states = [copy.deepcopy(st)]
    for _ in range(3):
        update_codes(st, data)
        if variant == "full":
            update_dictionary_full(st, data, cfg.beta)
        else:
            update_dictionary_atomwise(st, data, cfg.beta)
        oracles.update_alpha_allocating(st, cfg)
        update_gamma(st, data, cfg)
        states.append(copy.deepcopy(st))
    return states, data, cfg


@pytest.mark.parametrize("beta", [5.0, float("inf")])
@pytest.mark.parametrize("variant", ["full", "atomwise"])
def test_in_place_alpha_and_elbo_match_allocating_oracles(variant, beta):
    states, data, cfg = states_along_a_run(variant, beta)
    for st in states:
        assert compute_elbo(st, data, cfg) \
            == oracles.compute_elbo_allocating(st, data, cfg)
        assert expected_residual(st, data) \
            == oracles.expected_residual_allocating(st, data)
        want = copy.deepcopy(st)
        rates = st.alpha_rates
        update_alpha(st, cfg)
        oracles.update_alpha_allocating(want, cfg)
        assert st.alpha_rates is rates
        assert st.alpha_shape == want.alpha_shape
        np.testing.assert_array_equal(st.alpha_rates, want.alpha_rates)


def image_scale_state(seed=34, M=64, N=256, L=3721):
    """A VB state and data at the image-train shape, without the L x N x N
    covariance stack random_state reduces from."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N))
    st = VBState(
        code_means=rng.standard_normal((N, L)),
        code_vars=0.1 + rng.random((N, L)),
        code_cov_sum=A @ A.T + N * np.eye(N),
        code_logdet_sum=-5.0,
        dict_mean=rng.standard_normal((M, N)),
        dict_row_cov=1e-3 * np.eye(N),
        alpha_shape=1.0,
        alpha_rates=0.5 + rng.random((N, L)),
        gamma_shape=M * L / 2.0,
        gamma_rate=M * L / 2.0,
    )
    return st, TrainingSet.from_matrix(rng.standard_normal((M, L)))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_update_alpha_at_image_scale_allocates_no_rates_array():
    """64/256/3721: the allocating form binds a new 7.3 MiB N x L array;
    in place, ~100 bytes are traced."""
    st, _ = image_scale_state()
    peak = _traced_peak(lambda: update_alpha(st, ModelConfig(num_atoms=256)))
    assert peak < st.alpha_rates.nbytes // 64


def test_compute_elbo_at_image_scale_holds_two_n_by_l_arrays():
    """64/256/3721: one buffer for ln rates, E[ln alpha], <alpha> and
    <alpha> <x^2>, plus <x^2>: 14.5 MiB traced, against 29.1 MiB (four
    N x L arrays) for the allocating form."""
    st, data = image_scale_state()
    cfg = ModelConfig(num_atoms=256)
    import scipy.special  # noqa: F401  (its import is not the bound's)
    peak = _traced_peak(lambda: compute_elbo(st, data, cfg))
    assert peak < 2 * st.alpha_rates.nbytes + 2**20


def _assert_same_code_moments(st, want):
    for key in ("code_means", "code_vars", "code_cov_sum"):
        np.testing.assert_array_equal(getattr(st, key), getattr(want, key),
                                      err_msg=key)
    assert st.code_logdet_sum == want.code_logdet_sum


@pytest.mark.parametrize("M, N, L", [(20, 50, 1000), (20, 51, 70),
                                     (20, 50, 65)])
def test_update_codes_matches_whole_rhs_form(monkeypatch, M, N, L):
    """Each chunk's right-hand side, one GEMM over _RHS_COLUMNS columns,
    has the bits of the same rows of the whole L x N GEMM (one chunk of
    L columns), so every moment is bit-equal to that form."""
    st, data = image_scale_state(seed=35, M=M, N=N, L=L)
    want = clone_vb(st)
    assert update_codes(st, data) == 0
    monkeypatch.setattr(vb, "_RHS_COLUMNS", L)
    assert update_codes(want, data) == 0
    _assert_same_code_moments(st, want)


def test_update_codes_at_image_scale_holds_one_chunk_of_rhs(monkeypatch):
    """64/256/3721: one chunk's 64 x N right-hand side next to the 8.0
    MiB RFP stack, 10.3 MiB traced, against 17.6 MiB with the L x N
    right-hand side of every column formed at once. The moments keep
    the whole-matrix form's bits."""
    st, data = image_scale_state()
    want = clone_vb(st)
    peak = _traced_peak(lambda: update_codes(st, data))
    assert peak < 11 * 2**20
    monkeypatch.setattr(vb, "_RHS_COLUMNS", data.L)
    update_codes(want, data)
    _assert_same_code_moments(st, want)


def test_update_gamma_closed_form_and_density():
    rng, data = make_problem(M=3, N=4, L=5, seed=6)
    st = random_state(rng, 3, 4, 5)
    cfg = ModelConfig(num_atoms=4, c=0.9, d=0.4)
    resid = expected_residual(st, data)
    update_gamma(st, data, cfg)
    assert st.gamma_shape == pytest.approx(3 * 5 / 2.0 + 0.9)
    assert st.gamma_rate == pytest.approx(0.4 + 0.5 * resid, rel=1e-12)

    def log_unnorm(t):
        e_ln_lik = (3 * 5 / 2.0) * np.log(t) - 0.5 * t * resid
        log_prior = (cfg.c - 1.0) * np.log(t) - cfg.d * t
        return e_ln_lik + log_prior

    mean = st.gamma_shape / st.gamma_rate
    grid = np.linspace(1e-8, 8.0 * mean, 20_001)
    gap, peak = oracles.gamma_posterior_grid_gap(
        st.gamma_shape, st.gamma_rate, log_unnorm, grid)
    assert gap < 1e-6 * peak


def test_update_gamma_pinned_shape_and_exact_fit_rate():
    """Shape is ML/2 + c; an exact zero-covariance fit leaves rate = d."""
    M, N, L = 20, 2, 1000
    st = VBState(
        code_means=np.zeros((N, L)),
        **oracles.reduce_code_covs(np.zeros((L, N, N))),
        dict_mean=np.zeros((M, N)),
        dict_row_cov=np.zeros((N, N)),
        alpha_shape=1.0,
        alpha_rates=np.ones((N, L)),
        gamma_shape=1.0,
        gamma_rate=1.0,
    )
    data = TrainingSet.from_matrix(np.zeros((M, L)))
    cfg = ModelConfig(num_atoms=N)  # c=0.5, d=1e-6
    update_gamma(st, data, cfg)
    assert st.gamma_shape == 10000.5
    assert st.gamma_rate == cfg.d

    # nonzero integer instance fitted exactly: rate still collapses to d
    D = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    st2 = VBState(
        code_means=X,
        **oracles.reduce_code_covs(np.zeros((2, 2, 2))),
        dict_mean=D,
        dict_row_cov=np.zeros((2, 2)),
        alpha_shape=1.0,
        alpha_rates=np.ones((2, 2)),
        gamma_shape=1.0,
        gamma_rate=1.0,
    )
    fitted = TrainingSet.from_matrix(D @ X)
    update_gamma(st2, fitted, cfg)
    assert st2.gamma_rate == cfg.d


# ---------------------------------------------------------------------------
# atomwise dictionary variant


def test_atomwise_equals_full_for_single_atom():
    """With one atom there is nothing sequential; both variants coincide."""
    rng = np.random.default_rng(7)
    data = TrainingSet.from_matrix(rng.standard_normal((4, 6)))
    st_a = random_state(rng, 4, 1, 6)
    st_b = VBState(
        code_means=st_a.code_means.copy(),
        code_vars=st_a.code_vars.copy(),
        code_cov_sum=st_a.code_cov_sum.copy(),
        code_logdet_sum=st_a.code_logdet_sum,
        dict_mean=st_a.dict_mean.copy(),
        dict_row_cov=st_a.dict_row_cov.copy(),
        alpha_shape=st_a.alpha_shape,
        alpha_rates=st_a.alpha_rates.copy(),
        gamma_shape=st_a.gamma_shape,
        gamma_rate=st_a.gamma_rate,
    )
    update_dictionary_full(st_a, data, beta=2.5)
    update_dictionary_atomwise(st_b, data, beta=2.5)
    np.testing.assert_allclose(st_b.dict_mean, st_a.dict_mean, rtol=1e-12)
    np.testing.assert_allclose(st_b.dict_row_cov, st_a.dict_row_cov,
                               rtol=1e-12)


def test_atomwise_matches_sequential_dense_recomputation():
    """Each atom's update equals the dense formula with a fresh residual."""
    rng, data = make_problem(M=3, N=4, L=5, seed=8)
    st = random_state(rng, 3, 4, 5)
    pre = moments_from_state(st)
    beta = 3.0

    D_ref = st.dict_mean.copy()
    sig_ref = np.empty(4)
    for n in range(4):
        deflated = data.Y - D_ref @ st.code_means \
            + np.outer(D_ref[:, n], st.code_means[n, :])
        prec = pre.gamma_mean * pre.x_outer[n, n] + 1.0 / beta
        var = 1.0 / prec
        D_ref[:, n] = pre.gamma_mean * var * (deflated @ st.code_means[n, :])
        sig_ref[n] = var

    update_dictionary_atomwise(st, data, beta)
    np.testing.assert_allclose(st.dict_mean, D_ref, rtol=1e-10)
    np.testing.assert_allclose(np.diag(st.dict_row_cov), sig_ref, rtol=1e-12)


def test_atomwise_unused_atom_falls_back_to_prior():
    """A row of all-zero code moments pulls its atom to N(0, beta)."""
    rng = np.random.default_rng(17)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 5)))
    means = rng.standard_normal((2, 5))
    means[1, :] = 0.0
    covs = np.zeros((5, 2, 2))
    covs[:, 0, 0] = rng.random(5)  # atom 1 keeps zero second moment
    st = VBState(
        code_means=means,
        **oracles.reduce_code_covs(covs),
        dict_mean=rng.standard_normal((3, 2)),
        dict_row_cov=np.zeros((2, 2)),
        alpha_shape=1.0,
        alpha_rates=np.ones((2, 5)),
        gamma_shape=4.0,
        gamma_rate=2.0,
    )
    update_dictionary_atomwise(st, data, beta=1.0)
    np.testing.assert_array_equal(st.dict_mean[:, 1], np.zeros(3))
    assert st.dict_row_cov[1, 1] == pytest.approx(1.0, rel=1e-14)


def test_atomwise_rejects_unused_atom_under_flat_prior():
    """Zero code means and variances on one row with beta = inf leave that
    atom with zero precision; the update names it."""
    rng = np.random.default_rng(19)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 5)))
    st = random_state(rng, 3, 3, 5)
    st.code_means[2, :] = 0.0
    st.code_vars[2, :] = 0.0
    st.code_cov_sum[2, :] = st.code_cov_sum[:, 2] = 0.0
    with pytest.raises(SingularPrecision, match=r"^atom 2: "):
        update_dictionary_atomwise(st, data, beta=np.inf)


def test_atomwise_sweep_does_not_increase_residual():
    """One sequential two-atom sweep cannot worsen the plug-in fit."""
    rng = np.random.default_rng(18)
    data = TrainingSet.from_matrix(rng.standard_normal((4, 12)))
    covs = np.repeat((1e-3 * np.eye(2))[np.newaxis, :, :], 12, axis=0)
    st = VBState(
        code_means=rng.standard_normal((2, 12)),
        **oracles.reduce_code_covs(covs),
        dict_mean=rng.standard_normal((4, 2)),
        dict_row_cov=1e-3 * np.eye(2),
        alpha_shape=1.0,
        alpha_rates=np.ones((2, 12)),
        gamma_shape=2.0,
        gamma_rate=2.0,
    )
    before = np.linalg.norm(data.Y - st.dict_mean @ st.code_means)
    update_dictionary_atomwise(st, data, beta=1e8)
    after = np.linalg.norm(data.Y - st.dict_mean @ st.code_means)
    assert after <= before + 1e-12


def test_mod_limit_of_dictionary_update():
    """As beta -> inf the update is the least-squares dictionary fit."""
    rng, data = make_problem(M=3, N=4, L=40, seed=9)
    st = random_state(rng, 3, 4, 40)
    pre = moments_from_state(st)
    update_dictionary_full(st, data, beta=1e30)
    mod = (data.Y @ pre.x_mean.T) @ np.linalg.inv(pre.x_outer)
    np.testing.assert_allclose(st.dict_mean, mod, rtol=1e-8)


# ---------------------------------------------------------------------------
# evidence lower bound


def scalar_state(q):
    return VBState(
        code_means=np.array([[q["x_mean"]]]),
        **oracles.reduce_code_covs(np.array([[[q["x_var"]]]])),
        dict_mean=np.array([[q["d_mean"]]]),
        dict_row_cov=np.array([[q["d_var"]]]),
        alpha_shape=q["alpha_shape"],
        alpha_rates=np.array([[q["alpha_rate"]]]),
        gamma_shape=q["gamma_shape"],
        gamma_rate=q["gamma_rate"],
    )


@pytest.mark.parametrize("beta", [2.0, float("inf")])
def test_elbo_matches_quadrature_on_scalar_model(beta):
    y = 0.7
    cfg = ModelConfig(num_atoms=1, a=0.6, b=0.25, c=1.1, d=0.5, beta=beta)
    q = dict(x_mean=0.4, x_var=0.3, d_mean=-0.8, d_var=0.2,
             alpha_shape=1.7, alpha_rate=0.9, gamma_shape=2.2,
             gamma_rate=1.4)
    data = TrainingSet.from_matrix(np.array([[y]]))
    got = compute_elbo(scalar_state(q), data, cfg)
    want = oracles.scalar_elbo_quadrature(y, cfg, q)
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("variant", ["full", "atomwise"])
def test_elbo_monotone_under_coordinate_updates(variant):
    rng = np.random.default_rng(10)
    data = TrainingSet.from_matrix(rng.standard_normal((5, 30)))
    cfg = ModelConfig(num_atoms=8, beta=5.0, iters=1, seed=1)
    st = initialize_vb_state(cfg, data)

    def elbo():
        return compute_elbo(st, data, cfg)

    last = -np.inf
    for _ in range(25):
        update_codes(st, data)
        e1 = elbo()
        assert e1 >= last - 1e-8 * abs(last)
        if variant == "full":
            update_dictionary_full(st, data, cfg.beta)
        else:
            update_dictionary_atomwise(st, data, cfg.beta)
        e2 = elbo()
        assert e2 >= e1 - 1e-8 * abs(e1)
        update_alpha(st, cfg)
        e3 = elbo()
        assert e3 >= e2 - 1e-8 * abs(e2)
        update_gamma(st, data, cfg)
        last = elbo()
        assert last >= e3 - 1e-8 * abs(e3)


def test_compute_elbo_names_the_terms_of_a_non_finite_bound():
    """A noise-precision rate of inf makes E[ln gamma] = -inf, so the
    likelihood term is -inf, the gamma prior term +inf and their sum
    nan: compute_elbo raises, naming every term, rather than return it."""
    rng = np.random.default_rng(20)
    data = TrainingSet.from_matrix(rng.standard_normal((4, 10)))
    cfg = ModelConfig(num_atoms=3)
    st = initialize_vb_state(cfg, data)
    st.gamma_rate = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            NonFinite, match=r"^non-finite bound, terms: \{") as exc:
        compute_elbo(st, data, cfg)
    for term in ("lik", "lp_x", "lp_alpha", "lp_d", "lp_gamma", "h_x", "h_d",
                 "h_alpha", "h_gamma"):
        assert f"'{term}': " in str(exc.value)


def test_elbo_drops_when_code_covariance_is_perturbed():
    """update_codes maximizes the bound over q(X); any inflation loses."""
    rng = np.random.default_rng(19)
    data = TrainingSet.from_matrix(rng.standard_normal((4, 10)))
    cfg = ModelConfig(num_atoms=3, beta=4.0, seed=5)
    st = initialize_vb_state(cfg, data)
    for _ in range(3):
        update_codes(st, data)
        update_dictionary_full(st, data, cfg.beta)
        update_alpha(st, cfg)
        update_gamma(st, data, cfg)
    pre = moments_from_state(st)
    update_codes(st, data)
    best = compute_elbo(st, data, cfg)

    covs = np.stack([
        oracles.code_posterior_dense(st.dict_mean, pre.dtd,
                                     pre.alpha_mean[:, l], pre.gamma_mean,
                                     data.Y[:, l])[1]
        for l in range(data.L)])
    for key, value in oracles.reduce_code_covs(4.0 * covs).items():
        setattr(st, key, value)
    assert compute_elbo(st, data, cfg) < best


# ---------------------------------------------------------------------------
# driver behavior


def test_run_vb_trace_and_determinism():
    rng = np.random.default_rng(11)
    data = TrainingSet.from_matrix(rng.standard_normal((4, 20)))
    cfg = ModelConfig(num_atoms=5, iters=30, tol=0.0, seed=42, beta=10.0)
    st1, tr1 = run_vb(cfg, data)
    st2, tr2 = run_vb(cfg, data)
    assert tr1.iterations_run == 30
    assert not tr1.results["converged"]
    assert len(tr1.columns["elbo"]) == len(tr1.columns["dict_change"]) == 30
    assert tr1.results["jitter_fallback_columns"] == 0
    assert tr1.results["jitter_fallback_dictionary"] == 0
    np.testing.assert_array_equal(st1.dict_mean, st2.dict_mean)
    assert tr1.columns["elbo"] == tr2.columns["elbo"]


def test_run_vb_forms_the_expected_residual_once_per_sweep(monkeypatch):
    """update_gamma returns the residual it forms and run_vb hands it to
    compute_elbo, so each sweep forms it once; every bound equals
    compute_elbo's own, which forms it again."""
    rng = np.random.default_rng(13)
    data = TrainingSet.from_matrix(rng.standard_normal((4, 20)))
    cfg = ModelConfig(num_atoms=5, iters=4, tol=0.0, seed=3, beta=10.0)
    calls = []

    def counting(state, data):
        calls.append(1)
        return expected_residual(state, data)

    monkeypatch.setattr(vb, "expected_residual", counting)
    _, tr = run_vb(cfg, data)
    assert len(calls) == 4
    monkeypatch.setattr(vb, "compute_elbo", lambda state, data, cfg, resid:
                        compute_elbo(state, data, cfg))
    _, again = run_vb(cfg, data)
    assert again.columns["elbo"] == tr.columns["elbo"]


def test_run_vb_converges_with_loose_tol():
    rng = np.random.default_rng(12)
    data = TrainingSet.from_matrix(rng.standard_normal((4, 20)))
    cfg = ModelConfig(num_atoms=5, iters=500, tol=1e-3, seed=0, beta=10.0)
    _, tr = run_vb(cfg, data)
    assert tr.results["converged"]
    assert tr.iterations_run < 500
    assert tr.columns["dict_change"][-1] < 1e-3
    assert [len(column) for column in tr.columns.values()] == \
        [tr.iterations_run] * 2


def test_run_vb_fits_noiseless_square_system():
    """Orthonormal ground truth, 1-sparse codes, no noise: near-exact fit."""
    rng = np.random.default_rng(20)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    L = 120
    X_true = np.zeros((8, L))
    for l in range(L):
        X_true[rng.integers(8), l] = (1.0 + rng.random()) * \
            (1.0 if rng.random() < 0.5 else -1.0)
    Y = Q @ X_true
    data = TrainingSet.from_matrix(Y)
    cfg = ModelConfig(num_atoms=8, iters=500, tol=1e-8, seed=3)
    st, _ = run_vb(cfg, data)
    rel = np.linalg.norm(Y - st.dict_mean @ st.code_means) / np.linalg.norm(Y)
    assert rel < 1e-3


def test_run_vb_rejects_unknown_variant():
    rng = np.random.default_rng(13)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 6)))
    with pytest.raises(ConfigParseError,
                       match="^unknown variant 'blockwise'$"):
        run_vb(ModelConfig(num_atoms=3), data, variant="blockwise")
