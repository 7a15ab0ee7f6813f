"""Sampler conditionals against analytic moments and independent kernels."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dtfttr, dtrttf

from bayesdict import (
    ModelConfig,
    TrainingSet,
    estimate_dictionary,
    run_gibbs,
)
from bayesdict import gibbs
from bayesdict.errors import (
    EmptyTrace,
    NonFinite,
    SingularPrecision,
    TailLargerThanTrace,
)
from bayesdict.gibbs import (
    ChainTrace,
    sample_alpha,
    sample_atoms,
    sample_codes,
    sample_gamma,
)
from bayesdict.linalg import _rfp_layout, _rfp_unpack
from bayesdict.model import GibbsState

import oracles

N_DRAWS = 100_000


def fixed_problem(seed=0, M=2, N=2, L=2):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((M, L))
    data = TrainingSet.from_matrix(Y)
    state = GibbsState(
        X=rng.standard_normal((N, L)),
        D=rng.standard_normal((M, N)),
        alpha=0.5 + rng.random((N, L)),
        gamma=1.7,
        rng=np.random.default_rng(1234),
    )
    return state, data


def clone(state):
    return GibbsState(X=state.X.copy(), D=state.D.copy(),
                      alpha=state.alpha.copy(), gamma=state.gamma,
                      rng=state.rng)


def test_sample_codes_moments():
    base, data = fixed_problem(seed=0)
    draws = np.empty((N_DRAWS, 2, 2))
    st = clone(base)
    for t in range(N_DRAWS):
        st.X = base.X.copy()
        sample_codes(st, data)
        draws[t] = st.X
    for l in range(2):
        mean, cov = oracles.code_conditional_moments(
            base.D, base.alpha[:, l], base.gamma, data.Y[:, l])
        got = draws[:, :, l]
        se = oracles.mean_se(got)
        assert np.all(np.abs(got.mean(axis=0) - mean) < 3.0 * se)
        emp_cov = np.cov(got.T)
        cse = oracles.cov_se(cov, N_DRAWS)
        assert np.all(np.abs(emp_cov - cov) < 3.0 * cse)


def low_rank_problem(L=4):
    """M=3 < N=6, so D'D is singular; alpha mixes active coefficients
    (0.4-1) with pruned ones (1e6)."""
    state, data = fixed_problem(seed=20, M=3, N=6, L=L)
    mask = np.random.default_rng(21).random(state.alpha.shape) < 0.5
    state.alpha = np.where(mask, 0.1 + 0.9 * state.alpha / 1.5, 1e6)
    return state, data


def test_sample_codes_moments_low_rank():
    """Draws whitened by the oracle's conditional moments are N(0, I).

    Whitening column l by its exact mean and Cholesky factor makes every
    column a draw of the same N(0, I_6), so the columns pool into one
    test of 6 means and 21 covariance entries at 3 standard errors.
    Checking each column's 6 means and 36 covariance entries instead
    (168 checks) fails by chance on about a third of seeds.
    """
    base, data = low_rank_problem()
    N, L = base.X.shape
    draws = np.empty((N_DRAWS, N, L))
    st = clone(base)
    for t in range(N_DRAWS):
        assert sample_codes(st, data) == 0
        draws[t] = st.X
    white = []
    for l in range(L):
        mean, cov = oracles.code_conditional_moments(
            base.D, base.alpha[:, l], base.gamma, data.Y[:, l])
        chol = np.linalg.cholesky(cov)
        white.append(np.linalg.solve(chol, (draws[:, :, l] - mean).T).T)
    white = np.vstack(white)
    assert np.all(np.abs(white.mean(axis=0)) < 3.0 * oracles.mean_se(white))
    upper = np.triu_indices(N)
    cov_gap = np.abs(np.cov(white.T) - np.eye(N))[upper]
    cse = oracles.cov_se(np.eye(N), white.shape[0])[upper]
    assert np.all(cov_gap < 3.0 * cse)


def force_dense_column(state, l=2):
    """alpha = 1e-12 with g = 100 puts kappa_l near 1e14, past the guard."""
    state.gamma = 100.0
    state.alpha[0, l] = 1e-12


def test_sample_codes_stream_independent_of_block_size(monkeypatch):
    base, data = low_rank_problem(L=20)
    force_dense_column(base)
    draws = []
    for block in (1, 7, data.L):
        monkeypatch.setattr(gibbs, "_BLOCK", block)
        st = clone(base)
        st.rng = np.random.default_rng(99)
        assert sample_codes(st, data) == 1
        draws.append(st.X)
    for X in draws[1:]:
        np.testing.assert_allclose(X, draws[0], rtol=1e-12, atol=1e-12)


def test_sample_codes_ill_conditioned_column_takes_dense_draw():
    base, data = low_rank_problem()
    l = 2
    force_dense_column(base, l)
    N, L = base.X.shape
    st = clone(base)
    st.rng = np.random.default_rng(5)
    assert sample_codes(st, data) == 1
    z = np.random.default_rng(5).standard_normal((L, N + data.M))
    ref = clone(base)
    oracles.sample_codes_dense(ref, data, normals=z[:, :N].T)
    np.testing.assert_allclose(st.X[:, l], ref.X[:, l],
                               rtol=1e-12, atol=1e-12)


def assert_same_draws(base, data, want_dense, oracle=oracles.sample_codes_lu,
                      rtol=1e-12):
    """sample_codes and an oracle, from one generator seed, agree to rtol
    of the largest entry and count the same dense columns."""
    st, ref = clone(base), clone(base)
    st.rng, ref.rng = np.random.default_rng(31), np.random.default_rng(31)
    assert sample_codes(st, data) == want_dense
    assert oracle(ref, data) == want_dense
    gap = np.max(np.abs(st.X - ref.X))
    assert gap <= rtol * np.max(np.abs(ref.X))


def test_sample_codes_matches_batched_lu_oracle_low_rank():
    base, data = low_rank_problem(L=20)
    assert_same_draws(base, data, want_dense=0)


def test_sample_codes_matches_batched_lu_oracle_with_dense_column():
    """20/50/200 spans four blocks; column 2 takes the dense draw."""
    base, data = fixed_problem(seed=22, M=20, N=50, L=200)
    force_dense_column(base)
    assert_same_draws(base, data, want_dense=1)


@pytest.mark.parametrize("shape, dense", [((20, 50, 200), True),
                                          ((64, 256, 300), False)])
def test_sample_codes_matches_packed_dppsv_oracle(shape, dense):
    """The RFP kernel against the packed dppsv oracle, on the bench cell
    with a forced dense column and at the image-train shape."""
    M, N, L = shape
    base, data = fixed_problem(seed=22, M=M, N=N, L=L)
    if dense:
        force_dense_column(base)
    assert_same_draws(base, data, want_dense=int(dense),
                      oracle=oracles.sample_codes_packed)


def test_sample_codes_matches_packed_dppsv_oracle_near_kappa_max():
    """Column 3's kappa is ~5e5, just under _KAPPA_MAX, so either solve
    may be off the exact draw by ~eps * kappa ~ 1e-10 relative; the two
    agree far closer here (~3e-16), but only that bound is guaranteed."""
    base, data = fixed_problem(seed=27, M=20, N=50, L=70)
    phi2 = base.gamma * np.sum(base.D * base.D, axis=0)
    kappa = 1.0 + phi2 @ (1.0 / base.alpha[:, 3])
    base.alpha[:, 3] *= (kappa - 1.0) / (5e5 - 1.0)
    assert 4.9e5 < 1.0 + phi2 @ (1.0 / base.alpha[:, 3]) < gibbs._KAPPA_MAX
    assert_same_draws(base, data, want_dense=0,
                      oracle=oracles.sample_codes_packed, rtol=1e-9)


def test_sample_codes_names_the_column_dpftrf_rejects(monkeypatch):
    """An RFP factorization failing in the 66th call (column 65, the
    second block's second column) raises SingularPrecision naming it."""
    base, data = fixed_problem(seed=23, M=4, N=6, L=70)
    real_dpftrf = gibbs.dpftrf
    calls = []

    def failing(*args):
        a, info = real_dpftrf(*args)
        calls.append(1)
        return a, 3 if len(calls) == 66 else info

    monkeypatch.setattr(gibbs, "dpftrf", failing)
    with pytest.raises(SingularPrecision, match=r"^column 65: "):
        sample_codes(clone(base), data)
    assert len(calls) == 66


@pytest.mark.parametrize("n", [*range(1, 10), 20, 50, 64, 256])
def test_rfp_layout_decodes_through_dtfttr(n):
    """_rfp_layout(n) is read off LAPACK's dtrttf; unpacking with its
    inverse, dtfttr, puts slot k at (rows[k], cols[k]) of the upper
    triangle, and _rfp_unpack inverts A[rows, cols]. Odd and even n take
    different layouts."""
    layout = rows, cols, diag = _rfp_layout(n)
    size = n * (n + 1) // 2
    slots = np.arange(1.0, size + 1.0)
    upper = np.triu(dtfttr(n, slots, "T", "U")[0])
    np.testing.assert_array_equal(upper[rows, cols], slots)
    assert np.count_nonzero(upper) == size

    rng = np.random.default_rng(28 + n)
    A = rng.standard_normal((n, n))
    A += A.T
    np.testing.assert_array_equal(_rfp_unpack(A[rows, cols], layout), A)


@pytest.mark.parametrize("M", [1, 2, 5, 20, 64])
def test_packed_outer_lays_out_rfp(M):
    """K, built from the _rfp_layout table as sample_codes builds it,
    gives (1/alpha)' K that LAPACK dtfttr unpacks to the upper triangle
    of phi diag(1/alpha) phi', and the layout's diag slots are exactly
    its diagonal. Odd and even M take different RFP layouts."""
    rng = np.random.default_rng(28 + M)
    phi = rng.standard_normal((M, 9))
    inv_alpha = rng.random(9)
    rows, cols, diag = _rfp_layout(M)
    K = phi.T[:, rows] * phi.T[:, cols]
    assert K.shape == (9, M * (M + 1) // 2)
    full, info = dtfttr(M, inv_alpha @ K, "T", "U")
    assert info == 0
    want = (phi * inv_alpha) @ phi.T
    np.testing.assert_allclose(np.triu(full), np.triu(want),
                               rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))
    marks = np.zeros(K.shape[1])
    marks[diag] = 1.0
    assert np.array_equal(dtfttr(M, marks, "T", "U")[0], np.eye(M))


@pytest.mark.parametrize("n", [*range(1, 10), 50, 64])
def test_rfp_diagonal_marks_dtrttf_diagonal(n):
    """dtrttf of diag(1..n) puts entry (i, i) at the i-th diag slot of
    _rfp_layout(n) and zeros everywhere else."""
    arf, info = dtrttf(np.diag(np.arange(1.0, n + 1.0)), "T", "U")
    assert info == 0
    diag = _rfp_layout(n)[2]
    np.testing.assert_array_equal(arf[diag], np.arange(1.0, n + 1.0))
    assert np.count_nonzero(arf) == n


def test_sample_codes_names_the_column_a_dense_draw_fails_on(monkeypatch):
    """A dense draw whose factorization fails raises SingularPrecision
    naming its column, as the packed path does."""
    base, data = low_rank_problem(L=20)
    force_dense_column(base)

    def failing(P):
        raise SingularPrecision("precision matrix not positive definite")

    monkeypatch.setattr(gibbs, "spd_factor", failing)
    with pytest.raises(SingularPrecision, match=r"^column 2: "):
        sample_codes(clone(base), data)


def test_sample_codes_at_image_scale_stays_compact():
    """64/256/3721, the image-train shape. The RFP K is 4.1 MiB; a
    block's RFP systems 1.0 MiB. Measured peak traced allocation of one
    call: 6.8 MiB with K gathered from the layout table M slots at a
    time, against 12.3 MiB with one whole-width gather and 12.6 MiB when
    every system was formed in full from an N x M^2 K. The bound leaves
    ~15% of margin."""
    state, data = fixed_problem(seed=24, M=64, N=256, L=3721)
    tracemalloc.start()
    try:
        sample_codes(state, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sample_codes_pinned_by_huge_alpha():
    """alpha = 1e12 everywhere forces every coefficient to near zero."""
    base, data = fixed_problem(seed=2)
    st = clone(base)
    st.alpha = np.full((2, 2), 1e12)
    for _ in range(100):
        sample_codes(st, data)
        assert np.max(np.abs(st.X)) < 1e-4


def test_sample_atoms_first_atom_moments():
    """The first atom's conditional depends only on the initial state."""
    base, data = fixed_problem(seed=3)
    mean, var = oracles.atom_conditional_moments(
        base.D, base.X, data.Y, base.gamma, beta=2.0, n=0)
    draws = np.empty((N_DRAWS, 2))
    st = clone(base)
    for t in range(N_DRAWS):
        st.D = base.D.copy()
        sample_atoms(st, data, beta=2.0)
        draws[t] = st.D[:, 0]
    se = oracles.mean_se(draws)
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 3.0 * se)
    emp_var = draws.var(axis=0, ddof=1)
    var_se = var * np.sqrt(2.0 / (N_DRAWS - 1))
    assert np.all(np.abs(emp_var - var) < 3.0 * var_se)
    # entries of one atom are conditionally independent
    emp_cross = np.cov(draws.T)[0, 1]
    cross_se = var * np.sqrt(1.0 / N_DRAWS)
    assert abs(emp_cross) < 3.0 * cross_se


def test_sample_atoms_full_sweep_against_independent_kernel():
    """Joint distribution after a whole sweep matches a from-scratch kernel."""
    base, data = fixed_problem(seed=4)
    beta = 1.5

    mine = np.empty((N_DRAWS, 4))
    st = clone(base)
    for t in range(N_DRAWS):
        st.D = base.D.copy()
        sample_atoms(st, data, beta=beta)
        mine[t] = st.D.ravel(order="F")

    ref_rng = np.random.default_rng(777)
    theirs = np.empty((N_DRAWS, 4))
    for t in range(N_DRAWS):
        Dn = oracles.atoms_sweep_independent(
            base.D, base.X, data.Y, base.gamma, beta, ref_rng)
        theirs[t] = Dn.ravel(order="F")

    se = np.sqrt(oracles.mean_se(mine) ** 2 + oracles.mean_se(theirs) ** 2)
    assert np.all(np.abs(mine.mean(axis=0) - theirs.mean(axis=0)) < 3.0 * se)
    cov_gap = np.abs(np.cov(mine.T) - np.cov(theirs.T))
    cse = oracles.cov_se(np.cov(theirs.T), N_DRAWS)
    assert np.all(cov_gap < 3.0 * np.sqrt(2.0) * cse)


def test_sample_atoms_unused_row_falls_back_to_prior():
    """A zero code row detaches its atom: draws are standard normal."""
    base, data = fixed_problem(seed=10)
    base.X[1, :] = 0.0
    draws = np.empty((N_DRAWS, 2))
    st = clone(base)
    for t in range(N_DRAWS):
        st.D = base.D.copy()
        sample_atoms(st, data, beta=1.0)
        draws[t] = st.D[:, 1]
    se = 1.0 / np.sqrt(N_DRAWS)
    assert np.all(np.abs(draws.mean(axis=0)) < 3.0 * se)
    emp_var = draws.var(axis=0, ddof=1)
    var_se = np.sqrt(2.0 / (N_DRAWS - 1))
    assert np.all(np.abs(emp_var - 1.0) < 3.0 * var_se)


def test_atom_sweep_running_residual_matches_recomputation():
    """Same seed, same draws: the only difference between the sampler and
    the from-scratch oracle is incremental vs rebuilt deflation, so the
    resulting dictionaries must agree to rounding."""
    base, data = fixed_problem(seed=11, M=4, N=3, L=6)
    st = clone(base)
    st.rng = np.random.default_rng(555)
    sample_atoms(st, data, beta=2.0)
    want = oracles.atoms_sweep_independent(
        base.D, base.X, data.Y, base.gamma, 2.0,
        np.random.default_rng(555))
    np.testing.assert_allclose(st.D, want, rtol=1e-10, atol=1e-12)


def test_sample_atoms_rejects_unused_atom_under_flat_prior():
    """An all-zero code row with beta = inf leaves its atom with zero
    precision; the sweep names that atom instead of drawing from N(0, inf)."""
    base, data = fixed_problem(seed=12, M=3, N=3, L=4)
    base.X[1, :] = 0.0
    with pytest.raises(SingularPrecision, match=r"^atom 1: "):
        sample_atoms(clone(base), data, beta=np.inf)


def test_sample_alpha_moments():
    base, _ = fixed_problem(seed=5)
    cfg = ModelConfig(num_atoms=2, a=0.8, b=0.1)
    shape = cfg.a + 0.5
    rates = cfg.b + 0.5 * base.X ** 2
    draws = np.empty((N_DRAWS, 2, 2))
    st = clone(base)
    for t in range(N_DRAWS):
        st.X = base.X
        sample_alpha(st, cfg)
        draws[t] = st.alpha
    want_mean = shape / rates
    want_sd = np.sqrt(shape) / rates
    se = want_sd / np.sqrt(N_DRAWS)
    assert np.all(np.abs(draws.mean(axis=0) - want_mean) < 3.0 * se)
    emp_var = draws.var(axis=0, ddof=1)
    want_var = shape / rates ** 2
    var_se = want_var * np.sqrt(2.0 / (N_DRAWS - 1) + 6.0 / shape / N_DRAWS)
    assert np.all(np.abs(emp_var - want_var) < 3.0 * var_se)


def test_sample_alpha_zero_coefficients_at_default_priors():
    """x = 0 with a=0.5, b=1e-6 means Gamma(1, 1e-6): mean 1e6."""
    n, l = 200, 400
    st = GibbsState(X=np.zeros((n, l)), D=np.zeros((3, n)),
                    alpha=np.ones((n, l)), gamma=1.0,
                    rng=np.random.default_rng(42))
    sample_alpha(st, ModelConfig(num_atoms=n))
    assert np.all(st.alpha > 0)
    pooled = st.alpha.ravel()
    se = 1e6 / np.sqrt(pooled.size)  # Gamma(1, r): sd = mean
    assert abs(pooled.mean() - 1e6) < 3.0 * se


def test_sample_alpha_matches_out_of_place_expression():
    """Bit for bit the draws of the plain expression, clamp included, at
    the default shape a + 1/2 = 1 and at a = 0.2 and 2, where the Gamma
    shape is not 1: x = 1e154 makes the Gamma scale ~2e-308, so about
    half the draws of that row fall below _TINY at the default prior."""
    X = np.random.default_rng(25).standard_normal((40, 300))
    X[0] = 0.0
    X[1] = 1e154
    for a in (0.5, 0.2, 2.0):
        cfg = ModelConfig(num_atoms=40, a=a)
        st = GibbsState(X=X, D=np.zeros((3, 40)), alpha=np.ones_like(X),
                        gamma=1.0, rng=np.random.default_rng(26))
        sample_alpha(st, cfg)
        rng = np.random.default_rng(26)
        want = np.maximum(
            rng.gamma(cfg.a + 0.5, 1.0 / (cfg.b + 0.5 * X ** 2)), gibbs._TINY)
        np.testing.assert_array_equal(st.alpha, want)
        assert np.any(want[1] == gibbs._TINY)


def test_sample_gamma_moments():
    base, data = fixed_problem(seed=6)
    cfg = ModelConfig(num_atoms=2, c=0.9, d=0.2)
    resid = data.Y - base.D @ base.X
    shape = cfg.c + data.M * data.L / 2.0
    rate = cfg.d + 0.5 * float(np.sum(resid ** 2))
    draws = np.empty(N_DRAWS)
    st = clone(base)
    for t in range(N_DRAWS):
        sample_gamma(st, data, cfg)
        draws[t] = st.gamma
    want_mean = shape / rate
    se = np.sqrt(shape) / rate / np.sqrt(N_DRAWS)
    assert abs(draws.mean() - want_mean) < 3.0 * se


def test_sample_gamma_exact_fit_and_pinned_shape():
    """Y = DX leaves rate = d, so draws concentrate at (ML/2 + c) / d."""
    M, N, L = 20, 1, 1000
    st = GibbsState(X=np.zeros((N, L)), D=np.zeros((M, N)),
                    alpha=np.ones((N, L)), gamma=1.0,
                    rng=np.random.default_rng(6))
    data = TrainingSet.from_matrix(np.zeros((M, L)))
    cfg = ModelConfig(num_atoms=N, d=1.0)  # c = 0.5
    n_draws = 2000
    draws = np.empty(n_draws)
    for t in range(n_draws):
        sample_gamma(st, data, cfg)
        draws[t] = st.gamma
    want_mean = 10000.5  # shape ML/2 + c over rate d = 1
    se = np.sqrt(10000.5) / np.sqrt(n_draws)
    assert abs(draws.mean() - want_mean) < 3.0 * se


# ---------------------------------------------------------------------------
# chain driver


def test_run_gibbs_is_deterministic():
    rng = np.random.default_rng(7)
    data = TrainingSet.from_matrix(rng.standard_normal((4, 12)))
    cfg = ModelConfig(num_atoms=5, max_iters=12, beta=1.0, seed=9)
    tr1, st1 = run_gibbs(cfg, data)
    tr2, st2 = run_gibbs(cfg, data)
    np.testing.assert_array_equal(st1.D, st2.D)
    np.testing.assert_array_equal(st1.X, st2.X)
    assert tr1.residual_per_iter == tr2.residual_per_iter
    assert tr1.gamma_per_iter == tr2.gamma_per_iter
    for a, b in zip(tr1.kept_dicts, tr2.kept_dicts):
        np.testing.assert_array_equal(a, b)


def test_run_gibbs_burn_in_and_thinning_bookkeeping():
    rng = np.random.default_rng(8)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 8)))
    cfg = ModelConfig(num_atoms=3, max_iters=11, burn_in=4, thinning=3,
                      beta=1.0, seed=1)
    trace, _ = run_gibbs(cfg, data)
    # post burn-in iterations 5..11, kept at 5, 8, 11
    assert len(trace.kept_dicts) == 3
    assert len(trace.residual_per_iter) == 11
    assert len(trace.gamma_per_iter) == 11
    assert len(trace.dense_fallback_per_iter) == 11


def test_run_gibbs_keeps_every_post_burn_in_sample_by_default():
    rng = np.random.default_rng(12)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 8)))
    cfg = ModelConfig(num_atoms=3, max_iters=9, burn_in=6, beta=1.0, seed=1)
    trace, _ = run_gibbs(cfg, data)
    assert cfg.thinning == 1
    assert len(trace.kept_dicts) == cfg.max_iters - cfg.burn_in


def test_final_kept_dict_is_final_state():
    rng = np.random.default_rng(9)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 8)))
    cfg = ModelConfig(num_atoms=3, max_iters=7, beta=1.0, seed=2)
    trace, state = run_gibbs(cfg, data)
    np.testing.assert_array_equal(trace.kept_dicts[-1], state.D)


def test_estimate_dictionary_modes():
    mats = [np.full((2, 2), float(k)) for k in range(5)]
    trace = ChainTrace(kept_dicts=mats)
    np.testing.assert_array_equal(estimate_dictionary(trace, "last_sample"),
                                  mats[-1])
    np.testing.assert_array_equal(
        estimate_dictionary(trace, "average_tail(2)"),
        np.full((2, 2), 3.5))
    np.testing.assert_array_equal(
        estimate_dictionary(trace, "average_tail(5)"),
        np.full((2, 2), 2.0))
    with pytest.raises(TailLargerThanTrace):
        estimate_dictionary(trace, "average_tail(6)")
    with pytest.raises(EmptyTrace):
        estimate_dictionary(ChainTrace(), "last_sample")


def test_run_gibbs_stops_on_non_finite_state(monkeypatch):
    rng = np.random.default_rng(13)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 8)))
    cfg = ModelConfig(num_atoms=3, max_iters=10, beta=1.0, seed=1)
    real_sample_atoms = gibbs.sample_atoms
    calls = []

    def poisoned(state, data, beta):
        real_sample_atoms(state, data, beta)
        calls.append(1)
        if len(calls) == 2:
            state.D[0, 0] = np.nan

    monkeypatch.setattr(gibbs, "sample_atoms", poisoned)
    with pytest.raises(NonFinite, match="^sweep 2: "):
        run_gibbs(cfg, data)


def residual_ratios(chain_seeds):
    """late/early residual ratio per chain on one clean low-noise problem,
    checking for every chain that the fit improves over time."""
    from bayesdict import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(M=8, N=10, L=120, sparsity=2, snr_db=40.0, seed=0)
    _, _, Y, _ = generate_synthetic(spec)
    data = TrainingSet.from_matrix(Y)
    ratios = []
    for seed in chain_seeds:
        cfg = ModelConfig(num_atoms=10, max_iters=300, beta=1.0, seed=seed)
        trace, _ = run_gibbs(cfg, data)
        early = np.mean(trace.residual_per_iter[:5])
        late = np.mean(trace.residual_per_iter[-5:])
        assert late < early
        assert np.median(trace.residual_per_iter[-50:]) < \
            np.median(trace.residual_per_iter[:50])
        ratios.append(late / early)
    return np.array(ratios)


@pytest.mark.slow
def test_chain_reduces_residual_on_easy_problem(monkeypatch):
    """Every chain improves the fit, and the data-space code draw mixes no
    worse than the per-column dense draw: over eight chains its mean
    late/early residual ratio stays within two standard errors of the
    dense sampler's. One chain's ratio varies too much between seeds
    (0.06 to 0.84 for the dense sampler) to bound on its own."""
    seeds = range(8)
    batched = residual_ratios(seeds)
    with monkeypatch.context() as m:
        m.setattr(gibbs, "sample_codes", oracles.sample_codes_dense)
        dense = residual_ratios(seeds)
    dense_se = dense.std(ddof=1) / np.sqrt(len(dense))
    assert batched.mean() <= dense.mean() + 2.0 * dense_se
