"""Sampler conditionals against analytic moments and independent kernels."""

import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack
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
)
from bayesdict.gibbs import (
    sample_alpha,
    sample_atoms,
    sample_codes,
    sample_gamma,
)
from bayesdict.linalg import _rfp_layout, _rfp_unpack
from bayesdict.model import GibbsState, Trace

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


def draw_tiled(base, data, copies):
    """copies draws of every code column of (base, data) from one
    sample_codes call on the problem tiled copies times, as a
    (copies, N, L) array, and the call's count of dense columns.

    The tiled columns are independent given D and gamma, so the draws of
    one column are as independent as those of copies separate calls.
    """
    N, L = base.X.shape
    st = GibbsState(X=np.tile(base.X, copies), D=base.D,
                    alpha=np.tile(base.alpha, copies), gamma=base.gamma,
                    rng=base.rng)
    n_dense = sample_codes(st, TrainingSet.from_matrix(
        np.tile(data.Y, copies)))
    return st.X.reshape(N, copies, L).transpose(1, 0, 2), n_dense


# _SLAB_MAX_M as set, so M = 2 and 3 take the slab kernel, then 0: RFP
KERNELS = (gibbs._SLAB_MAX_M, 0)


def test_sample_codes_moments(monkeypatch):
    base, data = fixed_problem(seed=0)
    for slab_max_m in KERNELS:
        monkeypatch.setattr(gibbs, "_SLAB_MAX_M", slab_max_m)
        draws, _ = draw_tiled(base, data, N_DRAWS)
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


def test_sample_codes_moments_low_rank(monkeypatch):
    """Draws whitened by the oracle's conditional moments are N(0, I).

    Whitening column l by its exact mean and Cholesky factor makes every
    column a draw of the same N(0, I_6), so the columns pool into one
    test of 6 means and 21 covariance entries at 3 standard errors.
    Checking each column's 6 means and 36 covariance entries instead
    (168 checks) fails by chance on about a third of seeds.
    """
    base, data = low_rank_problem()
    N, L = base.X.shape
    for slab_max_m in KERNELS:
        monkeypatch.setattr(gibbs, "_SLAB_MAX_M", slab_max_m)
        draws, n_dense = draw_tiled(base, data, N_DRAWS)
        assert n_dense == 0
        white = []
        for l in range(L):
            mean, cov = oracles.code_conditional_moments(
                base.D, base.alpha[:, l], base.gamma, data.Y[:, l])
            chol = np.linalg.cholesky(cov)
            white.append(np.linalg.solve(chol, (draws[:, :, l] - mean).T).T)
        white = np.vstack(white)
        assert np.all(np.abs(white.mean(axis=0))
                      < 3.0 * oracles.mean_se(white))
        upper = np.triu_indices(N)
        cov_gap = np.abs(np.cov(white.T) - np.eye(N))[upper]
        cse = oracles.cov_se(np.eye(N), white.shape[0])[upper]
        assert np.all(cov_gap < 3.0 * cse)


def force_dense_column(state, l=2):
    """alpha = 1e-12 with g = 100 puts kappa_l near 1e14, past the guard."""
    state.gamma = 100.0
    state.alpha[0, l] = 1e-12


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


def _set_usable_cpus(monkeypatch, cpus):
    """Make the process's affinity mask read as `cpus`, so the worker's
    CPU condition does not depend on the host."""
    monkeypatch.setattr(gibbs.os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)


def _threads_at_each_dpftrf(monkeypatch):
    """A list that gets the process's thread count at each dpftrf call."""
    real_dpftrf = scipy.linalg.lapack.dpftrf
    counts = []

    def counting(*args):
        counts.append(threading.active_count())
        return real_dpftrf(*args)

    monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", counting)
    return counts


def _assert_dpftrf_failure_named(monkeypatch, shape, column):
    """dpftrf failing at `column` raises SingularPrecision naming it,
    after exactly that many calls, and leaves no worker thread running."""
    M, N, L = shape
    base, data = fixed_problem(seed=23, M=M, N=N, L=L)
    real_dpftrf = scipy.linalg.lapack.dpftrf
    calls = []

    def failing(*args):
        a, info = real_dpftrf(*args)
        calls.append(1)
        return a, 3 if len(calls) == column + 1 else info

    monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", failing)
    before = threading.active_count()
    with pytest.raises(SingularPrecision, match=rf"^column {column}: "):
        sample_codes(clone(base), data)
    assert len(calls) == column + 1
    assert threading.active_count() == before


def test_sample_codes_names_the_column_dpftrf_rejects(monkeypatch):
    """An RFP factorization failing at column 65, the second block's
    second column, with each block's GEMM inline on one usable CPU. M = 4
    takes the slab kernel, which calls no dpftrf, so _SLAB_MAX_M = 0
    sends it to RFP."""
    monkeypatch.setattr(gibbs, "_SLAB_MAX_M", 0)
    _set_usable_cpus(monkeypatch, {0})
    _assert_dpftrf_failure_named(monkeypatch, (4, 6, 70), 65)


def test_sample_codes_on_the_worker_names_the_column_dpftrf_rejects(
        monkeypatch):
    """The same at column 130, the third block's third, while the worker
    forms the fourth block's systems."""
    _set_usable_cpus(monkeypatch, {0, 1})
    _assert_dpftrf_failure_named(monkeypatch, (64, 256, 300), 130)


def _slab_columns(monkeypatch, M, width):
    """Make the slab kernel take `width` columns per block at this M."""
    monkeypatch.setattr(gibbs, "_SLAB_BYTES", 8 * (M + 1) * M * width)


@pytest.mark.parametrize("slab_max_m", [None, 0])
def test_sample_codes_names_a_nan_column(monkeypatch, slab_max_m):
    """A nan in alpha[:, 65] makes that column's system nan, which the
    slab kernel (64-column blocks, so column 65 is the second block's
    second) and RFP (_SLAB_MAX_M = 0) both reject by name."""
    base, data = fixed_problem(seed=23, M=4, N=6, L=70)
    base.alpha[:, 65] = np.nan
    _slab_columns(monkeypatch, 4, 64)
    if slab_max_m is not None:
        monkeypatch.setattr(gibbs, "_SLAB_MAX_M", slab_max_m)
    with pytest.raises(SingularPrecision, match=r"^column 65: "):
        sample_codes(clone(base), data)


def test_slab_names_the_first_column_with_a_bad_pivot():
    """Of three systems, the second fails at its third pivot (0) and the
    third at its first (negative): the slab kernel names the second
    column and its leading minor, as a per-column loop would, and leaves
    w as it was."""
    M = 4
    systems = gibbs._Slab(np.zeros((M, 1)), 3)
    A = np.stack([np.eye(M), np.eye(M), -np.eye(M)], axis=-1)
    A[2, 2, 1] = 0.0
    S = np.empty((M + 1, M, 3))
    S[:M, :M] = A
    w = np.ones((3, M))
    assert systems.solve(S, w) == (1, "leading minor 3")
    np.testing.assert_array_equal(w, 1.0)


@pytest.mark.parametrize("M", [1, 2, 5, 20, gibbs._SLAB_MAX_M])
@pytest.mark.parametrize("oracle", [oracles.sample_codes_lu,
                                    oracles.sample_codes_packed])
def test_slab_kernel_matches_oracles(monkeypatch, M, oracle):
    """The slab kernel against the LU and packed dppsv oracles, with
    column 2 forced dense and 64-column blocks, so L = 150 ends on a
    ragged block of 22."""
    base, data = fixed_problem(seed=22, M=M, N=max(3, 5 * M // 2), L=150)
    force_dense_column(base)
    _slab_columns(monkeypatch, M, 64)
    assert_same_draws(base, data, want_dense=1, oracle=oracle)


@pytest.mark.parametrize("M, calls", [(gibbs._SLAB_MAX_M, 0),
                                      (gibbs._SLAB_MAX_M + 1, 90)])
def test_slab_kernel_calls_no_dpftrf(monkeypatch, M, calls):
    """At M = _SLAB_MAX_M the code step makes no dpftrf call; one atom
    more and it makes one per column."""
    base, data = fixed_problem(seed=22, M=M, N=2 * M, L=90)
    real_dpftrf = scipy.linalg.lapack.dpftrf
    counts = []

    def counting(*args):
        counts.append(1)
        return real_dpftrf(*args)

    monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", counting)
    sample_codes(clone(base), data)
    assert len(counts) == calls


def _assert_block_size_free(base, data, set_block, blocks):
    """sample_codes under each block size b in `blocks` (set by
    set_block(b)) gives the same draws to round-off and the same dense
    count and generator state."""
    runs = []
    for b in blocks:
        set_block(b)
        st = clone(base)
        st.rng = np.random.default_rng(99)
        runs.append((sample_codes(st, data), st.X, st.rng.standard_normal()))
    for dense, X, after in runs[1:]:
        assert (dense, after) == (runs[0][0], runs[0][2])
        np.testing.assert_allclose(X, runs[0][1], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("problem", [lambda: low_rank_problem(L=20),
                                     lambda: fixed_problem(seed=25, M=20,
                                                           N=50, L=150)],
                         ids=["3x6x20", "20x50x150"])
def test_slab_draws_do_not_depend_on_its_block_size(monkeypatch, problem):
    """Slabs of 1, 7, 64 and all L columns, column 2 dense."""
    base, data = problem()
    force_dense_column(base)
    _assert_block_size_free(
        base, data, lambda width: _slab_columns(monkeypatch, data.M, width),
        (1, 7, 64, data.L))


# M <= _SLAB_MAX_M takes the slab kernel, so the sample_codes tests here
# that use the bench cell or smaller shapes do not reach _Rfp; these run
# their cases again with _SLAB_MAX_M = 0, which sends every M to it.
@pytest.fixture
def rfp_path(monkeypatch):
    monkeypatch.setattr(gibbs, "_SLAB_MAX_M", 0)


def test_rfp_draws_do_not_depend_on_block_size(monkeypatch, rfp_path):
    """_BLOCK = 1, 7 and L at M = 3, column 2 dense."""
    base, data = low_rank_problem(L=20)
    force_dense_column(base)
    _assert_block_size_free(
        base, data, lambda block: monkeypatch.setattr(gibbs, "_BLOCK", block),
        (1, 7, data.L))


@pytest.mark.parametrize("oracle", [oracles.sample_codes_lu,
                                    oracles.sample_codes_packed])
def test_rfp_matches_oracles_with_dense_column(rfp_path, oracle):
    """20/50/200: four blocks, the last ragged, column 2 dense."""
    base, data = fixed_problem(seed=22, M=20, N=50, L=200)
    force_dense_column(base)
    assert_same_draws(base, data, want_dense=1, oracle=oracle)


def test_rfp_matches_packed_dppsv_oracle_near_kappa_max(rfp_path):
    test_sample_codes_matches_packed_dppsv_oracle_near_kappa_max()


@pytest.mark.parametrize("shape", [(20, 50, 200), (8, 40, 130)])
def test_rfp_same_draws_with_and_without_worker(monkeypatch, rfp_path,
                                                shape):
    """With a dense column and a ragged last block."""
    test_sample_codes_same_draws_with_and_without_worker(monkeypatch, shape,
                                                         True)


@pytest.mark.parametrize("shape, dense", [((20, 50, 200), True),
                                          ((64, 256, 300), False),
                                          ((8, 40, 130), True)])
def test_sample_codes_same_draws_with_and_without_worker(monkeypatch, shape,
                                                         dense):
    """The worker only moves each RFP block's system GEMM off the calling
    thread, so two usable CPUs (one worker thread at every dpftrf) and
    one (none) give the same draws, dense count and generator state, bit
    for bit. On the slab kernel (M <= _SLAB_MAX_M) neither run calls
    dpftrf or starts a thread. No L is a multiple of _BLOCK, so each RFP
    run ends on a short block."""
    M, N, L = shape
    base, data = fixed_problem(seed=22, M=M, N=N, L=L)
    if dense:
        force_dense_column(base)
    counts = _threads_at_each_dpftrf(monkeypatch)
    before = threading.active_count()
    runs = []
    for cpus in ({0, 1}, {0}):
        _set_usable_cpus(monkeypatch, cpus)
        counts.clear()
        st = clone(base)
        st.rng = np.random.default_rng(31)
        runs.append((sample_codes(st, data), st.X, st.rng.standard_normal()))
        if M > gibbs._SLAB_MAX_M:
            assert set(counts) == {before + len(cpus) - 1}
        else:
            assert counts == []
        assert threading.active_count() == before
    (dense_on, X_on, next_on), (dense_off, X_off, next_off) = runs
    assert dense_on == dense_off == int(dense)
    np.testing.assert_array_equal(X_on, X_off)
    assert next_on == next_off


@pytest.mark.parametrize("shape, workers", [((64, 256, 64), 0),
                                            ((64, 256, 300), 1),
                                            ((20, 50, 200), 1)])
def test_sample_codes_starts_a_worker_only_at_scale(monkeypatch, shape,
                                                    workers):
    """On the RFP path (_SLAB_MAX_M = 0, since the bench cell's M = 20
    takes the slab kernel) with two usable CPUs, a call of more than one
    block runs on exactly one worker, which is gone when the call
    returns, whatever its GEMM size; a one-block call has nothing to
    overlap and starts none."""
    M, N, L = shape
    base, data = fixed_problem(seed=22, M=M, N=N, L=L)
    counts = _threads_at_each_dpftrf(monkeypatch)
    monkeypatch.setattr(gibbs, "_SLAB_MAX_M", 0)
    _set_usable_cpus(monkeypatch, {0, 1})
    before = threading.active_count()
    sample_codes(clone(base), data)
    assert len(counts) == L
    assert set(counts) == {before + workers}
    assert threading.active_count() == before


def test_sample_codes_on_one_cpu_runs_inline(monkeypatch):
    """A process that may use one CPU has nothing to overlap, so the
    image-train shape starts no worker there, and its inline draws match
    the packed dppsv oracle's."""
    base, data = fixed_problem(seed=22, M=64, N=256, L=300)
    counts = _threads_at_each_dpftrf(monkeypatch)
    _set_usable_cpus(monkeypatch, {0})
    before = threading.active_count()
    assert_same_draws(base, data, want_dense=0,
                      oracle=oracles.sample_codes_packed)
    assert len(counts) == data.L
    assert set(counts) == {before}


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    """Where the OS has no affinity call, every CPU counts."""
    _set_usable_cpus(monkeypatch, {3})
    assert gibbs._usable_cpus() == 1
    monkeypatch.delattr(gibbs.os, "sched_getaffinity")
    monkeypatch.setattr(gibbs.os, "cpu_count", lambda: 2)
    assert gibbs._usable_cpus() == 2
    monkeypatch.setattr(gibbs.os, "cpu_count", lambda: None)
    assert gibbs._usable_cpus() == 1


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
    block's RFP systems 1.0 MiB, in one of two buffers while the worker
    fills the other. Measured peak traced allocation of one call: 7.2
    MiB (6.8 MiB with one block's systems at a time and no worker),
    against 12.3 MiB with one whole-width gather of K and 12.6 MiB when
    every system was formed in full from an N x M^2 K."""
    state, data = fixed_problem(seed=24, M=64, N=256, L=3721)
    assert _traced_peak(lambda: sample_codes(state, data)) < 8 * 2**20


def test_sample_codes_slab_stays_compact():
    """M = _SLAB_MAX_M = 28, N = 70, L = 1000: the slab kernel takes 322
    columns per _SLAB_BYTES = 2 MiB slab, so four blocks (the last
    ragged) go through one slab allocated once. Measured peak traced
    allocation of one call: 3.6 MiB, of which 2.0 MiB is the slab."""
    state, data = fixed_problem(seed=24, M=gibbs._SLAB_MAX_M, N=70, L=1000)
    assert _traced_peak(lambda: sample_codes(state, data)) < 4 * 2**20


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


def _alpha_shapes():
    """N x L smaller than one chunk, L wider than one chunk (a chunk is
    one row), and a row count the rows per chunk do not divide."""
    rows = gibbs._DRAW_CHUNK // 1000
    return [(40, 300), (3, gibbs._DRAW_CHUNK + 3), (2 * rows + 7, 1000)]


@pytest.mark.parametrize("shape", _alpha_shapes(),
                         ids=["small", "wide-rows", "ragged"])
@pytest.mark.parametrize("a", [0.1, 0.5, 0.8])
def test_sample_alpha_matches_allocating_oracle(a, shape):
    """Bit for bit the one-draw form, and the same stream consumed, at
    Gamma shapes a + 1/2 below, at and above 1 (three sampler branches).
    Row 1 at x = 1e154 exercises the clamp."""
    X = np.random.default_rng(27).standard_normal(shape)
    X[1] = 1e154
    cfg = ModelConfig(num_atoms=shape[0], a=a)
    got, want = (GibbsState(X=X, D=np.zeros((3, shape[0])),
                            alpha=np.ones_like(X), gamma=1.0,
                            rng=np.random.default_rng(28)) for _ in range(2))
    sample_alpha(got, cfg)
    oracles.sample_alpha_allocating(want, cfg)
    np.testing.assert_array_equal(got.alpha, want.alpha)
    assert got.rng.bit_generator.state == want.rng.bit_generator.state


def test_sample_alpha_overwrites_state_array():
    state, _ = fixed_problem(seed=29, N=3, L=4)
    alpha = state.alpha
    sample_alpha(state, ModelConfig(num_atoms=3))
    assert state.alpha is alpha


@pytest.mark.parametrize("seed", [30, 31])
def test_sample_gamma_matches_allocating_oracle(seed):
    got, data = fixed_problem(seed=seed, M=7, N=5, L=300)
    want = clone(got)
    want.rng = np.random.default_rng(1234)
    cfg = ModelConfig(num_atoms=5, c=0.9, d=0.2)
    assert sample_gamma(got, data, cfg) \
        == oracles.sample_gamma_allocating(want, data, cfg)
    assert got.gamma == want.gamma


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_alpha_at_image_scale_stays_compact():
    """64/256/3721: the allocating form peaks at 14.5 MiB traced (an N x L
    scale and an N x L draw); in place, 0.48 MiB of chunked draws."""
    state, _ = fixed_problem(seed=24, M=64, N=256, L=3721)
    assert _traced_peak(
        lambda: sample_alpha(state, ModelConfig(num_atoms=256))) < 2**20


def test_sample_gamma_at_image_scale_holds_one_residual():
    """64/256/3721: one M x L residual (1.82 MiB), squared in place; the
    allocating form peaks at twice that."""
    state, data = fixed_problem(seed=24, M=64, N=256, L=3721)
    peak = _traced_peak(
        lambda: sample_gamma(state, data, ModelConfig(num_atoms=256)))
    assert peak < data.Y.nbytes + 2**16


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
    cfg = ModelConfig(num_atoms=5, iters=12, beta=1.0, seed=9)
    st1, tr1 = run_gibbs(cfg, data)
    st2, tr2 = run_gibbs(cfg, data)
    np.testing.assert_array_equal(st1.D, st2.D)
    np.testing.assert_array_equal(st1.X, st2.X)
    assert tr1.columns["residual"] == tr2.columns["residual"]
    assert tr1.columns["gamma"] == tr2.columns["gamma"]
    for a, b in zip(tr1.kept_dicts, tr2.kept_dicts):
        np.testing.assert_array_equal(a, b)


def test_run_gibbs_keeps_exactly_the_averaged_tail():
    """With average_tail(3) the chain stores D after sweeps 9, 10 and 11
    and no others: each is the final D of the same-seed chain stopped at
    that sweep."""
    rng = np.random.default_rng(8)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 8)))
    cfg = ModelConfig(num_atoms=3, iters=11, beta=1.0, seed=1,
                      dict_estimate_mode="average_tail(3)")
    _, trace = run_gibbs(cfg, data)
    assert len(trace.kept_dicts) == 3
    assert len(trace.columns["residual"]) == 11
    assert len(trace.columns["gamma"]) == 11
    assert trace.iterations_run == 11
    for i, kept in enumerate(trace.kept_dicts):
        shorter, _ = run_gibbs(
            ModelConfig(num_atoms=3, iters=9 + i, beta=1.0, seed=1), data)
        np.testing.assert_array_equal(kept, shorter.D)


def test_run_gibbs_sums_dense_columns_over_sweeps(monkeypatch):
    """dense_fallback_columns sums what sample_codes returns over the
    sweeps; here every sweep reports two dense columns."""
    real = gibbs.sample_codes

    def two_dense(state, data):
        real(state, data)
        return 2

    monkeypatch.setattr(gibbs, "sample_codes", two_dense)
    rng = np.random.default_rng(8)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 8)))
    _, trace = run_gibbs(ModelConfig(num_atoms=3, iters=6, beta=1.0), data)
    assert trace.results["dense_fallback_columns"] == 12


def test_run_gibbs_stores_only_the_tail_at_image_scale():
    """64/256/64, 60 sweeps, last_sample: one stored copy of D (0.125
    MiB). The traced peak read 8.6 MiB, almost all of it the code step's
    K and block systems plus one dense draw's N x N arrays; a chain that
    stored D after every sweep read 14.8 MiB, 7.4 MiB of it copies."""
    rng = np.random.default_rng(25)
    data = TrainingSet.from_matrix(rng.standard_normal((64, 64)))
    cfg = ModelConfig(num_atoms=256, iters=60, beta=1.0, seed=3)
    assert _traced_peak(lambda: run_gibbs(cfg, data)) < 10 * 2**20


def test_final_kept_dict_is_final_state():
    rng = np.random.default_rng(9)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 8)))
    cfg = ModelConfig(num_atoms=3, iters=7, beta=1.0, seed=2)
    state, trace = run_gibbs(cfg, data)
    np.testing.assert_array_equal(trace.kept_dicts[-1], state.D)


def test_estimate_dictionary_averages_the_kept_samples():
    """The chain keeps exactly the window the estimate averages (see
    test_run_gibbs_keeps_exactly_the_averaged_tail), so the estimate is
    the mean of every kept sample; a trace with none raises."""
    mats = [np.full((2, 2), float(k)) for k in range(5)]
    np.testing.assert_array_equal(
        estimate_dictionary(Trace(kept_dicts=mats)), np.full((2, 2), 2.0))
    np.testing.assert_array_equal(
        estimate_dictionary(Trace(kept_dicts=mats[-1:])), mats[-1])
    with pytest.raises(EmptyTrace, match="^no dictionary samples were kept$"):
        estimate_dictionary(Trace())


def test_run_gibbs_stops_on_non_finite_state(monkeypatch):
    rng = np.random.default_rng(13)
    data = TrainingSet.from_matrix(rng.standard_normal((3, 8)))
    cfg = ModelConfig(num_atoms=3, iters=10, beta=1.0, seed=1)
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
        cfg = ModelConfig(num_atoms=10, iters=300, beta=1.0, seed=seed)
        _, trace = run_gibbs(cfg, data)
        residual = trace.columns["residual"]
        early = np.mean(residual[:5])
        late = np.mean(residual[-5:])
        assert late < early
        assert np.median(residual[-50:]) < np.median(residual[:50])
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
