"""Greedy sparse coding: exactness, refit optimality, stopping rules."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bayesdict import OmpStop, batch_encode, normalize_dictionary, omp_encode
from bayesdict import omp
from bayesdict.errors import (
    DimensionMismatch,
    NonFinite,
    NonPositiveHyperparameter,
)
from bayesdict.patches import extract_patches
import bench_inputs
import oracles


def test_stop_rule_validation():
    with pytest.raises(NonPositiveHyperparameter,
                       match="^max_sparsity or residual_threshold must be"):
        OmpStop()
    with pytest.raises(NonPositiveHyperparameter, match="^max_sparsity "):
        OmpStop(max_sparsity=0)
    # an inf threshold would code every column with no atom
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(NonPositiveHyperparameter,
                           match="^residual_threshold must be finite"):
            OmpStop(residual_threshold=bad)
    with pytest.raises(NonPositiveHyperparameter, match="^max_sparsity "):
        OmpStop(max_sparsity=2.5)
    OmpStop(max_sparsity=3)
    OmpStop(max_sparsity=np.int64(3))
    OmpStop(residual_threshold=0.0)
    OmpStop(max_sparsity=3, residual_threshold=0.1)


def test_normalize_dictionary():
    D = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    Dn, changed = normalize_dictionary(D)
    assert changed
    np.testing.assert_allclose(Dn[:, 0], [1.0, 0.0])
    np.testing.assert_allclose(Dn[:, 1], [0.0, 1.0])
    # zero column passes through untouched
    np.testing.assert_array_equal(Dn[:, 2], [0.0, 0.0])

    Dn2, changed2 = normalize_dictionary(Dn[:, :2])
    assert not changed2
    np.testing.assert_array_equal(Dn2, Dn[:, :2])


def test_exact_recovery_on_orthonormal_dictionary():
    """Greedy selection is provably exact when atoms are orthonormal."""
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    true_support = [6, 1, 4]
    true_coeffs = np.array([2.0, -1.5, 0.75])
    y = Q[:, true_support] @ true_coeffs

    code = omp_encode(Q, y, OmpStop(max_sparsity=3))
    assert sorted(code.support) == sorted(true_support)
    lookup = dict(zip(code.support, code.coeffs))
    for idx, want in zip(true_support, true_coeffs):
        assert lookup[idx] == pytest.approx(want, abs=1e-12)
    assert code.residual_norm < 1e-12
    assert not code.renormalized


def test_pinned_one_and_two_atom_signals():
    rng = np.random.default_rng(10)
    Q, _ = np.linalg.qr(rng.standard_normal((9, 9)))

    code = omp_encode(Q, Q[:, 7].copy(), OmpStop(residual_threshold=1e-8))
    assert code.support == [7]
    np.testing.assert_allclose(code.coeffs, [1.0], rtol=1e-12)
    assert code.residual_norm < 1e-12

    y = 2.0 * Q[:, 1] + 3.0 * Q[:, 2]
    code = omp_encode(Q, y, OmpStop(max_sparsity=2))
    assert sorted(code.support) == [1, 2]
    lookup = dict(zip(code.support, code.coeffs))
    assert lookup[1] == pytest.approx(2.0, abs=1e-10)
    assert lookup[2] == pytest.approx(3.0, abs=1e-10)


def test_correlation_ties_break_toward_lower_index():
    d = np.array([0.6, 0.8])
    other = np.array([0.8, -0.6])
    D = np.column_stack([other, d, other, d])  # columns 1 and 3 identical
    code = omp_encode(D, d.copy(), OmpStop(max_sparsity=2))
    assert code.support == [1]
    np.testing.assert_allclose(code.coeffs, [1.0], rtol=1e-12)


def test_selection_order_follows_correlation_magnitude():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    y = Q[:, [2, 5]] @ np.array([3.0, -1.0])
    code = omp_encode(Q, y, OmpStop(max_sparsity=2))
    assert code.support == [2, 5]  # larger coefficient first


def test_refit_is_least_squares_on_chosen_support():
    rng = np.random.default_rng(2)
    D = rng.standard_normal((10, 15))
    y = rng.standard_normal(10)
    code = omp_encode(D, y, OmpStop(max_sparsity=4))
    Dn, _ = normalize_dictionary(D)
    sol, *_ = np.linalg.lstsq(Dn[:, code.support], y, rcond=None)
    np.testing.assert_allclose(code.coeffs, sol, rtol=1e-10)
    want_norm = float(np.linalg.norm(y - Dn[:, code.support] @ sol))
    assert code.residual_norm == pytest.approx(want_norm, rel=1e-10)
    assert code.renormalized


def test_no_atom_selected_twice_and_residual_decreases():
    rng = np.random.default_rng(3)
    D = rng.standard_normal((12, 30))
    for trial in range(10):
        y = rng.standard_normal(12)
        norms = []
        for k in range(1, 7):
            code = omp_encode(D, y, OmpStop(max_sparsity=k))
            assert len(set(code.support)) == len(code.support)
            norms.append(code.residual_norm)
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_not_worse_than_best_single_atom():
    """First greedy pick is exactly the best 1-sparse approximation."""
    rng = np.random.default_rng(4)
    D, _ = normalize_dictionary(rng.standard_normal((9, 20)))
    for _ in range(10):
        y = rng.standard_normal(9)
        code = omp_encode(D, y, OmpStop(max_sparsity=1))
        best = min(
            float(np.linalg.norm(y - D[:, [j]] @ np.linalg.lstsq(
                D[:, [j]], y, rcond=None)[0]))
            for j in range(20))
        assert code.residual_norm == pytest.approx(best, rel=1e-10)


def test_matches_exhaustive_search_when_greedy_is_safe():
    """On near-orthogonal dictionaries greedy equals brute force."""
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    D = Q[:, :8] + 0.01 * rng.standard_normal((16, 8))
    D, _ = normalize_dictionary(D)
    for _ in range(10):
        support = rng.choice(8, size=3, replace=False)
        y = D[:, support] @ (1.0 + rng.random(3))
        code = omp_encode(D, y, OmpStop(max_sparsity=3))
        best_err, best_sup = np.inf, None
        for sub in itertools.combinations(range(8), 3):
            sol, *_ = np.linalg.lstsq(D[:, sub], y, rcond=None)
            err = float(np.linalg.norm(y - D[:, sub] @ sol))
            if err < best_err:
                best_err, best_sup = err, sub
        assert sorted(code.support) == sorted(best_sup)
        assert code.residual_norm <= best_err + 1e-9


def test_residual_threshold_stops_early():
    rng = np.random.default_rng(6)
    D = rng.standard_normal((10, 25))
    y = rng.standard_normal(10)
    loose = omp_encode(D, y, OmpStop(residual_threshold=0.9 * np.linalg.norm(y)))
    assert len(loose.support) >= 1
    assert loose.residual_norm <= 0.9 * np.linalg.norm(y)

    all_stop = omp_encode(D, y,
                          OmpStop(residual_threshold=2.0 * np.linalg.norm(y)))
    assert all_stop.support == []
    assert all_stop.coeffs.size == 0


def test_zero_signal_codes_to_empty():
    D = np.eye(4)
    code = omp_encode(D, np.zeros(4), OmpStop(max_sparsity=2))
    assert code.support == []
    assert code.residual_norm == 0.0


def test_stall_rolls_back_the_useless_atom():
    """Once the signal is exactly represented, extra picks are discarded."""
    Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((6, 6)))
    y = Q[:, [0, 3]] @ np.array([1.0, 2.0])
    code = omp_encode(Q, y, OmpStop(max_sparsity=5))
    assert sorted(code.support) == [0, 3]


def test_max_sparsity_caps_at_dictionary_size():
    D = np.eye(3)
    y = np.array([1.0, 2.0, 3.0])
    code = omp_encode(D, y, OmpStop(max_sparsity=10))
    assert len(code.support) == 3
    assert code.residual_norm < 1e-12


def test_batch_encode_matches_single_calls():
    rng = np.random.default_rng(8)
    D = rng.standard_normal((7, 12))
    S = rng.standard_normal((7, 5))
    stop = OmpStop(max_sparsity=3)
    batch = batch_encode(D, S, stop)
    assert len(batch) == 5
    for p in range(5):
        single = omp_encode(D, S[:, p], stop)
        assert batch[p].support == single.support
        np.testing.assert_array_equal(batch[p].coeffs, single.coeffs)


def test_batch_encode_is_permutation_equivariant():
    rng = np.random.default_rng(11)
    D = rng.standard_normal((7, 12))
    S = rng.standard_normal((7, 6))
    stop = OmpStop(max_sparsity=3)
    perm = np.array([5, 0, 3, 1, 4, 2])
    base = batch_encode(D, S, stop)
    shuffled = batch_encode(D, S[:, perm], stop)
    for p in range(6):
        assert shuffled[p].support == base[perm[p]].support
        np.testing.assert_array_equal(shuffled[p].coeffs,
                                      base[perm[p]].coeffs)


def test_three_sparse_recovery_with_subset_search_oracle():
    """Noiseless 3-sparse signals over an incoherent 16x32 dictionary."""
    rng = np.random.default_rng(12)
    cols = []
    while len(cols) < 32:  # random unit atoms, rejected above coherence 0.5
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        if all(abs(v @ u) < 0.5 for u in cols):
            cols.append(v)
    D = np.column_stack(cols)
    gram = np.abs(D.T @ D) - np.eye(32)
    assert gram.max() < 0.5

    supports = [np.sort(rng.choice(32, size=3, replace=False))
                for _ in range(100)]
    signals = np.column_stack(
        [D[:, s] @ rng.standard_normal(3) for s in supports])

    codes = batch_encode(D, signals, OmpStop(max_sparsity=3))
    hits = sum(sorted(c.support) == list(s)
               for c, s in zip(codes, supports))
    assert hits >= 95

    # brute-force best-3-subset confirms the planted support on a subsample
    for c, s, p in list(zip(codes, supports, range(100)))[:10]:
        best_err, best_sub = np.inf, None
        y = signals[:, p]
        for sub in itertools.combinations(range(32), 3):
            Ds = D[:, sub]
            sol = np.linalg.solve(Ds.T @ Ds, Ds.T @ y)
            err = float(np.linalg.norm(y - Ds @ sol))
            if err < best_err:
                best_err, best_sub = err, sub
        assert list(best_sub) == list(s)
        if sorted(c.support) == list(s):
            assert c.residual_norm <= best_err + 1e-9


def test_reconstruct_applies_normalized_atoms():
    rng = np.random.default_rng(9)
    D = 3.0 * rng.standard_normal((6, 10))
    y = rng.standard_normal(6)
    codes = batch_encode(D, y[:, None], OmpStop(max_sparsity=2))
    code = codes[0]
    Dn, _ = normalize_dictionary(D)
    want = Dn[:, code.support] @ code.coeffs
    got = codes.reconstruct(D)
    assert got.shape == (6, 1)
    np.testing.assert_allclose(got[:, 0], want, rtol=1e-12)
    assert np.linalg.norm(y - got[:, 0]) == \
        pytest.approx(code.residual_norm, rel=1e-10)


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        omp_encode(np.eye(3), np.zeros(4), OmpStop(max_sparsity=1))
    with pytest.raises(DimensionMismatch):
        omp_encode(np.eye(3), np.zeros((3, 1)), OmpStop(max_sparsity=1))
    with pytest.raises(DimensionMismatch):
        batch_encode(np.eye(3), np.zeros((4, 2)), OmpStop(max_sparsity=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_dictionary_raises_before_coding(bad):
    D = np.eye(4)
    D[2, 3] = bad
    with pytest.raises(NonFinite, match="dictionary"):
        batch_encode(D, np.ones((4, 3)), OmpStop(max_sparsity=2))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_signal_raises_before_coding(bad):
    Y = np.ones((4, 3))
    Y[1, 2] = bad
    with pytest.raises(NonFinite, match="signals"):
        batch_encode(np.eye(4), Y, OmpStop(residual_threshold=0.5))
    with pytest.raises(NonFinite, match="signals"):
        omp_encode(np.eye(4), Y[:, 2], OmpStop(max_sparsity=1))


def assert_codes_equal(got, want):
    assert got.support == want.support
    np.testing.assert_array_equal(got.coeffs, want.coeffs)
    assert got.residual_norm == want.residual_norm


def test_duplicate_atom_trial_is_dropped_as_a_stall():
    """G[S, S] is singular once the second copy of an atom is tried."""
    D = np.array([[1.0, 1.0], [1.0, 1.0]])
    y = np.array([2.25, 2.25])
    code = omp_encode(D, y, OmpStop(max_sparsity=2))
    assert code.support in ([0], [1])
    one = omp_encode(D, y, OmpStop(max_sparsity=1))
    assert code.residual_norm <= one.residual_norm


def test_singular_column_leaves_the_rest_of_its_block_alone():
    D = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    Y = np.column_stack([[1.0, 2.0, 3.0], [2.25, 2.25, 0.0],
                         [3.0, -1.0, 2.0], [0.5, 4.0, -1.0]])
    stop = OmpStop(max_sparsity=2)
    mixed = batch_encode(D, Y, stop)
    assert mixed[1].support in ([0], [1])
    well_posed = batch_encode(D, Y[:, [0, 2, 3]], stop)
    for p, q in zip([0, 2, 3], range(3)):
        assert len(mixed[p].support) == 2
        assert_codes_equal(mixed[p], well_posed[q])


@st.composite
def blocked_problems(draw):
    M = draw(st.integers(min_value=1, max_value=6))
    N = draw(st.integers(min_value=1, max_value=8))
    P = draw(st.integers(min_value=1, max_value=12))
    entries = st.floats(-10.0, 10.0, allow_subnormal=False)
    D = draw(hnp.arrays(np.float64, (M, N), elements=entries))
    Y = draw(hnp.arrays(np.float64, (M, P), elements=entries))
    if draw(st.booleans()):
        stop = OmpStop(max_sparsity=draw(st.integers(1, N + 1)))
    else:
        stop = OmpStop(residual_threshold=draw(st.floats(0.0, 10.0)))
    block = draw(st.integers(min_value=1, max_value=4))
    return D, Y, stop, block


@settings(max_examples=200, deadline=None, database=None)
@given(blocked_problems())
def test_block_boundaries_do_not_change_any_code(problem):
    """Columns straddling small blocks code bit for bit as on their own."""
    D, Y, stop, block = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(omp, "_BLOCK", block)
        codes = batch_encode(D, Y, stop)
    assert len(codes) == Y.shape[1]
    for p, code in enumerate(codes):
        assert_codes_equal(code, omp_encode(D, Y[:, p], stop))


@st.composite
def exact_fit_problems(draw):
    """blocked_problems with some columns of Y replaced by D @ x, where x
    has at most three nonzeros, so that they can be fitted exactly."""
    D, Y, stop, block = draw(blocked_problems())
    N = D.shape[1]
    entries = st.floats(-10.0, 10.0, allow_subnormal=False)
    for p in range(Y.shape[1]):
        if draw(st.booleans()):
            atoms = draw(st.lists(st.integers(0, N - 1), max_size=3,
                                  unique=True))
            x = np.zeros(N)
            x[atoms] = draw(hnp.arrays(np.float64, len(atoms),
                                       elements=entries))
            Y[:, p] = D @ x
    return D, Y, stop, block


@settings(max_examples=200, deadline=None, database=None)
@given(exact_fit_problems())
def test_exact_fits_do_not_depend_on_block_boundaries(problem):
    D, Y, stop, block = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(omp, "_BLOCK", block)
        codes = batch_encode(D, Y, stop)
    assert len(codes) == Y.shape[1]
    for p, code in enumerate(codes):
        assert_codes_equal(code, omp_encode(D, Y[:, p], stop))


@pytest.mark.parametrize("stop", [OmpStop(max_sparsity=5),
                                  OmpStop(residual_threshold=0.0)])
def test_exact_fit_stops_inside_a_block_of_noisy_columns(stop):
    """The exactly fitted column stops after its two atoms while the noisy
    columns of its block keep going, and every column codes as alone."""
    rng = np.random.default_rng(15)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    Y = rng.standard_normal((6, 4))
    Y[:, 2] = Q[:, [1, 4]] @ np.array([1.5, -0.5])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(omp, "_BLOCK", 4)
        codes = batch_encode(Q, Y, stop)
    assert sorted(codes[2].support) == [1, 4]
    assert codes[2].residual_norm <= 1e-12 * np.linalg.norm(Y[:, 2])
    for p in (0, 1, 3):  # noisy columns need every atom the rule allows
        assert len(codes[p].support) == (stop.max_sparsity or 6)
    for p, code in enumerate(codes):
        assert_codes_equal(code, omp_encode(Q, Y[:, p], stop))


@pytest.mark.parametrize("stop", [OmpStop(max_sparsity=6),
                                  OmpStop(residual_threshold=1.15 * 25 * 8)])
def test_batch_equals_residual_form_oracle_on_image_patches(stop):
    """Correlations from DᵀY and the Gram matrix pick the same atoms as
    correlations from the residual: on the stride-1 patches of a noisy
    48 x 48 benchmark image (sigma 25) against the 64 x 256 overcomplete
    DCT, supports, coefficients and residual norms are bit-equal. Only
    atoms whose correlations tie to round-off may be picked in the other
    order: none do here, and under max_sparsity = 6 two columns of the
    175 692 in twelve 128 x 128 draws (seeds 500, 501, 777) do."""
    clean = bench_inputs.clean_image(48, seed=0)
    noisy = bench_inputs.noisy_image(clean, 25.0, seed=0)
    patches = extract_patches(noisy, patch_size=8, stride=1)
    D = bench_inputs.overcomplete_dct()
    codes = batch_encode(D, patches, stop)
    sizes, sup, coef, norms = oracles.omp_residual_form(
        D, patches, stop.max_sparsity, stop.residual_threshold)
    kept = np.arange(sup.shape[1]) < sizes[:, None]
    np.testing.assert_array_equal(np.diff(codes.indptr), sizes)
    np.testing.assert_array_equal(codes.indices, sup[kept])
    np.testing.assert_array_equal(codes.coeffs, coef[kept])
    np.testing.assert_array_equal(codes.residual_norms, norms)
    assert sizes.min() >= 1


@pytest.mark.parametrize("stop", [OmpStop(max_sparsity=6),
                                  OmpStop(residual_threshold=0.5)])
def test_batch_matches_lstsq_oracle_on_well_conditioned_dictionaries(stop):
    rng = np.random.default_rng(13)
    for trial in range(5):
        D, _ = normalize_dictionary(rng.standard_normal((16, 32)))
        Y = rng.standard_normal((16, 40))
        codes = batch_encode(D, Y, stop)
        for p, code in enumerate(codes):
            support, coeffs, res_norm = oracles.omp_lstsq(
                D, Y[:, p], stop.max_sparsity, stop.residual_threshold)
            assert code.support == support
            np.testing.assert_allclose(code.coeffs, coeffs, rtol=1e-10)
            assert code.residual_norm == pytest.approx(res_norm, rel=1e-10)


def test_codes_of_a_full_denoise_batch_stay_compact():
    """14 641 columns (the stride-1 patches of a 128 x 128 image) against
    a 64 x 256 dictionary. A dense 256 x 14 641 code matrix would be
    28.6 MiB. Measured peak traced allocation while coding: 4.1 MiB,
    0.9 MiB of it the stored indices and coefficients and most of the
    rest one block's work arrays. The bound leaves a margin of ~2x and
    sits below a third of the dense matrix."""
    rng = np.random.default_rng(14)
    D, _ = normalize_dictionary(rng.standard_normal((64, 256)))
    Y = rng.standard_normal((64, 14641))
    tracemalloc.start()
    try:
        codes = batch_encode(D, Y, OmpStop(max_sparsity=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(codes) == 14641
    assert sum(len(c.support) for c in codes) == codes.indptr[-1] \
        == len(codes.indices) == len(codes.coeffs)
