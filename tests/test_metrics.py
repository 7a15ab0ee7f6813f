"""Atom distances, dictionary matching, and the two PSNR conventions."""

import math

import numpy as np
import pytest

from bayesdict import (
    atom_distance,
    match_and_score,
    psnr,
    psnr_conventional,
    reconstruction_error,
)
from bayesdict.errors import ShapeMismatch, ZeroVector


def test_atom_distance_basic_geometry():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert atom_distance(e1, e1) == 0.0
    assert atom_distance(e1, e2) == 1.0
    diag = np.array([1.0, 1.0])
    assert atom_distance(e1, diag) == pytest.approx(1.0 - 1.0 / math.sqrt(2))


def test_atom_distance_sign_and_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(25):
        d = rng.standard_normal(16)
        dh = rng.standard_normal(16)
        base = atom_distance(d, dh)
        assert abs(atom_distance(d, -dh) - base) <= 1e-12
        assert abs(atom_distance(-d, dh) - base) <= 1e-12
        assert abs(atom_distance(3.7 * d, dh) - base) <= 1e-12
        assert abs(atom_distance(d, 0.002 * dh) - base) <= 1e-12
        assert abs(atom_distance(-5.0 * d, 11.0 * dh) - base) <= 1e-12


def test_atom_distance_errors():
    with pytest.raises(ZeroVector):
        atom_distance(np.zeros(3), np.ones(3))
    with pytest.raises(ShapeMismatch):
        atom_distance(np.ones(3), np.ones(4))


def test_perfect_recovery_up_to_permutation_and_sign():
    rng = np.random.default_rng(1)
    D = rng.standard_normal((12, 8))
    perm = rng.permutation(8)
    signs = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    scales = 0.5 + rng.random(8)
    learned = (D[:, perm] * signs) * scales
    report = match_and_score(D, learned)
    assert report.success_rate == 1.0
    assert report.threshold == 0.01
    # matching recovers the permutation
    for ti, li, dist in report.matched_pairs:
        assert perm[li] == ti
        assert dist <= 1e-12


def test_matching_is_injective_and_greedy_global():
    # one learned atom close to two true atoms: only one can claim it
    t0 = np.array([1.0, 0.0, 0.0])
    t1 = np.array([0.999, 0.04, 0.0])
    t1 /= np.linalg.norm(t1)
    learned = np.column_stack([t0, np.array([0.0, 0.0, 1.0])])
    report = match_and_score(np.column_stack([t0, t1]), learned,
                             threshold=0.01)
    assert report.success_rate == 0.5
    learned_used = [li for _, li, _ in report.matched_pairs]
    assert sorted(learned_used) == [0, 1]
    # the exact copy wins the shared atom
    by_true = {ti: (li, d) for ti, li, d in report.matched_pairs}
    assert by_true[0][0] == 0 and by_true[0][1] == 0.0


def test_unmatched_true_atoms_count_as_failures():
    rng = np.random.default_rng(2)
    D = rng.standard_normal((10, 6))
    learned = D[:, :4] * np.array([1.0, -1.0, 2.0, -0.5])
    report = match_and_score(D, learned)
    assert report.success_rate == pytest.approx(4 / 6)
    assert len(report.matched_pairs) == 4


def test_match_threshold_is_strict_less_than():
    t = np.array([[1.0], [0.0]])
    # build a learned atom at exactly distance 0.01
    cos = 0.99
    learned = np.array([[cos], [math.sqrt(1 - cos ** 2)]])
    report = match_and_score(t, learned, threshold=0.01)
    assert report.matched_pairs[0][2] == pytest.approx(0.01, abs=1e-12)
    assert report.success_rate == 0.0


def test_random_dictionary_scores_zero_at_default_threshold():
    """Unrelated random atoms never land within 0.01 of a true atom."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        D_true = rng.standard_normal((20, 50))
        learned = rng.standard_normal((20, 50))
        assert match_and_score(D_true, learned).success_rate == 0.0


def test_match_shape_errors():
    with pytest.raises(ShapeMismatch):
        match_and_score(np.eye(3), np.eye(4))
    with pytest.raises(ShapeMismatch):
        match_and_score(np.eye(3), np.ones(3))


def test_match_rejects_empty_true_dictionary():
    # no true atoms means no rate to report, so a typed error, not 0/0
    with pytest.raises(ShapeMismatch):
        match_and_score(np.zeros((4, 0)), np.eye(4))
    # an empty learned dictionary still matches nothing
    assert match_and_score(np.eye(4), np.zeros((4, 0))).success_rate == 0.0


def test_psnr_printed_formula_and_conventional():
    clean = np.zeros((4, 4))
    test = np.full((4, 4), 2.0)
    # printed form: 20 log10(255 * P / ||diff||), P = 16, ||diff|| = 8
    assert psnr(clean, test) == pytest.approx(20 * math.log10(255 * 16 / 8.0))
    # conventional: 10 log10(255^2 / MSE), MSE = 4
    assert psnr_conventional(clean, test) == \
        pytest.approx(10 * math.log10(255 ** 2 / 4.0))


def test_psnr_variants_differ_by_pixel_count_term():
    """Printed variant exceeds the conventional one by 10 log10(P)."""
    rng = np.random.default_rng(3)
    for q in (4, 8, 16):
        clean = rng.random((q, q)) * 255
        noisy = clean + rng.standard_normal((q, q))
        gap = psnr(clean, noisy) - psnr_conventional(clean, noisy)
        assert gap == pytest.approx(10 * math.log10(q * q), rel=1e-12)


def test_psnr_differences_agree_between_variants():
    """PSNR gains (differences) are convention-independent."""
    rng = np.random.default_rng(4)
    clean = rng.random((8, 8)) * 255
    a = clean + rng.standard_normal((8, 8))
    b = clean + 5.0 * rng.standard_normal((8, 8))
    gain_printed = psnr(clean, a) - psnr(clean, b)
    gain_conv = psnr_conventional(clean, a) - psnr_conventional(clean, b)
    assert gain_printed == pytest.approx(gain_conv, rel=1e-12)


def test_psnr_uniform_error_closed_form_and_monotonicity():
    clean = np.zeros((8, 8))
    # uniform error e: ||diff||_F = 8e, so the value is 20 log10(255*8/e)
    got = psnr(clean, np.full((8, 8), 25.0))
    assert got == pytest.approx(20 * math.log10(255 * 8 / 25.0))
    levels = [psnr(clean, np.full((8, 8), e)) for e in (10.0, 25.0, 50.0)]
    assert levels[0] > levels[1] > levels[2]


def test_psnr_identical_images_is_inf():
    img = np.ones((3, 3))
    assert psnr(img, img) == math.inf
    assert psnr_conventional(img, img) == math.inf


def test_psnr_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        psnr(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ShapeMismatch):
        psnr_conventional(np.zeros((2, 2)), np.zeros((3, 3)))


def test_reconstruction_error():
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    D = np.eye(2)
    X = np.zeros((2, 2))
    assert reconstruction_error(Y, D, X) == pytest.approx(math.sqrt(2.0))
    assert reconstruction_error(D @ np.ones((2, 2)), D, np.ones((2, 2))) == 0.0
    with pytest.raises(ShapeMismatch):
        reconstruction_error(Y, D, np.zeros((3, 2)))


def test_reconstruction_error_matches_elementwise_sum():
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((3, 3))
    D = rng.standard_normal((3, 3))
    X = rng.standard_normal((3, 3))
    total = 0.0
    for i in range(3):
        for j in range(3):
            pred = sum(D[i, k] * X[k, j] for k in range(3))
            total += (Y[i, j] - pred) ** 2
    assert reconstruction_error(Y, D, X) == \
        pytest.approx(math.sqrt(total), rel=1e-12)
