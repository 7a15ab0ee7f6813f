"""Synthetic benchmark data: sparsity pattern, SNR calibration, determinism."""

import numpy as np
import pytest

from bayesdict import SyntheticSpec, generate_synthetic, snr_to_noise_std
from bayesdict.errors import NonPositiveHyperparameter, ZeroSignal


def test_shapes_and_unit_atoms():
    spec = SyntheticSpec(M=6, N=9, L=40, sparsity=3, snr_db=20.0, seed=0)
    D, X, Y, sigma = generate_synthetic(spec)
    assert D.shape == (6, 9)
    assert X.shape == (9, 40)
    assert Y.shape == (6, 40)
    np.testing.assert_allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)
    assert sigma > 0

    bench = SyntheticSpec(M=20, N=50, L=10, sparsity=3, snr_db=30.0, seed=0)
    D, _, _, _ = generate_synthetic(bench)
    assert D.shape == (20, 50)
    np.testing.assert_allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)


def test_fixed_sparsity_exact_per_column():
    spec = SyntheticSpec(M=5, N=12, L=60, sparsity=4, snr_db=15.0, seed=1)
    _, X, _, _ = generate_synthetic(spec)
    counts = (X != 0).sum(axis=0)
    assert np.all(counts == 4)


def test_ranged_sparsity_bounds_and_frequencies():
    spec = SyntheticSpec(M=5, N=12, L=100_000, sparsity=(3, 6), snr_db=15.0,
                         seed=2)
    _, X, _, _ = generate_synthetic(spec)
    counts = (X != 0).sum(axis=0)
    assert counts.min() >= 3 and counts.max() <= 6
    # uniform over {3,4,5,6}: each frequency near 1/4
    for k in (3, 4, 5, 6):
        assert abs(float(np.mean(counts == k)) - 0.25) < 0.01


def test_snr_calibration_round_trip():
    spec = SyntheticSpec(M=20, N=30, L=20000, sparsity=3, snr_db=10.0, seed=3)
    D, X, Y, sigma = generate_synthetic(spec)
    clean = D @ X
    noise = Y - clean
    snr_emp = 10.0 * np.log10(np.mean(clean ** 2) / np.mean(noise ** 2))
    assert abs(snr_emp - 10.0) < 0.2


def test_noise_std_formula():
    unit = np.ones((3, 7))  # per-entry power 1
    assert snr_to_noise_std(unit, 0.0) == pytest.approx(1.0)
    assert snr_to_noise_std(unit, 20.0) == pytest.approx(0.1)

    clean = np.full((4, 25), 2.0)  # per-entry power 4
    assert snr_to_noise_std(clean, 0.0) == pytest.approx(2.0)
    assert snr_to_noise_std(clean, 20.0) == pytest.approx(0.2)
    assert snr_to_noise_std(clean, -20.0) == pytest.approx(20.0)


def test_zero_signal_rejected():
    with pytest.raises(ZeroSignal):
        snr_to_noise_std(np.zeros((3, 3)), 10.0)


def test_infinite_snr_is_noiseless():
    spec = SyntheticSpec(M=6, N=9, L=30, sparsity=2, snr_db=float("inf"),
                         seed=4)
    D, X, Y, sigma = generate_synthetic(spec)
    assert sigma == 0.0
    np.testing.assert_array_equal(Y, D @ X)


@pytest.mark.parametrize("snr_db", [-np.inf, np.nan])
def test_snr_below_every_number_rejected(snr_db):
    """-inf dB would need infinite noise; it is not the noiseless +inf."""
    with pytest.raises(NonPositiveHyperparameter, match="^snr_db must be"):
        SyntheticSpec(M=6, N=9, L=30, sparsity=2, snr_db=snr_db, seed=4)


def test_determinism_and_seed_sensitivity():
    spec = SyntheticSpec(M=6, N=9, L=30, sparsity=2, snr_db=20.0, seed=7)
    out1 = generate_synthetic(spec)
    out2 = generate_synthetic(spec)
    for a, b in zip(out1, out2):
        np.testing.assert_array_equal(a, b)
    other = SyntheticSpec(M=6, N=9, L=30, sparsity=2, snr_db=20.0, seed=8)
    D_other, _, _, _ = generate_synthetic(other)
    assert not np.array_equal(out1[0], D_other)


def test_invalid_specs_rejected():
    """Each is rejected when the spec is built, before any data is drawn."""
    for fields in [
        dict(M=6, N=9, L=30, sparsity=0),
        dict(M=6, N=9, L=30, sparsity=10),
        dict(M=6, N=9, L=30, sparsity=(4, 3)),
        dict(M=6, N=9, L=30, sparsity=(1, 2, 3)),
        dict(M=6, N=9, L=30, sparsity=3.0),
        dict(M=6, N=9, L=30, sparsity=(2.0, 3)),
        dict(M=0, N=9, L=30, sparsity=2),
        dict(M=6, N=9, L=0, sparsity=2),
    ]:
        with pytest.raises(NonPositiveHyperparameter):
            SyntheticSpec(**fields, snr_db=20.0, seed=0)


def test_numpy_integer_sparsity_is_a_single_sparsity():
    """A NumPy integer K builds the same spec and data as the int K."""
    spec = SyntheticSpec(M=6, N=9, L=30, sparsity=3, snr_db=20.0, seed=2)
    np_spec = SyntheticSpec(M=6, N=9, L=30, sparsity=np.int64(3),
                            snr_db=20.0, seed=2)
    assert np_spec == spec
    for got, want in zip(generate_synthetic(np_spec),
                         generate_synthetic(spec)):
        np.testing.assert_array_equal(got, want)


def test_negative_seed_rejected():
    """A negative seed is a typed error, not numpy's raw ValueError."""
    with pytest.raises(NonPositiveHyperparameter, match="^seed must be"):
        SyntheticSpec(M=6, N=9, L=30, sparsity=2, snr_db=20.0, seed=-1)
