"""Configuration validation, training-set construction, and state init."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from bayesdict import (
    ModelConfig,
    TrainingSet,
    initialize_gibbs_state,
    initialize_vb_state,
)
from bayesdict.errors import (
    ConfigParseError,
    DimensionMismatch,
    EmptyTrainingSet,
    NonFiniteTrainingData,
    NonPositiveHyperparameter,
    TailLargerThanTrace,
)
from bayesdict.model import parse_estimate_mode


def make_data(M=4, L=6, seed=0):
    rng = np.random.default_rng(seed)
    return TrainingSet.from_matrix(rng.standard_normal((M, L)))


def test_defaults_follow_reference_settings():
    cfg = ModelConfig(num_atoms=10)
    assert cfg.a == 0.5 and cfg.c == 0.5
    assert cfg.b == 1e-6 and cfg.d == 1e-6
    assert cfg.beta == 1e8
    assert cfg.dict_estimate_mode == "last_sample"


def test_training_set_coerces_and_checks():
    Y = [[1, 2, 3], [4, 5, 6]]
    data = TrainingSet.from_matrix(Y)
    assert data.Y.dtype == np.float64
    assert (data.M, data.L) == (2, 3)

    with pytest.raises(DimensionMismatch):
        TrainingSet.from_matrix(np.zeros(5))
    with pytest.raises(NonFiniteTrainingData):
        TrainingSet.from_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFiniteTrainingData):
        TrainingSet.from_matrix([[1.0, np.inf], [0.0, 1.0]])


@pytest.mark.parametrize("field", ["a", "b", "c", "d", "beta"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_positivity_validation(field, bad):
    with pytest.raises(NonPositiveHyperparameter):
        ModelConfig(num_atoms=4, **{field: bad})


@pytest.mark.parametrize("field", ["a", "b", "c", "d"])
def test_infinite_gamma_hyperparameters_rejected(field):
    """A Gamma shape or rate of inf makes a degenerate prior (a = inf
    pins every code at 0); only beta may be inf."""
    with pytest.raises(NonPositiveHyperparameter, match=f"^{field} must be"):
        ModelConfig(num_atoms=4, **{field: float("inf")})


def test_beta_inf_is_allowed():
    ModelConfig(num_atoms=4, beta=float("inf"))


def test_integer_field_validation():
    with pytest.raises(NonPositiveHyperparameter):
        ModelConfig(num_atoms=0)
    with pytest.raises(NonPositiveHyperparameter):
        ModelConfig(num_atoms=4, iters=0)
    with pytest.raises(NonPositiveHyperparameter):
        ModelConfig(num_atoms=4, seed=-1)
    with pytest.raises(NonPositiveHyperparameter):
        ModelConfig(num_atoms=4, tol=-0.5)


def test_estimate_tail_must_fit_the_chain():
    """The Gibbs estimate averages the last k sweeps; a chain of
    iters sweeps has no more, so a larger k fails when built."""
    ModelConfig(num_atoms=4, iters=20,
                dict_estimate_mode="average_tail(20)")
    ModelConfig(num_atoms=4, iters=1)  # last_sample needs one sweep
    with pytest.raises(TailLargerThanTrace,
                       match=r"^average_tail\(21\) averages 21 sweeps, a "
                             r"chain of iters=20 has 20$"):
        ModelConfig(num_atoms=4, iters=20,
                    dict_estimate_mode="average_tail(21)")


def test_model_config_is_frozen_and_replace_rechecks():
    cfg = ModelConfig(num_atoms=4, iters=10)
    with pytest.raises(FrozenInstanceError):
        cfg.iters = 5
    assert replace(cfg, seed=7).seed == 7
    with pytest.raises(TailLargerThanTrace,
                       match=r"^average_tail\(11\) averages 11 sweeps, a "
                             r"chain of iters=10 has 10$"):
        replace(cfg, dict_estimate_mode="average_tail(11)")
    tail = replace(cfg, dict_estimate_mode="average_tail(10)")
    with pytest.raises(TailLargerThanTrace,
                       match=r"^average_tail\(10\) averages 10 sweeps, a "
                             r"chain of iters=9 has 9$"):
        replace(tail, iters=9)
    with pytest.raises(ConfigParseError, match="^dict_estimate_mode must be"):
        replace(cfg, dict_estimate_mode="average_tail(0)")


def test_empty_training_set_rejected():
    """from_matrix, the one way to build a TrainingSet, rejects it."""
    for M, L in [(4, 0), (0, 3)]:
        with pytest.raises(EmptyTrainingSet,
                           match=f"^training set is {M}x{L}$"):
            TrainingSet.from_matrix(np.zeros((M, L)))


def test_estimate_mode_parsing():
    assert parse_estimate_mode("last_sample") == 1
    assert parse_estimate_mode("average_tail(25)") == 25
    for bad in ["average_tail(0)", "average_tail(-3)", "average_tail(x)",
                "mean", "last", "average_tail()"]:
        with pytest.raises(ConfigParseError):
            parse_estimate_mode(bad)


def test_vb_init_fields():
    data = make_data(M=5, L=7, seed=3)
    cfg = ModelConfig(num_atoms=6, seed=11)
    st = initialize_vb_state(cfg, data)

    assert st.dict_mean.shape == (5, 6)
    np.testing.assert_allclose(np.linalg.norm(st.dict_mean, axis=0), 1.0,
                               rtol=0, atol=1e-12)
    assert np.all(st.code_means == 0.0)
    # identity covariance per column, kept as its reductions
    np.testing.assert_array_equal(st.code_vars, np.ones((6, 7)))
    np.testing.assert_array_equal(st.code_cov_sum, 7.0 * np.eye(6))
    assert st.code_logdet_sum == 0.0
    np.testing.assert_array_equal(st.dict_row_cov, 1e-6 * np.eye(6))
    assert st.alpha_shape == cfg.a + 0.5
    np.testing.assert_allclose(st.alpha_rates, cfg.b + 0.5)
    assert st.gamma_shape == 5 * 7 / 2.0 + cfg.c
    expect_rate = cfg.d + 0.5 * float(np.sum(data.Y ** 2)) / 7
    assert st.gamma_rate == pytest.approx(expect_rate, rel=1e-15)


def test_gibbs_init_fields():
    data = make_data(M=5, L=7, seed=3)
    cfg = ModelConfig(num_atoms=6, seed=11)
    st = initialize_gibbs_state(cfg, data)

    np.testing.assert_allclose(np.linalg.norm(st.D, axis=0), 1.0,
                               rtol=0, atol=1e-12)
    assert np.all(st.X == 0.0)
    assert np.all(st.alpha == 1.0)
    assert st.gamma == pytest.approx(1.0 / float(np.var(data.Y)))


def test_zero_training_matrix_gets_unit_gamma_init():
    data = TrainingSet.from_matrix(np.zeros((4, 6)))
    st = initialize_gibbs_state(ModelConfig(num_atoms=3, seed=0), data)
    assert st.gamma == 1.0


def test_both_engines_share_dictionary_init():
    data = make_data(M=5, L=7, seed=3)
    cfg = ModelConfig(num_atoms=6, seed=11)
    vb = initialize_vb_state(cfg, data)
    gb = initialize_gibbs_state(cfg, data)
    np.testing.assert_array_equal(vb.dict_mean, gb.D)


def test_init_is_deterministic_in_seed():
    data = make_data(M=5, L=9, seed=2)
    a = initialize_vb_state(ModelConfig(num_atoms=4, seed=42), data)
    b = initialize_vb_state(ModelConfig(num_atoms=4, seed=42), data)
    c = initialize_vb_state(ModelConfig(num_atoms=4, seed=43), data)
    np.testing.assert_array_equal(a.dict_mean, b.dict_mean)
    assert not np.array_equal(a.dict_mean, c.dict_mean)
