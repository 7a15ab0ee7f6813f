"""Model types, hyperparameters, and state initialization.

The generative model is Y = D X + W with
  p(x_nl | alpha_nl) = N(0, alpha_nl^-1),  p(alpha_nl) = Gamma(a, b),
  p(d_n) = N(0, beta I),                   p(gamma)    = Gamma(c, d),
and W i.i.d. N(0, gamma^-1). Every Gamma here is shape-rate:
density ~ t^(shape-1) exp(-rate * t), mean = shape / rate.

Both inference engines consume the same ModelConfig / TrainingSet pair
and share the dictionary initialization, so a VB run and a Gibbs run
with the same seed start from the same atoms. Both return
(state, Trace), and a Trace holds what the run reports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigParseError,
    DimensionMismatch,
    EmptyTrainingSet,
    NonFiniteTrainingData,
    NonPositiveHyperparameter,
    SingularPrecision,
    TailLargerThanTrace,
)


@dataclass(frozen=True)
class ModelConfig:
    """Prior hyperparameters and run budgets. Only VB reads tol; only
    Gibbs reads dict_estimate_mode.

    Frozen and checked when built, by the constructor and by
    dataclasses.replace, so the engines need not check it again.

    a, b       : shape / rate of the Gamma prior on each coefficient
                 precision alpha_nl.
    c, d       : shape / rate of the Gamma prior on the noise precision.
    beta       : prior variance of each dictionary entry; may be inf,
                 which drops the ridge term from the dictionary updates.
    num_atoms  : N, the number of dictionary columns.
    iters      : VB sweep budget / Gibbs chain length.
    tol        : VB stop when the relative Frobenius change of <D>
                 falls below this.
    seed       : seeds the initial dictionary and every Gibbs draw.
    dict_estimate_mode : "last_sample" or "average_tail(k)": Gibbs
                 stores and averages D over the last k <= iters sweeps
                 (k = 1 for last_sample).
    """

    num_atoms: int
    a: float = 0.5
    b: float = 1e-6
    c: float = 0.5
    d: float = 1e-6
    beta: float = 1e8
    iters: int = 500
    tol: float = 1e-6
    seed: int = 0
    dict_estimate_mode: str = "last_sample"

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not 0 < v < np.inf:  # also catches nan
                raise NonPositiveHyperparameter(name, v, "finite and positive")
        if not self.beta > 0:  # inf is allowed: a flat dictionary prior
            raise NonPositiveHyperparameter("beta", self.beta)
        for name in ("num_atoms", "iters"):
            v = getattr(self, name)
            if v < 1:
                raise NonPositiveHyperparameter(name, v, "a positive integer")
        for name in ("tol", "seed"):
            v = getattr(self, name)
            if not v >= 0:  # also catches a nan tol
                raise NonPositiveHyperparameter(name, v, "non-negative")
        k = parse_estimate_mode(self.dict_estimate_mode)
        if k > self.iters:
            raise TailLargerThanTrace(
                f"{self.dict_estimate_mode} averages {k} sweeps, a chain of "
                f"iters={self.iters} has {self.iters}")


@dataclass(frozen=True)
class TrainingSet:
    """Observation matrix Y (M x L): L signals of dimension M."""

    Y: np.ndarray
    M: int
    L: int

    @classmethod
    def from_matrix(cls, Y) -> "TrainingSet":
        Y = np.ascontiguousarray(Y, dtype=np.float64)
        if Y.ndim != 2:
            raise DimensionMismatch(
                f"training data must be a 2-d matrix, got ndim={Y.ndim}")
        M, L = Y.shape
        if Y.size == 0:
            raise EmptyTrainingSet(f"training set is {M}x{L}")
        if not np.all(np.isfinite(Y)):
            raise NonFiniteTrainingData("training matrix has non-finite entries")
        return cls(Y=Y, M=M, L=L)


@dataclass
class VBState:
    """Factorized posterior q(X) q(D) q(alpha) q(gamma).

    q(x_l) = N(mu_l, Sigma_l) is kept only through the reductions of the
    Sigma_l that the other updates read, so the state grows as N*L + N^2
    rather than L*N^2:

    code_means      : (N, L), column l is the posterior mean mu_l.
    code_vars       : (N, L), column l is diag(Sigma_l), for <x_nl^2>.
    code_cov_sum    : (N, N), sum_l Sigma_l, for <X X^T> and the
                      expected residual.
    code_logdet_sum : sum_l log det Sigma_l, for the code entropy.
    dict_mean       : (M, N) posterior mean <D>.
    dict_row_cov    : (N, N) covariance shared by all dictionary rows.
                      The atomwise update variant stores
                      diag(sigma_1^2, ..., sigma_N^2) here, so
                      <D^T D> = <D>^T <D> + M * dict_row_cov holds for
                      both variants.
    alpha_shape     : scalar Gamma shape shared by all alpha_nl posteriors.
    alpha_rates     : (N, L) per-coefficient Gamma rates.
    gamma_shape, gamma_rate : noise-precision Gamma posterior.

    The updates write into the arrays already here: update_codes into
    code_means and code_vars, update_alpha into alpha_rates and the
    atomwise dictionary update into dict_mean. A caller that keeps one
    of them across an update must copy it first.
    """

    code_means: np.ndarray
    code_vars: np.ndarray
    code_cov_sum: np.ndarray
    code_logdet_sum: float
    dict_mean: np.ndarray
    dict_row_cov: np.ndarray
    alpha_shape: float
    alpha_rates: np.ndarray
    gamma_shape: float
    gamma_rate: float


@dataclass
class GibbsState:
    """One concrete sample of (X, D, alpha, gamma) plus the chain RNG.

    The samplers overwrite X, D and alpha in place (sample_codes,
    sample_atoms, sample_alpha), so a caller that keeps one of them
    across a draw must copy it first.
    """

    X: np.ndarray
    D: np.ndarray
    alpha: np.ndarray
    gamma: float
    rng: np.random.Generator


@dataclass
class Trace:
    """What a run_gibbs or run_vb run reports, in the order train writes it.

    columns    : name -> per-sweep values, trace.tsv's columns in order.
    results    : name -> run-level value, report.txt's [metrics] in
                 order, iterations_run first; a fallback count is the
                 total over the run.
    kept_dicts : D after each sweep of the window that
                 gibbs.estimate_dictionary averages (Gibbs only).
    """

    columns: dict = field(default_factory=dict)
    results: dict = field(default_factory=lambda: {"iterations_run": 0})
    kept_dicts: list = field(default_factory=list)

    @property
    def iterations_run(self) -> int:
        return self.results["iterations_run"]

    def record(self, **values) -> None:
        """Close a sweep: append each column's value and count the sweep."""
        for name, value in values.items():
            self.columns.setdefault(name, []).append(value)
        self.results["iterations_run"] += 1


_TAIL_RE = re.compile(r"^average_tail\((\d+)\)$")


def parse_estimate_mode(mode: str) -> int:
    """How many sweeps the mode averages: 1 for last_sample, else k."""
    if mode == "last_sample":
        return 1
    m = _TAIL_RE.match(mode)
    if m:
        k = int(m.group(1))
        if k >= 1:
            return k
    raise ConfigParseError(
        f"dict_estimate_mode must be 'last_sample' or 'average_tail(k)', "
        f"got {mode!r}")


def _init_dictionary(Y: np.ndarray, num_atoms: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Seeded standard-normal atoms scaled to unit norm.

    Isotropic random atoms start both engines in a neutral basin.
    Seeding atoms from training columns was tried and consistently
    traps both engines in partial-recovery modes on the synthetic
    benchmark (several learned atoms lock onto superpositions of true
    atoms), so random directions are used instead.
    """
    M = Y.shape[0]
    D = rng.standard_normal((M, num_atoms))
    norms = np.linalg.norm(D, axis=0)
    for n in np.nonzero(norms < 1e-12)[0]:
        D[:, n] = rng.standard_normal(M)
        norms[n] = np.linalg.norm(D[:, n])
    return D / norms


def initialize_vb_state(cfg: ModelConfig, data: TrainingSet) -> VBState:
    """Deterministic VB starting point; pure function of (cfg, data).

    Codes start at zero with identity covariance (unit variances, a
    covariance sum of L * I, zero log-determinant); the alpha posterior is
    the alpha update applied to <x^2> = 1, and the gamma rate is set from
    the per-signal data energy so <gamma> starts at data scale.
    """
    N = cfg.num_atoms
    M, L = data.M, data.L
    rng = np.random.default_rng(cfg.seed)
    dict_mean = _init_dictionary(data.Y, N, rng)
    return VBState(
        code_means=np.zeros((N, L)),
        code_vars=np.ones((N, L)),
        code_cov_sum=L * np.eye(N),
        code_logdet_sum=0.0,
        dict_mean=dict_mean,
        dict_row_cov=1e-6 * np.eye(N),
        alpha_shape=cfg.a + 0.5,
        alpha_rates=np.full((N, L), cfg.b + 0.5),
        gamma_shape=M * L / 2.0 + cfg.c,
        gamma_rate=cfg.d + 0.5 * float(np.sum(data.Y ** 2)) / L,
    )


def initialize_gibbs_state(cfg: ModelConfig, data: TrainingSet) -> GibbsState:
    """Chain starting point: same dictionary seeding as the VB engine."""
    N = cfg.num_atoms
    rng = np.random.default_rng(cfg.seed)
    D = _init_dictionary(data.Y, N, rng)
    var = float(np.var(data.Y))
    gamma = 1.0 / var if var > 0 and np.isfinite(var) else 1.0
    return GibbsState(
        X=np.zeros((N, data.L)),
        D=D,
        alpha=np.ones((N, data.L)),
        gamma=gamma,
        rng=rng,
    )


def _atom_sweep(D: np.ndarray, Y: np.ndarray, X: np.ndarray, var_sums,
                gamma: float, beta: float, noise=None) -> np.ndarray:
    """Refresh the atoms of D in place, one at a time; return their variances.

    Given the other atoms at their latest values, d_n has precision
    gamma (||x_n||^2 + var_sums[n]) + 1/beta and mean gamma var_n
    (Y - sum_{j!=n} d_j x_j) x_n', which is read off YX' and XX' (diagonal
    zeroed), both formed once as X is fixed. With noise (N, M) the atom
    is a draw, mean + sqrt(var_n) noise[n]; without, the mean.
    """
    YX = Y @ X.T
    XX = X @ X.T
    prec = gamma * (np.diag(XX) + var_sums) + 1.0 / beta
    bad = np.flatnonzero(prec <= 0)
    if bad.size:
        raise SingularPrecision(
            f"atom {bad[0]}: nonpositive scalar precision {prec[bad[0]]:g}")
    var = 1.0 / prec
    np.fill_diagonal(XX, 0.0)
    for n in range(D.shape[1]):
        d = (gamma * var[n]) * (YX[:, n] - D @ XX[n])
        if noise is not None:
            d += np.sqrt(var[n]) * noise[n]
        D[:, n] = d
    return var
