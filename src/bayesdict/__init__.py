"""Sparse Bayesian dictionary learning.

Hierarchical Gaussian/Gamma model over a dictionary and sparse codes,
fit either by mean-field variational inference or by a blocked Gibbs
sampler, with OMP sparse coding, a synthetic recovery benchmark, and a
patch-based image denoising pipeline.

Importing the package loads numpy only. scipy loads at the first engine
call: a scipy import goes inside the function that calls it, never at
module level, so OMP and denoising run without it. The test
test_import_and_denoise_load_no_scipy enforces this.
"""

from . import errors
from .gibbs import estimate_dictionary, run_gibbs
from .metrics import (
    RecoveryReport,
    atom_distance,
    match_and_score,
    psnr,
    psnr_conventional,
    reconstruction_error,
)
from .model import (
    GibbsState,
    ModelConfig,
    Trace,
    TrainingSet,
    VBState,
    initialize_gibbs_state,
    initialize_vb_state,
)
from .omp import (
    OmpStop,
    SparseCode,
    SparseCodes,
    batch_encode,
    normalize_dictionary,
    omp_encode,
)
from .patches import extract_patches, map_patches
from .synthetic import SyntheticSpec, generate_synthetic, snr_to_noise_std
from .vb import (
    VBMoments,
    compute_elbo,
    moments_from_state,
    run_vb,
    update_alpha,
    update_codes,
    update_dictionary_atomwise,
    update_dictionary_full,
    update_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "GibbsState", "ModelConfig", "OmpStop", "RecoveryReport", "SparseCode",
    "SparseCodes", "SyntheticSpec", "Trace", "TrainingSet", "VBMoments",
    "VBState", "atom_distance", "batch_encode", "compute_elbo", "errors",
    "estimate_dictionary", "extract_patches", "generate_synthetic",
    "initialize_gibbs_state", "initialize_vb_state", "map_patches",
    "match_and_score", "moments_from_state", "normalize_dictionary",
    "omp_encode", "psnr", "psnr_conventional", "reconstruction_error",
    "run_gibbs", "run_vb", "snr_to_noise_std", "update_alpha",
    "update_codes", "update_dictionary_atomwise", "update_dictionary_full",
    "update_gamma",
]
