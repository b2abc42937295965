"""nimatrix: a coefficient-matrix laboratory for diffusion samplers.

Trace standard samplers into their coefficient-matrix form, check the
marginal-coefficient invariants, interpret rows as guidance
compositions, execute arbitrary matrices against analytic
posterior-mean predictors, measure posterior-concentration statistics,
and search for improved matrices.

``__all__`` is the public API, and :mod:`nimatrix.errors` holds its
typed errors.  Any other name reached only through a submodule (the
symbolic states and native runners the tracer uses, the step helpers)
is internal.
"""

from .analysis import (DegradationReport, degradation_table,
                       radial_spectrum, snr_profile, submerged_fraction)
from .coeffmatrix import (CoefficientMatrix, MarginalReport,
                          deviation_trend, equivalent_marginals, load,
                          normalize_rows, save, trace_sampler)
from .engine import RunConfig, RunResult, over_enhance, run_matrix
from .guidance import (GuidanceDecomposition, GuidanceStage,
                       classify_matrix, classify_row, decompose_row, unfold)
from .oracles import (Dataset, GaussianMixture, Predictor, load_dataset,
                      load_mixture, make_predictor,
                      posterior_mean_dataset, posterior_mean_gmm,
                      posterior_top, posterior_weights, save_dataset,
                      score_from_x0hat)
from .presets import list_presets, load_preset, preset_payload
from .samplers import SamplerSpec
from .schedule import (Schedule, make_flow, make_grid, make_vp_continuous,
                       make_vp_linear, mixing_coeffs)
from .search import (PreparedReference, SearchResult, SearchSpace,
                     energy_distance, optimize_matrix, prepare_reference)

__version__ = "0.1.0"

__all__ = [
    # schedules and grids
    "Schedule", "make_vp_linear", "make_flow", "make_vp_continuous",
    "mixing_coeffs", "make_grid",
    # samplers and their matrices
    "SamplerSpec", "CoefficientMatrix", "MarginalReport", "trace_sampler",
    "equivalent_marginals", "deviation_trend", "normalize_rows", "save",
    "load", "list_presets", "load_preset", "preset_payload",
    # guidance
    "GuidanceStage", "GuidanceDecomposition", "decompose_row", "unfold",
    "classify_row", "classify_matrix",
    # oracles
    "Dataset", "GaussianMixture", "Predictor", "make_predictor",
    "posterior_weights", "posterior_mean_dataset", "posterior_top",
    "posterior_mean_gmm", "score_from_x0hat", "save_dataset",
    "load_dataset", "load_mixture",
    # execution
    "RunConfig", "RunResult", "run_matrix", "over_enhance",
    # concentration and spectral statistics
    "DegradationReport", "degradation_table", "radial_spectrum",
    "snr_profile", "submerged_fraction",
    # search
    "SearchSpace", "SearchResult", "PreparedReference", "energy_distance",
    "prepare_reference", "optimize_matrix",
]
