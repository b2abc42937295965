"""nimatrix: a coefficient-matrix laboratory for diffusion samplers.

Trace standard samplers into their coefficient-matrix form, check the
marginal-coefficient invariants, interpret rows as guidance
compositions, execute arbitrary matrices against analytic
posterior-mean predictors, measure posterior-concentration statistics,
and search for improved matrices.
"""

from .affine import AffineState, RunContext, lin_combine
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
from .samplers import (SamplerSpec, StepCoefficients, ddim_step_coeffs,
                       ddpm_step_coeffs, flow_euler_step_coeffs,
                       run_native)
from .schedule import (Schedule, make_flow, make_grid, make_vp_continuous,
                       make_vp_linear, mixing_coeffs)
from .search import (PreparedReference, SearchResult, SearchSpace,
                     energy_distance, optimize_matrix, prepare_reference)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
