"""Exit-time asymptotics for small-noise diffusions near a repelling point.

The library predicts how long a diffusion started eps-close to a repelling
equilibrium survives inside a comoving box (a power-law tail in eps with an
explicit exponent and prefactor) and verifies the prediction by simulation:
counter-based reproducible paths, direct and multilevel-splitting tail
estimators, deterministic travel-time brackets, and density diagnostics.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateFit,
    ExitlabError,
    InclusionViolated,
    NoExit,
    OutsideValidity,
    ParseError,
    RankDeficient,
    SpectrumInvalid,
    ValidationError,
)
from .exponents import (
    InitialScaleSpec,
    Spectrum,
    ThresholdSpec,
    classify_admissible,
    critical_index,
    tail_exponent,
)
from .dynamics import (
    BoxDomain,
    ConjugateFieldModel,
    NoiseModel,
    SmoothDomain,
    flow_exit_times_batch,
    transversality_check,
    travel_time_bounds,
)
from .gaussian import (
    LimitCovariance,
    PrefactorPrediction,
    finite_time_covariance,
    gaussian_density,
    limit_covariance,
    prefactor_bounds,
    survival_prefactor,
    survival_prefactor_mc,
)
from .sde import BLOCK_STEPS, PathConfig, simulate_batch
from .estimator import (
    AdjustedTailResult,
    DensityDiagnostic,
    SlopeFit,
    TailEstimate,
    adjusted_tail_estimate,
    density_diagnostic,
    direct_tail_estimate,
    rescaled_fluctuation_samples,
    rescaled_prefactor,
    slope_regression,
    splitting_tail_estimate,
)
from .config import ExperimentConfig, build_config, config_hash, parse_config
from .harness import (
    CSV_COLUMNS,
    RunRecord,
    RunRow,
    emit_outputs,
    load_rows,
    run_estimate,
    run_predict,
)

__all__ = [
    "BLOCK_STEPS", "AdjustedTailResult", "BoxDomain", "CSV_COLUMNS",
    "ConjugateFieldModel", "DegenerateFit", "DensityDiagnostic",
    "ExitlabError", "ExperimentConfig", "InclusionViolated",
    "InitialScaleSpec", "LimitCovariance", "NoExit", "NoiseModel",
    "OutsideValidity", "ParseError", "PathConfig", "PrefactorPrediction",
    "RankDeficient", "RunRecord", "RunRow", "SlopeFit", "SmoothDomain",
    "Spectrum", "SpectrumInvalid", "TailEstimate", "ThresholdSpec",
    "ValidationError",
    "adjusted_tail_estimate", "build_config", "classify_admissible",
    "config_hash", "critical_index", "density_diagnostic",
    "direct_tail_estimate", "emit_outputs", "finite_time_covariance",
    "flow_exit_times_batch", "gaussian_density",
    "limit_covariance", "load_rows", "parse_config", "prefactor_bounds",
    "rescaled_fluctuation_samples", "rescaled_prefactor", "run_estimate",
    "run_predict", "simulate_batch", "slope_regression",
    "splitting_tail_estimate", "survival_prefactor", "survival_prefactor_mc",
    "tail_exponent", "transversality_check",
    "travel_time_bounds",
]
