"""Phase sensitivity of a squeezing-assisted Mach-Zehnder interferometer.

Squeezed vacuum at the unused input port plus a phase-sensitive amplifier on
each output port lets direct photocounting reach a sub-shot-noise phase
uncertainty that survives detection loss.  The package provides the Gaussian
quadrature propagation, the linearized photocounting statistics, the phase
sensitivity of four read-out strategies, a Monte-Carlo oracle for all closed
forms, and a CLI for sweeps and design reports.
"""

from .model import (
    InterferometerParams,
    ParameterError,
    Strategy,
    StrategyKind,
    db_to_squeeze_factor,
    inefficiency,
    squeeze_factor_to_db,
    technical_noise_factor,
    validate,
)
from .oracle import LinearizationPoint, MomentReport, OracleConfig, linearization_error
from .photostats import (
    PhotonStats,
    photon_second_moments,
    photon_stats,
    transfer_gain,
    weighted_variance,
)
from .quadratures import (
    QuadratureStats,
    core_noise_covariance,
    core_output_means,
    detector_field_stats,
)
from .sensitivity import (
    SensitivityResult,
    apriori_tolerance,
    dphi_min,
    fwhm,
    fwhm_approx,
    implied_inefficiency,
    k_factor,
    optimal_weight,
    phase_uncertainty,
    required_r2,
    small_deviation_dphi_squared,
    snl,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "InterferometerParams",
    "ParameterError",
    "Strategy",
    "StrategyKind",
    "db_to_squeeze_factor",
    "squeeze_factor_to_db",
    "technical_noise_factor",
    "inefficiency",
    "validate",
    "QuadratureStats",
    "core_noise_covariance",
    "core_output_means",
    "detector_field_stats",
    "PhotonStats",
    "photon_second_moments",
    "photon_stats",
    "transfer_gain",
    "weighted_variance",
    "SensitivityResult",
    "snl",
    "dphi_min",
    "k_factor",
    "optimal_weight",
    "phase_uncertainty",
    "sweep",
    "fwhm",
    "fwhm_approx",
    "apriori_tolerance",
    "small_deviation_dphi_squared",
    "required_r2",
    "implied_inefficiency",
    "OracleConfig",
    "MomentReport",
    "LinearizationPoint",
    "linearization_error",
    "__version__",
]
