"""Simulation of Clauser-Horne tests of two-photon orbital-angular-momentum
entanglement, analyzed by Mach-Zehnder interferometers carrying spiral-phase-
plate pairs and variable output beam splitters."""

from .azimuthal import (
    StepIndex,
    overlap_integral,
    overlap_integral_quadrature,
    spp_phase,
    wrap_angle,
    wrap_signed,
)
from .chtest import (
    CANONICAL_THETAS,
    MAX_CH_VIOLATION,
    ChResult,
    ChSettings,
    canonical_settings,
    ch_parameter,
    ch_violated,
)
from .coincidence import (
    AmplitudeMatrix,
    DegenerateStateError,
    ExperimentSettings,
    NormalizedState,
    amplitude_matrix,
    amplitude_matrix_quadrature,
    closed_form_probabilities,
    normalized_amplitudes,
)
from .interferometer import arm_amplitude, mz_unitary
from .montecarlo import (
    ChEstimate,
    CountRecord,
    InsufficientStatisticsError,
    McConfig,
    estimate_S,
    frequency,
    sample_run,
    simulate_ch_runs,
)
from .search import ScanGrid, ScanResult, optimize_thetas, scan_alpha_beta

__version__ = "0.1.0"

__all__ = [
    "AmplitudeMatrix",
    "CANONICAL_THETAS",
    "ChEstimate",
    "ChResult",
    "ChSettings",
    "CountRecord",
    "DegenerateStateError",
    "ExperimentSettings",
    "InsufficientStatisticsError",
    "MAX_CH_VIOLATION",
    "McConfig",
    "NormalizedState",
    "ScanGrid",
    "ScanResult",
    "StepIndex",
    "amplitude_matrix",
    "amplitude_matrix_quadrature",
    "arm_amplitude",
    "canonical_settings",
    "ch_parameter",
    "ch_violated",
    "closed_form_probabilities",
    "estimate_S",
    "frequency",
    "mz_unitary",
    "normalized_amplitudes",
    "optimize_thetas",
    "overlap_integral",
    "overlap_integral_quadrature",
    "sample_run",
    "scan_alpha_beta",
    "simulate_ch_runs",
    "spp_phase",
    "wrap_angle",
    "wrap_signed",
]
