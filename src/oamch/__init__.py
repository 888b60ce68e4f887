"""Simulation of Clauser-Horne tests of two-photon orbital-angular-momentum
entanglement, analyzed by Mach-Zehnder interferometers carrying spiral-phase-
plate pairs and variable output beam splitters.

The top level holds the entry points of the CLI commands and the records
they take; everything else is imported from its submodule."""

from .azimuthal import StepIndex
from .coincidence import ChSettings, ExperimentSettings, amplitude_matrix, canonical_settings, ch_parameter
from .montecarlo import McConfig, estimate_S, simulate_ch_runs
from .search import ScanGrid, scan_alpha_beta

__version__ = "0.1.0"

__all__ = [
    "ChSettings",
    "ExperimentSettings",
    "McConfig",
    "ScanGrid",
    "StepIndex",
    "amplitude_matrix",
    "canonical_settings",
    "ch_parameter",
    "estimate_S",
    "scan_alpha_beta",
    "simulate_ch_runs",
]
