"""Simulation of Clauser-Horne tests of two-photon orbital-angular-momentum
entanglement, analyzed by Mach-Zehnder interferometers carrying spiral-phase-
plate pairs and variable output beam splitters.

The top level holds the entry points of the CLI commands and the records
they take; everything else is imported from its submodule.  `import oamch`
loads no submodule: each top-level name loads its own on first use (PEP 562),
so a command loads only the modules it runs."""

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

_SUBMODULES = {
    "StepIndex": "azimuthal",
    "ChSettings": "coincidence",
    "ExperimentSettings": "coincidence",
    "amplitude_matrix": "coincidence",
    "canonical_settings": "coincidence",
    "ch_parameter": "coincidence",
    "McConfig": "montecarlo",
    "estimate_S": "montecarlo",
    "simulate_ch_runs": "montecarlo",
    "ScanGrid": "search",
    "scan_alpha_beta": "search",
}


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_SUBMODULES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
