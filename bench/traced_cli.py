"""Run one oamch command with its layers timed from outside the program.

Usage (from the repository root, with PYTHONPATH=src):

    python bench/traced_cli.py STATS.json <oamch arguments...>

Before calling `oamch.cli.main`, this rebinds public names in the modules
that call them (`oamch.cli`, `oamch.search`, `oamch.validate`,
`oamch.coincidence`, `oamch.montecarlo`, `oamch.azimuthal`) to timing
wrappers; `src/` is not changed.  Every layer is aggregated into a call
count, total time and self time (total minus the time of traced calls made
inside it), because the hot leaves run hundreds of thousands of times per
command.  STATS.json receives {layer: {"calls", "total_s", "self_s"}}.

Calls bound when a module loads cannot be intercepted and count as self
time of their caller; see UNTRACED_CALLS.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

UNTRACED_CALLS = (
    "chtest.ch_parameter calls amplitude_matrix through its amplitude_fn default",
    "coincidence.amplitude_matrix calls overlap_integral through its overlap default",
    "validate.azimuthal and validate.sign-check call overlap_integral through their closed_form default",
    "validate.coincidence passes the overlap_integral default on to amplitude_matrix",
    "search.optimize_thetas calls ChLandscape.grid and _golden_max, which are not public names",
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._child = [0.0]  # time of traced calls inside each open call

    def wrap(self, layer: str, fn):
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                child[-1] += elapsed

        return traced

    def report(self) -> dict:
        return {layer: {"calls": c, "total_s": t, "self_s": s} for layer, (c, t, s) in self.stats.items()}


# (module, name) -> layer.  Several names may share a layer.
REBIND = {
    ("oamch.cli", "load_config"): "config.load_config",
    ("oamch.cli", "cmd_probe"): "cli.render",
    ("oamch.cli", "cmd_ch"): "cli.render",
    ("oamch.cli", "cmd_mc"): "cli.render",
    ("oamch.cli", "cmd_scan"): "cli.render",
    ("oamch.cli", "cmd_validate"): "cli.render",
    ("oamch.cli", "amplitude_matrix"): "coincidence.amplitude_matrix",
    ("oamch.cli", "normalized_amplitudes"): "coincidence.normalized_amplitudes",
    ("oamch.cli", "closed_form_from_settings"): "coincidence.closed_form_from_settings",
    ("oamch.cli", "ch_parameter"): "chtest.ch_parameter",
    ("oamch.cli", "ch_violated"): "chtest.ch_violated",
    ("oamch.cli", "simulate_ch_runs"): "montecarlo.simulate_ch_runs",
    ("oamch.cli", "estimate_S"): "montecarlo.estimate_S",
    ("oamch.cli", "frequency"): "montecarlo.frequency",
    ("oamch.cli", "scan_alpha_beta"): "search.scan_alpha_beta",
    ("oamch.cli", "run_suites"): "validate.run_suites",
    ("oamch.search", "optimize_thetas"): "search.optimize_thetas",
    ("oamch.search", "overlap_integral"): "azimuthal.overlap_integral",
    ("oamch.validate", "run_azimuthal_suite"): "validate.azimuthal",
    ("oamch.validate", "run_coincidence_suite"): "validate.coincidence",
    ("oamch.validate", "run_closed_form_suite"): "validate.appendix-a",
    ("oamch.validate", "run_sign_suite"): "validate.sign-check",
    ("oamch.validate", "overlap_integral_quadrature"): "azimuthal.overlap_integral_quadrature",
    ("oamch.validate", "overlap_integral_opposite_phase"): "azimuthal.overlap_integral_opposite_phase",
    ("oamch.validate", "amplitude_matrix"): "coincidence.amplitude_matrix",
    ("oamch.validate", "amplitude_matrix_quadrature"): "coincidence.amplitude_matrix_quadrature",
    ("oamch.validate", "closed_form_probabilities"): "coincidence.closed_form_probabilities",
    ("oamch.coincidence", "gauss_segments"): "azimuthal.gauss_segments",
    ("oamch.coincidence", "arm_amplitude"): "interferometer.arm_amplitude",
    ("oamch.azimuthal", "gauss_segments"): "azimuthal.gauss_segments",
    ("oamch.montecarlo", "amplitude_matrix"): "coincidence.amplitude_matrix",
}


def install(tracer: Tracer) -> None:
    for (module_name, name), layer in REBIND.items():
        module = importlib.import_module(module_name)
        setattr(module, name, tracer.wrap(layer, getattr(module, name)))

    search = importlib.import_module("oamch.search")
    base = search.ChLandscape

    class ChLandscape(base):
        __init__ = tracer.wrap("search.ChLandscape", base.__init__)
        value = tracer.wrap("search.ChLandscape.value", base.value)

    search.ChLandscape = ChLandscape


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    import oamch.cli

    tracer = Tracer()
    install(tracer)
    try:
        return oamch.cli.main(cli_args)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
