"""The benchmark's per-layer tracer must keep working on the current program.

`bench/traced_cli.py` rebinds public names of `oamch` to timing wrappers and
raises AttributeError when one of them is gone; its output must be the
untraced program's, byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}

CONFIG = {
    "schema_version": 1,
    "experiment": {"alpha": 0.0, "beta": 0.0, "theta_a": 0.0, "theta_b": 0.0, "step_index": 1.7},
    "ch": {"theta_a": 0.0, "theta_a_prime": "45deg", "theta_b": "22.5deg", "theta_b_prime": "67.5deg"},
    "mc": {"trials": 10000, "seed": 3},
    "scan": {"alpha_steps": 4, "beta_steps": 4, "theta_policy": "optimize-per-point", "threshold": 0.204},
}


def _run(argv, cwd):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, env=ENV, cwd=cwd, timeout=120
    )


# Each command with the exact call counts of its traced layers.  Every closed
# form and oracle is called through a traced module global: one called
# through a local alias or a default argument would drop out of these counts.
COMMANDS = [
    (["scan", "--config", "config.json", "--out", "scan.json", "--format", "json"], {}),
    (["ch", "--config", "config.json"], {"chtest.ch_parameter": 1}),
    (
        ["validate", "--suites", "azimuthal,appendix-a"],
        # one oracle call per sample, and one rule per oracle call
        {"validate.azimuthal": 1, "validate.appendix-a": 1,
         "azimuthal.overlap_integral_quadrature": 500,
         "coincidence.amplitude_matrix_quadrature": 500, "azimuthal.gauss_segments": 1000},
    ),
    (
        ["probe", "--config", "config.json", "--set", "experiment.step_index=1.5",
         "--closed-form", "--format", "json"],
        {"coincidence.amplitude_matrix": 1, "coincidence.closed_form_from_settings": 1},
    ),
    (
        ["mc", "--config", "config.json", "--format", "json"],
        {"montecarlo.simulate_ch_runs": 1, "montecarlo.estimate_S": 1,
         "coincidence.amplitude_matrix": 4},
    ),
    (
        ["validate", "--suites", "coincidence,sign-check"],
        {"validate.coincidence": 1, "validate.sign-check": 1,
         "coincidence.amplitude_matrix": 200, "coincidence.amplitude_matrix_quadrature": 200,
         "azimuthal.overlap_integral_quadrature": 500,
         "azimuthal.overlap_integral_opposite_phase": 500, "azimuthal.gauss_segments": 700},
    ),
]


@pytest.mark.parametrize(
    "command, counts", COMMANDS, ids=[f"command{k}" for k in range(len(COMMANDS))]
)
def test_traced_run_matches_untraced(tmp_path, command, counts):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    plain = _run(["-m", "oamch.cli", *command], tmp_path)
    assert plain.returncode == 0, plain.stderr
    traced = _run([str(REPO / "bench" / "traced_cli.py"), "stats.json", *command], tmp_path)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    stats = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
    assert stats["cli.render"]["calls"] == 1
    # validate reads no config
    assert stats["config.load_config"]["calls"] == (0 if command[0] == "validate" else 1)
    assert {layer: stats[layer]["calls"] for layer in counts} == counts
