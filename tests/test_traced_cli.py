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
    "scan": {"alpha_steps": 4, "beta_steps": 4, "theta_policy": "optimize-per-point", "threshold": 0.204},
}


def _run(argv, cwd):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, env=ENV, cwd=cwd, timeout=120
    )


@pytest.mark.parametrize(
    "command",
    [
        ["scan", "--config", "config.json", "--out", "scan.json", "--format", "json"],
        ["ch", "--config", "config.json"],
        ["validate", "--suites", "azimuthal,appendix-a"],
    ],
)
def test_traced_run_matches_untraced(tmp_path, command):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    plain = _run(["-m", "oamch.cli", *command], tmp_path)
    assert plain.returncode == 0, plain.stderr
    traced = _run([str(REPO / "bench" / "traced_cli.py"), "stats.json", *command], tmp_path)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    stats = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
    assert stats["cli.render"]["calls"] == 1
    # validate reads no config; its oracles are called through traced names
    if command[0] == "validate":
        assert stats["config.load_config"]["calls"] == 0
        for layer in ("validate.azimuthal", "validate.appendix-a"):
            assert stats[layer]["calls"] == 1
        # one oracle call per sample, and one rule per oracle call, all through traced names
        assert stats["azimuthal.overlap_integral_quadrature"]["calls"] == 500
        assert stats["coincidence.amplitude_matrix_quadrature"]["calls"] == 500
        assert stats["azimuthal.gauss_segments"]["calls"] == 1000
    else:
        assert stats["config.load_config"]["calls"] == 1
