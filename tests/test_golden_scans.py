"""CSV scans keep their bytes: artifact SHA-256 and summary text pinned in tests/golden.

Each case runs `oamch scan` in process, in its own directory, with the same
relative `--out`, because the summary names its artifact.  Full-precision
JSON scans are left out: their last digits move with the libm dispatch
level (README, Reproducibility).

`tests/test_golden_outputs.py`, run as a script, regenerates these goldens
with the others.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from oamch.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "scans.json"


def _case(alpha_steps, beta_steps, policy, step_index):
    return {
        "schema_version": 1,
        "experiment": {"alpha": 0.0, "beta": 0.0, "step_index": step_index},
        "scan": {"alpha_steps": alpha_steps, "beta_steps": beta_steps, "theta_policy": policy},
    }


CASES = {
    "33x33-canonical-L0.5": _case(33, 33, "fixed-canonical", 0.5),
    "33x33-optimized-L0.5": _case(33, 33, "optimize-per-point", 0.5),
    "33x33-canonical-L1.7321": _case(33, 33, "fixed-canonical", 1.7321),
    "33x33-optimized-L1.7321": _case(33, 33, "optimize-per-point", 1.7321),
    "256x256-canonical-L1.8694": _case(256, 256, "fixed-canonical", 1.8694),
    # S below 1e-10 on most rows, one key per row
    "93x91-optimized-L0.9979": _case(93, 91, "optimize-per-point", 0.9979),
    "1024x2-canonical-L1.8694": _case(1024, 2, "fixed-canonical", 1.8694),
    # 256 and 257 share no factor: each of the 65,792 rows is its own key, evaluated row by row
    "256x257-canonical-L1.8694": _case(256, 257, "fixed-canonical", 1.8694),
    "256x257-optimized-L0.9979": _case(256, 257, "optimize-per-point", 0.9979),
}


def run_scan(config: dict, directory: Path) -> dict:
    """The CSV artifact's SHA-256 and the summary text of one scan, run in `directory`."""
    (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
    start = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["scan", "--config", "config.json", "--out", "scan.csv", "--format", "csv"])
    finally:
        os.chdir(start)
    assert code == 0
    digest = hashlib.sha256((directory / "scan.csv").read_bytes()).hexdigest()
    return {"artifact_sha256": digest, "summary": out.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scan_bytes_equal_golden(tmp_path, name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert golden["config"] == CASES[name]
    assert run_scan(CASES[name], tmp_path) == {k: golden[k] for k in ("artifact_sha256", "summary")}


def write_goldens() -> None:
    """Run every case and write its golden."""
    goldens = {}
    for name, config in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            goldens[name] = {"config": config, **run_scan(config, Path(tmp))}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")
