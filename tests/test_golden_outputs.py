"""`validate`, `probe`, `ch` and `mc` keep their bytes: stdout pinned in tests/golden.

`validate.json` holds the stdout of `validate`, whole and one suite at a
time, and each suite's `repr(max_error)` from `run_suites()`, whose digits
the stdout rounds to four.  `cli/` holds one transcript per `probe`, `ch`
and `mc` output of one fixed config at three step indices: the command, its
stdout, any stderr and its exit code, as text, so a failure shows a diff.
Every command runs in process through `main`.

Regenerate every golden, these and the scans of `tests/test_golden_scans.py`,
on a commit whose bytes are the reference, with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from oamch.cli import main
from oamch.validate import SUITE_NAMES, run_suites

GOLDEN = Path(__file__).resolve().parent / "golden"
VALIDATE = GOLDEN / "validate.json"
TRANSCRIPTS = GOLDEN / "cli"

CONFIG = {
    "schema_version": 1,
    "experiment": {"alpha": 0.3, "beta": 1.1, "step_index": 1.7321},
    "ch": {"theta_a": 0, "theta_a_prime": "45deg", "theta_b": "22.5deg", "theta_b_prime": "67.5deg"},
    "mc": {"trials": 1000000, "efficiency_a": 0.9, "efficiency_b": 0.8, "seed": 5},
}
STEP_INDICES = ("0.5", "1.7321", "3.5")
COMMANDS = {
    "probe-text": ["probe", "--format", "text"],
    "probe-json": ["probe", "--format", "json"],
    "probe-closed-form": ["probe", "--format", "text", "--closed-form"],
    "probe-closed-form-json": ["probe", "--format", "json", "--closed-form"],
    "ch-text": ["ch", "--format", "text"],
    "ch-json": ["ch", "--format", "json"],
    "mc-text": ["mc", "--format", "text"],
    "mc-json": ["mc", "--format", "json"],
}
CASES = {f"{name}-L{ell}": (args, ell) for name, args in COMMANDS.items() for ell in STEP_INDICES}


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one in-process `main` call."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def validate_outputs() -> dict:
    """`validate`'s stdout, whole and per suite, and each suite's worst error at full precision."""
    selections = {"all": []} | {name: ["--suites", name] for name in SUITE_NAMES}
    stdout = {}
    for label, args in selections.items():
        code, stdout[label], _ = run(["validate", *args])
        assert code == 0
    max_error = {r.name: repr(r.max_error) for r in run_suites()}
    return {"stdout": stdout, "max_error": max_error}


def transcript(name: str, config_path: Path) -> str:
    """One command's transcript, showing the config as `run.json`."""
    args, ell = CASES[name]
    shown = [*args[:1], "--config", "run.json", "--set", f"experiment.step_index={ell}", *args[1:]]
    code, out, err = run([*args[:1], "--config", str(config_path), *shown[3:]])
    text = f"$ oamch {' '.join(shown)}\n{out}"
    if err:
        text += f"[stderr]\n{err}"
    return text + f"[exit {code}]\n"


def test_validate_equals_golden():
    assert validate_outputs() == json.loads(VALIDATE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_equals_golden(tmp_path, name):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert transcript(name, config_path) == (TRANSCRIPTS / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    import test_golden_scans  # run as a script, this file's directory is on sys.path

    TRANSCRIPTS.mkdir(parents=True, exist_ok=True)
    VALIDATE.write_text(json.dumps(validate_outputs(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "run.json"
        config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
        for name in CASES:
            (TRANSCRIPTS / f"{name}.txt").write_text(transcript(name, config_path), encoding="utf-8")
    test_golden_scans.write_goldens()
    sys.stdout.write(f"wrote {VALIDATE}, {len(CASES)} transcripts to {TRANSCRIPTS} and "
                     f"{len(test_golden_scans.CASES)} scans to {test_golden_scans.GOLDEN}\n")
