"""Tests of the benchmark itself: seeded inputs, output checks, tail rule.

    PYTHONPATH=src python -m pytest -q bench/tests

Real outputs come from running the CLI; each check must accept them and
reject the same output with one defect put in.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _generate(root: Path, workload: str, seed: int) -> list[dict]:
    return workloads.generate(workload, seed, root / "inputs", root / "out", root)


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((root / "inputs").iterdir())}


def _run(root: Path, cmd: dict) -> tuple[int, str, str | None]:
    done = subprocess.run([sys.executable, "-m", "oamch.cli", *cmd["args"]], cwd=root,
                          env=run.child_env(), capture_output=True, text=True, timeout=120)
    artifact = (root / cmd["artifact"]).read_text() if cmd["artifact"] else None
    return done.returncode, done.stdout, artifact


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = _generate(tmp_path / "a", workload, 7)
    second = _generate(tmp_path / "b", workload, 7)
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


@pytest.mark.parametrize("workload", [w for w in workloads.WORKLOADS if workloads.SEED_REACHES_PROGRAM[w]])
def test_other_seed_gives_other_inputs(tmp_path, workload):
    _generate(tmp_path / "a", workload, 7)
    _generate(tmp_path / "b", workload, 8)
    assert _files(tmp_path / "a") != _files(tmp_path / "b")


def test_validate_inputs_do_not_depend_on_the_seed(tmp_path):
    assert _generate(tmp_path / "a", "validate-oracles", 7) == _generate(tmp_path / "b", "validate-oracles", 8)
    assert _files(tmp_path / "a") == {}


# ------------------------------------------------------------------ checks

@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("session")
    commands = _generate(root, "cli-session", 3)
    return [(cmd, *_run(root, cmd)) for cmd in commands]


def _pick(session, kind: str, fmt: str):
    for cmd, code, stdout, artifact in session:
        is_json = "json" in cmd["args"]
        if cmd["kind"] == kind and is_json == (fmt == "json"):
            return cmd, code, stdout, artifact
    raise LookupError(kind)


def test_checks_accept_every_session_output(session):
    for cmd, code, stdout, artifact in session:
        assert checks.check(cmd, code, stdout, artifact) == [], cmd["args"]


def test_unexpected_exit_code_is_rejected(session):
    cmd, _, stdout, artifact = session[0]
    assert checks.check(cmd, 1, stdout, artifact)


def _shift_s_line(stdout: str, delta: float) -> str:
    return re.sub(r"^S = (\S+)$", lambda m: f"S = {float(m.group(1)) + delta:.7f}", stdout, flags=re.M)


def test_ch_text_rejects_s_off_by_1e6(session):
    cmd, code, stdout, artifact = _pick(session, "ch", "text")
    bad = _shift_s_line(stdout, 1e-6)
    assert bad != stdout
    assert checks.check(cmd, code, bad, artifact)


def test_ch_json_rejects_s_off_by_1e6(session):
    cmd, code, stdout, artifact = _pick(session, "ch", "json")
    doc = json.loads(stdout)
    doc["results"]["s"] += 1e-6
    assert checks.check(cmd, code, json.dumps(doc), artifact)


def test_probe_rejects_p_off_by_1e6(session):
    cmd, code, stdout, artifact = _pick(session, "probe", "json")
    doc = json.loads(stdout)
    doc["results"]["p"][0][0] *= 1.0 + 1e-6
    assert checks.check(cmd, code, json.dumps(doc), artifact)


def test_mc_text_rejects_counts_not_summing_to_trials(session):
    cmd, code, stdout, artifact = _pick(session, "mc", "text")
    bad = re.sub(r"none=(\d+)", lambda m: f"none={int(m.group(1)) + 1}", stdout, count=1)
    assert any("do not sum" in p for p in checks.check(cmd, code, bad, artifact))


def test_mc_json_rejects_counts_not_summing_to_trials(session):
    cmd, code, stdout, artifact = _pick(session, "mc", "json")
    doc = json.loads(stdout)
    doc["results"]["runs"][2]["counts"][1][1] += 1
    assert any("do not sum" in p for p in checks.check(cmd, code, json.dumps(doc), artifact))


def test_mc_rejects_s_hat_far_from_exact_s(session):
    cmd, code, stdout, artifact = _pick(session, "mc", "json")
    doc = json.loads(stdout)
    doc["results"]["stderr"] = 1e-9
    assert checks.check(cmd, code, json.dumps(doc), artifact)


def _small_scan(root: Path, policy: str, fmt: str, step: float) -> dict:
    artifact = f"out/scan.{fmt}"
    doc = {"schema_version": 1,
           "experiment": {"alpha": 0.0, "beta": 0.0, "theta_a": 0.0, "theta_b": 0.0, "step_index": step},
           "scan": {"alpha_steps": 6, "beta_steps": 5, "theta_policy": policy, "threshold": 0.1}}
    (root / "out").mkdir(exist_ok=True)
    (root / "scan.json").write_text(json.dumps(doc))
    kind = "scan-optimized" if policy == "optimize-per-point" else "scan-canonical"
    return {"kind": kind, "args": ["scan", "--config", "scan.json", "--out", artifact, "--format", fmt],
            "config": doc, "overrides": {}, "artifact": artifact}


def test_scan_optimized_check_rejects_s_off_by_1e6(tmp_path):
    cmd = _small_scan(tmp_path, "optimize-per-point", "json", 1.5)
    code, stdout, artifact = _run(tmp_path, cmd)
    assert checks.check(cmd, code, stdout, artifact) == []
    doc = json.loads(artifact)
    doc["results"]["rows"][7]["s"] -= 1e-6
    assert checks.check(cmd, code, stdout, json.dumps(doc))


def test_scan_canonical_check_rejects_s_off_by_1e6(tmp_path):
    cmd = _small_scan(tmp_path, "fixed-canonical", "csv", 1.37)
    code, stdout, artifact = _run(tmp_path, cmd)
    assert checks.check(cmd, code, stdout, artifact) == []
    lines = artifact.splitlines()
    cells = lines[9].split(",")
    cells[6] = format(float(cells[6]) + 1e-6, ".9g")
    lines[9] = ",".join(cells)
    assert checks.check(cmd, code, stdout, "\n".join(lines) + "\n")


def test_a_command_that_writes_no_artifact_fails_its_check(tmp_path):
    cmd = _small_scan(tmp_path, "fixed-canonical", "csv", 1.37)
    cmd["args"] = [str(tmp_path / a) if a in ("scan.json", cmd["artifact"]) else a for a in cmd["args"]]
    cmd["artifact"] = str(tmp_path / cmd["artifact"])
    assert checks.check(cmd, 0, "", None)
    failures = []
    phase = run.Phase([cmd], run.child_env(), tmp_path, {}, failures)
    phase._one_pass(traced=False)
    assert failures == [] and Path(cmd["artifact"]).exists()
    # A later pass exits 0 without writing: the earlier pass's file must not count.
    cmd["args"] = ["--help"]
    phase._one_pass(traced=False)
    assert len(failures) == 1 and "no artifact" in failures[0]["problems"][0]


def test_validate_check_rejects_a_fail_line(tmp_path):
    cmd = _generate(tmp_path, "validate-oracles", 1)[0]
    code, stdout, artifact = _run(tmp_path, cmd)
    assert checks.check(cmd, code, stdout, artifact) == []
    assert checks.check(cmd, code, stdout.replace("PASS", "FAIL", 1), artifact)
    assert checks.check(cmd, code, "\n".join(stdout.splitlines()[1:]), artifact)


def test_reference_optimum_is_the_maximum_violation_for_aligned_plates():
    k = checks.overlap_matrix(0.3, 0.3, 0.5)
    assert checks.optimal_s(k) == pytest.approx(checks.MAX_VIOLATION, abs=1e-12)
    assert checks.ch_terms(k, *checks.CANONICAL)["s"] == pytest.approx(checks.MAX_VIOLATION, abs=1e-12)


# ------------------------------------------------------- metric names

def _fake_phase(calibration=(0.3, 0.4, 0.35)) -> run.Phase:
    """Two passes of 12 commands of 0.3 s, one calibration between them."""
    phase = run.Phase([{}] * 12, {}, BENCH, {}, [])
    phase.samples = [run.Sample(0.3, 0.4, 40_000, 0) for _ in range(24)]
    phase.pass_wall = [3.6, 3.7]
    phase.pass_cpu = [4.8, 4.9]
    phase.stats = [{}, {}]
    phase.calibration = list(calibration)
    phase.pass_calibration = [0, 1]
    return phase


def test_times_are_scaled_to_the_reference_host():
    ref = run.CAL_REFERENCE_S
    phase = _fake_phase([2 * ref] * 3)  # a host running at half speed
    metrics, extra = run.end_to_end(phase, [0.5, 0.4, 0.6], [ref, ref, 3 * ref, ref], 1089)
    assert metrics["cmd_p50_s"][0] == pytest.approx(0.15)
    assert metrics["wall_s"][0] == pytest.approx(3.65 / 2)
    assert metrics["peak_rss_mb"][0] == extra["measured"]["peak_rss_mb"]
    assert extra["measured"]["cmd_p50_s"] == pytest.approx(0.3)
    assert extra["points_per_s"] == pytest.approx(2 * extra["measured"]["points_per_s"])
    # Each set-up round is scaled by the calibrations on either side of it,
    # not by the timed phase's: 0.5 / 1, 0.4 / 2, 0.6 / 2.
    assert metrics["setup_s"][0] == pytest.approx(run.median([0.5, 0.2, 0.3]))
    assert extra["measured"]["setup_s"] == pytest.approx(run.median([0.5, 0.4, 0.6]))


def test_each_pass_is_scaled_by_the_calibrations_beside_it():
    ref = run.CAL_REFERENCE_S
    # The host halves its speed after the first pass.
    phase = _fake_phase([ref, ref, 3 * ref])
    assert phase.pass_scale() == pytest.approx([1.0, 0.5])
    metrics, _ = run.end_to_end(phase, [0.3], [ref, ref], 0)
    assert metrics["wall_s"][0] == pytest.approx((3.6 + 3.7 * 0.5) / 2)
    assert metrics["cpu_s"][0] == pytest.approx((4.8 + 4.9 * 0.5) / 2)
    # 12 commands read 0.3 s and 12 read 0.15 s; the median lies between.
    assert 0.15 < metrics["cmd_p50_s"][0] < 0.3
    assert phase.scaled_wall() == pytest.approx(metrics["wall_s"][0])


def test_setup_needs_a_calibration_on_either_side_of_each_round():
    with pytest.raises(ValueError):
        run.setup_seconds([0.3, 0.3], [0.34, 0.34])


def test_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e, _ = run.end_to_end(_fake_phase(), [0.2, 0.3, 0.25], [0.3, 0.4, 0.35, 0.3], 1089)
    imports = {"import.python_s": 0.07, "import.numpy_s": 0.2, "import.oamch_cli_s": 0.25}
    layers = run.per_layer(_fake_phase(), _fake_phase(), imports, 0)
    for metrics, key in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert {name: unit for name, (_, unit) in metrics.items()} == \
            {m["name"]: m["unit"] for m in spec[key]}


# -------------------------------------------------------------- tail rule

@pytest.mark.parametrize("n, percentile", [
    (100, 90.0), (20, 50.0), (40, 75.0), (84, 100.0 * 74 / 84), (19, 50.0), (6, 50.0), (1, 50.0),
])
def test_tail_rank(n, percentile):
    assert math.isclose(run.tail_rank(n), percentile)


def test_tail_leaves_exactly_ten_samples_beyond_it():
    for n in range(20, 400):
        samples = [float(i) for i in range(n)]
        value, _ = run.tail(samples[::-1])
        assert sum(s > value for s in samples) == 10


def test_tail_rank_needs_samples():
    with pytest.raises(ValueError):
        run.tail_rank(0)


# ---------------------------------------------------------- Harrell-Davis

def test_harrell_davis_median_of_symmetric_samples_is_the_middle():
    assert run.median([4.0, 1.0, 3.0, 2.0, 5.0]) == pytest.approx(3.0)
    assert run.median([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5)
    assert run.median([0.7]) == pytest.approx(0.7)
    assert run.median([2.0] * 9) == pytest.approx(2.0)


def test_harrell_davis_moves_with_every_sample_but_stays_within_the_range():
    base = [4.0, 4.2, 4.4, 4.6, 4.8]
    slow_outlier = [4.0, 4.2, 4.4, 4.6, 9.0]
    assert run.median(base) < run.median(slow_outlier) < statistics.fmean(slow_outlier)
    assert 4.0 < run.harrell_davis(base, 0.9) <= 4.8


def test_harrell_davis_needs_samples_and_an_inner_quantile():
    with pytest.raises(ValueError):
        run.harrell_davis([], 0.5)
    with pytest.raises(ValueError):
        run.harrell_davis([1.0], 1.0)
