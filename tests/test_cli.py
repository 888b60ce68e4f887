import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oamch
from oamch import cli
from oamch.cli import main
from oamch.config import load_config
from oamch.search import scan_alpha_beta
from oamch.validate import SUITE_NAMES


def _write_config(tmp_path, **tweaks):
    raw = {
        "schema_version": 1,
        "experiment": {"alpha": 0.0, "beta": 0.0, "theta_a": 0.0, "theta_b": 0.0, "step_index": 0.5},
        "ch": {
            "theta_a": 0.0,
            "theta_a_prime": math.pi / 4,
            "theta_b": math.pi / 8,
            "theta_b_prime": 3 * math.pi / 8,
        },
        "mc": {"trials": 20000, "efficiency_a": 1.0, "efficiency_b": 1.0, "seed": 42},
        "scan": {"alpha_steps": 5, "beta_steps": 5, "theta_policy": "fixed-canonical", "threshold": 0.204},
    }
    for dotted, value in tweaks.items():
        section, key = dotted.split(".")
        raw.setdefault(section, {})[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_probe_text_table(tmp_path, capsys):
    assert main(["probe", "--config", _write_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0.5" in out
    assert "P(inf,inf)" in out


def test_probe_json_roundtrip(tmp_path, capsys):
    assert main(["probe", "--config", _write_config(tmp_path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["results"]["lambda_sq"][0][0] == pytest.approx(0.5, abs=1e-12)
    assert doc["results"]["lambda_sq"][1][1] == pytest.approx(0.5, abs=1e-12)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["inputs_echo"]["experiment"]["step_index"] == 0.5


def test_probe_closed_form_requires_zero_aux_phases(tmp_path, capsys):
    config = _write_config(tmp_path, **{"experiment.aux_phases": [0.1, 0.0, 0.0, 0.0]})
    code = main(["probe", "--config", config, "--closed-form"])
    assert code == 2
    assert "zero auxiliary phases" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ch", "mc", "scan"])
def test_ch_mc_and_scan_refuse_aux_phases(tmp_path, capsys, command):
    # the CH settings and landscape have no auxiliary phases: the result would be the zero-phase one
    config = _write_config(tmp_path, **{"experiment.aux_phases": [1.0, 2.0, 3.0, 4.0]})
    kept, absent = tmp_path / "keep.csv", tmp_path / "new.csv"
    kept.write_bytes(b"alpha,beta\n0,0\n")
    for out in (kept, absent):
        assert main([command, "--config", config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: {command} requires zero auxiliary phases (experiment.aux_phases)\n")
        assert captured.out == ""
    assert kept.read_bytes() == b"alpha,beta\n0,0\n"
    assert not absent.exists()
    # the same config still loads for probe, which honours the phases
    assert main(["probe", "--config", config]) == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["probe", "ch", "mc"])
def test_out_writes_the_bytes_the_command_prints(tmp_path, capsys, command, fmt):
    argv = [command, "--config", _write_config(tmp_path), "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


def test_probe_missing_section(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"schema_version": 1}), encoding="utf-8")
    assert main(["probe", "--config", str(path)]) == 2


def test_ch_prints_canonical_s(tmp_path, capsys):
    assert main(["ch", "--config", _write_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "S = 0.2071068" in out
    assert "CH violated (S > 0): yes" in out


@pytest.mark.parametrize("dest", ["stdout", "out"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ch_assert_violation_failure(tmp_path, capsys, fmt, dest):
    config = _write_config(
        tmp_path,
        **{"ch.theta_a_prime": 0.0, "ch.theta_b": 0.0, "ch.theta_b_prime": 0.0},
    )
    out = tmp_path / "ch.out"
    argv = ["ch", "--config", config, "--format", fmt, *(["--out", str(out)] if dest == "out" else [])]

    def run(*extra):
        code = main([*argv, *extra])
        captured = capsys.readouterr()
        return code, out.read_text(encoding="utf-8") if dest == "out" else captured.out, captured.err

    code, output, err = run()
    assert (code, err) == (0, "")
    if fmt == "text":
        assert "S = 0.0000000" in output
    else:
        assert json.loads(output)["results"]["violated"] is False
    if dest == "out":
        out.unlink()
    # the failed assertion still writes the whole output, then one line on stderr
    assert run("--assert-violation") == (1, output, "assertion failed: S = 0.0000000 <= 0\n")


def test_ch_json_document(tmp_path, capsys):
    assert main(["ch", "--config", _write_config(tmp_path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["s"] == pytest.approx(0.2071067811865475, abs=1e-9)
    assert doc["results"]["violated"] is True
    assert json.loads(json.dumps(doc)) == doc


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["ch", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"schema_version": 1, "experiment": {"waist": 2.0}}), encoding="utf-8")
    assert main(["probe", "--config", str(path)]) == 2
    assert "waist" in capsys.readouterr().err


@pytest.mark.parametrize("section, value", [("experiment", 5), ("scan", [])])
def test_section_that_is_not_an_object_exits_2_with_one_line(tmp_path, capsys, section, value):
    path = tmp_path / "section.json"
    path.write_text(json.dumps({"schema_version": 1, section: value}), encoding="utf-8")
    assert main(["probe", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: section {section!r} must be an object\n"


def test_mc_is_byte_deterministic(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["mc", "--config", config]) == 0
    first = capsys.readouterr().out
    assert main(["mc", "--config", config]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "S_hat" in first
    assert "PCG64" in first


def test_mc_zero_trials_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, **{"mc.trials": 0})
    assert main(["mc", "--config", config]) == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_mc_without_coincidences_exits_1_with_one_line(tmp_path, capsys, fmt):
    # a valid config whose three trials per run record no coincidence at all
    config = _write_config(tmp_path)
    argv = ["mc", "--config", config, "--format", fmt, "--set", "mc.trials=3",
            "--set", "mc.efficiency_a=0.3", "--set", "mc.efficiency_b=0.3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "insufficient statistics: no coincidences in any run; cannot estimate S\n"


@pytest.mark.parametrize(
    "tweaks, overrides",
    [
        ({"mc.trials": math.inf}, []),
        ({}, ["--set", "mc.seed=1e400"]),
        ({}, ["--set", "mc.trials=NaN"]),
        # finite, but beyond the int64 the sampler's arithmetic takes
        ({}, ["--set", "mc.trials=1e19"]),
    ],
)
def test_non_finite_number_exits_2_without_traceback(tmp_path, tweaks, overrides):
    _assert_one_line_config_error(_run_cli("mc", "--config", _write_config(tmp_path, **tweaks), *overrides))


@pytest.mark.parametrize(
    "command, overrides",
    [
        # float64 phases L*2*pi carry no significant digits
        ("probe", ["--set", "experiment.step_index=1e300"]),
        ("ch", ["--set", "experiment.step_index=1e17"]),
        # 10^12 grid points; rejected before anything is allocated
        ("scan", ["--set", "scan.alpha_steps=1000000", "--set", "scan.beta_steps=1000000"]),
    ],
)
def test_out_of_range_input_exits_2_without_traceback(tmp_path, command, overrides):
    out = tmp_path / "scan.csv"
    _assert_one_line_config_error(
        _run_cli(command, "--config", _write_config(tmp_path), "--out", str(out), *overrides)
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, template",
    [
        ("probe", "experiment.step_index={}"),
        ("probe", "experiment.alpha=-{}"),
        ("probe", "experiment.theta_b={}"),
        ("probe", "experiment.aux_phases=[0, {}, 0, 0]"),
        ("ch", "ch.theta_b_prime={}"),
        ("mc", "mc.efficiency_a={}"),
        ("scan", "scan.threshold={}"),
    ],
)
def test_integer_beyond_float_range_exits_2_with_one_line(tmp_path, capsys, command, template):
    # JSON reads 10^400 as an exact integer, which no float can hold
    argv = [command, "--config", _write_config(tmp_path), "--out", str(tmp_path / "scan.csv"),
            "--set", template.format(10**400)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("probe", "experiment.alpha=1e400", "experiment.alpha must be finite, got inf"),
        ("probe", "experiment.beta=-1e400", "experiment.beta must be finite, got -inf"),
        ("probe", "experiment.theta_a=NaN", "experiment.theta_a must be finite, got nan"),
        ("probe", "experiment.theta_b=1e400deg", "experiment.theta_b must be finite, got '1e400deg'"),
        ("probe", "experiment.aux_phases=[0, 0, 1e400, 0]", "experiment.aux_phases[2] must be finite, got inf"),
        ("probe", 'experiment.aux_phases=["nan rad", 0, 0, 0]',
         "experiment.aux_phases[0] must be finite, got 'nan rad'"),
        ("ch", "ch.theta_a=1e400", "ch.theta_a must be finite, got inf"),
        ("ch", "ch.theta_a_prime=-1e400deg", "ch.theta_a_prime must be finite, got '-1e400deg'"),
        ("ch", "ch.theta_b=NaN", "ch.theta_b must be finite, got nan"),
        ("ch", "ch.theta_b_prime=-1e400", "ch.theta_b_prime must be finite, got -inf"),
    ],
)
def test_non_finite_angle_names_its_key(tmp_path, capsys, command, override, message):
    assert main([command, "--config", _write_config(tmp_path), "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "override, message",
    [
        ("scan.alpha_steps=1e300", "alpha_steps must be at most 524288 (2^19), got 1e+300"),
        ("scan.beta_steps=1e300", "beta_steps must be at most 524288 (2^19), got 1e+300"),
        ("scan.beta_steps=524289", "beta_steps must be at most 524288 (2^19), got 524289"),
        ("scan.alpha_steps=600000.0", "alpha_steps must be at most 524288 (2^19), got 600000.0"),
    ],
)
def test_step_count_past_two_to_the_19_names_the_count(tmp_path, capsys, override, message):
    # with the other count at least 2, no count above 2^19 fits: refused before the product is formed
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", _write_config(tmp_path), "--out", str(out), "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_integer_past_the_digit_limit_exits_2_with_one_line(tmp_path, capsys):
    # more digits than the interpreter converts from text (4,300 by default)
    digits = "1" + "0" * 5000
    path = tmp_path / "digits.json"
    path.write_text('{"schema_version": 1, "experiment": {"alpha": %s}}' % digits, encoding="utf-8")
    for argv in (["probe", "--config", str(path)],
                 ["probe", "--config", _write_config(tmp_path), "--set", f"experiment.alpha={digits}"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


def _nested(depth):
    return "[" * depth + "]" * depth


def test_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys):
    # past the recursion limit json.loads raises RecursionError, not ValueError
    path = tmp_path / "deep.json"
    path.write_text('{"schema_version": 1, "experiment": {"alpha": %s}}' % _nested(100_000),
                    encoding="utf-8")
    argvs = [["probe", "--config", str(path)],
             ["probe", "--config", _write_config(tmp_path), "--set", f"experiment.alpha={_nested(5000)}"]]
    # around the limit, where loading succeeds and the overrides run on the nested document
    limit = sys.getrecursionlimit()
    for depth in range(limit - 150, limit + 10):
        path = tmp_path / f"deep{depth}.json"
        path.write_text('{"schema_version": 1, "experiment": {"alpha": %s}}' % _nested(depth),
                        encoding="utf-8")
        argvs.append(["probe", "--config", str(path), "--set", "experiment.beta=0.1"])
    for argv in argvs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


def _run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(oamch.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "oamch.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


# Runs each argv with `main` in one interpreter and records, after each, its
# exit code, stdout and stderr, whether numpy was loaded so far and its
# submodules, the watched stdlib modules, whether the sampler was loaded so
# far, OPENBLAS_NUM_THREADS and, where /proc lists them, the process's threads.
_IMPORT_PROBE = """
import contextlib, io, json, os, sys
if sys.argv[3] == "block-numpy":
    sys.modules["numpy"] = None  # `import numpy` now fails, as where it is not installed
from oamch.cli import main
report = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append({
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "numpy_loaded": "numpy" in sys.modules,
        "numpy": sorted(m for m in sys.modules if m.startswith("numpy.")),
        "stdlib": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules),
        "sampler": "oamch._pcg64" in sys.modules,
        "oamch": sorted(m for m in sys.modules if m.startswith("oamch")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    })
with open(sys.argv[1], "w") as fh:
    json.dump(report, fh)
"""


def _import_probe(tmp_path, commands, blas_threads=None, block_numpy=False, tunables=None) -> list[dict]:
    """The probe's report on `commands`, with OPENBLAS_NUM_THREADS unset or preset.

    With `block_numpy` the interpreter cannot import numpy; `tunables`, if
    given, is the child's GLIBC_TUNABLES, which is otherwise unset.
    """
    report = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(Path(oamch.__file__).resolve().parents[1])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("GLIBC_TUNABLES", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    if tunables is not None:
        env["GLIBC_TUNABLES"] = tunables
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(report), json.dumps(commands),
         "block-numpy" if block_numpy else "-"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def _scans(tmp_path, config, prefix="scan") -> list[list[str]]:
    """scan in CSV and JSON under both theta policies, each to its own artifact."""
    return [
        ["scan", "--config", config, "--out", str(tmp_path / f"{prefix}-{policy}.{fmt}"), "--format", fmt,
         "--set", f"scan.theta_policy={policy}"]
        for policy in ("fixed-canonical", "optimize-per-point")
        for fmt in ("csv", "json")
    ]


def test_probe_ch_and_help_never_load_numpy(tmp_path):
    config = _write_config(tmp_path)
    light = [
        ["probe", "--config", config],
        ["probe", "--config", config, "--format", "json"],
        ["probe", "--config", config, "--closed-form"],
        ["ch", "--config", config, "--assert-violation"],
        ["ch", "--config", config, "--format", "json"],
        ["--help"],
        *_scans(tmp_path, config),
        ["validate", "--suites", "azimuthal"],
        ["validate"],
    ]
    mc = [["mc", "--config", config], ["mc", "--config", config, "--format", "json"]]
    report = _import_probe(tmp_path, light + mc)
    assert [r["code"] for r in report] == [0] * len(report)
    assert [r["numpy_loaded"] for r in report] == [False] * len(report)
    assert [r["numpy"] for r in report] == [[]] * len(report)
    # no oamch module needs dataclasses or inspect
    assert [r["stdlib"] for r in report] == [[]] * len(report)
    # only mc imports the sampler: validate, run before it, leaves it unloaded
    assert [r["sampler"] for r in report] == [False] * len(light) + [True] * len(mc)
    # nothing starts a thread
    assert {r["threads"] for r in report} <= {1, None}


_CORE_MODULES = ["oamch", "oamch.azimuthal", "oamch.cli", "oamch.coincidence", "oamch.config"]


def _config_with(tmp_path, name, *sections):
    """A config file holding only `sections` of `_write_config`'s document."""
    raw = json.loads(Path(_write_config(tmp_path)).read_text(encoding="utf-8"))
    path = tmp_path / name
    path.write_text(json.dumps({k: raw[k] for k in ("schema_version", *sections)}), encoding="utf-8")
    return str(path)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    light = _config_with(tmp_path, "light.json", "experiment", "ch")
    scan = _config_with(tmp_path, "scan.json", "experiment", "scan")
    mc = _config_with(tmp_path, "mc.json", "experiment", "ch", "mc")
    expected = [
        (["--help"], []),
        (["probe", "--config", light], []),
        (["probe", "--config", light, "--format", "json"], []),
        (["probe", "--config", light, "--closed-form"], []),
        (["ch", "--config", light], []),
        (["scan", "--config", scan, "--out", str(tmp_path / "scan.csv")], ["oamch.search"]),
        (["validate", "--suites", "azimuthal"], ["oamch.validate"]),
        (["mc", "--config", mc], ["oamch._pcg64", "oamch.montecarlo"]),
    ]
    # one interpreter per command, as modules stay loaded
    for argv, extra in expected:
        [report] = _import_probe(tmp_path, [argv])
        assert report["code"] == 0, (argv, report["stderr"])
        assert report["oamch"] == sorted(_CORE_MODULES + extra), argv


def test_importing_the_package_loads_no_submodule():
    code = "import sys, oamch; print(*sorted(m for m in sys.modules if m.startswith('oamch')))"
    env = {**os.environ, "PYTHONPATH": str(Path(oamch.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert proc.stdout.split() == ["oamch"]


def test_validate_help_lists_exactly_the_suites(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line, so no suite name is wrapped at its hyphen
    with pytest.raises(SystemExit):
        main(["validate", "--help"])
    listed = capsys.readouterr().out.split("comma-separated subset of:", 1)[1]
    assert [name.strip() for name in listed.split(",")] == list(SUITE_NAMES)


def test_main_keeps_a_preset_blas_thread_count(tmp_path):
    # main leaves OPENBLAS_NUM_THREADS as it finds it, set or unset
    for preset in ("2", None):
        report = _import_probe(tmp_path, [["validate", "--suites", "azimuthal"]], blas_threads=preset)
        assert report[0]["code"] == 0
        assert report[0]["blas_threads"] == preset


def test_help_probe_ch_and_mc_run_without_numpy(tmp_path, capsys):
    config = _write_config(tmp_path, **{"experiment.step_index": 1.7321})
    scans = _scans(tmp_path, config, prefix="blocked")
    commands = [
        ["--help"],
        ["probe", "--config", config],
        ["ch", "--config", config, "--format", "json"],
        ["mc", "--config", config],
        ["mc", "--config", config, "--format", "json"],
        *scans,
    ]
    report = _import_probe(tmp_path, commands, block_numpy=True)
    assert [r["code"] for r in report] == [0] * len(commands)
    assert [r["stderr"] for r in report] == [""] * len(commands)
    # the scans write the bytes they write where numpy can be imported
    for blocked, plain in zip(scans, _scans(tmp_path, config, prefix="plain")):
        assert main(plain) == 0
        assert Path(blocked[4]).read_bytes() == Path(plain[4]).read_bytes()


def test_validate_prints_the_same_bytes_without_numpy(tmp_path):
    blocked = _import_probe(tmp_path, [["validate"]], block_numpy=True)
    plain = _import_probe(tmp_path, [["validate"]])
    assert blocked[0]["code"] == plain[0]["code"] == 0
    assert blocked[0]["stderr"] == plain[0]["stderr"] == ""
    assert blocked[0]["stdout"] == plain[0]["stdout"]
    assert plain[0]["stdout"].count(" PASS ") == 4


# On x86-64, glibc (2.36 at least) picks FMA variants of sin, cos, exp, atan2
# and log at run time; these tunables, read by the child alone, hide the CPU
# features that select them
_NO_FMA = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX,-AVX512F"
_SINES = ("import math, random; r = random.Random(0); "
          "print(hash(tuple(math.sin(r.uniform(-10.0, 10.0)) for _ in range(300000))))")


def test_commands_print_the_same_bytes_at_every_libm_dispatch_level(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES"}
    sines = {subprocess.run([sys.executable, "-c", _SINES], capture_output=True, text=True, env=e,
                            timeout=60, check=True).stdout for e in (env, {**env, "GLIBC_TUNABLES": _NO_FMA})}
    if len(sines) == 1:
        pytest.skip(f"GLIBC_TUNABLES={_NO_FMA} changes no math.sin result here")
    config = _write_config(tmp_path, **{"experiment.alpha": 0.3, "experiment.beta": 1.1,
                                        "experiment.step_index": 1.7321})
    artifact = tmp_path / "scan.csv"
    # a key per row, and S below 1e-10 on most keys
    scan = ["scan", "--config", config, "--out", str(artifact), "--format", "csv",
            "--set", "scan.alpha_steps=93", "--set", "scan.beta_steps=91",
            "--set", "scan.theta_policy=optimize-per-point", "--set", "experiment.step_index=0.9979"]
    commands = [[command, "--config", config, "--format", fmt]
                for command in ("probe", "ch", "mc") for fmt in ("text", "json")] + [["validate"], scan]
    native = _import_probe(tmp_path, commands)
    rows = artifact.read_bytes()
    masked = _import_probe(tmp_path, commands, tunables=_NO_FMA)
    assert [r["code"] for r in native] == [0] * len(commands)
    assert [(r["code"], r["stdout"]) for r in masked] == [(r["code"], r["stdout"]) for r in native]
    assert artifact.read_bytes() == rows


def _assert_one_line_config_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:")
    assert proc.stderr.count("\n") == 1


def test_mc_json_document(tmp_path, capsys):
    assert main(["mc", "--config", _write_config(tmp_path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    runs = doc["results"]["runs"]
    assert [r["setting"] for r in runs] == ["ab", "ab'", "a'b", "a'b'"]
    for run in runs:
        total = sum(sum(row) for row in run["counts"]) + run["no_coincidence"]
        assert total == 20000
    assert doc["results"]["stderr"] > 0.0
    assert json.loads(json.dumps(doc)) == doc


def test_mc_override_changes_seed(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["mc", "--config", config, "--format", "json"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert main(["mc", "--config", config, "--set", "mc.seed=7", "--format", "json"]) == 0
    other = json.loads(capsys.readouterr().out)
    assert base["results"]["runs"][0]["counts"] != other["results"]["runs"][0]["counts"]
    assert other["inputs_echo"]["mc"]["seed"] == 7


def test_scan_csv_artifact(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", config, "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "alpha,beta,theta_a,theta_a_prime,theta_b,theta_b_prime,S,exceeds_threshold"
    assert len(lines) == 1 + 25
    diagonal = [ln for ln in lines[1:] if ln.split(",")[0] == ln.split(",")[1]]
    assert len(diagonal) == 5
    for ln in diagonal:
        fields = ln.split(",")
        assert fields[6] == "0.207106781"
        assert fields[7] == "true"
    summary = json.loads(capsys.readouterr().out)
    assert summary["results"]["rows"] == 25
    assert summary["results"]["best"]["s"] == pytest.approx(0.2071067811865475, abs=1e-9)


@pytest.mark.parametrize("policy", ["fixed-canonical", "optimize-per-point"])
def test_scan_csv_lines_format_the_library_columns(tmp_path, capsys, policy):
    config = _write_config(
        tmp_path,
        **{"scan.alpha_steps": 4, "scan.beta_steps": 6, "scan.theta_policy": policy,
           "experiment.step_index": 1.7},
    )
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", config, "--out", str(out)]) == 0
    loaded = load_config(config)
    rows = [(a, b, *tail) for alphas, betas, tails in scan_alpha_beta(loaded.scan, loaded.experiment.step_index)
            for (a, b), tail in zip(itertools.product(alphas, betas), tails)]
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 24
    for line, (*values, flag) in zip(lines[1:], rows, strict=True):
        assert line == ",".join([format(v, ".9g") for v in values] + ["true" if flag else "false"])


def test_scan_json_artifact(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "scan.json"
    assert main(["scan", "--config", config, "--out", str(out), "--format", "json",
                 "--set", "scan.threshold=0.1"]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["results"]["rows"]) == 25
    assert json.loads(json.dumps(doc)) == doc
    # the envelope, checked without `cli._document`: the config after --set, and the summary's best row
    echo = json.loads(Path(config).read_text(encoding="utf-8"))
    echo["scan"]["threshold"] = 0.1
    assert sorted(doc) == ["command", "inputs_echo", "results", "schema_version"]
    assert (doc["command"], doc["schema_version"], doc["inputs_echo"]) == ("scan", 1, echo)
    summary = json.loads(capsys.readouterr().out)
    assert summary["command"] == "scan-summary"
    assert doc["results"]["best"] == summary["results"]["best"]


def test_scan_needs_output_path(tmp_path, capsys):
    assert main(["scan", "--config", _write_config(tmp_path)]) == 2


@pytest.mark.parametrize("argv, tweaks, source", [
    (["scan", "--out", ""], {"output.path": "scan.csv"}, "--out"),
    (["probe", "--out", ""], {}, "--out"),
    (["scan"], {"output.path": ""}, "output.path"),
    (["scan", "--out", "scan.csv"], {"output.path": ""}, "output.path"),
])
def test_empty_output_path_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv, tweaks, source):
    # an empty path is neither a missing one nor a file: nothing is written, here or at output.path
    monkeypatch.chdir(tmp_path)
    config = _write_config(tmp_path, **tweaks)
    assert main([argv[0], "--config", config, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"config error: {source} must be a non-empty")
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


# Runs one command as a child and prints its peak RSS in MB, read by os.wait4;
# spawned straight from pytest, ru_maxrss would carry pytest's own high-water mark
_PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    fd = os.open(os.devnull, os.O_WRONLY)
    os.dup2(fd, 1)
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)
"""


def test_scan_of_a_grid_without_repeated_keys_stays_small(tmp_path):
    # 512 and 511 share no factor: each of the 261,632 rows has its own key, and the
    # scan holds no table, only one chunk of `_CHUNK_ROWS` rows at a time
    config = _write_config(tmp_path, **{"scan.alpha_steps": 512, "scan.beta_steps": 511})
    out = tmp_path / "scan.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "-m", "oamch.cli", "scan", "--config", config, "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    code, peak_mb = proc.stdout.split()
    assert (code, proc.stderr) == ("0", "")
    with out.open("rb") as fh:
        assert sum(1 for _ in fh) == 1 + 512 * 511
    assert float(peak_mb) < 45.0


def test_scan_unwritable_path_exits_3(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("scan computed the landscape before opening its output")

    monkeypatch.setattr("oamch.cli.scan_alpha_beta", never)
    config = _write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    target = blocker / "scan.csv"
    assert main(["scan", "--config", config, "--out", str(target)]) == 3
    assert "i/o error" in capsys.readouterr().err


_STDOUT_ARGVS = {
    "probe": ["probe"], "ch": ["ch"], "mc": ["mc"], "validate": ["validate"],
    "scan": ["scan", "--out", "scan.csv"],
    # a JSON echo longer than stdout's buffer fails in the command's own write
    "probe-long-echo": ["probe", "--format", "json", "--set", "experiment.alpha=" + " " * 20000 + "0.3rad"],
}


def _run_with_stdout(tmp_path, argv, stdout):
    """Run the CLI in tmp_path with stdout on /dev/full ("full") or with fd 1 closed ("closed")."""
    # a buffered stdout, whose bytes reach /dev/full only when it is flushed
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(oamch.__file__).resolve().parents[1])
    if argv[0] != "validate":
        argv = [argv[0], "--config", _write_config(tmp_path), *argv[1:]]
    command = [sys.executable, "-m", "oamch.cli", *argv]
    if stdout == "closed":
        return subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command], stderr=subprocess.PIPE,
                              text=True, env=env, cwd=tmp_path, timeout=60)
    with open("/dev/full", "w") as full:
        return subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                              cwd=tmp_path, timeout=60)


@pytest.mark.parametrize(
    ("name", "stdout"),
    [(name, "full") for name in _STDOUT_ARGVS] + [(name, "closed") for name in _STDOUT_ARGVS],
    ids=[*_STDOUT_ARGVS, *(f"{name}-closed" for name in _STDOUT_ARGVS)],
)
def test_failed_write_to_stdout_exits_3_with_one_line(tmp_path, name, stdout):
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    proc = _run_with_stdout(tmp_path, _STDOUT_ARGVS[name], stdout)
    assert proc.returncode == 3
    assert proc.stderr.startswith("i/o error: ") and proc.stderr.count("\n") == 1
    if name == "scan":  # the artifact is written before the summary
        assert len((tmp_path / "scan.csv").read_text(encoding="utf-8").splitlines()) == 1 + 5 * 5


def test_sigint_exits_130_with_one_line(tmp_path):
    # a 1024x1023 scan runs for seconds; interrupt it once its artifact has bytes
    config = _write_config(tmp_path, **{"scan.alpha_steps": 1024, "scan.beta_steps": 1023})
    artifact = tmp_path / "scan.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(oamch.__file__).resolve().parents[1])}
    # Python raises KeyboardInterrupt only where SIGINT starts unignored; exec resets
    # a handler to the default but keeps an ignored SIGINT ignored
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "oamch.cli", "scan", "--config", config, "--out", str(artifact)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    try:
        deadline = time.monotonic() + 60
        while not (artifact.exists() and artifact.stat().st_size) and proc.poll() is None:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, stderr) == (130, "interrupted\n")


def test_closed_stdout_does_not_fail_a_command_that_writes_to_out(tmp_path):
    proc = _run_with_stdout(tmp_path, ["probe", "--out", "probe.out"], "closed")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(["probe", "--config", _write_config(tmp_path), "--out", str(tmp_path / "again.out")]) == 0
    assert (tmp_path / "probe.out").read_bytes() == (tmp_path / "again.out").read_bytes()


@pytest.mark.skipif(not (os.path.isdir("/proc/self/fd") and os.path.exists("/dev/full")),
                    reason="needs /proc/self/fd and /dev/full")
def test_failed_stdout_leaks_no_descriptor(tmp_path, capsys, monkeypatch):
    config = _write_config(tmp_path)
    counts = [len(os.listdir("/proc/self/fd"))]
    for _ in range(3):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            assert main(["probe", "--config", config]) == 3
            monkeypatch.undo()
        counts.append(len(os.listdir("/proc/self/fd")))
    assert counts == counts[:1] * 4
    assert capsys.readouterr().err.count("i/o error: ") == 3


def test_validate_all_suites_pass(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    for name in ("azimuthal", "coincidence", "appendix-a", "sign-check"):
        assert f"suite {name}" in out
    assert "FAIL" not in out


def test_validate_suite_filter(capsys):
    assert main(["validate", "--suites", "sign-check"]) == 0
    out = capsys.readouterr().out
    assert "sign-check" in out
    assert "appendix-a" not in out


def test_validate_unknown_suite_exits_2(capsys):
    assert main(["validate", "--suites", "nonsense"]) == 2


@pytest.mark.parametrize("selection", [",", "", " , "])
def test_validate_empty_selection_exits_2(selection):
    # a validation that checked nothing must not report success
    proc = _run_cli("validate", "--suites", selection)
    _assert_one_line_config_error(proc)
    assert proc.stdout == ""


def test_validate_suite_value_error_is_not_a_config_error(monkeypatch):
    def broken_suite():
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("oamch.validate.run_azimuthal_suite", broken_suite)
    with pytest.raises(ValueError, match="broadcast"):
        main(["validate", "--suites", "azimuthal"])
