"""End-to-end benchmark of the oamch command-line interface.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It drives `python -m oamch.cli` (with
PYTHONPATH=src) in fresh interpreters, one command at a time: a closed loop
with a single client.  Workloads, metrics and the layer table are described
in bench/README.md.

1. Set-up, repeated SETUP_ROUNDS times with a run of bench/calibration.py
   before the first round and after each; `setup_s` is the median of the
   rounds, each scaled by the two calibrations beside it.  A round deletes
   the program's bytecode caches and the previous inputs, writes the seeded
   inputs, and runs one warm-up interpreter that compiles the bytecode again.
2. The timed phase repeats the workload's *pass* (its fixed command list)
   while one more pass still fits into --seconds, with runs of
   bench/calibration.py in between that measure the host's current speed.
   Every output is checked against the benchmark's own reference
   (checks.py); a pass repeats the same commands, so a later output that is
   byte-identical to a checked one is correct too.
3. With --trace 1 the timed phase is split: half untraced, half through
   bench/traced_cli.py, which times each layer from outside.  Import times
   come from separate fresh interpreters.

Medians and the tail percentile are Harrell-Davis estimates (see
harrell_davis).  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, in seconds scaled to the reference
host, and the per-layer metrics with --trace 1, in measured seconds.
The lines before it hold the full report: provenance, every argv, sample
counts, the tail percentile and the failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import workloads
from traced_cli import UNTRACED_CALLS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
SETUP_ROUNDS = 5
IMPORT_REPEATS = 7
COMMAND_TIMEOUT_S = 150.0
TAIL_MIN_BEYOND = 10
HD_STEPS = 1000

# Host-speed calibration.  The timed phase runs bench/calibration.py before a
# pass whenever CAL_EVERY_S of command time have passed since the last run
# of it, and once after the last pass.  Each pass of the timed phase, and
# each set-up round, is scaled by CAL_REFERENCE_S / (mean of the
# calibrations just before and after it), so times read as seconds on the
# reference host: a 2-core Intel Xeon VM with Python 3.11.7 and numpy
# 2.4.6, where the calibration's median was 0.34 s.  The report keeps the
# unscaled values.
CAL_EVERY_S = 1.0
CAL_REFERENCE_S = 0.34
CALIBRATION = [str(Path(__file__).resolve().parent / "calibration.py")]

CLI = ["-m", "oamch.cli"]
TRACED_CLI = [str(Path(__file__).resolve().parent / "traced_cli.py")]

# Per-layer metric name -> (layer in the traced stats, field).
LAYER_FIELDS = {
    "config.load_config.calls": ("config.load_config", "calls"),
    "config.load_config.self_s": ("config.load_config", "self_s"),
    "cli.render.self_s": ("cli.render", "self_s"),
    "search.scan_alpha_beta.self_s": ("search.scan_alpha_beta", "self_s"),
    "search.ChLandscape.calls": ("search.ChLandscape", "calls"),
    "search.optimize_thetas.calls": ("search.optimize_thetas", "calls"),
    "search.optimize_thetas.self_s": ("search.optimize_thetas", "self_s"),
    "search.optimize_thetas.total_s": ("search.optimize_thetas", "total_s"),
    "search.landscape_evals": ("search.ChLandscape.value", "calls"),
    "search.ChLandscape.value.self_s": ("search.ChLandscape.value", "self_s"),
}
for _layer in ("azimuthal.overlap_integral", "azimuthal.overlap_integral_quadrature",
               "azimuthal.gauss_segments", "interferometer.arm_amplitude",
               "coincidence.amplitude_matrix", "coincidence.amplitude_matrix_quadrature",
               "chtest.ch_parameter", "montecarlo.simulate_ch_runs", "montecarlo.estimate_S"):
    LAYER_FIELDS[f"{_layer}.calls"] = (_layer, "calls")
    LAYER_FIELDS[f"{_layer}.self_s"] = (_layer, "self_s")
SUITE_LAYERS = tuple(f"validate.{name}" for name in checks.SUITES)
for _layer in SUITE_LAYERS:
    LAYER_FIELDS[f"{_layer}.self_s"] = (_layer, "self_s")


class SetupError(RuntimeError):
    """The program cannot be run here; no result is printed."""


# ------------------------------------------------------------ statistics

def tail_rank(n: int) -> float:
    """The percentile that cmd_tail_s reports for n samples.

    The highest percentile with at least TAIL_MIN_BEYOND samples beyond it
    (rank n - TAIL_MIN_BEYOND of n), but not below the median.  Below
    2 * TAIL_MIN_BEYOND samples there is no tail with that many samples
    beyond it, so the median is reported.  The rule is continuous in n: a host that runs a little slower
    and fits fewer commands into the run does not make the value jump, as a
    switch to the maximum below 20 samples would.
    """
    if n < 1:
        raise ValueError("no samples")
    if n < 2 * TAIL_MIN_BEYOND:
        return 50.0
    return 100.0 * (n - TAIL_MIN_BEYOND) / n


def harrell_davis(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, centred on the one a single order statistic would pick.

    A scan run holds only 4-10 commands.  Their median jumps with whichever
    command lands in the middle; this estimate moves with every sample a
    little.  Over groups of 5 recorded scans its spread was 0.057-0.069,
    against 0.065-0.117 for the plain median.  The Beta(p(n+1), (1-p)(n+1))
    weights are integrated with the midpoint rule, HD_STEPS points per
    order statistic.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 1 or not 0.0 < p < 1.0:
        raise ValueError("need samples and 0 < p < 1")
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = (np.arange(n * HD_STEPS) + 0.5) / (n * HD_STEPS)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, HD_STEPS).sum(axis=1)
    return float(weights @ x / weights.sum())


def median(samples: list[float]) -> float:
    return harrell_davis(samples, 0.5)


def tail(samples: list[float]) -> tuple[float, float]:
    """(cmd_tail_s, its percentile): the tail_rank percentile, estimated."""
    percentile = tail_rank(len(samples))
    return harrell_davis(samples, percentile / 100.0), percentile


# ------------------------------------------------------------- processes

class Sample(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_kb: int
    returncode: int | str


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def execute(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path) -> Sample:
    """Run one command to completion; wall time from spawn to reaped exit."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode == -9 and wall >= COMMAND_TIMEOUT_S
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  "timeout" if timed_out else proc.returncode)


# ------------------------------------------------------------ provenance

def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, inputs: Path, commands: list[dict]) -> dict:
    commit = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == ROOT:
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(inputs.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "seed": seed,
        "inputs_sha256": digest.hexdigest(),
        "argv": [[sys.executable, *CLI, *cmd["args"]] for cmd in commands],
    }


# ---------------------------------------------------------------- phases

def setup_round(workload: str, seed: int, env: dict, work: Path) -> list[dict]:
    for cache in (ROOT / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    for sub in ("inputs", "out"):
        shutil.rmtree(work / sub, ignore_errors=True)
    commands = workloads.generate(workload, seed, work / "inputs", work / "out", ROOT)
    warm = execute([sys.executable, *CLI, "--help"], env, work / "warmup.out", work / "warmup.err")
    if warm.returncode != 0:
        raise SetupError(f"warm-up `python -m oamch.cli --help` exited {warm.returncode}: "
                         + (work / "warmup.err").read_text(errors="replace")[-400:])
    return commands


def calibrate(env: dict, work: Path) -> float:
    """Seconds the host takes right now for bench/calibration.py."""
    sample = execute([sys.executable, *CALIBRATION], env, work / "calibration.out", work / "calibration.err")
    if sample.returncode != 0:
        raise SetupError(f"bench/calibration.py exited {sample.returncode}")
    return sample.wall_s


def bracket_scale(calibration: list[float], i: int) -> float:
    """Factor from measured to reference seconds for work done between
    calibration[i] and calibration[i + 1]: their mean is the host speed
    that work saw.
    """
    return 2.0 * CAL_REFERENCE_S / (calibration[i] + calibration[i + 1])


def setup_seconds(rounds: list[float], calibration: list[float]) -> float:
    """`setup_s` in reference seconds: the median of the scaled rounds.

    calibration[i] ran just before round i and calibration[i + 1] just after.
    """
    if len(calibration) != len(rounds) + 1:
        raise ValueError("need one calibration before each round and one after the last")
    return median([t * bracket_scale(calibration, i) for i, t in enumerate(rounds)])


class Phase:
    """One loop of passes; records every command and checks every output."""

    def __init__(self, commands: list[dict], env: dict, work: Path, verified: dict, failures: list):
        self.commands, self.env, self.work = commands, env, work
        self.verified, self.failures = verified, failures
        self.samples: list[Sample] = []
        self.pass_wall: list[float] = []
        self.pass_cpu: list[float] = []
        self.stats: list[dict] = []
        self.output_bytes = 0
        self.calibration: list[float] = []
        self.pass_calibration: list[int] = []  # index of the last calibration before each pass

    def run(self, seconds: float, traced: bool, after_pass=None) -> None:
        """Passes until one more of average length would end after `seconds`.

        At least one pass runs.  A calibration follows the last pass, so
        every pass has one before and one after its stretch of passes.
        """
        start = time.perf_counter()
        since_calibration = CAL_EVERY_S
        while True:
            if since_calibration >= CAL_EVERY_S:
                self._calibrate()
                since_calibration = 0.0
            self.pass_calibration.append(len(self.calibration) - 1)
            self._one_pass(traced)
            since_calibration += self.pass_wall[-1]
            if after_pass is not None:
                after_pass()
            done = len(self.pass_wall)
            if (time.perf_counter() - start) * (done + 1) / done > seconds:
                break
        self._calibrate()

    def pass_scale(self) -> list[float]:
        """Each pass's factor to reference seconds, from the calibrations
        just before and after its stretch of passes."""
        return [bracket_scale(self.calibration, i) for i in self.pass_calibration]

    def scaled_wall(self) -> float:
        """Mean pass length in reference seconds."""
        return statistics.fmean(w * f for w, f in zip(self.pass_wall, self.pass_scale()))

    def _calibrate(self) -> None:
        self.calibration.append(calibrate(self.env, self.work))

    def _one_pass(self, traced: bool) -> None:
        wall = cpu = 0.0
        totals: dict[str, dict] = {}
        out_bytes = 0
        for i, cmd in enumerate(self.commands):
            stdout_path = self.work / f"cmd{i:02d}.out"
            stats_path = self.work / f"cmd{i:02d}.stats.json"
            stats_path.unlink(missing_ok=True)
            artifact_path = ROOT / cmd["artifact"] if cmd["artifact"] else None
            if artifact_path is not None:
                artifact_path.unlink(missing_ok=True)
            prefix = [*TRACED_CLI, str(stats_path)] if traced else CLI
            sample = execute([sys.executable, *prefix, *cmd["args"]], self.env, stdout_path,
                             self.work / f"cmd{i:02d}.err")
            self.samples.append(sample)
            wall += sample.wall_s
            cpu += sample.cpu_s
            stdout = stdout_path.read_bytes()
            artifact = artifact_path.read_bytes() if artifact_path is not None and artifact_path.exists() else None
            out_bytes += len(stdout) + len(artifact or b"")
            self._verify(i, cmd, sample.returncode, stdout, artifact)
            if traced and stats_path.exists():
                for layer, v in json.loads(stats_path.read_text()).items():
                    acc = totals.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    for field in acc:
                        acc[field] += v[field]
        self.pass_wall.append(wall)
        self.pass_cpu.append(cpu)
        self.stats.append(totals)
        self.output_bytes = out_bytes

    def _verify(self, i: int, cmd: dict, returncode, stdout: bytes, artifact: bytes | None) -> None:
        digest = hashlib.sha256(repr(returncode).encode() + b"\0" + stdout + b"\0" + (artifact or b"")).digest()
        if self.verified.get(i) == digest:
            return
        problems = checks.check(cmd, returncode, stdout.decode("utf-8", "replace"),
                                None if artifact is None else artifact.decode("utf-8", "replace"))
        if problems:
            self.failures.append({"argv": cmd["args"], "problems": problems[:5]})
        else:
            self.verified[i] = digest


def points_per_pass(commands: list[dict]) -> int:
    points = 0
    for cmd in commands:
        if cmd["kind"].startswith("scan"):
            scan = cmd["config"]["scan"]
            points += int(scan["alpha_steps"]) * int(scan["beta_steps"])
    return points


def end_to_end(phase: Phase, setup_rounds: list[float], setup_calibration: list[float],
               points: int) -> tuple[dict, dict]:
    """(bounded metrics in reference seconds, extra report fields).

    Every command and every pass is scaled by the calibrations beside its
    stretch of passes, so a host that changes speed within a run changes
    the factor with it.  `wall_s` and `cpu_s` are means over passes, i.e.
    the timed phase's total divided by its passes: host speed switches
    every few seconds between a fast and a slow state, and over the 4-10
    passes of a scan run the mean of such samples is steadier than their
    median.

    Throughput is not bounded on its own: with one client and a fixed pass,
    commands per second is commands-per-pass / `wall_s` and points per
    second is points-per-pass / `wall_s`, so `wall_s` already bounds both.
    The report gives them.
    """
    scales = phase.pass_scale()
    per_pass = len(phase.commands)
    walls = [s.wall_s for s in phase.samples]
    scaled = [w * scales[i // per_pass] for i, w in enumerate(walls)]
    tail_s, tail_pct = tail(scaled)
    metrics = {
        "setup_s": (setup_seconds(setup_rounds, setup_calibration), "s"),
        "wall_s": (statistics.fmean(w * f for w, f in zip(phase.pass_wall, scales)), "s"),
        "cmd_p50_s": (median(scaled), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "cpu_s": (statistics.fmean(c * f for c, f in zip(phase.pass_cpu, scales)), "s"),
        "peak_rss_mb": (max(s.rss_kb for s in phase.samples) / 1024.0, "MB"),
    }
    measured = {
        "setup_s": median(setup_rounds),
        "wall_s": statistics.fmean(phase.pass_wall),
        "cmd_p50_s": median(walls),
        "cmd_tail_s": tail(walls)[0],
        "cpu_s": statistics.fmean(phase.pass_cpu),
        "peak_rss_mb": metrics["peak_rss_mb"][0],
    }
    extra = {
        "commands": len(walls),
        "passes": len(phase.pass_wall),
        "cmd_tail_percentile": tail_pct,
        "measured": measured,
        "calibration_s": phase.calibration,
        "pass_scale": scales,
        "setup_rounds_s": setup_rounds,
        "setup_calibration_s": setup_calibration,
        "pass_wall_s": phase.pass_wall,
        "commands_per_s": per_pass / metrics["wall_s"][0],
    }
    measured["commands_per_s"] = per_pass / measured["wall_s"]
    if points:
        extra["points_per_s"] = points / metrics["wall_s"][0]
        measured["points_per_s"] = points / measured["wall_s"]
    return metrics, extra


class ImportTimes:
    """Fresh-interpreter time, spawn to exit, for a bare start and two imports.

    Rounds run between the passes of the untraced phase, so the import times
    and the `cmd_p50_s` they are compared with see the same host speed.
    """

    PROBES = {"import.python_s": "pass", "import.numpy_s": "import numpy",
              "import.oamch_cli_s": "import oamch.cli"}

    def __init__(self, env: dict, work: Path):
        self.env, self.work = env, work
        self.times: dict[str, list[float]] = {name: [] for name in self.PROBES}

    def round(self) -> None:
        for name, code in self.PROBES.items():
            sample = execute([sys.executable, "-c", code], self.env, self.work / "import.out",
                             self.work / "import.err")
            if sample.returncode != 0:
                raise SetupError(f"`python -c {code!r}` exited {sample.returncode}")
            self.times[name].append(sample.wall_s)

    def medians(self) -> dict:
        while len(self.times["import.python_s"]) < IMPORT_REPEATS:
            self.round()
        return {name: statistics.median(v) for name, v in self.times.items()}


def per_layer(untraced: Phase, traced: Phase, imports: dict, points: int) -> dict:
    def layer_median(layer: str, field: str) -> float:
        return statistics.median(s.get(layer, {}).get(field, 0) for s in traced.stats)

    metrics = {name: (value, "s") for name, value in imports.items()}
    for name, (layer, field) in LAYER_FIELDS.items():
        metrics[name] = (layer_median(layer, field), "count" if field == "calls" else "s")
    evals = metrics["search.landscape_evals"][0]
    metrics["search.landscape_evals_per_point"] = (evals / points if points else 0.0, "count")
    metrics["cli.output_bytes"] = (traced.output_bytes, "bytes")

    traced_wall = traced.scaled_wall()
    untraced_wall = untraced.scaled_wall()
    untraced_p50 = median([s.wall_s for s in untraced.samples])
    suites = [sum(s.get(layer, {}).get("total_s", 0.0) for layer in SUITE_LAYERS) for s in traced.stats]
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "share.optimize_thetas_of_wall": (
            statistics.median(s.get("search.optimize_thetas", {}).get("total_s", 0.0) / w
                              for s, w in zip(traced.stats, traced.pass_wall)), "ratio"),
        "share.validate_suites_of_wall": (
            statistics.median(t / w for t, w in zip(suites, traced.pass_wall)), "ratio"),
        "share.import_of_cmd_p50": (imports["import.oamch_cli_s"] / untraced_p50, "ratio"),
    })
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "oamch" / "cli.py").is_file():
        raise SetupError(f"no program to benchmark: {ROOT / 'src' / 'oamch'} is missing")
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "cmd").mkdir(parents=True)
    env = child_env()

    setup_rounds, setup_calibration = [], [calibrate(env, work)]
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        commands = setup_round(workload, seed, env, work)
        setup_rounds.append(time.perf_counter() - start)
        setup_calibration.append(calibrate(env, work))

    points = points_per_pass(commands)
    verified: dict[int, bytes] = {}
    failures: list[dict] = []
    report = {
        "workload": workload,
        "seed_reaches_program": workloads.SEED_REACHES_PROGRAM[workload],
        "provenance": provenance(seed, work / "inputs", commands),
        "load": "closed loop, one client, one command at a time",
        "run_seconds": seconds,
    }
    if trace:
        untraced = Phase(commands, env, work / "cmd", verified, failures)
        imports = ImportTimes(env, work)
        untraced.run(seconds / 2.0, traced=False, after_pass=imports.round)
        traced = Phase(commands, env, work / "cmd", verified, failures)
        traced.run(seconds / 2.0, traced=True)
        metrics = per_layer(untraced, traced, imports.medians(), points)
        report["traced_argv_prefix"] = [sys.executable, *TRACED_CLI, "STATS.json"]
        report["untraced_calls"] = list(UNTRACED_CALLS)
        report["layer_stats_per_pass"] = traced.stats
        phases = (untraced, traced)
    else:
        timed = Phase(commands, env, work / "cmd", verified, failures)
        timed.run(seconds, traced=False)
        metrics, extra = end_to_end(timed, setup_rounds, setup_calibration, points)
        report.update(extra)
        phases = (timed,)

    attempted = sum(len(p.samples) for p in phases)
    report["failed_frac"] = len(failures) / attempted
    report["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"report": report, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through execute(), which kills and reaps the running command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["report"], indent=1, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
