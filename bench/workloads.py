"""Seeded inputs and command sequences for the four benchmark workloads.

`generate(workload, seed, inputs_dir, out_dir)` writes the config files a
workload needs and returns one *pass*: the fixed list of commands the timed
phase repeats.  The same (workload, seed) always writes byte-identical
files.  Every path written into a config or an argv is relative to the
repository root, which is the working directory of every command, so the
inputs do not depend on where the checkout lives.

Each command is a dict:

    kind       which output check applies (see checks.py)
    args       the CLI arguments after `python -m oamch.cli`
    config     the config document, or None (validate)
    overrides  the `--set` overrides, as a {section: {key: value}} dict
    artifact   the file the command writes with --out / output.path, or None
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("scan-optimized", "scan-canonical-fine", "validate-oracles", "cli-session")

# The seed reaches the program through the generated configs, except for
# validate-oracles: the suites fix their own samples.
SEED_REACHES_PROGRAM = {
    "scan-optimized": True,
    "scan-canonical-fine": True,
    "validate-oracles": False,
    "cli-session": True,
}

OPTIMIZED_GRID = 33
FINE_GRID = 256
MC_TRIALS = 1_000_000
CANONICAL_DEG = ("0deg", "45deg", "22.5deg", "67.5deg")
CANONICAL_RAD = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)


def _rel(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _angle(rng: random.Random) -> float:
    return round(rng.uniform(0.0, 2.0 * math.pi), 6)


def _general_step(rng: random.Random) -> float:
    """A step index that is usually not half-integer."""
    return round(rng.uniform(0.3, 3.7), 4)


def _half_step(rng: random.Random) -> float:
    return rng.randrange(0, 4) + 0.5


def _scan_optimized(rng, inputs: Path, out: Path, root: Path) -> list[dict]:
    doc = {
        "schema_version": 1,
        "experiment": {"alpha": 0.0, "beta": 0.0, "theta_a": 0.0, "theta_b": 0.0,
                       "step_index": rng.randrange(0, 8) + 0.5},
        "scan": {"alpha_steps": OPTIMIZED_GRID, "beta_steps": OPTIMIZED_GRID,
                 "theta_policy": "optimize-per-point", "threshold": 0.204},
    }
    cfg = inputs / "scan-optimized.json"
    _write(cfg, doc)
    artifact = _rel(out / "scan-optimized.json", root)
    args = ["scan", "--config", _rel(cfg, root), "--out", artifact, "--format", "json"]
    return [{"kind": "scan-optimized", "args": args, "config": doc, "overrides": {},
             "artifact": artifact}]


def _scan_canonical_fine(rng, inputs: Path, out: Path, root: Path) -> list[dict]:
    artifact = _rel(out / "scan-canonical-fine.csv", root)
    doc = {
        "schema_version": 1,
        "experiment": {"alpha": 0.0, "beta": 0.0, "theta_a": 0.0, "theta_b": 0.0,
                       "step_index": _general_step(rng)},
        "scan": {"alpha_steps": FINE_GRID, "beta_steps": FINE_GRID,
                 "theta_policy": "fixed-canonical", "threshold": round(rng.uniform(0.0, 0.2), 4)},
        "output": {"path": artifact, "format": "csv"},
    }
    cfg = inputs / "scan-canonical-fine.json"
    _write(cfg, doc)
    return [{"kind": "scan-canonical", "args": ["scan", "--config", _rel(cfg, root)],
             "config": doc, "overrides": {}, "artifact": artifact}]


def _validate_oracles(rng, inputs: Path, out: Path, root: Path) -> list[dict]:
    return [{"kind": "validate", "args": ["validate"], "config": None, "overrides": {},
             "artifact": None}]


def _experiment(rng, *, aux: bool, half: bool) -> dict:
    section = {"alpha": _angle(rng), "beta": _angle(rng), "theta_a": _angle(rng),
               "theta_b": _angle(rng),
               "step_index": _half_step(rng) if half else _general_step(rng)}
    if aux:
        section["aux_phases"] = [_angle(rng) for _ in range(4)]
    return section


def _ch_general(rng) -> dict:
    return dict(zip(("theta_a", "theta_a_prime", "theta_b", "theta_b_prime"),
                    (_angle(rng) for _ in range(4))))


def _ch_canonical(deg: bool) -> dict:
    values = CANONICAL_DEG if deg else CANONICAL_RAD
    return dict(zip(("theta_a", "theta_a_prime", "theta_b", "theta_b_prime"), values))


def _mc(rng) -> dict:
    return {"trials": MC_TRIALS, "efficiency_a": round(rng.uniform(0.3, 1.0), 3),
            "efficiency_b": round(rng.uniform(0.3, 1.0), 3), "seed": rng.randrange(2**32)}


def _cli_session(rng, inputs: Path, out: Path, root: Path) -> list[dict]:
    """Twelve short commands in a seeded order; the mix is the same for every seed."""
    specs = []  # (kind, extra args, config sections, overrides)
    for fmt in ("text", "json"):
        specs.append(("probe", ["--format", fmt], {"experiment": _experiment(rng, aux=True, half=False)}, {}))
        specs.append(("probe", ["--format", fmt, "--closed-form"],
                      {"experiment": _experiment(rng, aux=False, half=True)}, {}))
    for deg in (False, True):
        alpha = _angle(rng)
        exp = {"alpha": alpha, "beta": alpha, "step_index": _half_step(rng)}
        specs.append(("ch", ["--assert-violation"], {"experiment": exp, "ch": _ch_canonical(deg)}, {}))
    for fmt in ("text", "json"):
        specs.append(("ch", ["--format", fmt],
                      {"experiment": _experiment(rng, aux=False, half=False), "ch": _ch_general(rng)}, {}))
    for fmt in ("text", "json"):
        specs.append(("mc", ["--format", fmt], {"experiment": _experiment(rng, aux=False, half=False),
                                                 "ch": _ch_general(rng), "mc": _mc(rng)}, {}))
    specs.append(("mc", ["--format", "text"],
                  {"experiment": _experiment(rng, aux=False, half=False), "ch": _ch_general(rng),
                   "mc": _mc(rng)}, {"mc": {"seed": rng.randrange(2**32)}}))
    alpha = _angle(rng)
    specs.append(("mc", ["--format", "json"],
                  {"experiment": {"alpha": alpha, "beta": alpha, "step_index": _half_step(rng)},
                   "ch": _ch_canonical(False), "mc": _mc(rng)}, {}))
    rng.shuffle(specs)

    commands = []
    for i, (kind, extra, sections, overrides) in enumerate(specs):
        doc = {"schema_version": 1, **sections}
        cfg = inputs / f"cli-{i:02d}-{kind}.json"
        _write(cfg, doc)
        args = [kind, "--config", _rel(cfg, root), *extra]
        for section, values in overrides.items():
            for key, value in values.items():
                args += ["--set", f"{section}.{key}={json.dumps(value)}"]
        commands.append({"kind": kind, "args": args, "config": doc, "overrides": overrides,
                         "artifact": None})
    return commands


_GENERATORS = {
    "scan-optimized": _scan_optimized,
    "scan-canonical-fine": _scan_canonical_fine,
    "validate-oracles": _validate_oracles,
    "cli-session": _cli_session,
}


def generate(workload: str, seed: int, inputs: Path, out: Path, root: Path) -> list[dict]:
    """Write the workload's inputs under `inputs` and return its pass of commands."""
    inputs.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, inputs, out, root)
