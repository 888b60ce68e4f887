"""Strict JSON run configuration for the command-line interface.

A config document carries a mandatory schema_version plus optional sections
{experiment, ch, mc, scan, output}.  Unknown keys anywhere are rejected.
Angles are radians by default; strings with an explicit "deg" or "rad"
suffix are converted on parse.  There is no environment-variable
configuration: everything comes from the file and explicit overrides.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path

from .azimuthal import StepIndex
from .chtest import ChSettings
from .coincidence import ExperimentSettings
from .montecarlo import McConfig
from .search import ScanGrid

SCHEMA_VERSION = 1

OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid configuration document, value, or override."""


def parse_angle(value) -> float:
    """An angle: a number in radians, or a string with a deg/rad suffix."""
    if isinstance(value, bool):
        raise ConfigError(f"not an angle: {value!r}")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(f"angle must be finite, got {value!r}") from None
    if isinstance(value, str):
        text = value.strip().lower()
        for suffix, factor in (("deg", math.pi / 180.0), ("rad", 1.0)):
            if text.endswith(suffix):
                try:
                    return float(text[: -len(suffix)].strip()) * factor
                except ValueError:
                    raise ConfigError(f"cannot parse angle {value!r}") from None
        raise ConfigError(f"angle strings need an explicit 'deg' or 'rad' suffix, got {value!r}")
    raise ConfigError(f"not an angle: {value!r}")


def _require_keys(section: str, data: dict, allowed: tuple[str, ...]) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {', '.join(unknown)}")


def _number(section: str, data: dict, key: str, default):
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    return value


OutputConfig = namedtuple("OutputConfig", "path format", defaults=(None, "csv"))


class RunConfig(namedtuple("RunConfig", "raw experiment ch mc scan output")):
    """Typed view of one config document, plus the raw echo for reports.

    experiment, ch, mc and scan hold their records (ExperimentSettings,
    ChSettings, McConfig, ScanGrid), or None when the document leaves the
    section out; output is an OutputConfig, with defaults when it is left out.
    """

    __slots__ = ()


def _build_experiment(data: dict) -> ExperimentSettings:
    _require_keys(
        "experiment", data, ("alpha", "beta", "theta_a", "theta_b", "step_index", "aux_phases")
    )
    aux = data.get("aux_phases", (0.0, 0.0, 0.0, 0.0))
    if not isinstance(aux, (list, tuple)) or len(aux) != 4:
        raise ConfigError("experiment.aux_phases must be a list of four angles")
    return ExperimentSettings(
        alpha=parse_angle(data.get("alpha", 0.0)),
        beta=parse_angle(data.get("beta", 0.0)),
        theta_a=parse_angle(data.get("theta_a", 0.0)),
        theta_b=parse_angle(data.get("theta_b", 0.0)),
        step_index=StepIndex(_number("experiment", data, "step_index", 0.5)),
        aux_phases=tuple(parse_angle(p) for p in aux),
    )


def _build_ch(data: dict, experiment: ExperimentSettings | None) -> ChSettings:
    _require_keys("ch", data, ("theta_a", "theta_a_prime", "theta_b", "theta_b_prime"))
    missing = [k for k in ("theta_a", "theta_a_prime", "theta_b", "theta_b_prime") if k not in data]
    if missing:
        raise ConfigError(f"ch section must provide all four angles; missing {', '.join(missing)}")
    if experiment is None:
        raise ConfigError("ch section requires an experiment section for plates and step index")
    return ChSettings(
        theta_a=parse_angle(data["theta_a"]),
        theta_a_prime=parse_angle(data["theta_a_prime"]),
        theta_b=parse_angle(data["theta_b"]),
        theta_b_prime=parse_angle(data["theta_b_prime"]),
        alpha=experiment.alpha,
        beta=experiment.beta,
        step_index=experiment.step_index,
    )


def _build_mc(data: dict) -> McConfig:
    _require_keys("mc", data, ("trials", "efficiency_a", "efficiency_b", "seed"))
    return McConfig(
        trials=_number("mc", data, "trials", 0),
        efficiency_a=_number("mc", data, "efficiency_a", 1.0),
        efficiency_b=_number("mc", data, "efficiency_b", 1.0),
        seed=_number("mc", data, "seed", 0),
    )


def _build_scan(data: dict) -> ScanGrid:
    _require_keys("scan", data, ("alpha_steps", "beta_steps", "theta_policy", "threshold"))
    policy = data.get("theta_policy", "fixed-canonical")
    if not isinstance(policy, str):
        raise ConfigError(f"scan.theta_policy must be a string, got {policy!r}")
    return ScanGrid(
        alpha_steps=_number("scan", data, "alpha_steps", 0),
        beta_steps=_number("scan", data, "beta_steps", 0),
        theta_policy=policy,
        threshold=_number("scan", data, "threshold", 0.204),
    )


def _build_output(data: dict) -> OutputConfig:
    _require_keys("output", data, ("path", "format"))
    path = data.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"output.path must be a string, got {path!r}")
    fmt = data.get("format", "csv")
    if fmt not in OUTPUT_FORMATS:
        raise ConfigError(f"output.format must be one of {OUTPUT_FORMATS}, got {fmt!r}")
    return OutputConfig(path=path, format=fmt)


def validate_config(raw: dict) -> RunConfig:
    """Build the typed sections, rejecting unknown keys and bad values."""
    _require_keys("config", raw, ("schema_version", "experiment", "ch", "mc", "scan", "output"))
    if "schema_version" not in raw:
        raise ConfigError("config must declare schema_version")
    if isinstance(raw["schema_version"], bool) or raw["schema_version"] != SCHEMA_VERSION:  # True == 1
        raise ConfigError(
            f"unsupported schema_version {raw['schema_version']!r}; expected {SCHEMA_VERSION}"
        )
    # A ValueError from a library constructor (bad step index, trial count,
    # ...) is a config error here; a ConfigError keeps its message.
    try:
        experiment = _build_experiment(raw["experiment"]) if "experiment" in raw else None
        return RunConfig(
            raw=raw,
            experiment=experiment,
            ch=_build_ch(raw["ch"], experiment) if "ch" in raw else None,
            mc=_build_mc(raw["mc"]) if "mc" in raw else None,
            scan=_build_scan(raw["scan"]) if "scan" in raw else None,
            output=_build_output(raw["output"]) if "output" in raw else OutputConfig(),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply `section.key=value` overrides to the raw document.

    Values parse as JSON when possible and fall back to plain strings, so
    both `mc.trials=1000` and `experiment.alpha=45deg` work unquoted.
    """
    updated = dict(raw)  # the objects along each override path are copied below
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        path, text = item.split("=", 1)
        parts = path.strip().split(".")
        if not all(parts) or len(parts) < 2:
            raise ConfigError(f"override key must be section.key, got {path!r}")
        try:
            value = json.loads(text)
        except ValueError:  # not JSON, or an integer past the interpreter's digit limit
            value = text
        except RecursionError:
            raise ConfigError(f"override {path!r} is nested too deeply") from None
        node = updated
        for part in parts[:-1]:
            child = node.get(part, {})
            if not isinstance(child, dict):
                raise ConfigError(f"cannot override through non-object at {part!r} in {path!r}")
            node[part] = node = dict(child)
        node[parts[-1]] = value
    return updated


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    """Read, override, and validate a config file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config {path} is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    if overrides:
        raw = apply_overrides(raw, overrides)
    return validate_config(raw)
