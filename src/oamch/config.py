"""Strict JSON run configuration for the command-line interface.

A config document carries a mandatory schema_version plus optional sections
{experiment, ch, mc, scan, output}.  A section takes its keys, and the
defaults of the keys it leaves out, from its record; unknown keys are rejected.
Angles are radians by default; strings with an explicit "deg" or "rad"
suffix are converted on parse.  There is no environment-variable
configuration: everything comes from the file and explicit overrides.

The `mc` and `scan` sections' records live in `montecarlo` and `search`,
which this module imports only when a document has that section: a config
for `probe` or `ch` loads neither.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path

from .azimuthal import StepIndex
from .coincidence import ChSettings, ExperimentSettings

SCHEMA_VERSION = 1

OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid configuration document, value, or override."""


def parse_angle(value, name: str = "angle") -> float:
    """An angle: a number in radians, or a string with a deg/rad suffix.

    `name`, the config key such as `experiment.alpha`, heads the message that
    rejects a non-finite angle.
    """
    if isinstance(value, bool):
        raise ConfigError(f"not an angle: {value!r}")
    if isinstance(value, (int, float)):
        try:
            angle = float(value)
        except OverflowError:  # an integer beyond the float range
            angle = math.inf
    elif isinstance(value, str):
        text = value.strip().lower()
        for suffix, factor in (("deg", math.pi / 180.0), ("rad", 1.0)):
            if text.endswith(suffix):
                try:
                    angle = float(text[: -len(suffix)].strip()) * factor
                except ValueError:
                    raise ConfigError(f"cannot parse angle {value!r}") from None
                break
        else:
            raise ConfigError(f"angle strings need an explicit 'deg' or 'rad' suffix, got {value!r}")
    else:
        raise ConfigError(f"not an angle: {value!r}")
    if not math.isfinite(angle):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return angle


def _require_keys(section: str, data: dict, allowed: tuple, required: tuple = ()) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {', '.join(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigError(f"{section} section must provide {', '.join(missing)}")


def _number(section: str, key: str, value):
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
    _require_keys("experiment", data, ExperimentSettings._fields)
    # the record has no defaults for the plates, the splitters and the step index
    fields = {key: parse_angle(data.get(key, 0.0), f"experiment.{key}")
              for key in ExperimentSettings._fields[:4]}
    fields["step_index"] = StepIndex(_number("experiment", "step_index", data.get("step_index", 0.5)))
    if "aux_phases" in data:
        aux = data["aux_phases"]
        if not isinstance(aux, (list, tuple)) or len(aux) != 4:
            raise ConfigError("experiment.aux_phases must be a list of four angles")
        fields["aux_phases"] = [parse_angle(p, f"experiment.aux_phases[{i}]") for i, p in enumerate(aux)]
    return ExperimentSettings(**fields)


def _build_ch(data: dict, experiment: ExperimentSettings | None) -> ChSettings:
    angles = ChSettings._fields[:4]
    _require_keys("ch", data, angles, required=angles)
    if experiment is None:
        raise ConfigError("ch section requires an experiment section for plates and step index")
    return ChSettings(**{key: parse_angle(data[key], f"ch.{key}") for key in angles},
                      **{key: getattr(experiment, key) for key in ChSettings._fields[4:]})


def _build_mc(data: dict):
    from .montecarlo import McConfig

    _require_keys("mc", data, McConfig._fields, required=McConfig._fields[:1])
    return McConfig(**{key: _number("mc", key, data[key]) for key in McConfig._fields if key in data})


def _scan_value(key: str, value):
    if key != "theta_policy":
        return _number("scan", key, value)
    if not isinstance(value, str):
        raise ConfigError(f"scan.theta_policy must be a string, got {value!r}")
    return value


def _build_scan(data: dict):
    from .search import ScanGrid

    _require_keys("scan", data, ScanGrid._fields, required=ScanGrid._fields[:2])
    return ScanGrid(**{key: _scan_value(key, data[key]) for key in ScanGrid._fields if key in data})


def _build_output(data: dict) -> OutputConfig:
    _require_keys("output", data, OutputConfig._fields)
    output = OutputConfig(**data)
    if output.path is not None and not isinstance(output.path, str):
        raise ConfigError(f"output.path must be a string, got {output.path!r}")
    if output.format not in OUTPUT_FORMATS:
        raise ConfigError(f"output.format must be one of {OUTPUT_FORMATS}, got {output.format!r}")
    return output


def validate_config(raw: dict) -> RunConfig:
    """Build the typed sections, rejecting unknown keys and bad values."""
    _require_keys("config", raw, ("schema_version", *RunConfig._fields[1:]))
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
