import json
import math

import pytest

from oamch.config import ConfigError, apply_overrides, load_config, parse_angle, validate_config


def _base_config():
    return {
        "schema_version": 1,
        "experiment": {"alpha": 0.0, "beta": 0.0, "theta_a": 0.0, "theta_b": 0.0, "step_index": 0.5},
        "ch": {
            "theta_a": 0.0,
            "theta_a_prime": math.pi / 4,
            "theta_b": math.pi / 8,
            "theta_b_prime": 3 * math.pi / 8,
        },
        "mc": {"trials": 1000, "efficiency_a": 1.0, "efficiency_b": 1.0, "seed": 42},
        "scan": {"alpha_steps": 3, "beta_steps": 3, "theta_policy": "fixed-canonical", "threshold": 0.204},
        "output": {"path": None, "format": "csv"},
    }


def test_parse_angle():
    assert parse_angle(0.5) == 0.5
    assert parse_angle(2) == 2.0
    assert parse_angle("90deg") == pytest.approx(math.pi / 2)
    assert parse_angle("45 deg") == pytest.approx(math.pi / 4)
    assert parse_angle("0.5rad") == 0.5
    for bad in ("1.0", "90 degx", True, None, "deg"):
        with pytest.raises(ConfigError):
            parse_angle(bad)


def test_valid_config_builds_all_sections():
    cfg = validate_config(_base_config())
    assert cfg.experiment.step_index.value == 0.5
    assert cfg.ch.theta_a_prime == pytest.approx(math.pi / 4)
    assert cfg.ch.alpha == cfg.experiment.alpha
    assert cfg.mc.trials == 1000
    assert cfg.scan.alpha_steps == 3
    assert cfg.output.format == "csv"


def test_sections_are_optional_but_schema_version_is_not():
    cfg = validate_config({"schema_version": 1})
    assert cfg.experiment is None and cfg.ch is None and cfg.mc is None and cfg.scan is None
    with pytest.raises(ConfigError, match="schema_version"):
        validate_config({})
    # True == 1, but like every number of the config the version is no boolean
    for version in (7, True):
        with pytest.raises(ConfigError, match=f"^unsupported schema_version {version}; expected 1$"):
            validate_config({"schema_version": version})
    assert validate_config({"schema_version": 1.0}).scan is None


def test_unknown_keys_rejected():
    raw = _base_config()
    raw["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        validate_config(raw)
    raw = _base_config()
    raw["experiment"]["waist"] = 1.0
    with pytest.raises(ConfigError, match="waist"):
        validate_config(raw)


def test_angles_accept_degree_suffix():
    raw = _base_config()
    raw["experiment"]["alpha"] = "180deg"
    raw["ch"]["theta_b"] = "22.5deg"
    cfg = validate_config(raw)
    assert cfg.experiment.alpha == pytest.approx(math.pi)
    assert cfg.ch.theta_b == pytest.approx(math.pi / 8)


def test_ch_requires_all_angles_and_experiment():
    raw = _base_config()
    del raw["ch"]["theta_b_prime"]
    with pytest.raises(ConfigError, match="theta_b_prime"):
        validate_config(raw)
    raw = _base_config()
    del raw["experiment"]
    with pytest.raises(ConfigError, match="experiment"):
        validate_config(raw)


def test_bad_values_are_config_errors():
    for section, key, value in [
        ("mc", "trials", 0),
        ("mc", "efficiency_a", 0.0),
        ("mc", "efficiency_b", 2.0),
        ("mc", "seed", -5),
        ("scan", "alpha_steps", 1),
        ("scan", "theta_policy", "anneal"),
        ("scan", "theta_policy", 3),
        ("experiment", "step_index", -0.5),
        ("output", "format", "xml"),
    ]:
        raw = _base_config()
        raw[section][key] = value
        with pytest.raises(ConfigError):
            validate_config(raw)


def test_overrides():
    raw = _base_config()
    updated = apply_overrides(raw, ["mc.trials=5000", "experiment.alpha=45deg"])
    assert updated["mc"]["trials"] == 5000
    assert updated["experiment"]["alpha"] == "45deg"
    assert raw["mc"]["trials"] == 1000  # original untouched
    cfg = validate_config(updated)
    assert cfg.mc.trials == 5000
    assert cfg.experiment.alpha == pytest.approx(math.pi / 4)
    for bad in ("mc.trials", "trials=5", "=5"):
        with pytest.raises(ConfigError):
            apply_overrides(raw, [bad])


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_base_config()), encoding="utf-8")
    cfg = load_config(path, overrides=["mc.seed=7"])
    assert cfg.mc.seed == 7
    assert cfg.raw["mc"]["seed"] == 7


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)
