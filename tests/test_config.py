import json
import math

import pytest

from oamch.cli import main
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


def test_parse_angle_rejects_a_non_finite_angle_under_the_name_it_is_given():
    for bad, shown in ((math.inf, "inf"), (-(10**400), "-1" + "0" * 400), ("nan deg", "'nan deg'"),
                       ("1e400rad", "'1e400rad'")):
        with pytest.raises(ConfigError, match=f"^ch.theta_a must be finite, got {shown}$"):
            parse_angle(bad, "ch.theta_a")
    # a library caller that names no key gets the generic message
    with pytest.raises(ConfigError, match="^angle must be finite, got inf$"):
        parse_angle(math.inf)


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
        ("mc", "seed", "7"),
        ("scan", "alpha_steps", 1),
        ("scan", "theta_policy", "anneal"),
        ("scan", "theta_policy", 3),
        ("experiment", "step_index", -0.5),
        ("experiment", "aux_phases", [0.0, 0.0, 0.0]),
        ("output", "path", 5),
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
    for bad in ("mc.trials", "trials=5", "=5", "mc.trials.x=5"):
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


@pytest.mark.parametrize(
    "section, dropped, message",
    [
        ("mc", ("trials",), "mc section must provide trials"),
        ("scan", ("alpha_steps",), "scan section must provide alpha_steps"),
        ("scan", ("beta_steps",), "scan section must provide beta_steps"),
        ("scan", ("beta_steps", "alpha_steps"), "scan section must provide alpha_steps, beta_steps"),
        ("ch", ("theta_b_prime",), "ch section must provide theta_b_prime"),
        ("ch", ("theta_b", "theta_a"), "ch section must provide theta_a, theta_b"),
        ("ch", ("theta_a", "theta_a_prime", "theta_b", "theta_b_prime"),
         "ch section must provide theta_a, theta_a_prime, theta_b, theta_b_prime"),
    ],
)
def test_missing_required_key_exits_2_with_one_line(tmp_path, capsys, section, dropped, message):
    raw = _base_config()
    for key in dropped:
        del raw[section][key]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    command = {"ch": "ch", "mc": "mc", "scan": "probe"}[section]
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


# every key each section accepts, with a valid value
EVERY_KEY = {
    "experiment": {"alpha": 0.1, "beta": "10deg", "theta_a": 0.2, "theta_b": 0.3, "step_index": 1.5,
                   "aux_phases": [0.0, "1rad", 0.0, 0.5]},
    "ch": {"theta_a": 0.0, "theta_a_prime": 0.1, "theta_b": 0.2, "theta_b_prime": 0.3},
    "mc": {"trials": 10, "efficiency_a": 0.5, "efficiency_b": 0.6, "seed": 9},
    "scan": {"alpha_steps": 2, "beta_steps": 3, "theta_policy": "optimize-per-point", "threshold": 0.1},
    "output": {"path": "scan.json", "format": "json"},
}


def test_every_key_of_every_section_loads_and_an_extra_one_does_not():
    cfg = validate_config({"schema_version": 1, **EVERY_KEY})
    assert cfg.experiment.aux_phases == (0.0, 1.0, 0.0, 0.5)
    assert cfg.experiment.step_index.value == 1.5
    assert cfg.ch[:4] == (0.0, 0.1, 0.2, 0.3)
    assert tuple(cfg.mc) == (10, 0.5, 0.6, 9)
    assert tuple(cfg.scan) == (2, 3, "optimize-per-point", 0.1)
    assert tuple(cfg.output) == ("scan.json", "json")
    for section in EVERY_KEY:
        raw = {"schema_version": 1, **EVERY_KEY, section: {**EVERY_KEY[section], "extra": 1}}
        with pytest.raises(ConfigError, match=f"^unknown keys in '{section}': extra$"):
            validate_config(raw)


def test_keys_left_out_take_the_defaults():
    cfg = validate_config({"schema_version": 1, "experiment": {}, "mc": {"trials": 10},
                           "scan": {"alpha_steps": 2, "beta_steps": 3}, "output": {}})
    assert tuple(cfg.experiment[:4]) == (0.0, 0.0, 0.0, 0.0)
    assert cfg.experiment.step_index.value == 0.5
    assert cfg.experiment.aux_phases == (0.0, 0.0, 0.0, 0.0)
    assert tuple(cfg.mc) == (10, 1.0, 1.0, 0)
    assert tuple(cfg.scan) == (2, 3, "fixed-canonical", 0.204)
    assert tuple(cfg.output) == (None, "csv")
