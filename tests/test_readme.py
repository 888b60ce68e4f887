"""The README's library quickstart and CLI config example run as written."""

import re
from pathlib import Path

import oamch
from oamch.cli import main
from oamch.config import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    """The Python block of the README's "Library quickstart" section."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs_on_the_public_names(capsys):
    exec(compile(_quickstart(), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "0.20710678118654754"

    namespace = {}
    exec("from oamch import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(oamch.__all__)


def test_readme_cli_config_loads_and_probe_ch_and_mc_run_on_it(tmp_path, capsys):
    section = README.read_text(encoding="utf-8").split("## Command-line interface", 1)[1]
    config = tmp_path / "run.json"
    config.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1), encoding="utf-8")
    assert load_config(config).scan.alpha_steps == 33
    for command in ("probe", "ch", "mc"):
        assert main([command, "--config", str(config)]) == 0
    assert capsys.readouterr().err == ""


def test_readme_package_layout_names_exactly_the_modules():
    text = README.read_text(encoding="utf-8").split("Package layout:", 1)[1]
    kept, depth = [], 0  # the first sentence, less what it says in parentheses
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch == "." and text[i + 1:i + 2].isspace():
            break
        if depth == 0 and ch != ")":
            kept.append(ch)
    listed = re.findall(r"`(\w+)`", "".join(kept))
    modules = sorted(p.stem for p in Path(oamch.__file__).parent.glob("*.py") if p.stem != "__init__")
    assert sorted(listed) == modules
