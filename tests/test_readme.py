"""The README's library quickstart runs as written, on the package's public names."""

import re
from pathlib import Path

import oamch

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
