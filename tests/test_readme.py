"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    # the example is the fig1 instance; these are its preset bands
    assert 0.10 <= report["energy_norm_rel"] <= 0.13
    assert -0.16 <= report["energy_rel"] <= -0.10
