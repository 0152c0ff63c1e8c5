"""The library example of the README runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out == "non-valid; minimal countermodel height 1\n"
