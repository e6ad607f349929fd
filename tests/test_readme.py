"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first Python code block under the README's "Library example" heading."""
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.split("\n")
    assert float(printed[0]) < 1e-3  # the iterates reach the reference optimum
