"""The README's library example runs as written, and its config example
lists every ``ExperimentConfig`` field."""

import json
import re
from dataclasses import fields
from pathlib import Path

from druid.experiment import ExperimentConfig, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first Python code block under the README's "Library example" heading."""
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.split("\n")
    assert float(printed[0]) < 1e-3  # the iterates reach the reference optimum


def config_example():
    """The JSON code block after the README's config-file sentence."""
    section = README.read_text().split("A config file is a JSON object", 1)[1]
    return re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)


def test_config_example_lists_every_field(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(config_example())
    load_config(path)  # the example is a valid configuration
    assert set(json.loads(config_example())) == {f.name for f in fields(ExperimentConfig)}
