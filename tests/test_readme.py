"""The README's library example runs as written, its config example lists
every ``ExperimentConfig`` field, and its ``druid run`` examples parse."""

import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

from druid import cli
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


def run_examples():
    """The ``druid run`` commands of the README's "Running experiments" block,
    continuation lines joined, each split into its arguments."""
    section = README.read_text().split("## Running experiments", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    return [command[1:] for command in commands if command[:2] == ["druid", "run"]]


def test_run_examples_build_their_configs(tmp_path, monkeypatch):
    # every flag of every example is one `druid run` takes, next to the config example
    configs = []
    monkeypatch.setattr(cli, "run_experiment", configs.append)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.json").write_text(config_example())
    examples = run_examples()
    assert len(examples) == 3
    for argv in examples:
        assert cli.main(argv) == 0, argv
    assert [cfg.iterations for cfg in configs] == [2000, 1000, 1000]
    assert [cfg.scheme for cfg in configs] == ["newton", "bfgs", "newton"]
