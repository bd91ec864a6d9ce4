"""README's code runs as written: every fenced python block is executed and
every fenced json block is loaded as an experiment config."""

import json
import re
from pathlib import Path

import pytest

from dwmd.harness import UdaExperiment, experiment_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_the_blocks():
    assert len(fenced("python")) >= 2 and len(fenced("json")) >= 1


@pytest.mark.parametrize("index", range(len(fenced("python"))))
def test_python_block_runs(index):
    exec(compile(fenced("python")[index], f"README.md python block {index + 1}", "exec"), {})


@pytest.mark.parametrize("index", range(len(fenced("json"))))
def test_json_block_is_an_experiment(index):
    assert isinstance(experiment_from_dict(json.loads(fenced("json")[index])), UdaExperiment)
