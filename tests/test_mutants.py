import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.module}:{m.text}")
def test_each_mutant_applies_once_and_names_tests_that_exist(mutant):
    source = (ROOT / "src" / "stegrle" / mutant.module).read_text()
    assert source.count(mutant.text) == 1
    assert mutant.replacement != mutant.text
    for node in mutant.tests:
        path, name = node.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / "tests" / path).read_text(), re.M), node
    assert mutant.source in (ROOT / "CHANGES.md").read_text()


def test_the_runner_tells_a_killed_mutant_from_one_that_changes_nothing(tmp_path):
    spec = importlib.util.spec_from_file_location("mutants_runner", ROOT / "tools" / "mutants.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    runner.copy_tree(tmp_path)
    (mutant,) = [m for m in MUTANTS if m.module == "pipeline.py"]
    same = dataclasses.replace(mutant, replacement="if restored_quality.mse != 0:")
    module = tmp_path / "src" / "stegrle" / "pipeline.py"
    original = module.read_text()
    assert runner.run_mutant(tmp_path, mutant).returncode == 1  # killed
    assert runner.run_mutant(tmp_path, same).returncode == 0  # survives
    assert module.read_text() == original
