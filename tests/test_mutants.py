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
