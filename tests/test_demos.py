import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# pytest turns warnings into errors only in its own process; PYTHONWARNINGS does it in each child
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=ENV, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=ENV, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_tour_runs(tmp_path):
    sh = shutil.which("sh")
    if sh is None:
        pytest.skip("no sh to run the shell demo")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "stegrle"  # stands in for the installed console script
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m stegrle.cli "$@"\n')
    shim.chmod(0o755)
    env = {**ENV, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}
    proc = subprocess.run(
        [sh, str(ROOT / "demos" / "05_cli_tour.sh")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
