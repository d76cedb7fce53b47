"""Check that the tests still catch every mended fault listed in tests/mutants.py.

Usage: python3 tools/mutants.py

The tree's src/, tests/ and pyproject.toml are copied once to a temporary
directory. For each row, the row's faulty text is written into its module in
that copy, the row's tests run there with ``pytest -x``, and the module is put
back. A row is killed when pytest reports a failing test (status 1). One line
is printed per row; the exit status is 1 unless every row is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS, Mutant  # noqa: E402


def copy_tree(dest: Path) -> None:
    """Copy what the tests need to run: the sources, the tests and pytest's settings."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def run_mutant(tree: Path, mutant: Mutant) -> subprocess.CompletedProcess:
    """Apply mutant in tree, run its tests with -x, and restore the module."""
    module = tree / "src" / "stegrle" / mutant.module
    original = module.read_text()
    if original.count(mutant.text) != 1:
        raise SystemExit(f"{mutant.module}: {mutant.text!r} does not occur exactly once")
    module.write_text(original.replace(mutant.text, mutant.replacement))
    # no bytecode is written, so a mutant of the original's size and mtime is never read stale
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        return subprocess.run(
            argv + [f"tests/{node}" for node in mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    finally:
        module.write_text(original)


def main() -> int:
    survived = 0
    with tempfile.TemporaryDirectory() as directory:
        tree = Path(directory)
        copy_tree(tree)
        for mutant in MUTANTS:
            start = time.perf_counter()
            proc = run_mutant(tree, mutant)
            killed = proc.returncode == 1
            survived += not killed
            verdict = "killed" if killed else f"SURVIVED (pytest exit {proc.returncode})"
            print(f"{verdict:<8} {time.perf_counter() - start:5.1f} s  {mutant.module}: {mutant.text}")
            if not killed:
                print(proc.stdout[-2000:] + proc.stderr[-2000:], end="")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
