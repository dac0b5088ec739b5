"""The line gate on a small package: it passes when every line runs, and names a line that does not.

The gate runs in a child interpreter: in this one, its tracer would replace
the tracer of a gate that runs these tests.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one line of each kind the tracer must see run: a class body, a decorated
# function, a comprehension, a generator, a handler and a nested function
MODULE = '''"""A package whose test runs every line."""

import functools


class Box:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


@functools.cache
def squares(n):
    return [k * k for k in range(n)]


def inverses(values):
    for v in values:
        try:
            yield 1 // v
        except ZeroDivisionError:
            yield None


def adder(n):
    def add(k):
        return k + n

    return add
'''

TEST = '''from c0cert import Box, adder, inverses, squares


def test_every_line():
    assert Box(2).value == 2
    assert squares(3) == [0, 1, 4]
    assert list(inverses([1, 0])) == [1, None]
    assert adder(1)(2) == 3
'''

# a branch the test above never takes
UNREACHABLE = '''

def sign(v):
    if v < 0:
        return -1
    return 1


assert sign(1) == 1
'''


def run_gate(tmp_path: Path, module: str) -> subprocess.CompletedProcess:
    """The gate, on a copy of scripts/unrun_lines.py beside a package holding ``module``."""
    (tmp_path / "scripts").mkdir()
    shutil.copy2(ROOT / "scripts" / "unrun_lines.py", tmp_path / "scripts")
    package = tmp_path / "src" / "c0cert"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(module, encoding="utf-8")
    (package / "__main__.py").write_text("raise SystemExit(1)\n", encoding="utf-8")  # exempt
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_small.py").write_text(TEST, encoding="utf-8")
    return subprocess.run(
        [sys.executable, "scripts/unrun_lines.py", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_a_package_whose_every_line_runs_passes_the_gate(tmp_path):
    done = run_gate(tmp_path, MODULE)
    assert done.returncode == 0, done.stdout + done.stderr
    # the count of executable lines depends on the Python version's compiler
    last = done.stdout.splitlines()[-1]
    assert re.fullmatch(r"0 of \d+ executable lines in src/c0cert/ did not run", last), last


def test_an_unreachable_branch_fails_the_gate(tmp_path):
    source = MODULE + UNREACHABLE
    line = source.splitlines().index("        return -1") + 1
    done = run_gate(tmp_path, source)
    assert done.returncode == 1
    named, last = done.stdout.splitlines()[-2:]
    assert named == f"src/c0cert/__init__.py:{line}"
    assert re.fullmatch(r"1 of \d+ executable lines in src/c0cert/ did not run", last), last
