"""Name each executable line of src/c0cert/ that the tests do not run.

Runs pytest in this process, from the repository root, under a
``sys.settrace`` tracer that records the line events of frames whose code
comes from src/c0cert/ and stops at every other frame.  Without arguments
pytest runs Tier-1 (``-q --continue-on-collection-errors`` over the
configured test paths); any arguments replace those.  A module's
executable lines are the line numbers of its compiled code objects,
nested functions, classes and comprehensions included (``co_lines``).
``__main__.py`` is exempt by name: the tests run it only in a child
process.

Prints ``path:line`` for each executable line that did not run, then the
number of them.  The exit status is 1 if any line did not run or pytest
did not pass, and 0 otherwise.  Standard library only, apart from pytest.

    python scripts/unrun_lines.py [pytest arguments]

``sys.settrace`` works on every Python the project supports.  On 3.12 and
later ``sys.monitoring`` would cost less, but the gate runs on 3.11.  Each
module's record is a bytearray allocated before pytest starts, so the
tracer allocates nothing per line, and the tests' own memory peaks
(tracemalloc) see no record grow.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "c0cert"
EXEMPT = ("__main__.py",)
TIER_1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


def _recorder(ran: bytearray):
    """A local trace function that marks each line it sees run in ``ran``."""

    def trace(frame, event, arg):
        if event == "line":
            ran[frame.f_lineno] = 1
        return trace

    return trace


def main(args: list[str]) -> int:
    import pytest

    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT)
    lines = {path: executable_lines(path) for path in modules}
    ran = {path: bytearray(max(lines[path], default=0) + 1) for path in modules}
    recorders = {os.path.realpath(path): _recorder(ran[path]) for path in modules}
    by_name = {}  # co_filename -> its module's recorder, or None outside the package

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = recorders.get(os.path.realpath(name))
        return by_name[name]

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or TIER_1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in modules
        for line in sorted(lines[path])
        if not ran[path][line]
    ]
    for entry in unrun:
        print(entry)
    total = sum(map(len, lines.values()))
    print(f"{len(unrun)} of {total} executable lines in src/c0cert/ did not run")
    if status:
        print(f"pytest exit status {int(status)}")
    return 1 if unrun or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
