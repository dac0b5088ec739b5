"""Apply each mutant of a fixed table to a copy of the tree; every one must be killed.

A mutant is one textual change to one file of src/c0cert/: an old text,
which must occur exactly once in that file, and the new text that replaces
it.  For each entry of MUTANTS the script copies src/, tests/ and
pyproject.toml to a fresh temporary directory (the repository is never
written), applies the mutant there and runs

    python -m pytest -x -q -p no:cacheprovider <the entry's test files>

in that directory with PYTHONPATH=src.  The mutant is killed when a test
fails or a test file fails to import (pytest exit status 1 or 2).  The
selections are expected to pass on the unmutated tree, as Tier-1 checks.

One line is printed per mutant.  The exit status is 1 if any mutant
survives, any old text does not occur exactly once, or pytest ends any
other way (a missing test file, say); otherwise 0.  Standard library
only, apart from the test dependencies that pytest runs.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    label: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "src/c0cert/gossez.py",
        "out.append(total - yn - 2 * before)",
        "out.append(total - 2 * before)",
        "gossez_apply without its - yn term",
        ("tests/test_gossez.py",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "[inv - aa * v for v in g.num], inv - aa * g.tnum",
        "[inv + aa * v for v in g.num], inv + aa * g.tnum",
        "extension_family's x** built with +tau * g",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "        or sum(y.num)\n",
        "",
        "certified_for_every_tau without the range law c = sum(y)",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "            if num != -den:\n"
        '                raise AssertionError("witness normalization failed")\n',
        "",
        "violation_witness without its witness product recheck",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "closed_num, closed_den = -k * k * s,",
        "closed_num, closed_den = k * k * s,",
        "the distinctness closed form with its sign flipped",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "if num * exp_den != exp_num * den or num <= 0:",
        "if num <= 0:",
        "the extensions margin check reduced to its sign",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "return -unit(m) + unit(m + 1)",
        "return unit(m) - unit(m + 1)",
        "unit_u as e_m - e_{m+1}",
        ("tests/test_gossez.py",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "return unit(m) + unit(m + 1)",
        "return unit(m) - unit(m + 1)",
        "unit_v as e_m - e_{m+1}",
        ("tests/test_gossez.py",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "other.num + (other.tnum,)",
        "other.num + (self.tnum,)",
        "Seq._combine padding other's prefix with self's tail",
        ("tests/test_seqspace.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "points = _graph_sample(config, rng)",
        "points = iter(list(_graph_sample(config, rng)))",
        "_evaluations holding its whole sample",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "if len(self) < MAX_FAILURES_SHOWN:",
        "if True:",
        "_Failures keeping every message",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "for key in sorted(value)]",
        "for key in value]",
        "_indented laying out keys unsorted",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "isinstance(value, (list, tuple))",
        "isinstance(value, list)",
        "_indented leaving a tuple to json.dumps",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "    if not items:\n        return brackets\n",
        "",
        "_indented without its empty-container case",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "import encode_basestring_ascii as _quoted",
        "import encode_basestring as _quoted",
        "_indented writing non-ASCII text unescaped",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "    del items  # so the items and the body's copy below are not held at once\n",
        "",
        "_indented holding its items beside the joined body",
        ("tests/test_cli.py",),
    ),
)


def run(mutant: Mutant) -> str:
    """``killed``, ``SURVIVED`` or what went wrong, for one mutant on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="c0cert-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / mutant.file
        source = target.read_text(encoding="utf-8")
        found = source.count(mutant.old)
        if found != 1:
            return f"MISSING (old text found {found} times in {mutant.file})"
        target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        done = subprocess.run(
            [*command, *mutant.tests],
            cwd=copy,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
        )
    if done.returncode in (1, 2):
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    shown = (done.stderr or done.stdout).strip()[-200:]
    return f"ERROR (pytest exit status {done.returncode}: {shown})"


def main(mutants: tuple[Mutant, ...] = MUTANTS) -> int:
    bad = 0
    for mutant in mutants:
        start = time.perf_counter()
        outcome = run(mutant)
        seconds = time.perf_counter() - start
        bad += outcome != "killed"
        print(f"{outcome}: {mutant.label} [{', '.join(mutant.tests)}, {seconds:.0f} s]", flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
