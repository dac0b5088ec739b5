"""The mutation gate's table against the tree, and the gate's failing exits."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

# the first mutant (-G without yn), with a selection that never evaluates G
BLIND = mutants.MUTANTS[0]._replace(
    tests=("tests/test_package.py",),
    names=("test_package_exports_each_modules_names_once_in_module_order",),
)


def test_every_mutant_applies_to_the_tree_once():
    for mutant in mutants.MUTANTS:
        source = (ROOT / mutant.file).read_text(encoding="utf-8")
        assert source.count(mutant.old) == 1, mutant.label
        for test in mutant.tests:
            assert (ROOT / test).is_file(), (mutant.label, test)


def test_a_surviving_mutant_fails_the_gate(capsys):
    assert mutants.main((BLIND,)) == 1
    assert capsys.readouterr().out.startswith("SURVIVED: ")


def test_a_missing_old_text_fails_the_gate(capsys):
    assert mutants.main((BLIND._replace(old="no such text"),)) == 1
    assert capsys.readouterr().out.startswith("MISSING (old text found 0 times")
