"""The mutation gate's table against the tree, and the gate's exits."""

from __future__ import annotations

import importlib.util
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

# the first mutant (-G without yn), with a selection that never evaluates G
BLIND = mutants.MUTANTS[0]._replace(
    tests=("tests/test_package.py::test_package_exports_each_modules_names_once_in_module_order",),
)


def test_every_mutant_applies_to_the_tree_once():
    for mutant in mutants.MUTANTS:
        assert mutants.missing(mutant) is None, mutant.label


def test_a_surviving_mutant_fails_the_gate(capsys):
    assert mutants.main((BLIND,)) == 1
    assert capsys.readouterr().out.startswith("SURVIVED: ")


def test_an_import_breaking_mutant_is_killed_by_a_named_test(capsys):
    (slots,) = (m for m in mutants.MUTANTS if "reversed __slots__" in m.label)
    assert slots.tests == ("tests/test_values.py::test_suite_config_defaults_and_field_order",)
    assert mutants.main((slots,)) == 0
    assert capsys.readouterr().out.startswith("killed: ")


def test_a_two_mutant_gate_prints_each_outcome_in_table_order(capsys):
    (slots,) = (m for m in mutants.MUTANTS if "reversed __slots__" in m.label)
    assert mutants.main((BLIND, slots)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines[:2]] == ["SURVIVED", "killed"]
    assert lines[2].startswith("1 of 2 mutants killed in ")


def test_two_mutants_run_at_once_and_the_first_prints_first_though_it_ends_last(
    capsys, monkeypatch
):
    both_running = threading.Barrier(2, timeout=10)  # broken unless two runs overlap
    second_done = threading.Event()

    def run(mutant):
        both_running.wait()
        if mutant is BLIND:
            assert second_done.wait(10)
            return "SURVIVED"
        second_done.set()
        return "killed"

    monkeypatch.setattr(mutants, "run", run)
    second = BLIND._replace(label="the second mutant")
    assert mutants.main((BLIND, second)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" [")[0] for line in lines[:2]] == [
        f"SURVIVED: {BLIND.label}",
        "killed: the second mutant",
    ]


def refuse_to_run(mutant):
    raise AssertionError(f"ran {mutant.label}")


def test_a_missing_old_text_fails_the_gate(capsys, monkeypatch):
    monkeypatch.setattr(mutants, "run", refuse_to_run)
    assert mutants.main((BLIND._replace(old="no such text"),)) == 1
    assert capsys.readouterr().out.startswith("MISSING (old text found 0 times")


def test_a_node_id_naming_no_function_fails_the_gate_before_any_run(capsys, monkeypatch):
    monkeypatch.setattr(mutants, "run", refuse_to_run)
    unnamed = BLIND._replace(tests=("tests/test_package.py::test_no_such_function",))
    assert mutants.main((BLIND, unnamed)) == 1
    out = capsys.readouterr().out
    assert out == (
        "MISSING (no test function 'test_no_such_function' in tests/test_package.py): "
        f"{BLIND.label}\n"
    )


def test_an_entry_naming_no_test_fails_the_gate_before_any_run(capsys, monkeypatch):
    monkeypatch.setattr(mutants, "run", refuse_to_run)
    assert mutants.main((BLIND, BLIND._replace(tests=()))) == 1
    assert capsys.readouterr().out == f"MISSING (names no test): {BLIND.label}\n"
