"""The package's export surface, and what importing it costs."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import c0cert
from c0cert import certify, gossez, seqspace

MODULES = (seqspace, gossez, certify)
SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_exports_each_modules_names_once_in_module_order():
    seen = {}
    for module in MODULES:
        for name in module.__all__:
            assert name in vars(module), f"{module.__name__}.__all__ names undefined {name!r}"
            assert name not in seen, f"{name!r} is in both {seen[name]} and {module.__name__}"
            seen[name] = module.__name__
            assert getattr(c0cert, name) is getattr(module, name)
    assert c0cert.__all__ == seqspace.__all__ + gossez.__all__ + certify.__all__


# Modules the library path must not load.  argparse serves only main,
# datetime only timed reports, and file I/O needs no pathlib; dataclasses and
# inspect together cost more than the rest of ``import c0cert.cli``; and
# every rational is held as integer terms, so nothing needs fractions, which
# loads decimal and numbers.
FORBIDDEN = {"argparse", "datetime", "pathlib", "dataclasses", "inspect"}
NEVER_LOADED = {"fractions", "decimal", "numbers"}


def run_child(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports c0cert from the source tree.

    No site (-S), so no .pth file preloads a module.
    """
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_library_path_loads_only_what_it_runs():
    # The second list holds the top-level modules loaded after startup that
    # are neither c0cert nor in the standard library.
    code = (
        "before = set(sys.modules); "
        "from c0cert.cli import config_from_obj, render_json, run_suite; "
        "render_json(run_suite(config_from_obj({'samples': 3})), with_timing=False); "
        f"print(sorted({FORBIDDEN | NEVER_LOADED!r} & set(sys.modules))); "
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'c0cert'}))"
    )
    assert run_child(code) == "[]\n[]\n"


@pytest.mark.parametrize("format", ["json", "markdown"])
def test_main_never_loads_fractions(tmp_path, format):
    """``certify all`` holds every rational as integer terms: no run imports ``fractions``.

    A lazy import on any path a run takes would load it here.
    """
    out = tmp_path / f"report.{format}"
    argv = ["all", "--timestamp", "off", "--format", format, "--out", str(out)]
    code = (
        "from c0cert.cli import main; "
        f"code = main({argv!r}); "
        f"print(code, sorted({NEVER_LOADED!r} & set(sys.modules)))"
    )
    assert run_child(code) == "0 []\n"
    assert out.read_text(encoding="utf-8").startswith("{" if format == "json" else "# Certificate")
