"""The package's export surface, and what importing it costs."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Together they cost more than the rest of ``import c0cert.cli``.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import c0cert.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
