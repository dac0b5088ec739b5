"""The package's export surface: each module's ``__all__``, once each, in order."""

from __future__ import annotations

import c0cert
from c0cert import certify, gossez, seqspace

MODULES = (seqspace, gossez, certify)


def test_package_exports_each_modules_names_once_in_module_order():
    seen = {}
    for module in MODULES:
        for name in module.__all__:
            assert name in vars(module), f"{module.__name__}.__all__ names undefined {name!r}"
            assert name not in seen, f"{name!r} is in both {seen[name]} and {module.__name__}"
            seen[name] = module.__name__
            assert getattr(c0cert, name) is getattr(module, name)
    assert c0cert.__all__ == seqspace.__all__ + gossez.__all__ + certify.__all__
