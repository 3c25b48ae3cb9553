"""Every name a module exports resolves, so a deletion cannot leave a stale
entry in ``__all__`` for ``from bicayley.<module> import *`` to trip over."""

import importlib
import pkgutil

import bicayley


def test_every_export_resolves():
    names = ["bicayley"] + [f"bicayley.{m.name}" for m in pkgutil.iter_modules(bicayley.__path__)]
    assert "bicayley.symmetry" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ names missing attributes {missing}"
