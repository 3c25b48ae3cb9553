"""Every name a module exports resolves, so a deletion cannot leave a stale
entry in ``__all__`` for ``from bicayley.<module> import *`` to trip over, and
every function the benchmark's tracer wraps by name still exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import bicayley


def test_every_export_resolves():
    names = ["bicayley"] + [f"bicayley.{m.name}" for m in pkgutil.iter_modules(bicayley.__path__)]
    assert "bicayley.symmetry" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_every_traced_name_resolves():
    """The benchmark's tracer wraps these by name; a rename must not break it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attribute, _ in tracing.TARGETS:
        obj = importlib.import_module(f"bicayley.{module}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"bicayley.{module}.{attribute} does not resolve"
            obj = getattr(obj, part)
