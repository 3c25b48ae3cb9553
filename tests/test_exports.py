"""Every name a module exports resolves, so a deletion cannot leave a stale
entry in ``__all__`` for ``from bicayley.<module> import *`` to trip over,
every function the benchmark's tracer wraps by name still exists (and the
BCI oracle's Aut(H) listing is one of them), no
import, function, class or method in ``src/`` is left that nothing uses,
every permutation handed out is a plain image tuple, and ``import bicayley``
loads none of ``dataclasses``, ``inspect``, ``ast`` and ``base64``, which the
library does not need."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import bicayley
from bicayley import bci
from bicayley.abelian import make_group
from bicayley.construction import (
    BiCayleySpec,
    build,
    iota,
    parse_spec,
    right_translation,
    right_translations,
)
from bicayley.symmetry import are_conjugate, automorphism_group, enumerate_semiregular, normalizer
from bicayley.voltage import fig_alpha, fig_assignment, lifts


def test_every_export_resolves():
    names = ["bicayley"] + [f"bicayley.{m.name}" for m in pkgutil.iter_modules(bicayley.__path__)]
    assert {"bicayley.search", "bicayley.symmetry"} <= set(names)
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_import_surface():
    """A fresh interpreter's modules before and after ``import bicayley``: the
    difference leaves out whatever site preloads."""
    code = (
        "import sys; before = set(sys.modules); import bicayley; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(bicayley.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    added = set(out.split())
    assert "bicayley.voltage" in added
    assert not added & {"dataclasses", "inspect", "ast", "base64"}, sorted(added)


def _tracing():
    """The benchmark's ``perfbench/tracing.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced_targets():
    """``perfbench.tracing.TARGETS``: (module, attribute, span) triples."""
    return _tracing().TARGETS


def test_every_traced_name_resolves():
    """The benchmark's tracer wraps these by name; a rename must not break it."""
    targets = _traced_targets()
    assert targets
    for module, attribute, _ in targets:
        obj = importlib.import_module(f"bicayley.{module}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"bicayley.{module}.{attribute} does not resolve"
            obj = getattr(obj, part)


def test_the_oracle_runs_the_traced_automorphism_listing():
    """The span the benchmark reads for Aut(H) records the oracle's own calls."""
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert not bci.bci_oracle(build(parse_spec("H=8; S={0,1,2,5}"))).is_bci
    finally:
        tracer.remove()
    assert any(span[0] == "abelian.automorphism_group_of" for span in tracer.spans)


def _references(node):
    """Every name read in ``node``'s tree, bare or as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_no_dead_imports_or_definitions():
    """Each import is used in its module, and each module-level function or
    class and each non-dunder method is referenced outside its own body
    somewhere in ``src/`` (an import or an ``__all__`` entry does not count).
    Exempt are only the names the benchmark's tracer wraps, read from its
    list."""
    root = Path(bicayley.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(root.glob("*.py"))}

    for module, tree in trees.items():
        if module == "__init__":
            continue
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert imported <= used, f"bicayley.{module} never uses {sorted(imported - used)}"

    exempt = {f"{module}.{attribute}" for module, attribute, _ in _traced_targets()}

    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (f"{module}.{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    everywhere = Counter(name for tree in trees.values() for name in _references(tree))
    unreferenced = [
        qualified
        for qualified, node in definitions
        if qualified not in exempt
        and everywhere[node.name] == Counter(_references(node))[node.name]
    ]
    assert not unreferenced, f"nothing in src/ references {unreferenced}"


def _is_image_tuple(x, degree: int) -> bool:
    return type(x) is tuple and len(x) == degree and all(type(v) is int for v in x)


def test_permutations_are_plain_image_tuples():
    """Every permutation the package hands out is a plain tuple of ints, and
    no wrapper class is exported."""
    assert not hasattr(bicayley, "Permutation")
    z7 = make_group([7])
    heawood = build(BiCayleySpec.create(z7, (), (), tuple(z7.element(s) for s in (0, 1, 3))))
    assert _is_image_tuple(right_translation(heawood, z7.element(2)), 14)
    assert _is_image_tuple(iota(heawood), 14)
    alpha = fig_alpha()
    assert _is_image_tuple(alpha, 8)
    assert _is_image_tuple(lifts(fig_assignment(3), alpha), 24)

    aut = automorphism_group(heawood.graph)
    trans = right_translations(heawood)
    members = enumerate_semiregular(aut, trans, (7,))
    assert _is_image_tuple(are_conjugate(aut, trans, members[-1]), 14)
    assert all(_is_image_tuple(x, 14) for x in trans + [y for sub in members for y in sub])
    assert aut.generators
    assert all(_is_image_tuple(g, 14) for g in aut.generators)
    schreier = normalizer(trans, aut)
    assert schreier and all(_is_image_tuple(x, 14) for x in schreier)
