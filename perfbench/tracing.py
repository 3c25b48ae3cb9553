"""Spans around the public functions of each bicayley module, recorded from
outside the package.

``Tracer.install`` swaps every traced function for a wrapper in every loaded
bicayley module that holds it: a module that ``from``-imports a function keeps
its own reference, so rebinding the defining module alone would miss those
calls.  ``Tracer.remove`` puts every original back.  Spans stay in memory as
``[name, start, end, parent, value]`` until the run ends; ``value`` is what an
observer took from the call's result (see ``OBSERVERS``).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

PACKAGE = "bicayley"

# (module, attribute, span name); a dotted attribute is a method of a class.
TARGETS = (
    ("abelian", "automorphism_group_of", "abelian.automorphism_group_of"),
    ("abelian", "subgroup_generated", "abelian.subgroup_generated"),
    ("construction", "build", "construction.build"),
    ("graphs", "girth", "graphs.girth"),
    ("graphs", "is_connected", "graphs.is_connected"),
    ("symmetry", "automorphism_group", "symmetry.automorphism_group"),
    ("symmetry", "certificate", "symmetry.certificate"),
    ("symmetry", "k_arc_regularity", "symmetry.k_arc_regularity"),
    ("symmetry", "enumerate_semiregular", "symmetry.enumerate_semiregular"),
    ("symmetry", "normalizer", "symmetry.normalizer"),
    ("symmetry", "are_conjugate", "symmetry.are_conjugate"),
    # the stabilizer chain is built lazily by the first order or membership query
    ("symmetry", "PermGroup.order", "symmetry.chain"),
    ("symmetry", "PermGroup.contains", "symmetry.chain"),
    ("voltage", "derive", "voltage.derive"),
    ("voltage", "lifts", "voltage.lifts"),
    ("bci", "bci_by_criterion", "bci.bci_by_criterion"),
    ("bci", "bci_oracle", "bci.bci_oracle"),
    ("census", "verify_instance", "census.verify_instance"),
    ("census", "theorem_a_search", "census.theorem_a_search"),
    ("census", "theorem_b_verify", "census.theorem_b_verify"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# What each span keeps from its call, for the derived per-layer metrics.
OBSERVERS = {
    "symmetry.automorphism_group": lambda args, kwargs, result: (
        _first_arg(args, kwargs),
        len(result.generators),
    ),
    "symmetry.certificate": lambda args, kwargs, result: (_first_arg(args, kwargs), None),
    "abelian.automorphism_group_of": lambda args, kwargs, result: len(result),
    "symmetry.enumerate_semiregular": lambda args, kwargs, result: len(result),
    "bci.bci_by_criterion": lambda args, kwargs, result: result.semiregular_count,
}


class Tracer:
    """Records one span per call of a wrapped function, with its parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the benchmark's root span)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for module_name in dict.fromkeys(m for m, _, _ in TARGETS):
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._saved.append((owner, method, original))
                setattr(owner, method, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON: span names once, then [name, start, end, parent]."""
        names = list(dict.fromkeys(s[0] for s in self.spans))
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[index[n], start, end, parent] for n, start, end, parent, _ in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def tail(values):
    """The highest order statistic with at least ten samples above it, or the
    maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) > 10 else ordered[-1]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times from one traced pass, plus derived metrics."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.total_s"] = 0.0
    values: dict[str, list] = {}
    durations: dict[str, list[float]] = {}
    oracle_certs = 0
    for i, (name, start, end, _, value) in enumerate(spans):
        if name not in LAYERS:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[i]
        # a span nested in a span of the same layer is already in its total
        if not _has_ancestor(spans, i, name):
            out[f"{name}.total_s"] += end - start
        durations.setdefault(name, []).append(end - start)
        if value is not None:
            values.setdefault(name, []).append(value)
        if name == "symmetry.certificate" and _has_ancestor(spans, i, "bci.bci_oracle"):
            oracle_certs += 1

    searched = values.get("symmetry.automorphism_group", []) + values.get(
        "symmetry.certificate", []
    )
    distinct = len({graph for graph, _ in searched})
    gens = [n for _, n in values.get("symmetry.automorphism_group", [])]
    found = sum(values.get("symmetry.enumerate_semiregular", []))
    kept = sum(values.get("bci.bci_by_criterion", []))
    verify_ms = [d * 1e3 for d in durations.get("census.verify_instance", [])]
    out.update(
        {
            "symmetry.search.distinct": distinct,
            "symmetry.search.repeat_ratio": 1 - distinct / len(searched) if searched else 0.0,
            "symmetry.aut_gens.max": max(gens, default=0),
            "symmetry.aut_gens.mean": statistics.fmean(gens) if gens else 0.0,
            "abelian.automorphism_group_of.autos": sum(
                values.get("abelian.automorphism_group_of", [])
            ),
            "symmetry.enumerate_semiregular.found": found,
            "bci.semiregular_kept_ratio": kept / found if found else 0.0,
            "bci.oracle.certificates": oracle_certs,
            "census.verify_instance.p50_ms": statistics.median(verify_ms) if verify_ms else 0.0,
            "census.verify_instance.tail_ms": tail(verify_ms) if verify_ms else 0.0,
        }
    )
    return out
