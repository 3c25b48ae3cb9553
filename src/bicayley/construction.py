"""Bi-Cayley graphs over finite abelian groups.

Vertices are two copies of the group: part 0 carries the right connection set,
part 1 the left one, and the spoke set joins the parts.  The graph is the
derived H-cover of a two-vertex voltage graph, R and L its loops and S its
parallel spokes, so it shares one vertex order with ``voltage.derive``: vertex
(w, k) of fibre w has id w*|H| + the position of k in ``group.elements()``
(lexicographic exponent order).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from bicayley.abelian import AbelianGroup, GroupElement, _shifted, make_group, subgroup_generated
from bicayley.graphs import Graph
from bicayley.symmetry import PermGroup, Permutation

__all__ = [
    "BiCayleySpec",
    "BiCayleyGraph",
    "build",
    "right_translation",
    "right_translations",
    "iota",
    "known_automorphisms",
    "generalized_petersen",
    "predicted_connected",
    "parse_spec",
    "format_spec",
]


def _sorted_elements(elems) -> tuple[GroupElement, ...]:
    return tuple(sorted(elems, key=lambda g: g.exponents))


@dataclass(frozen=True)
class BiCayleySpec:
    """Connection data (group, right set, left set, spoke set).

    The right and left sets must be inverse-closed and identity-free; the
    spoke set is unrestricted (it may contain the identity).
    """

    group: AbelianGroup
    right: tuple[GroupElement, ...]
    left: tuple[GroupElement, ...]
    spokes: tuple[GroupElement, ...]

    @staticmethod
    def create(group: AbelianGroup, right=(), left=(), spokes=()) -> "BiCayleySpec":
        right = _sorted_elements(right)
        left = _sorted_elements(left)
        spokes = _sorted_elements(spokes)
        for name, elems in (("R", right), ("L", left), ("S", spokes)):
            for g in elems:
                if g.group != group:
                    raise ValueError(f"element {g} of {name} does not belong to {group}")
            if len(set(elems)) != len(elems):
                raise ValueError(f"duplicate element in {name}")
        for name, elems in (("R", right), ("L", left)):
            for g in elems:
                if g.is_identity:
                    raise ValueError(f"identity element in {name} would create a loop")
                if g.inverse() not in elems:
                    raise ValueError(
                        f"element {g.exponents} of {name} lacks its inverse "
                        f"{g.inverse().exponents}"
                    )
        return BiCayleySpec(group, right, left, spokes)


@dataclass(frozen=True)
class BiCayleyGraph:
    """A built bi-Cayley graph: the spec and the plain graph."""

    spec: BiCayleySpec
    graph: Graph

    @property
    def group(self) -> AbelianGroup:
        return self.spec.group

    @property
    def parts(self) -> tuple[frozenset[int], frozenset[int]]:
        size = self.group.size
        return frozenset(range(size)), frozenset(range(size, 2 * size))


def _fibred_graph(group: AbelianGroup, fibres: int, arcs) -> Graph:
    """The derived cover: edge {(u, k), (v, z*k)} for each arc (u, v, z) and k in H."""
    size = group.size
    shifts = [(u, v, _shifted(group.orders, z.exponents)) for u, v, z in arcs]
    return Graph.from_edges(
        fibres * size, [(u * size + i, v * size + j) for u, v, t in shifts for i, j in enumerate(t)]
    )


def build(spec: BiCayleySpec) -> BiCayleyGraph:
    """Materialize the graph: right edges in part 0, left in part 1, spokes across."""
    arcs = (
        [(0, 0, r) for r in spec.right]
        + [(1, 1, l_elem) for l_elem in spec.left]
        + [(0, 1, s) for s in spec.spokes]
    )
    return BiCayleyGraph(spec, _fibred_graph(spec.group, 2, arcs))


def predicted_connected(spec: BiCayleySpec) -> bool:
    """Connectivity from the connection data alone.

    Walks reach, within part 0, exactly the subgroup generated by R, L and the
    spoke differences; the spokes must be nonempty to reach part 1 at all.
    """
    if not spec.spokes:
        return False
    gens = list(spec.right) + list(spec.left)
    s0 = spec.spokes[0]
    gens += [s * s0.inverse() for s in spec.spokes]
    return subgroup_generated(spec.group, gens).is_whole_group


def right_translation(b: BiCayleyGraph, h: GroupElement) -> Permutation:
    """The permutation (x_i) -> (xh)_i."""
    shifted = _shifted(b.group.orders, h.exponents)
    return Permutation(tuple(shifted + [b.group.size + j for j in shifted]))


def right_translations(b: BiCayleyGraph) -> PermGroup:
    """The group of all right translations, acting with the parts as orbits."""
    gens = [right_translation(b, g) for g in b.group.generators()]
    return PermGroup(2 * b.group.size, gens)


def iota(b: BiCayleyGraph) -> Permutation:
    """The involution (x_0) -> (x^-1)_1, (x_1) -> (x^-1)_0.

    Together with the right translations it generates a group regular on the
    vertices; it is a graph automorphism whenever R = L.
    """
    inverted = _shifted(b.group.orders, b.group.identity.exponents, -1)
    return Permutation(tuple([b.group.size + j for j in inverted] + inverted))


def _group_automorphism(orders, gens, images) -> list[int] | None:
    """The index table of the automorphism phi of H with phi(gens) = ``images``, or
    None: x + g -> phi(x) + phi(g), breadth-first from 0, must reach all of H, and
    then hold for every x and g and give each element one preimage."""
    steps = [[_shifted(orders, x.exponents) for x in pair] for pair in zip(gens, images)]
    phi: list = [0] + [None] * (len(steps[0][0]) - 1)
    for x in (reached := [0]):  # grows while walked
        for step, image_step in steps:
            if phi[step[x]] is None:
                phi[step[x]] = image_step[phi[x]]
                reached.append(step[x])
    homomorphism = all(phi[step[x]] == image[phi[x]] for step, image in steps for x in reached)
    return phi if homomorphism and len(reached) == len(phi) == len(set(phi)) else None


def known_automorphisms(b: BiCayleyGraph):
    """Automorphisms the construction gives, as image tuples made while iterated:
    right translations by H's standard generators, iota if R = L and, for spokes
    {1, a, b} alone, lifts of the base dipole's symmetries (Malnic, Nedela and
    Skoviera, Europ. J. Combin. 21 (2000)) x_0 -> phi(x)_0, x_1 -> (phi(x) + c)_1:
    rho (phi(a) = b - a, phi(b) = -a, c = a) and tau (phi(a) = b, phi(b) = a, c = 0),
    each where phi is an automorphism of H."""
    spec, size = b.spec, b.group.size
    yield from (right_translation(b, g).images for g in b.group.generators() if not g.is_identity)
    if spec.right == spec.left:
        yield iota(b).images
    if spec.right or spec.left or len(spec.spokes) != 3 or not spec.spokes[0].is_identity:
        return
    one, a, c = spec.spokes
    for images, shift in (((c * a.inverse(), a.inverse()), a), ((c, a), one)):
        phi = _group_automorphism(b.group.orders, (a, c), images)
        if phi is not None:
            shifted = _shifted(b.group.orders, shift.exponents)
            yield tuple(phi + [size + shifted[x] for x in phi])


def generalized_petersen(n: int, k: int) -> BiCayleyGraph:
    """GP(n, k) as a 2-type bi-Cayley graph over Z_n."""
    if n < 3:
        raise ValueError(f"GP({n},{k}): need n >= 3")
    if not 1 <= k or not 2 * k < n:
        raise ValueError(f"GP({n},{k}): need 1 <= k < n/2")
    group = make_group([n])
    spec = BiCayleySpec.create(
        group,
        right=[group.element(1), group.element(-1)],
        left=[group.element(k), group.element(-k)],
        spokes=[group.identity],
    )
    return build(spec)


# --- textual spec format ------------------------------------------------------

_SPEC_KEY = re.compile(r"^\s*([HRLS])\s*=\s*(.*?)\s*$")


def _plain_ints(value) -> tuple[int, ...] | None:
    """An int, or a tuple or list of ints, as a tuple; None otherwise (bools too)."""
    items = (value,) if type(value) is int else value
    if isinstance(items, (tuple, list)) and all(type(x) is int for x in items):
        return tuple(items)
    return None


def parse_spec(text: str) -> BiCayleySpec:
    """Parse 'H=[6,2]; R={...}; L={...}; S={(0,0),(1,0)}'.

    Connection elements are exponent tuples (bare ints allowed for rank 1);
    R, L, S default to empty when omitted.
    """
    fields: dict[str, str] = {}
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        m = _SPEC_KEY.match(chunk)
        if not m:
            raise ValueError(f"unparseable spec fragment: {chunk.strip()!r}")
        key, value = m.group(1), m.group(2)
        if key in fields:
            raise ValueError(f"duplicate field {key}")
        fields[key] = value
    if "H" not in fields:
        raise ValueError("spec needs an H=[...] field")
    try:
        orders = ast.literal_eval(fields["H"])
    except (ValueError, SyntaxError) as exc:
        raise ValueError(f"bad group orders H={fields['H']}: {exc}") from None
    orders = _plain_ints(orders)
    if orders is None:
        raise ValueError(f"bad group orders H={fields['H']}: expected an int or a list of ints")
    group = make_group(orders)

    def parse_set(key: str) -> list[GroupElement]:
        raw = fields.get(key, "").strip()
        if raw in ("{}", "set()", ""):
            return []
        try:
            parsed = ast.literal_eval(raw)
        except (ValueError, SyntaxError) as exc:
            raise ValueError(f"bad connection set {key}={raw}: {exc}") from None
        if not isinstance(parsed, (set, list)):
            parsed = [parsed]  # a single element
        elements = [_plain_ints(item) for item in parsed]
        if None in elements:
            raise ValueError(f"bad connection set {key}={raw}: expected ints or tuples of ints")
        return [group.element(e) for e in elements]

    return BiCayleySpec.create(group, parse_set("R"), parse_set("L"), parse_set("S"))


def format_spec(spec: BiCayleySpec) -> str:
    """Inverse of :func:`parse_spec`, with sorted elements."""

    def fmt(elems) -> str:
        if not elems:
            return "{}"
        return "{" + ",".join(str(g.exponents).replace(" ", "") for g in elems) + "}"

    orders = "[" + ",".join(str(d) for d in spec.group.orders) + "]"
    return f"H={orders}; R={fmt(spec.right)}; L={fmt(spec.left)}; S={fmt(spec.spokes)}"
