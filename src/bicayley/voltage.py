"""Voltage assignments on graphs, derived covering graphs, and lift tests.

Assignments are tree-reduced: arcs of the spanning tree given with the
assignment carry the identity, so a closed walk's voltage is the product over
its cotree arcs.  Whether an automorphism lifts is decided by propagating its
lift over the derived cover.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from bicayley.abelian import AbelianGroup, GroupElement, make_group
from bicayley.construction import _fibred_graph
from bicayley.graphs import Graph, is_connected

__all__ = [
    "VoltageAssignment",
    "derive",
    "lifts",
    "fig_base",
    "fig_assignment",
    "fig_alpha",
]


@dataclass(frozen=True)
class VoltageAssignment:
    """A tree-reduced voltage assignment into a finite abelian group.

    ``voltages`` maps every arc (ordered pair) of the base graph to a group
    element, satisfying zeta(reverse arc) = zeta(arc)^-1, with tree arcs at
    the identity.
    """

    base: Graph
    group: AbelianGroup
    tree: frozenset[tuple[int, int]]
    voltages: dict[tuple[int, int], GroupElement]

    @staticmethod
    def create(
        base: Graph,
        group: AbelianGroup,
        tree,
        cotree_voltages: dict,
    ) -> "VoltageAssignment":
        tree = frozenset((min(u, v), max(u, v)) for u, v in tree)
        edge_set = {(u, v) for u, v in base.edges}
        for u, v in tree:
            if (u, v) not in edge_set:
                raise ValueError(f"tree edge ({u},{v}) is not an edge of the base graph")
        if len(tree) != base.n - 1:
            raise ValueError(f"{len(tree)} tree edges cannot span {base.n} vertices")
        # acyclicity follows from the count once the tree is connected
        if not is_connected(Graph.from_edges(base.n, tree)):
            raise ValueError("tree edges do not span the graph")

        voltages: dict[tuple[int, int], GroupElement] = {}
        for u, v in tree:
            voltages[(u, v)] = group.identity
            voltages[(v, u)] = group.identity
        for arc, value in cotree_voltages.items():
            tail, head = arc
            if not base.has_edge(tail, head):
                raise ValueError(f"voltage on ({tail},{head}), which is not an edge")
            if (min(arc), max(arc)) in tree:
                raise ValueError(f"tree arc ({tail},{head}) must carry the identity")
            if value.group != group:
                raise ValueError(f"voltage {value} does not belong to {group}")
            if (tail, head) in voltages:
                raise ValueError(f"conflicting voltage for arc ({tail},{head})")
            voltages[(tail, head)] = value
            voltages[(head, tail)] = value.inverse()
        for u, v in base.edges:
            if (u, v) not in voltages:
                raise ValueError(f"cotree edge ({u},{v}) has no voltage")
        return VoltageAssignment(base, group, tree, voltages)


def derive(va: VoltageAssignment) -> Graph:
    """The covering graph: vertices (w, k), edges {(w,k), (w', zeta(w,w')k)}."""
    arcs = [(u, v, va.voltages[(u, v)]) for u, v in va.base.edges]
    return _fibred_graph(va.group, va.base.n, arcs)


def lifts(va: VoltageAssignment, sigma: tuple[int, ...]) -> tuple[int, ...] | None:
    """Decide whether a base automorphism lifts to the derived graph.

    The lift taking (v0, 1) to (sigma(v0), 1) is propagated breadth-first over
    the cover: a neighbour of v in fiber w must go to the neighbour of v's
    image in fiber sigma(w), unique since the base graph is simple.  Every
    cover edge is checked, so sigma lifts iff no vertex receives two images
    (Malnic, Nedela and Skoviera, Europ. J. Combin. 21, 2000), and a lift of
    a connected cover is then a bijection.  A disconnected cover is refused.
    ``sigma`` is an image tuple, v -> sigma[v].  Returns the lift as an image
    tuple on the cover's vertices, or None.
    """
    if len(sigma) != va.base.n:
        raise ValueError(f"permutation degree {len(sigma)} != base order {va.base.n}")
    for u, v in va.base.edges:
        if not va.base.has_edge(sigma[u], sigma[v]):
            raise ValueError(f"permutation is not a base automorphism: edge ({u},{v}) breaks")
    cover = derive(va)
    if not is_connected(cover):
        raise ValueError(
            "circuit voltages do not generate the voltage group (disconnected cover)"
        )
    size = va.group.size
    adj = cover.adjacency
    images: list[int | None] = [None] * cover.n
    images[0] = sigma[0] * size
    queue = deque([0])
    while queue:
        v = queue.popleft()
        image_by_fiber = {y // size: y for y in adj[images[v]]}
        for u in adj[v]:
            y = image_by_fiber[sigma[u // size]]
            if images[u] is None:
                images[u] = y
                queue.append(u)
            elif images[u] != y:
                return None
    return tuple(images)


# --- the eight-vertex quotient fixture ---------------------------------------

# The cube-shaped quotient of the 24-point 1-type graph: part-0 cosets 0..3 and
# part-1 cosets 4..7, named e0, r0, s0, rs0, e1, r1, s1, rs1 in that order.
_FIG_TREE = [(1, 0), (0, 4), (4, 6), (6, 2), (2, 3), (3, 7), (7, 5)]
# cotree arcs with nontrivial voltage carry the designated generator
_FIG_CHARGED = [(0, 7), (3, 4), (1, 6), (2, 5)]
_FIG_FLAT = [(1, 5)]


def fig_base() -> Graph:
    """The cube quotient: a spanning-tree path plus five cotree edges."""
    return Graph.from_edges(8, list(_FIG_TREE) + _FIG_CHARGED + _FIG_FLAT)


def fig_assignment(order: int) -> VoltageAssignment:
    """The fixture's voltages over Z_order; the four charged arcs carry 1."""
    if order < 1:
        raise ValueError("voltage group order must be positive")
    group = make_group([order])
    n1 = group.element(1)
    cotree = {arc: n1 for arc in _FIG_CHARGED}
    cotree[_FIG_FLAT[0]] = group.identity
    return VoltageAssignment.create(fig_base(), group, _FIG_TREE, cotree)


def fig_alpha() -> tuple[int, ...]:
    """The order-3 base automorphism (r0 rs1 e1)(r1 rs0 s1) fixing e0 and s0,
    as an image tuple."""
    images = list(range(8))
    for a, b, c in ((1, 7, 4), (5, 3, 6)):
        images[a], images[b], images[c] = b, c, a
    return tuple(images)
