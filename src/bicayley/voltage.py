"""Voltage assignments on graphs, derived covering graphs, and lift tests.

An assignment is the base graph, the voltage group and one voltage per arc;
no spanning tree is fixed, so any arc may carry any voltage.  Whether a base
automorphism lifts is decided by propagating its lift over the derived cover.
"""

from __future__ import annotations

from collections import deque, namedtuple

from bicayley.abelian import AbelianGroup, GroupElement, make_group
from bicayley.construction import _fibred_graph
from bicayley.graphs import Graph, is_connected
from bicayley.search import _is_automorphism

__all__ = [
    "VoltageAssignment",
    "derive",
    "lifts",
    "fig_base",
    "fig_assignment",
    "fig_alpha",
]


class VoltageAssignment(namedtuple("VoltageAssignment", "base group voltages")):
    """A voltage assignment into a finite abelian group: the base graph, the
    group and the arc voltages.

    ``voltages`` maps every arc (ordered pair) of the base graph to a group
    element, satisfying zeta(reverse arc) = zeta(arc)^-1.  No arc is required
    to carry the identity.
    """

    __slots__ = ()

    @staticmethod
    def create(base: Graph, group: AbelianGroup, edge_voltages: dict) -> "VoltageAssignment":
        """The assignment with one voltage per edge, given on either of its
        arcs; the reverse arc carries the inverse."""
        voltages: dict[tuple[int, int], GroupElement] = {}
        for (tail, head), value in edge_voltages.items():
            if not base.has_edge(tail, head):
                raise ValueError(f"voltage on ({tail},{head}), which is not an edge")
            if value.group != group:
                raise ValueError(f"voltage {value} does not belong to {group}")
            if (tail, head) in voltages:
                raise ValueError(f"conflicting voltage for arc ({tail},{head})")
            voltages[(tail, head)] = value
            voltages[(head, tail)] = value.inverse()
        for u, v in base.edges:
            if (u, v) not in voltages:
                raise ValueError(f"edge ({u},{v}) has no voltage")
        return VoltageAssignment(base, group, voltages)


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
    if not _is_automorphism(va.base.adjacency, va.base.edges, sigma):
        raise ValueError("permutation is not a base automorphism")
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
# The tree and the flat edge carry the identity, the charged arcs the generator.
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
    voltages = {arc: group.identity for arc in _FIG_TREE + _FIG_FLAT}
    voltages.update(dict.fromkeys(_FIG_CHARGED, group.element(1)))
    return VoltageAssignment.create(fig_base(), group, voltages)


def fig_alpha() -> tuple[int, ...]:
    """The order-3 base automorphism (r0 rs1 e1)(r1 rs0 s1) fixing e0 and s0,
    as an image tuple."""
    images = list(range(8))
    for a, b, c in ((1, 7, 4), (5, 3, 6)):
        images[a], images[b], images[c] = b, c, a
    return tuple(images)
