"""Voltage assignments on graphs, derived covering graphs, and lift tests.

Assignments are tree-reduced: arcs of a chosen spanning tree carry the
identity, so a closed walk's voltage is the product over its cotree arcs.
The automorphism-lifting criterion is decided constructively by propagating
the required images of the base-circuit voltages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from bicayley.abelian import (
    AbelianGroup,
    GroupAutomorphism,
    GroupElement,
    make_group,
    subgroup_generated,
)
from bicayley.graphs import Graph
from bicayley.symmetry import PermGroup, Permutation

__all__ = [
    "VoltageAssignment",
    "BaseCircuit",
    "spanning_tree",
    "base_circuits",
    "walk_voltage",
    "derive",
    "right_action",
    "lifts",
    "projection",
    "fig_base",
    "fig_assignment",
    "fig_alpha",
]


def spanning_tree(graph: Graph) -> frozenset[tuple[int, int]]:
    """BFS tree from vertex 0 over sorted adjacency; edges as (min, max) pairs."""
    if graph.n == 0:
        return frozenset()
    seen = [False] * graph.n
    seen[0] = True
    count = 1
    edges = set()
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in graph.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                edges.add((min(u, w), max(u, w)))
                queue.append(w)
    if count != graph.n:
        raise ValueError("graph is disconnected; no spanning tree exists")
    return frozenset(edges)


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
        reach = {0} if base.n else set()
        queue = deque(reach)
        tree_adj: dict[int, list[int]] = {v: [] for v in range(base.n)}
        for u, v in tree:
            tree_adj[u].append(v)
            tree_adj[v].append(u)
        while queue:
            u = queue.popleft()
            for w in tree_adj[u]:
                if w not in reach:
                    reach.add(w)
                    queue.append(w)
        if len(reach) != base.n:
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

    def voltage(self, tail: int, head: int) -> GroupElement:
        if (tail, head) not in self.voltages:
            raise ValueError(f"({tail},{head}) is not an arc of the base graph")
        return self.voltages[(tail, head)]

    def cotree_arcs(self) -> list[tuple[int, int]]:
        """One arc (u, v) with u < v per non-tree edge, sorted."""
        return sorted(
            (u, v) for u, v in self.base.edges if (u, v) not in self.tree
        )


@dataclass(frozen=True)
class BaseCircuit:
    """A directed closed walk using exactly one cotree arc, traversed last.

    ``vertices`` lists the walk without repeating the start; the walk begins
    at the smaller endpoint of the cotree edge.
    """

    vertices: tuple[int, ...]
    cotree_arc: tuple[int, int]

    def arcs(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def base_circuits(va: VoltageAssignment) -> list[BaseCircuit]:
    """One directed circuit per cotree edge; count is |E| - |V| + 1."""
    parent = {0: None}
    order = [0]
    tree_adj: dict[int, list[int]] = {v: [] for v in range(va.base.n)}
    for u, v in va.tree:
        tree_adj[u].append(v)
        tree_adj[v].append(u)
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in sorted(tree_adj[u]):
            if w not in parent:
                parent[w] = u
                order.append(w)
                queue.append(w)

    def path_to_root(v: int) -> list[int]:
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    circuits = []
    for u, v in va.cotree_arcs():
        pu = path_to_root(u)
        pv = path_to_root(v)
        shared = None
        pu_set = {x: i for i, x in enumerate(pu)}
        for j, x in enumerate(pv):
            if x in pu_set:
                shared = (pu_set[x], j)
                break
        assert shared is not None
        i, j = shared
        walk = pu[: i + 1] + list(reversed(pv[:j]))
        # walk runs u -> v through the tree; the cotree arc (v, u) closes it
        circuits.append(BaseCircuit(tuple(walk), (v, u)))
    return circuits


def walk_voltage(va: VoltageAssignment, walk) -> GroupElement:
    """Product of arc voltages along a vertex walk (consecutive adjacency required)."""
    walk = list(walk)
    acc = va.group.identity
    for tail, head in zip(walk, walk[1:]):
        acc = acc * va.voltage(tail, head)
    return acc


def circuit_voltage(va: VoltageAssignment, circuit: BaseCircuit) -> GroupElement:
    acc = va.group.identity
    for tail, head in circuit.arcs():
        acc = acc * va.voltage(tail, head)
    return acc


def derive(va: VoltageAssignment) -> Graph:
    """The covering graph: vertices (w, k), edges {(w,k), (w', zeta(w,w')k)}."""
    kelems = va.group.elements()
    index = {g: i for i, g in enumerate(kelems)}
    size = va.group.size
    edges = []
    for u, v in va.base.edges:
        z = va.voltages[(u, v)]
        for k in kelems:
            edges.append((u * size + index[k], v * size + index[z * k]))
    labels = [(w, k.exponents) for w in range(va.base.n) for k in kelems]
    return Graph.from_edges(va.base.n * size, edges, labels)


def right_action(va: VoltageAssignment) -> PermGroup:
    """The voltage group acting on fibers by right multiplication."""
    kelems = va.group.elements()
    index = {g: i for i, g in enumerate(kelems)}
    size = va.group.size
    n = va.base.n * size
    gens = []
    for g in va.group.generators():
        images = [0] * n
        for w in range(va.base.n):
            for k in kelems:
                images[w * size + index[k]] = w * size + index[k * g]
        gens.append(Permutation(tuple(images)))
    return PermGroup(n, gens)


def _check_base_automorphism(va: VoltageAssignment, sigma: Permutation) -> None:
    if sigma.degree != va.base.n:
        raise ValueError(f"permutation degree {sigma.degree} != base order {va.base.n}")
    for u, v in va.base.edges:
        if not va.base.has_edge(sigma.images[u], sigma.images[v]):
            raise ValueError(f"permutation is not a base automorphism: edge ({u},{v}) breaks")


def lifts(
    va: VoltageAssignment, sigma: Permutation
) -> tuple[GroupAutomorphism, Permutation] | None:
    """Decide whether a base automorphism lifts to the derived graph.

    A lift exists iff some automorphism of the voltage group maps each base
    circuit's voltage to the voltage of the circuit's image.  The candidate is
    pinned down by propagation over the subgroup the circuit voltages
    generate, which must be the whole group (otherwise the cover is
    disconnected and the question is refused).  Returns (group automorphism,
    lifted vertex permutation), or None.
    """
    _check_base_automorphism(va, sigma)
    circuits = base_circuits(va)
    pairs = []
    for c in circuits:
        z = circuit_voltage(va, c)
        image_walk = [sigma.images[v] for v in c.vertices]
        image_walk.append(image_walk[0])
        y = walk_voltage(va, image_walk)
        pairs.append((z, y))
    gens = [z for z, _ in pairs]
    if not subgroup_generated(va.group, gens).is_whole_group:
        raise ValueError(
            "circuit voltages do not generate the voltage group (disconnected cover)"
        )
    # propagate phi(sum c_i z_i) = sum c_i y_i and check consistency
    phi: dict[GroupElement, GroupElement] = {va.group.identity: va.group.identity}
    queue = deque([va.group.identity])
    while queue:
        x = queue.popleft()
        fx = phi[x]
        for z, y in pairs:
            x2 = x * z
            f2 = fx * y
            if x2 in phi:
                if phi[x2] != f2:
                    return None
            else:
                phi[x2] = f2
                queue.append(x2)
    if len(set(phi.values())) != va.group.size:
        return None
    images = tuple(phi[g] for g in va.group.generators())
    sigma_star = GroupAutomorphism(va.group, images)

    # potentials along the tree transport the fiber correction
    corr: dict[int, GroupElement] = {0: va.group.identity}
    tree_adj: dict[int, list[int]] = {v: [] for v in range(va.base.n)}
    for u, v in va.tree:
        tree_adj[u].append(v)
        tree_adj[v].append(u)
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in sorted(tree_adj[u]):
            if w not in corr:
                corr[w] = va.voltage(sigma.images[u], sigma.images[w]) * corr[u]
                queue.append(w)

    kelems = va.group.elements()
    index = {g: i for i, g in enumerate(kelems)}
    size = va.group.size
    n = va.base.n * size
    images_lift = [0] * n
    for w in range(va.base.n):
        sw = sigma.images[w]
        base_corr = corr[w]
        for k in kelems:
            images_lift[w * size + index[k]] = sw * size + index[sigma_star(k) * base_corr]
    lift = Permutation(tuple(images_lift))

    derived = derive(va)
    for u, v in derived.edges:
        if not derived.has_edge(lift.images[u], lift.images[v]):
            raise RuntimeError(
                "internal error: propagated lift is not an automorphism of the cover"
            )
    return sigma_star, lift


def projection(va: VoltageAssignment, g: Permutation) -> Permutation:
    """Base permutation induced by a cover automorphism normalizing the fiber action."""
    fiber = right_action(va)
    fiber_elems = frozenset(p.images for p in fiber.elements())
    g_inv = g.inverse()
    for s in fiber.generators:
        if (g_inv * s * g).images not in fiber_elems:
            raise ValueError("permutation does not normalize the fiber action; no projection")
    size = va.group.size
    images = [0] * va.base.n
    for w in range(va.base.n):
        images[w] = g.images[w * size] // size
    projected = Permutation(tuple(images))
    _check_base_automorphism(va, projected)
    return projected


# --- the eight-vertex quotient fixture ---------------------------------------

# Vertex names for the cube-shaped quotient of the 24-point 1-type graph:
# part-0 cosets 0..3 and part-1 cosets 4..7, in the order
# e_0, r_0, s_0, rs_0, e_1, r_1, s_1, rs_1.
_FIG_NAMES = ("e0", "r0", "s0", "rs0", "e1", "r1", "s1", "rs1")
_FIG_TREE = [(1, 0), (0, 4), (4, 6), (6, 2), (2, 3), (3, 7), (7, 5)]
# cotree arcs with nontrivial voltage carry the designated generator
_FIG_CHARGED = [(0, 7), (3, 4), (1, 6), (2, 5)]
_FIG_FLAT = [(1, 5)]


def fig_base() -> Graph:
    """The labeled cube quotient: a spanning-tree path plus five cotree edges."""
    edges = list(_FIG_TREE) + _FIG_CHARGED + _FIG_FLAT
    return Graph.from_edges(8, edges, labels=_FIG_NAMES)


def fig_assignment(order: int) -> VoltageAssignment:
    """The fixture's voltages over Z_order; the four charged arcs carry 1."""
    if order < 1:
        raise ValueError("voltage group order must be positive")
    group = make_group([order])
    n1 = group.element(1)
    cotree = {arc: n1 for arc in _FIG_CHARGED}
    cotree[_FIG_FLAT[0]] = group.identity
    return VoltageAssignment.create(fig_base(), group, _FIG_TREE, cotree)


def fig_alpha() -> Permutation:
    """The order-3 base automorphism (r0 rs1 e1)(r1 rs0 s1) fixing e0 and s0."""
    images = list(range(8))
    for a, b, c in ((1, 7, 4), (5, 3, 6)):
        images[a], images[b], images[c] = b, c, a
    return Permutation(tuple(images))
