"""Voltage covers vs direct construction, and the lift decision vs the
base-circuit criterion, scanned over all voltage-group automorphisms."""

import random

import pytest

from _oracles import (
    base_circuits,
    circuit_pairs,
    circuit_voltage,
    hypercube,
    layout_id,
    lift_exists_by_scan,
    random_graph,
    walk_voltage,
)
from bicayley.abelian import make_group, subgroup_generated
from bicayley.graphs import Graph, bipartition, girth, is_connected
from bicayley.construction import generalized_petersen
from bicayley.symmetry import (
    Permutation,
    automorphism_group,
    certificate,
    k_arc_regularity,
)
from bicayley.voltage import (
    _FIG_TREE,
    VoltageAssignment,
    derive,
    fig_alpha,
    fig_assignment,
    fig_base,
    lifts,
)


def check_lift(va, sigma, result) -> None:
    """The returned lift is the one the criterion fixes: sigma* carries each
    base-circuit voltage to its image walk's, the lift takes (0, 1) to
    (sigma(0), 1), and it maps each fiber w into the fiber sigma(w)."""
    sigma_star, lift = result
    size = va.group.size
    assert all(sigma_star(z) == y for z, y in circuit_pairs(va, sigma))
    assert lift.images[0] == sigma.images[0] * size
    assert all(lift.images[v] // size == sigma.images[v // size] for v in range(lift.degree))


def test_assignment_validation():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    z2 = make_group([2])
    one = z2.element(1)
    tree = [(0, 1), (1, 2), (2, 3)]
    va = VoltageAssignment.create(g, z2, tree, {(3, 0): one})
    assert va.voltage(3, 0) == one and va.voltage(0, 3) == one.inverse()
    assert va.voltage(0, 1).is_identity
    assert va.cotree_arcs() == [(0, 3)]
    with pytest.raises(ValueError, match="not an edge"):
        VoltageAssignment.create(g, z2, [(0, 2), (1, 2), (2, 3)], {(3, 0): one})
    with pytest.raises(ValueError, match="cannot span"):
        VoltageAssignment.create(g, z2, tree[:2], {(3, 0): one})
    with pytest.raises(ValueError, match="no voltage"):
        VoltageAssignment.create(g, z2, tree, {})
    with pytest.raises(ValueError, match="identity"):
        VoltageAssignment.create(g, z2, tree, {(3, 0): one, (0, 1): one})
    with pytest.raises(ValueError, match="conflicting"):
        VoltageAssignment.create(g, z2, tree, {(3, 0): one, (0, 3): one})
    with pytest.raises(ValueError, match="belong"):
        VoltageAssignment.create(g, z2, tree, {(3, 0): make_group([3]).element(1)})
    with pytest.raises(ValueError):
        va.voltage(0, 2)
    # three edges on four vertices that form a cycle span nothing
    with_isolated = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="span"):
        VoltageAssignment.create(with_isolated, z2, [(0, 1), (1, 2), (2, 0)], {})


def test_base_circuits_structure():
    va = fig_assignment(3)
    circuits = base_circuits(va)
    assert len(circuits) == va.base.edge_count - va.base.n + 1 == 5
    seen_arcs = set()
    for c in circuits:
        arcs = c.arcs()
        # consecutive edges, one cotree arc, traversed last
        for u, v in arcs:
            assert va.base.has_edge(u, v)
        assert arcs[-1] == c.cotree_arc
        assert all((min(a), max(a)) in va.tree for a in arcs[:-1])
        assert (min(c.cotree_arc), max(c.cotree_arc)) not in va.tree
        seen_arcs.add(frozenset(c.cotree_arc))
        # the whole voltage sits on the closing arc
        assert circuit_voltage(va, c) == va.voltage(*c.cotree_arc)
    assert len(seen_arcs) == 5
    # a tree has no circuits
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    tree_va = VoltageAssignment.create(path, make_group([2]), [(0, 1), (1, 2)], {})
    assert base_circuits(tree_va) == []


def test_fig_fixture_shape():
    base = fig_base()
    assert base.n == 8 and base.is_regular(3)
    assert certificate(base) == certificate(hypercube())
    va = fig_assignment(3)
    charged = [a for a in va.cotree_arcs() if not va.voltage(*a).is_identity]
    assert len(charged) == 4
    assert len(va.cotree_arcs()) == 5
    alpha = fig_alpha()
    assert alpha.order() == 3
    assert alpha.images[0] == 0 and alpha.images[2] == 2
    with pytest.raises(ValueError):
        fig_assignment(0)


def test_walk_voltage():
    va = fig_assignment(3)
    # a walk inside the tree carries nothing
    assert walk_voltage(va, [1, 0, 4, 6]).is_identity
    # reversal inverts
    w = [2, 3, 4, 6, 2]
    assert walk_voltage(va, w) == va.group.element(1)
    assert walk_voltage(va, list(reversed(w))) == va.group.element(-1)
    assert walk_voltage(va, [0, 1, 6, 4, 0]) == va.group.element(1)
    with pytest.raises(ValueError):
        walk_voltage(va, [0, 2])


def test_trivial_cover_is_the_base():
    va = fig_assignment(1)
    cover = derive(va)
    assert cover.n == va.base.n
    assert certificate(cover) == certificate(va.base)


def test_cover_is_a_local_isomorphism():
    va = fig_assignment(3)
    cover = derive(va)
    size = va.group.size
    assert cover.n == va.base.n * size
    for v in range(cover.n):
        w = v // size
        down = [x // size for x in cover.adjacency[v]]
        assert sorted(down) == list(va.base.adjacency[w])


def test_z3_cover_is_gp_12_5():
    cover = derive(fig_assignment(3))
    assert certificate(cover) == certificate(generalized_petersen(12, 5).graph)


def test_z2_cover_diagnostics():
    cover = derive(fig_assignment(2))
    assert cover.n == 16
    assert girth(cover) == 4
    assert bipartition(cover) is not None
    assert k_arc_regularity(cover) == (None, False)
    assert automorphism_group(cover).order() == 128
    for k in (1, 2, 3):
        assert certificate(cover) != certificate(generalized_petersen(8, k).graph)


def test_derive_follows_the_layout():
    # derive joins (w, k) to (w', zeta(w, w') k)
    rng = random.Random(29)
    base = fig_base()
    tree = {(min(e), max(e)) for e in _FIG_TREE}
    group = make_group([2, 4])
    cotree = {e: rng.choice(group.elements()) for e in base.edges if e not in tree}
    for va in (VoltageAssignment.create(base, group, tree, cotree), fig_assignment(6)):
        elems = va.group.elements()
        expected = {
            frozenset((layout_id(k, u), layout_id(va.voltage(u, v) * k, v)))
            for u, v in va.base.edges
            for k in elems
        }
        assert {frozenset(e) for e in derive(va).edges} == expected


def test_identity_lifts_to_identity():
    va = fig_assignment(3)
    sigma_star, lift = lifts(va, Permutation.identity(8))
    assert all(
        img == gen for img, gen in zip(sigma_star.images, va.group.generators())
    )
    assert lift.is_identity


def test_alpha_lifts_exactly_over_one_and_three():
    alpha = fig_alpha()
    for order in range(1, 13):
        va = fig_assignment(order)
        result = lifts(va, alpha)
        assert (result is not None) == (order in (1, 3))
        if result is not None:
            check_lift(va, alpha, result)
            lift = result[1]
            cover = derive(va)
            for u, v in cover.edges:
                assert cover.has_edge(lift.images[u], lift.images[v])


def test_lift_decision_matches_automorphism_scan():
    base_aut = automorphism_group(fig_base())
    assert base_aut.order() == 48
    for order in (2, 3, 5):
        va = fig_assignment(order)
        agreed = 0
        for sigma in base_aut.elements():
            result = lifts(va, sigma)
            got = result is not None
            assert got == lift_exists_by_scan(va, sigma)
            if got:
                check_lift(va, sigma, result)
            agreed += got
        if order == 3:
            assert agreed == 48  # every cube automorphism survives mod 3


def test_lift_decision_matches_scan_on_random_assignments():
    rng = random.Random(67)
    checked = 0
    while checked < 12:
        g = random_graph(rng, rng.randint(4, 6), 0.6)
        if not is_connected(g) or g.edge_count == g.n - 1:
            continue
        group = make_group(rng.choice([[2], [3], [4], [2, 2], [2, 4]]))
        seen, tree = [0], []
        for u in seen:  # breadth first from vertex 0: seen grows while walked
            for w in g.adjacency[u]:
                if w not in seen:
                    seen.append(w)
                    tree.append((min(u, w), max(u, w)))
        cotree = {
            (u, v): rng.choice(group.elements())
            for u, v in g.edges
            if (u, v) not in tree
        }
        va = VoltageAssignment.create(g, group, tree, cotree)
        gens = [circuit_voltage(va, c) for c in base_circuits(va)]
        whole = subgroup_generated(group, gens).is_whole_group
        sigmas = automorphism_group(g).elements()
        for sigma in sigmas[: min(8, len(sigmas))]:
            if not whole:
                with pytest.raises(ValueError, match="disconnected cover"):
                    lifts(va, sigma)
                continue
            result = lifts(va, sigma)
            assert (result is not None) == lift_exists_by_scan(va, sigma)
            if result is not None:
                check_lift(va, sigma, result)
        checked += 1


def test_lifts_rejects_non_automorphisms():
    va = fig_assignment(3)
    not_auto = Permutation((1, 0) + tuple(range(2, 8)))
    with pytest.raises(ValueError, match="not a base automorphism"):
        lifts(va, not_auto)
    with pytest.raises(ValueError, match="degree"):
        lifts(va, Permutation.identity(5))
