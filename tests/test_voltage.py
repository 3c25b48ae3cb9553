"""Voltage covers vs direct construction, and the lift decision vs the
base-circuit criterion, scanned over all voltage-group automorphisms."""

import random

import pytest

from _oracles import (
    _mul_close,
    arc_voltage,
    base_circuits,
    circuit_pairs,
    circuit_voltage,
    cotree_arcs,
    hypercube,
    induced_automorphism,
    layout_id,
    lift_exists_by_scan,
    perm_order,
    random_graph,
    walk_voltage,
)
from bicayley.abelian import make_group, subgroup_generated
from bicayley.graphs import Graph, bipartition, girth, is_connected
from bicayley.construction import generalized_petersen
from bicayley.symmetry import (
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


def check_lift(va, tree, sigma, lift) -> None:
    """The returned lift is the one the criterion fixes: the sigma* it induces
    carries each base-circuit voltage (over the spanning tree ``tree``) to its
    image walk's, the lift takes
    (0, 1) to (sigma(0), 1), and it maps each fiber w into the fiber sigma(w)."""
    sigma_star = induced_automorphism(va, lift)
    size = va.group.size
    assert all(sigma_star(z) == y for z, y in circuit_pairs(va, tree, sigma))
    assert lift[0] == sigma[0] * size
    assert all(lift[v] // size == sigma[v // size] for v in range(len(lift)))


def test_assignment_validation():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    z2 = make_group([2])
    one = z2.element(1)
    path = {(0, 1): z2.identity, (1, 2): one, (2, 3): z2.identity}
    va = VoltageAssignment.create(g, z2, {**path, (3, 0): one})
    assert arc_voltage(va, 3, 0) == one and arc_voltage(va, 0, 3) == one.inverse()
    assert arc_voltage(va, 0, 1).is_identity
    # any arc may carry any voltage, tree or not
    assert arc_voltage(va, 2, 1) == one
    assert cotree_arcs(va, path) == [(0, 3)]
    with pytest.raises(ValueError, match="not an edge"):
        VoltageAssignment.create(g, z2, {**path, (3, 0): one, (0, 2): one})
    with pytest.raises(ValueError, match="no voltage"):
        VoltageAssignment.create(g, z2, path)
    with pytest.raises(ValueError, match="conflicting"):
        VoltageAssignment.create(g, z2, {**path, (3, 0): one, (0, 3): one})
    with pytest.raises(ValueError, match="belong"):
        VoltageAssignment.create(g, z2, {**path, (3, 0): make_group([3]).element(1)})


def test_base_circuits_structure():
    va = fig_assignment(3)
    tree = {(min(e), max(e)) for e in _FIG_TREE}
    circuits = base_circuits(va, _FIG_TREE)
    assert len(circuits) == va.base.edge_count - va.base.n + 1 == 5
    seen_arcs = set()
    for c in circuits:
        arcs = c.arcs()
        # consecutive edges, one cotree arc, traversed last
        for u, v in arcs:
            assert va.base.has_edge(u, v)
        assert arcs[-1] == c.cotree_arc
        assert all((min(a), max(a)) in tree for a in arcs[:-1])
        assert (min(c.cotree_arc), max(c.cotree_arc)) not in tree
        seen_arcs.add(frozenset(c.cotree_arc))
        # the whole voltage sits on the closing arc
        assert circuit_voltage(va, c) == arc_voltage(va, *c.cotree_arc)
    assert len(seen_arcs) == 5
    # a tree has no circuits
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    z2 = make_group([2])
    tree_va = VoltageAssignment.create(path, z2, dict.fromkeys(path.edges, z2.element(1)))
    assert base_circuits(tree_va, path.edges) == []


def test_fig_fixture_shape():
    base = fig_base()
    assert base.n == 8 and base.is_regular(3)
    assert certificate(base) == certificate(hypercube())
    va = fig_assignment(3)
    # the fixture is reduced to its tree: every tree edge carries the identity
    assert all(arc_voltage(va, *e).is_identity for e in _FIG_TREE)
    charged = [a for a in cotree_arcs(va, _FIG_TREE) if not arc_voltage(va, *a).is_identity]
    assert len(charged) == 4
    assert len(cotree_arcs(va, _FIG_TREE)) == 5
    alpha = fig_alpha()
    assert perm_order(alpha) == 3
    assert alpha[0] == 0 and alpha[2] == 2
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
    group = make_group([2, 4])
    voltages = {e: rng.choice(group.elements()) for e in base.edges}
    for va in (VoltageAssignment.create(base, group, voltages), fig_assignment(6)):
        elems = va.group.elements()
        expected = {
            frozenset((layout_id(k, u), layout_id(arc_voltage(va, u, v) * k, v)))
            for u, v in va.base.edges
            for k in elems
        }
        assert {frozenset(e) for e in derive(va).edges} == expected


def test_identity_lifts_to_identity():
    va = fig_assignment(3)
    lift = lifts(va, tuple(range(8)))
    assert lift == tuple(range(len(lift)))
    sigma_star = induced_automorphism(va, lift)
    assert all(sigma_star(g) == g for g in va.group.elements())


def test_alpha_lifts_exactly_over_one_and_three():
    alpha = fig_alpha()
    for order in range(1, 13):
        va = fig_assignment(order)
        lift = lifts(va, alpha)
        assert (lift is not None) == (order in (1, 3))
        if lift is not None:
            check_lift(va, _FIG_TREE, alpha, lift)
            cover = derive(va)
            for u, v in cover.edges:
                assert cover.has_edge(lift[u], lift[v])


def test_lift_decision_matches_automorphism_scan():
    base_aut = automorphism_group(fig_base())
    assert base_aut.order() == 48
    for order in (2, 3, 5):
        va = fig_assignment(order)
        agreed = 0
        for sigma in sorted(_mul_close(base_aut.generators, 8, 48)):
            lift = lifts(va, sigma)
            got = lift is not None
            assert got == lift_exists_by_scan(va, _FIG_TREE, sigma)
            if got:
                check_lift(va, _FIG_TREE, sigma, lift)
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
        voltages = {
            (u, v): group.identity if (u, v) in tree else rng.choice(group.elements())
            for u, v in g.edges
        }
        va = VoltageAssignment.create(g, group, voltages)
        gens = [circuit_voltage(va, c) for c in base_circuits(va, tree)]
        whole = len(subgroup_generated(group, gens)) == group.size
        aut = automorphism_group(g)
        for sigma in sorted(_mul_close(aut.generators, g.n, aut.order()))[:8]:
            if not whole:
                with pytest.raises(ValueError, match="disconnected cover"):
                    lifts(va, sigma)
                continue
            lift = lifts(va, sigma)
            assert (lift is not None) == lift_exists_by_scan(va, tree, sigma)
            if lift is not None:
                check_lift(va, tree, sigma, lift)
        checked += 1


def test_lift_decision_matches_scan_when_tree_edges_carry_voltages():
    # no spanning tree is reduced to the identity: a random voltage on every
    # edge, and the fixture switched at every vertex w by a random f(w),
    # zeta'(w, w') = zeta(w, w') f(w') f(w)^-1, whose cover is the same up to
    # relabeling each fiber, so its lift decisions are the fixture's
    rng = random.Random(71)
    base = fig_base()
    base_aut = automorphism_group(base)
    sigmas = sorted(_mul_close(base_aut.generators, 8, 48))
    for order in (3, 4, 5):
        fixture = fig_assignment(order)
        group = fixture.group
        f = [rng.choice(group.elements()) for _ in range(8)]
        switched = VoltageAssignment.create(
            base, group, {(u, v): fixture.voltages[(u, v)] * f[v] * f[u].inverse() for u, v in base.edges}
        )
        random_va = VoltageAssignment.create(
            base, group, {e: rng.choice(group.elements()) for e in base.edges}
        )
        for va in (switched, random_va):
            assert not all(arc_voltage(va, *e).is_identity for e in _FIG_TREE)
            assert is_connected(derive(va))
            agreed = 0
            for sigma in sigmas:
                lift = lifts(va, sigma)
                assert (lift is not None) == lift_exists_by_scan(va, _FIG_TREE, sigma)
                if va is switched:
                    assert (lift is not None) == (lifts(fixture, sigma) is not None)
                if lift is not None:
                    check_lift(va, _FIG_TREE, sigma, lift)
                agreed += lift is not None
            if va is switched and order == 3:
                assert agreed == 48


def test_lifts_rejects_non_automorphisms():
    va = fig_assignment(3)
    not_auto = (1, 0) + tuple(range(2, 8))
    with pytest.raises(ValueError, match="not a base automorphism"):
        lifts(va, not_auto)
    # the fold onto the edge {0, 1} takes every edge to an edge but is no
    # permutation; a float entry, even 0.0, is no vertex
    fold = (0, 1, 1, 0, 1, 0, 0, 1)
    assert all(va.base.has_edge(fold[u], fold[v]) for u, v in va.base.edges)
    for sigma in (fold, (0.0, 1, 2, 3, 4, 5, 6, 7)):
        with pytest.raises(ValueError, match="not a base automorphism"):
            lifts(va, sigma)
    with pytest.raises(ValueError, match="degree"):
        lifts(va, tuple(range(5)))
