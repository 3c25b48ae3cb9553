"""The symmetry engine vs brute force: automorphisms by filtering all vertex
bijections, subgroup operations by explicit element scans."""

import math
import random

import pytest

from _oracles import (
    _mul_close,
    brute_automorphisms,
    complete_bipartite_33,
    hypercube,
    is_semiregular,
    k_arcs,
    kneser_petersen,
    lcf_graph,
    orbits,
    random_graph,
    reference_are_conjugate,
    reference_conjugacy_class_count,
    reference_descend,
    reference_enumerate_semiregular,
    reference_leaf_certificate,
    reference_normalizer,
    reference_refine,
    reference_semiregular_members,
    semiregular_with_orbits,
    small_corpus,
)
from bicayley import census, symmetry
from bicayley.abelian import make_group
from bicayley.bci import bci_by_criterion
from bicayley.construction import (
    BiCayleySpec,
    build,
    generalized_petersen,
    iota,
    known_automorphisms,
    predicted_connected,
    right_translations,
)
from bicayley.graphs import Graph, encode_graph6
from bicayley.symmetry import (
    _conjugates,
    _first_arc,
    _Search,
    PermGroup,
    Permutation,
    are_conjugate,
    automorphism_group,
    certificate,
    enumerate_semiregular,
    k_arc_regularity,
    max_enumeration_bound,
    normalizer,
)

K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


def _zero_type(orders, spokes):
    group = make_group(orders)
    return build(
        BiCayleySpec.create(group, (), (), tuple(group.element(s) for s in spokes))
    )


def test_permutation_algebra():
    p = Permutation((1, 2, 0, 3))
    q = Permutation((0, 1, 3, 2))
    assert (p * q).images == tuple(q.images[p.images[v]] for v in range(4))
    assert (p * p.inverse()).is_identity
    assert p.order() == 3
    assert p.cycles() == [(0, 1, 2)]
    assert Permutation.identity(4).cycles() == []
    assert repr(p) == "(0 1 2)"
    with pytest.raises(ValueError):
        p * Permutation((0, 1, 2))


def _random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_permutation_kernels_match_definitions():
    rng = random.Random(41)
    for n in (0, 1, 2, 3, 7, 64, 256):
        ident = Permutation(tuple(range(n)))
        assert ident.is_identity and Permutation.identity(n) == ident
        if n >= 2:
            swap = list(range(n))
            swap[-2:] = [n - 1, n - 2]
            assert not Permutation(tuple(swap)).is_identity
        for _ in range(20):
            p, q = _random_permutation(rng, n), _random_permutation(rng, n)
            assert (p * q).images == tuple(q.images[p.images[v]] for v in range(n))
            inv = p.inverse().images
            assert sorted(inv) == list(range(n))
            assert all(inv[p.images[v]] == v for v in range(n))
            assert p.is_identity == all(p.images[v] == v for v in range(n))
            assert (p * ident) == p == (ident * p)
            assert (p * p.inverse()).is_identity and (p.inverse() * p).is_identity


def _search_outcome(graph: Graph):
    search = _Search(graph)
    search.run()
    labeling = search.best[1]
    return [a.images for a in search.autos], labeling, encode_graph6(graph.relabel(labeling))


def _relabeled(graphs, seed: int, copies: int) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for g in graphs:
        out.append(g)
        for _ in range(copies):
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append(g.relabel(perm))
    return out


def _same_group(n: int, gens_a, gens_b) -> bool:
    a = PermGroup(n, [Permutation(g) for g in gens_a])
    b = PermGroup(n, [Permutation(g) for g in gens_b])
    return (
        a.order() == b.order()
        and all(b.contains(g) for g in a.generators)
        and all(a.contains(g) for g in b.generators)
    )


@pytest.mark.parametrize(
    "patched",
    [
        ("refine",),
        ("descend",),
        ("refine", "descend"),
        ("leaf_certificate",),
        ("refine", "leaf_certificate"),
    ],
)
def test_search_matches_reference_refinement_and_branching(monkeypatch, patched):
    members = census.table1_instances(128) + census.table2_instances(128)
    graphs = _relabeled(small_corpus(40), 3, 2)
    graphs += _relabeled([inst.bigraph.graph for inst in members], 4, 1)
    # cubic with trivial Aut: its leaves differ, so the certificate order picks the labeling
    frucht = lcf_graph([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2], 1)
    graphs += _relabeled([frucht], 6, 3)
    fast = [_search_outcome(g) for g in graphs]
    references = {
        "refine": reference_refine,
        "descend": reference_descend,
        "leaf_certificate": reference_leaf_certificate,
    }
    for name in patched:
        monkeypatch.setattr(_Search, name, references[name])
    slow = [_search_outcome(g) for g in graphs]
    if "descend" not in patched:
        assert slow == fast
        return
    # the exhaustive branching keeps more automorphisms of the same group
    for g, (autos, labeling, cert), (ref_autos, ref_labeling, ref_cert) in zip(
        graphs, fast, slow
    ):
        assert (labeling, cert) == (ref_labeling, ref_cert)
        assert _same_group(g.n, autos, ref_autos)


def test_refine_matches_reference_on_every_call(monkeypatch):
    # individualization seeds singleton splitters; circulants of degree >= 4
    # and random graphs give counts above 1; the whole vertex set of a
    # non-regular graph is a splitter that splits itself
    circulants = [
        Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in steps])
        for n, steps in ((9, (1, 2)), (12, (1, 3)), (13, (1, 5)), (16, (1, 2, 6)), (15, (1, 4, 6)))
    ]
    graphs = _relabeled(circulants + small_corpus(60, 10), 7, 1)
    fast = _Search.refine
    calls = []

    def recorded(search, cells, seed):
        before = [list(c) for c in cells]
        out = fast(search, cells, seed)
        calls.append((search, before, seed, out))
        return out

    monkeypatch.setattr(_Search, "refine", recorded)
    for g in graphs:
        _Search(g).run()
    singleton_splits = counts_above_one = self_splits = 0
    for search, cells, seed, out in calls:
        assert out == reference_refine(search, cells, seed)
        singleton_splits += len(cells[seed]) == 1 and len(out) > len(cells)
        self_splits += len(cells[seed]) > 1 and sorted(cells[seed]) not in out
        # a cell the call made was popped as a splitter at its final size, so
        # a vertex of a non-singleton cell with two neighbors in it counted 2+
        new = [set(c) for c in out if len(c) > 1 and c not in cells]
        counts_above_one += any(
            len(new_cell.intersection(search.adj[v])) > 1
            for new_cell in new
            for c in out
            if len(c) > 1
            for v in c
        )
    assert singleton_splits > 100 and counts_above_one > 20 and self_splits > 20


def _fresh_analysis(graph: Graph, leaves: list, known=()):
    """A new search's generators, |Aut|, labeling, certificate and orbit roots;
    ``leaves`` lists the search of every leaf reached, so this one's last."""
    symmetry._ANALYZED.pop(graph, None)
    autos, order, cert = symmetry._analyzed(graph, known)
    labeling = leaves[-1].best[1]
    return autos, (order, labeling, cert, PermGroup(graph.n, autos).orbit_roots())


def test_seeded_search_gives_the_unseeded_output(monkeypatch):
    # true automorphisms only prune: every census member to 256 vertices, and
    # a relabeling of each with its seeds carried through the relabeling, gets
    # the unseeded certificate, labeling, |Aut| and orbits, from fewer leaves
    leaves = []
    handle_leaf = _Search.handle_leaf

    def counted(search, cells, prefix):
        leaves.append(search)
        return handle_leaf(search, cells, prefix)

    monkeypatch.setattr(_Search, "handle_leaf", counted)
    totals = [0, 0]  # leaves unseeded, seeded
    rng = random.Random(29)
    for inst in census.table1_instances(256) + census.table2_instances(256):
        g = inst.bigraph.graph
        seeds = list(known_automorphisms(inst.bigraph))
        perm = list(range(g.n))
        rng.shuffle(perm)
        moved = [[0] * g.n for _ in seeds]
        for p, q in zip(seeds, moved):
            for v in range(g.n):
                q[perm[v]] = perm[p[v]]
        for graph, known in ((g, seeds), (g.relabel(perm), [tuple(q) for q in moved])):
            start = len(leaves)
            _, unseeded = _fresh_analysis(graph, leaves)
            middle = len(leaves)
            autos, seeded = _fresh_analysis(graph, leaves, known)
            totals[0] += middle - start
            totals[1] += len(leaves) - middle
            assert seeded == unseeded, inst.description
            assert [a.images for a in autos[: len(known)]] == known  # the search kept its seeds
    assert totals[1] < 0.6 * totals[0], totals


def _hypercube(d: int) -> Graph:
    n = 1 << d
    edges = [(x, x | 1 << b) for x in range(n) for b in range(d) if not x >> b & 1]
    return Graph.from_edges(n, edges)


def _disjoint_copies(graph: Graph, copies: int) -> Graph:
    edges = [(u + c * graph.n, w + c * graph.n) for c in range(copies) for u, w in graph.edges]
    return Graph.from_edges(copies * graph.n, edges)


def test_aut_order_from_search_matches_closure():
    # |Aut| is the product of the search's first-path orbit lengths; the
    # closure of its generators counts the group independently
    circulant = Graph.from_edges(7, [(i, (i + j) % 7) for i in range(7) for j in (1, 2)])
    members = census.table1_instances(128) + census.table2_instances(128)
    graphs = _relabeled(small_corpus(40), 5, 2)
    graphs += [_disjoint_copies(circulant, copies) for copies in (2, 3)]
    graphs += [inst.bigraph.graph for inst in members] + [Graph.from_edges(0, [])]
    for g in graphs:
        group = automorphism_group(g)
        closed = _mul_close(group.generators, g.n, 50_000)
        assert closed is not None and group.order() == len(closed), g.edges
        assert set(group.elements()) == closed
    k14 = Graph.from_edges(28, [(i, 14 + j) for i in range(14) for j in range(14)])
    for graph, order in (
        (_hypercube(7), 645_120),
        (_hypercube(9), 185_794_560),
        (k14, 2 * math.factorial(14) ** 2),
    ):
        assert automorphism_group(graph).order() == order
    assert len(automorphism_group(k14).generators) <= 40


def test_perm_group_order_matches_naive_closure():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        group = PermGroup(n, gens)
        closed = {Permutation.identity(n)}
        frontier = list(closed)
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = x * s
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        assert group.order() == len(closed)
        assert set(group.elements()) == closed
        for x in closed:
            assert group.contains(x)
        outside = Permutation(tuple(list(range(1, n)) + [0]))
        assert group.contains(outside) == (outside in closed)


def test_orbits_and_transitivity():
    rot = Permutation((1, 2, 3, 4, 5, 0))
    g = PermGroup(6, [rot * rot])
    assert orbits(g) == [frozenset({0, 2, 4}), frozenset({1, 3, 5})]
    assert g.orbit_roots() == [0, 1]
    assert PermGroup(6).orbit_roots() == list(range(6))
    assert not g.is_transitive_on(range(6))
    assert g.is_transitive_on({0, 2, 4})
    assert is_semiregular(g)
    assert semiregular_with_orbits(g, [{0, 2, 4}, {1, 3, 5}])
    assert not semiregular_with_orbits(g, [{0, 1, 2}, {3, 4, 5}])


def test_automorphism_group_matches_brute_force():
    for g in small_corpus(30):
        aut = automorphism_group(g)
        brute = brute_automorphisms(g)
        assert aut.order() == len(brute)
        for images in brute:
            assert aut.contains(Permutation(images))


def test_automorphism_orders_of_named_graphs():
    assert automorphism_group(K4).order() == 24
    assert automorphism_group(C5).order() == 10
    assert automorphism_group(complete_bipartite_33()).order() == 72
    assert automorphism_group(hypercube()).order() == 48
    assert automorphism_group(kneser_petersen()).order() == 120


def test_certificates_are_relabeling_invariant():
    rng = random.Random(53)
    for g in small_corpus(12):
        cert = certificate(g)
        search = _Search(g)
        search.run()
        # the canonical labeling actually produces the certificate graph
        assert encode_graph6(g.relabel(search.best[1])) == cert
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert certificate(g.relabel(perm)) == cert
    for inst in census.table1_instances(128) + census.table2_instances(128):
        g = inst.bigraph.graph
        cert, order = certificate(g), automorphism_group(g).order()
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            copy = g.relabel(perm)
            assert certificate(copy) == cert, inst.description
            assert automorphism_group(copy).order() == order, inst.description


def test_certificate_comes_from_the_best_leaf():
    # refinement cannot tell a triangle's vertices from a square's, so the
    # first leaf depends on which component holds vertex 0; the best does not
    triangle_first = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    square_first = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
    assert certificate(triangle_first) == certificate(square_first)
    for g in (triangle_first, square_first):
        search = _Search(g)
        search.run()
        assert encode_graph6(g.relabel(search.best[1])) == certificate(g)


def test_certificates_separate_nonisomorphic_graphs():
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert certificate(C6) != certificate(two_triangles)
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert certificate(path) != certificate(star)


def test_k_arcs_counts():
    assert len(k_arcs(K4, 0)) == 4
    assert len(k_arcs(K4, 1)) == 12
    # cubic graphs have n * 3 * 2^(k-1) k-arcs
    cube = hypercube()
    for k in (1, 2, 3):
        assert len(k_arcs(cube, k)) == 8 * 3 * 2 ** (k - 1)
    with pytest.raises(ValueError):
        k_arcs(K4, -1)
    # _arc_type's greedy walk is the first k-arc the listing gives
    members = census.table1_instances(64) + census.table2_instances(64)
    for inst in members:
        g = inst.bigraph.graph
        for k in range(6):
            assert _first_arc(g, k) == k_arcs(g, k)[0]


def test_k_arc_regularity_frozen_values():
    expected = {
        (5, 2): (3, True),
        (8, 3): (2, True),
        (12, 5): (2, True),
        (10, 3): (3, True),
        (7, 2): (None, False),
        (9, 2): (None, False),
    }
    for (n, k), want in expected.items():
        assert k_arc_regularity(generalized_petersen(n, k).graph) == want
    assert k_arc_regularity(lcf_graph([5, -5], 7)) == (4, True)  # Heawood
    assert k_arc_regularity(lcf_graph([5, 7, -7, 7, -7, -5], 3)) == (3, True)  # Pappus
    assert k_arc_regularity(lcf_graph([-7, 7], 13)) == (1, True)
    assert k_arc_regularity(lcf_graph([5, -5, 13, -13], 8)) == (2, True)  # Dyck
    with pytest.raises(ValueError):
        k_arc_regularity(C5)
    two_k4 = Graph.from_edges(
        8, [(i, j) for i in range(4) for j in range(i + 1, 4)]
        + [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)]
    )
    with pytest.raises(ValueError):
        k_arc_regularity(two_k4)


def _criterion_inputs():
    """Every spoke-only census member to 64 vertices, a two-class input and a
    disconnected one whose bipartition is not unique."""
    graphs = [inst.bigraph for inst in census.table1_instances(64)]
    return graphs + [_zero_type([8], [0, 1, 2, 5]), _zero_type([6], [0, 2, 4])]


def test_normalizer_matches_element_filter():
    s4 = automorphism_group(K4)
    swap = PermGroup(4, [Permutation((1, 0, 2, 3))])
    got = normalizer(swap, s4)
    swap_set = frozenset(p.images for p in swap.elements())
    expected = {
        g
        for g in s4.elements()
        if frozenset((g.inverse() * h * g).images for h in swap.elements()) == swap_set
    }
    assert set(got.elements()) == expected
    assert normalizer(s4, s4).order() == 24
    assert normalizer(PermGroup(4), s4).order() == 24
    for b in _criterion_inputs():
        aut = automorphism_group(b.graph)
        trans = right_translations(b)
        want = set(reference_normalizer(trans, aut))
        assert set(normalizer(trans, aut).elements()) == want, b.spec


def test_enumerate_semiregular():
    heawood = _zero_type([7], [0, 1, 3])
    aut = automorphism_group(heawood.graph)
    subs = enumerate_semiregular(aut, heawood.parts, (7,))
    assert len(subs) == 8
    for sub in subs:
        assert sub.order() == 7
        assert semiregular_with_orbits(sub, heawood.parts)
    # all eight are conjugate (Sylow)
    for sub in subs[1:]:
        x = are_conjugate(aut, subs[0], sub)
        assert x is not None
        first = frozenset(p.images for p in subs[0].elements())
        image = frozenset((x.inverse() * h * x).images for h in subs[0].elements())
        assert image == frozenset(p.images for p in sub.elements())

    k33 = _zero_type([3], [0, 1, 2])
    assert len(enumerate_semiregular(automorphism_group(k33.graph), k33.parts, (3,))) == 2
    with pytest.raises(ValueError):
        enumerate_semiregular(aut, heawood.parts, (5,))


def _element_sets(subs):
    return [frozenset(p.images for p in sub.elements()) for sub in subs]


def test_enumerate_semiregular_matches_lattice_search():
    graphs = [inst.bigraph for inst in census.table1_instances(64)]  # every spoke-only member
    assert len(graphs) == 14
    rng = random.Random(5)
    for orders in ([6], [8], [4, 2], [2, 2, 2], [9], [3, 3], [10], [12], [6, 2]):
        group = make_group(orders)
        rest = [x for x in group.elements() if not x.is_identity]
        for _ in range(3):
            spec = BiCayleySpec.create(group, (), (), (group.identity, *rng.sample(rest, 2)))
            if predicted_connected(spec):
                graphs.append(build(spec))
    assert len(graphs) > 30
    for b in graphs:
        aut = automorphism_group(b.graph)
        got = enumerate_semiregular(aut, b.parts, b.spec.group.orders)
        want = reference_semiregular_members(aut, b.parts, b.spec.group)
        assert _element_sets(got) == _element_sets(want), b.spec


def test_enumerate_semiregular_matches_coset_by_coset_growth():
    # the two skipping rules leave the generator tuples and their order alone
    graphs = [inst.bigraph for inst in census.table1_instances(128)]
    graphs += [_zero_type([8], [0, 1, 2, 5]), _zero_type([6], [0, 2, 4])]
    checked = 0
    for b in graphs:
        aut = automorphism_group(b.graph)
        if aut.order() > max_enumeration_bound():
            continue
        orders = b.spec.group.orders
        got = enumerate_semiregular(aut, b.parts, orders)
        want = reference_enumerate_semiregular(aut, b.parts, orders)
        assert [sub.generators for sub in got] == [sub.generators for sub in want], b.spec
        checked += 1
    assert checked == 28


def test_enumerate_semiregular_returns_one_isomorphism_type():
    # The lattice search also reaches a quaternion group on the Moebius-Kantor
    # graph (row 2, Z_8), three cyclic groups on the cube (row 3, m=2) and three
    # non-abelian groups with elements of order 8 on row 3, m=4 (Z_4^2); the
    # tuple shape alone must select the isomorphism type.
    by_row = {inst.description: inst.bigraph for inst in census.table1_instances(32)}
    for description, shapes, counts in (
        ("row 2, Z_8", ((8,), (4, 2), (2, 2, 2)), [3, 0, 0]),
        ("row 3, m=2", ((4,), (2, 2)), [3, 1]),
        ("row 3, m=4", ((4, 4), (8, 2), (16,)), [1, 0, 0]),
    ):
        b = by_row[description]
        aut = automorphism_group(b.graph)
        found = []
        for orders in shapes:
            got = enumerate_semiregular(aut, b.parts, orders)
            want = reference_semiregular_members(aut, b.parts, make_group(orders))
            assert _element_sets(got) == _element_sets(want), (description, orders)
            found.append(len(got))
        assert found == counts


def test_iota_alone_is_semiregular_but_misses_the_parts():
    cube = _zero_type([2, 2], [(0, 0), (1, 0), (0, 1)])
    sub = PermGroup(8, [iota(cube)])
    assert is_semiregular(sub)
    assert not semiregular_with_orbits(sub, cube.parts)


def test_are_conjugate():
    s4 = automorphism_group(K4)
    a = PermGroup(4, [Permutation((1, 0, 2, 3))])
    b = PermGroup(4, [Permutation((0, 1, 3, 2))])
    x = are_conjugate(s4, a, b)
    assert x is not None
    a_set = frozenset(p.images for p in a.elements())
    image = frozenset((x.inverse() * h * x).images for h in a.elements())
    assert image == frozenset(p.images for p in b.elements())
    assert are_conjugate(s4, a, a) is not None
    three = PermGroup(4, [Permutation((1, 2, 0, 3))])
    assert are_conjugate(s4, a, three) is None
    for b in _criterion_inputs():
        aut = automorphism_group(b.graph)
        trans = right_translations(b)
        members = enumerate_semiregular(aut, b.parts, b.spec.group.orders)
        reach, _ = _conjugates(aut, trans)  # the one orbit each are_conjugate call walks
        for sub in members:
            x = reach.get(frozenset(p.images for p in sub.elements()))
            assert (x is None) == (reference_are_conjugate(aut, trans, sub) is None), b.spec
            if x is not None:
                assert aut.contains(x)
                image = frozenset((x.inverse() * h * x).images for h in trans.elements())
                assert image == frozenset(p.images for p in sub.elements())
        want = reference_conjugacy_class_count(aut, members)
        assert bci_by_criterion(b).conjugacy_class_count == want, b.spec


def test_enumeration_bound_env_override(monkeypatch):
    monkeypatch.setenv("BICAYLEY_MAX_AUT", "5")
    assert max_enumeration_bound() == 5
    group = automorphism_group(C6)  # order 12
    with pytest.raises(ValueError, match="enumeration bound"):
        group.elements()
    monkeypatch.setenv("BICAYLEY_MAX_AUT", "100")
    assert len(group.elements()) == 12
    # a group from bare generators is listed to learn its order
    s5 = PermGroup(5, [Permutation((1, 2, 3, 4, 0)), Permutation((1, 0, 2, 3, 4))])
    for query in (s5.elements, s5.order, lambda: s5.contains(Permutation((1, 0, 2, 3, 4)))):
        with pytest.raises(ValueError, match="enumeration bound 100;"):
            query()
    # the search gives an automorphism group's order at any size
    assert automorphism_group(_hypercube(5)).order() == 3840
    monkeypatch.setenv("BICAYLEY_MAX_AUT", "1e5")
    with pytest.raises(ValueError, match="BICAYLEY_MAX_AUT must be an integer"):
        max_enumeration_bound()
    # a bound below 1 is refused, not read as "no bound" by the closure
    for raw in ("0", "-5"):
        monkeypatch.setenv("BICAYLEY_MAX_AUT", raw)
        with pytest.raises(ValueError, match=f"must be a positive integer, got '{raw}'"):
            max_enumeration_bound()
        with pytest.raises(ValueError, match="BICAYLEY_MAX_AUT must be a positive integer"):
            s5.elements()
