"""The symmetry engine vs brute force: automorphisms by filtering all vertex
bijections, subgroup operations by explicit element scans."""

import math
import random
import re
from itertools import permutations
from operator import itemgetter

import pytest

from _oracles import (
    _conjugate,
    _mul_close,
    bicayley_parts,
    brute_automorphisms,
    complete_bipartite_33,
    compose,
    hypercube,
    is_semiregular,
    k_arcs,
    kneser_petersen,
    lcf_graph,
    orbits,
    partition_cells,
    random_graph,
    reference_arc_type,
    reference_are_conjugate,
    reference_conjugacy_class_count,
    reference_descend,
    reference_enumerate_semiregular,
    reference_handle_leaf,
    reference_leaf_certificate,
    reference_normalizer,
    reference_refine,
    reference_refined_cells,
    reference_semiregular_members,
    semiregular_with_orbits,
    small_corpus,
)
from bicayley import census, construction, symmetry
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
    _arc_type,
    _closure,
    _conjugates,
    _first_arc,
    _grow,
    _Search,
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
# refinement cannot tell a triangle's vertices from a square's, so the first
# leaf depends on which component holds vertex 0; the best does not
TRIANGLE_FIRST = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
SQUARE_FIRST = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
# branches of lengths 1, 2 and 3 at vertex 2: refinement alone makes every
# cell a singleton, so the search's first path, the base, is empty
ASYMMETRIC_TREE = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])


def _zero_type(orders, spokes):
    group = make_group(orders)
    return build(
        BiCayleySpec.create(group, (), (), tuple(group.element(s) for s in spokes))
    )


def _search_outcome(graph: Graph):
    search = _Search(graph)
    search.run()
    labeling = search.best[1]
    return search.autos, labeling, encode_graph6(graph.relabel(labeling))


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
    a = _mul_close(gens_a, n, 100_000)
    return a is not None and a == _mul_close(gens_b, n, 100_000)


def _elements(aut) -> set[tuple[int, ...]]:
    """Every element of ``aut``, by the reference closure of its generators."""
    elements = _mul_close(aut.generators, aut.degree, 100_000)
    assert elements is not None and len(elements) == aut.order()
    return elements


def _search_corpus() -> list[Graph]:
    members = census.table1_instances(128) + census.table2_instances(128)
    graphs = _relabeled(small_corpus(40), 3, 2)
    graphs += _relabeled([inst.bigraph.graph for inst in members], 4, 1)
    # cubic with trivial Aut: its leaves differ, so the certificate order picks the labeling
    frucht = lcf_graph([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2], 1)
    graphs += _relabeled([frucht], 6, 3)
    # the best leaf is not the first for some of these
    graphs += _relabeled([TRIANGLE_FIRST], 5, 3)
    return graphs


@pytest.mark.parametrize(
    "patched",
    [
        ("refine",),
        ("descend",),
        ("refine", "descend"),
        ("leaf_certificate",),
        ("refine", "leaf_certificate"),
        ("handle_leaf",),
        ("refine", "handle_leaf"),
    ],
)
def test_search_matches_reference_refinement_and_branching(monkeypatch, patched):
    graphs = _search_corpus()
    fast = [_search_outcome(g) for g in graphs]
    references = {
        "refine": reference_refine,
        "descend": reference_descend,
        "leaf_certificate": reference_leaf_certificate,
        "handle_leaf": reference_handle_leaf,
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


def test_leaf_automorphism_test_matches_certificate_equality(monkeypatch):
    # a later leaf skips its certificate when the map from the first leaf is
    # an automorphism: exactly when the two certificates would be equal
    verdicts = []
    handle_leaf = _Search.handle_leaf

    def checked(search, cells, prefix):
        if search.first is not None:
            gamma = itemgetter(*search.first[1])([c[0] for c in cells])
            same = search.leaf_certificate(cells)[0] == search.first[0]
            verdicts.append((search.is_automorphism(gamma), same))
        return handle_leaf(search, cells, prefix)

    monkeypatch.setattr(_Search, "handle_leaf", checked)
    best_not_first = 0
    for g in _search_corpus():
        search = _Search(g)
        search.run()
        best_not_first += search.best is not search.first
    assert all(verdict == same for verdict, same in verdicts)
    assert {verdict for verdict, _ in verdicts} == {True, False} and best_not_first


def test_census_searches_certify_only_the_first_leaf(monkeypatch):
    # every later leaf of a census member's search is the first leaf's image
    # under an automorphism, which the edge check finds without a certificate
    certified = []
    leaf_certificate = _Search.leaf_certificate

    def counted(search, cells):
        certified.append(cells)
        return leaf_certificate(search, cells)

    monkeypatch.setattr(_Search, "leaf_certificate", counted)
    members = census.table1_instances(128) + census.table2_instances(128)
    for g in _relabeled([inst.bigraph.graph for inst in members], 10, 1)[1::2]:
        certified.clear()
        _Search(g).run()
        assert len(certified) == 1, g


def test_refine_matches_reference_on_every_call(monkeypatch):
    # individualization seeds singleton splitters; circulants of degree >= 4
    # and random graphs give counts above 1; the whole vertex set of a
    # non-regular graph is a splitter that splits itself
    circulants = [
        Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in steps])
        for n, steps in ((9, (1, 2)), (12, (1, 3)), (13, (1, 5)), (16, (1, 2, 6)), (15, (1, 4, 6)))
    ]
    graphs = _relabeled(circulants + small_corpus(60, 10), 7, 1)
    # a relabeling of each census member (not the member itself): these meet
    # settled cells whose fragments are all popped whole, so the last
    # fragment's pop is skipped
    members = census.table1_instances(128) + census.table2_instances(128)
    graphs += _relabeled([inst.bigraph.graph for inst in members], 8, 1)[1::2]
    # denser non-regular graphs, cones over random circulants on 19-39
    # vertices, each step taken with probability 0.2-0.4: a settled cell's
    # rest, counted in place of a larger splitter, splits cells into up to
    # seven fragments (random graphs of that size and density refine to
    # singletons at the root, so no rest is ever counted there)
    rng = random.Random(30)
    cones = []
    for _ in range(20):
        m, p = rng.randint(19, 39), rng.uniform(0.2, 0.4)
        steps = [d for d in range(1, m // 2 + 1) if rng.random() < p] or [1]
        edges = [(i, (i + d) % m) for i in range(m) for d in steps]
        cones.append(Graph.from_edges(m + 1, edges + [(i, m) for i in range(m)]))
    graphs += _relabeled(cones, 31, 1)[1::2]
    fast = _Search.refine
    calls = []

    def recorded(search, at, cell_of, ncells, start):
        before = partition_cells(at)
        assert ncells == len(before)
        seed = sorted(at[start])
        count = fast(search, at, cell_of, ncells, start)
        out = partition_cells(at)  # the arrays are refined in place
        assert count == len(out)
        s = 0
        for cell in out:  # cell_of names each vertex's cell start
            assert {cell_of[v] for v in cell} == {s}
            s += len(cell)
        calls.append((search, before, seed, out))
        return count

    monkeypatch.setattr(_Search, "refine", recorded)
    for g in graphs:
        _Search(g).run()
    singleton_splits = counts_above_one = self_splits = 0
    for search, cells, seed, out in calls:
        assert out == reference_refined_cells(search, cells)
        singleton_splits += len(seed) == 1 and len(out) > len(cells)
        self_splits += len(seed) > 1 and seed not in out
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


def test_regular_graph_root_is_not_refined(monkeypatch):
    # a regular graph's unit partition is equitable: only individualized
    # partitions, of two or more cells, are refined
    fast = _Search.refine
    sizes = []

    def recorded(search, at, cell_of, ncells, start):
        sizes.append(ncells)
        return fast(search, at, cell_of, ncells, start)

    monkeypatch.setattr(_Search, "refine", recorded)
    for g in (K4, C5, kneser_petersen(), hypercube(), census.table1_instances(64)[-1].bigraph.graph):
        sizes.clear()
        _Search(g).run()
        assert sizes and min(sizes) > 1
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    sizes.clear()
    _Search(star).run()
    assert sizes[0] == 1  # a non-regular root is refined


def _orbit_walks(monkeypatch) -> list[set[int]]:
    """Every orbit ``symmetry._orbit`` walks from now on, in call order."""
    walks = []
    walk = symmetry._orbit

    def counted(points, images):
        reach = walk(points, images)
        walks.append(reach)
        return reach

    monkeypatch.setattr(symmetry, "_orbit", counted)
    return walks


def test_arc_type_and_orbit_roots_walk_one_orbit_once(monkeypatch):
    # _arc_type reads |Aut| too, whose first factor is w's orbit; the other
    # factors are orbits of the point stabilizer, which miss w
    inst = census.table1_instances(64)[-1]
    g = inst.bigraph.graph
    aut = automorphism_group(g)
    w = aut.base[0]
    walks = _orbit_walks(monkeypatch)
    assert _arc_type(g, aut) == (inst.expected_k, True)
    assert aut.orbit_roots() == [0]
    assert [w in reach for reach in walks] == [True] + [False] * (len(walks) - 1)
    assert len(walks) == len(aut.base)


def test_base_point_orbit_is_walked_once_for_order_arc_type_and_roots(monkeypatch):
    # order() takes its level-0 factor from the orbit cache that _arc_type
    # and orbit_roots share, whichever of them comes first
    members = census.table1_instances(128) + census.table2_instances(128)
    walks = _orbit_walks(monkeypatch)
    for i, inst in enumerate(members):
        g = inst.bigraph.graph
        aut = automorphism_group(g)
        w = aut.base[0]
        walks.clear()
        reads = [aut.order, lambda: _arc_type(g, aut), aut.orbit_roots]
        for read in reads[i % 3 :] + reads[: i % 3]:
            read()
        assert sum(w in reach for reach in walks) == 1, inst.description
        assert aut.orbit_roots() == [0] and len(aut.orbit(w)) == g.n


def test_certificate_alone_never_computes_the_order(monkeypatch):
    # the search leaves |Aut| to PermGroup.order, which only a reader calls:
    # a certificate walks no orbit beyond those of its search's pruning
    calls = []
    order = symmetry.PermGroup.order

    def counted(group):
        calls.append(group)
        return order(group)

    monkeypatch.setattr(symmetry.PermGroup, "order", counted)
    walks = _orbit_walks(monkeypatch)
    members = census.table1_instances(128) + census.table2_instances(128)
    for inst in members:
        g = inst.bigraph.graph
        known = list(known_automorphisms(inst.bigraph))
        walks.clear()
        _Search(g, known).run()
        searched = len(walks)
        walks.clear()
        symmetry._ANALYZED.pop(g, None)
        certificate(g, known)
        assert len(walks) == searched, inst.description
    assert not calls
    for inst in members:  # the record reads it, from the cached search
        census.analysis(inst.bigraph)
    assert len(calls) == 2 * len(members)  # _arc_type's read, then the record's


def test_children_leave_their_parents_arrays_unchanged(monkeypatch):
    # individualize copies at and cell_of, so a child's refinement, and its
    # whole subtree, leaves the parent's partition as it was
    parents = []
    checked = []
    individualize, descend = _Search.individualize, _Search.descend

    def snapshot(search, at, cell_of, ncells, s, v):
        parents.append((at, cell_of, [c and list(c) for c in at], list(cell_of)))
        return individualize(search, at, cell_of, ncells, s, v)

    def compared(search, at, cell_of, ncells, prefix):
        level = descend(search, at, cell_of, ncells, prefix)
        if prefix:
            parent_at, parent_cell_of, at_then, cell_of_then = parents.pop()
            assert [c and list(c) for c in parent_at] == at_then
            assert parent_cell_of == cell_of_then
            checked.append(len(prefix))
        return level

    monkeypatch.setattr(_Search, "individualize", snapshot)
    monkeypatch.setattr(_Search, "descend", compared)
    for g in _search_corpus():
        _Search(g).run()
        assert not parents
    assert len(checked) > 1000 and max(checked) > 2


def _fresh_analysis(graph: Graph, leaves: list, known=()):
    """A new search's generators, |Aut|, labeling, certificate, orbit roots
    and first path; ``leaves`` lists the search of every leaf reached, so this
    one's last."""
    symmetry._ANALYZED.pop(graph, None)
    autos, cert, base = symmetry._analyzed(graph, known)
    order = automorphism_group(graph).order()  # from the cached search
    labeling = leaves[-1].best[1]
    assert base == tuple(leaves[-1].first_path)
    roots = [min(orbit) for orbit in orbits(autos, graph.n)]
    return autos, (order, labeling, cert, roots, base)


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
            assert list(autos[: len(known)]) == known  # the search kept its seeds
    assert totals[1] < 0.6 * totals[0], totals
    # the identity and repeated seeds are dropped, as found automorphisms
    # are; a seed that is no automorphism, or no permutation, is refused
    padded = [tuple(range(g.n)), *seeds, *seeds]
    assert _fresh_analysis(g, leaves, padded)[0] == _fresh_analysis(g, leaves, seeds)[0]
    for bad in ((1, 0, *range(2, g.n)), (0, 0, *range(2, g.n))):
        with pytest.raises(ValueError, match="is not an automorphism"):
            _Search(g, [bad])


def test_one_root_branch_after_the_first_on_census_members(monkeypatch):
    # a census graph is arc-transitive, so Aut = <Aut_v, g> for any g moving
    # the first root child v to a neighbour: the first branch finds Aut_v, the
    # neighbour tried next finds g, and every other root child is then in v's
    # orbit.  Root children in vertex order opened 86 branches after the first.
    roots = []
    descend = _Search.descend

    def counted(search, at, cell_of, ncells, prefix):
        if len(prefix) == 1:
            roots.append(prefix[0])
        return descend(search, at, cell_of, ncells, prefix)

    monkeypatch.setattr(_Search, "descend", counted)
    members = census.table1_instances(256) + census.table2_instances(256)
    rng = random.Random(1)
    for inst in members:
        perm = list(range(inst.bigraph.graph.n))
        rng.shuffle(perm)
        graph = inst.bigraph.graph.relabel(perm)
        roots.clear()
        _Search(graph).run()
        first, *rest = roots
        assert len(rest) == 1 and graph.has_edge(first, rest[0]), inst.description
    assert len(members) == 55


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
    k14 = Graph.from_edges(28, [(i, 14 + j) for i in range(14) for j in range(14)])
    for graph, order in (
        (_hypercube(7), 645_120),
        (_hypercube(9), 185_794_560),
        (k14, 2 * math.factorial(14) ** 2),
    ):
        assert automorphism_group(graph).order() == order
    assert len(automorphism_group(k14).generators) <= 40


def test_base_is_the_first_path_and_a_strong_base():
    # the first path is the leftmost, seeds or none, so the graph-keyed cache
    # may hand either search's base to any caller; the kept generators that
    # fix base[0] must generate its whole stabilizer
    rng = random.Random(31)
    cases = []
    for inst in census.table1_instances(128) + census.table2_instances(128):
        g = inst.bigraph.graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        cases += [(g, list(known_automorphisms(inst.bigraph))), (g.relabel(perm), [])]
    cases += [(g, []) for g in _relabeled(small_corpus(40), 7, 1)]
    for g, known in cases:
        search = _Search(g)
        search.run()
        for seeds in ((), known):
            symmetry._ANALYZED.pop(g, None)
            aut = automorphism_group(g, seeds)
            assert aut.base == tuple(search.first_path), g.edges
        if not aut.base:
            assert aut.order() == 1 and not aut.generators
            continue
        w, fixing = aut.point_stabilizer()
        stabilizer = _mul_close(fixing, g.n, 50_000)
        assert stabilizer == {x for x in _elements(aut) if x[w] == w}, g.edges
        assert len(stabilizer) * len(aut.orbit(w)) == aut.order(), g.edges


def test_closure_matches_naive_closure():
    # _closure lists Aut_w and H_R from their generators: each element once
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(tuple(images))
        listed = _closure(tuple(range(n)), gens)
        closed = {tuple(range(n))}
        frontier = list(closed)
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = compose(x, s)
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        assert listed[0] == tuple(range(n))
        assert len(listed) == len(closed) and set(listed) == closed


def test_orbits_and_transitivity():
    rot = (1, 2, 3, 4, 5, 0)
    square = compose(rot, rot)
    assert orbits([square], 6) == [frozenset({0, 2, 4}), frozenset({1, 3, 5})]
    group = _mul_close([square], 6, 3)
    assert is_semiregular(group)
    assert semiregular_with_orbits(group, [{0, 2, 4}, {1, 3, 5}])
    assert not semiregular_with_orbits(group, [{0, 1, 2}, {3, 4, 5}])
    # a triangle 0-2-4 with a leaf on each vertex: Aut is S_3, not semiregular
    aut = automorphism_group(Graph.from_edges(6, [(0, 2), (2, 4), (4, 0), (0, 1), (2, 3), (4, 5)]))
    assert aut.orbit_roots() == [0, 1]
    assert aut.orbit(0) == {0, 2, 4} and aut.orbit(5) == {1, 3, 5}
    assert not is_semiregular(_elements(aut))
    assert automorphism_group(ASYMMETRIC_TREE).orbit_roots() == list(range(7))


def test_automorphism_group_matches_brute_force():
    # contains is the edge check: true of every automorphism, false of any
    # other permutation and of a tuple that is no permutation
    outsiders = 0
    for g in small_corpus(30):
        aut = automorphism_group(g)
        brute = set(brute_automorphisms(g))
        assert aut.order() == len(brute)
        assert _mul_close(aut.generators, g.n, len(brute)) == brute, g.edges
        for images in brute:
            assert aut.contains(images)
        outside = next((p for p in permutations(range(g.n)) if p not in brute), None)
        if outside is not None:
            outsiders += 1
            assert not aut.contains(outside), g.edges
        if g.n > 1:
            assert not aut.contains((0,) + tuple(range(g.n - 1))), g.edges  # 0 twice
    assert outsiders > 20


def test_float_entries_are_no_permutation():
    # sorted((2.0, 1.0, 0.0)) == [0, 1, 2], yet a float indexes no tuple:
    # membership says no, and a seed with float entries is refused
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    aut = automorphism_group(path)
    assert aut.contains((2, 1, 0)) and not aut.contains((2.0, 1.0, 0.0))
    assert not aut.contains((0, 1.0, 2))
    _Search(path, [(2, 1, 0)])
    with pytest.raises(ValueError, match="is not an automorphism"):
        _Search(path, [(2.0, 1.0, 0.0)])


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
    assert certificate(TRIANGLE_FIRST) == certificate(SQUARE_FIRST)
    for g in (TRIANGLE_FIRST, SQUARE_FIRST):
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
            assert _first_arc(g, k, 0) == k_arcs(g, k)[0]


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


def test_arc_type_matches_orbits_on_every_arc():
    # _arc_type reads the stabilizer of base[0]; the reference closes orbits
    # on all arcs and on |Aut| k-arcs.  Relabelings, searched unseeded, move
    # the base; prisms GP(n,1) are vertex- but not arc-transitive, and
    # GP(7,2) is not vertex-transitive; the Tutte 8-cage is 5-arc-regular;
    # the Gray graph is edge- but not vertex-transitive, so Aut_w is
    # transitive on the arcs at w while Aut is not on all arcs
    rng = random.Random(37)
    graphs = []
    for inst in census.table1_instances(256) + census.table2_instances(256):
        g = inst.bigraph.graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs += [(g, automorphism_group(g, known_automorphisms(inst.bigraph)))]
        graphs += [(g.relabel(perm), None)]
    for n in range(5, 31):
        graphs += [(generalized_petersen(n, k).graph, None) for k in range(1, (n + 1) // 2)]
    graphs.append((lcf_graph([-13, -9, 7, -7, 9, 13], 5), None))
    graphs.append((lcf_graph([-25, 7, -7, 13, -13, 25], 9), None))
    for m in range(4, 17):
        for spokes in ([0, 1, 3], [0, 1, 4], [0, 2, 5])[: m - 3]:
            b = _zero_type([m], spokes)
            if predicted_connected(b.spec):
                graphs.append((b.graph, None))
    types = set()
    for g, aut in graphs:
        aut = aut or automorphism_group(g)
        got = _arc_type(g, aut)
        assert got == reference_arc_type(g, aut), g.edges
        types.add(got)
    assert (None, False) in types and {(k, True) for k in (1, 2, 3, 4, 5)} <= types


def _criterion_inputs():
    """Every spoke-only census member to 64 vertices, a two-class input and a
    disconnected one whose bipartition is not unique."""
    graphs = [inst.bigraph for inst in census.table1_instances(64)]
    return graphs + [_zero_type([8], [0, 1, 2, 5]), _zero_type([6], [0, 2, 4])]


def test_normalizer_matches_element_filter():
    # normalizer gives Schreier generators; their closure is compared
    s4 = automorphism_group(K4)
    s4_elements = _elements(s4)
    swap = frozenset({tuple(range(4)), (1, 0, 2, 3)})
    expected = {g for g in s4_elements if frozenset(_conjugate(g, h) for h in swap) == swap}
    assert _mul_close(normalizer(swap, s4), 4, 24) == expected
    assert len(_mul_close(normalizer(s4_elements, s4), 4, 24)) == 24
    assert len(_mul_close(normalizer({tuple(range(4))}, s4), 4, 24)) == 24
    for b in _criterion_inputs():
        aut = automorphism_group(b.graph)
        trans = right_translations(b)
        want = set(reference_normalizer(trans, _elements(aut)))
        assert _mul_close(normalizer(trans, aut), b.graph.n, len(want)) == want, b.spec


def test_enumerate_semiregular():
    heawood = _zero_type([7], [0, 1, 3])
    aut = automorphism_group(heawood.graph)
    trans = right_translations(heawood)
    subs = enumerate_semiregular(aut, trans, (7,))
    assert len(subs) == 8 and frozenset(trans) in subs
    for sub in subs:
        assert len(sub) == 7 and _mul_close(sub, 14, 7) == sub
        assert semiregular_with_orbits(sub, bicayley_parts(heawood))
    # all eight are conjugate (Sylow)
    for sub in subs[1:]:
        x = are_conjugate(aut, subs[0], sub)
        assert x is not None
        image = frozenset(_conjugate(x, h) for h in subs[0])
        assert image == sub

    k33 = _zero_type([3], [0, 1, 2])
    k33_aut = automorphism_group(k33.graph)
    assert len(enumerate_semiregular(k33_aut, right_translations(k33), (3,))) == 2
    # a regular group of order 5 on each part has 5 translations, not 7
    with pytest.raises(ValueError, match="7 translations cannot be regular on parts of 5"):
        enumerate_semiregular(aut, trans, (5,))
    # the candidates are read off base[0]; an empty base (a discrete root
    # partition) is a trivial group, whose stabilizers are all trivial
    tree = automorphism_group(ASYMMETRIC_TREE)
    assert tree.base == () and tree.order() == 1
    [trivial] = enumerate_semiregular(tree, [tuple(range(7))], (1,))
    assert trivial == frozenset({tuple(range(7))})


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
        got = enumerate_semiregular(aut, right_translations(b), b.spec.group.orders)
        want = reference_semiregular_members(_elements(aut), bicayley_parts(b), b.spec.group)
        assert got == want, b.spec


def test_enumerate_semiregular_matches_coset_by_coset_growth():
    # the skipping rules and the candidates built from the base point's
    # stabilizer leave the subgroups and their order alone; on the
    # disconnected H=6, H=4 and H=3 inputs Aut_w also moves the parts, and
    # on K_2 (H=1) the one subgroup is trivial, found from no candidate
    graphs = [inst.bigraph for inst in census.table1_instances(128)]
    graphs += [_zero_type([8], [0, 1, 2, 5]), _zero_type([6], [0, 2, 4])]
    graphs += [_zero_type([4], [0, 2]), _zero_type([3], []), _zero_type([1], [0])]
    checked = 0
    for b in graphs:
        aut = automorphism_group(b.graph)
        if aut.order() > max_enumeration_bound():
            continue
        orders = b.spec.group.orders
        got = enumerate_semiregular(aut, right_translations(b), orders)
        want = reference_enumerate_semiregular(_elements(aut), bicayley_parts(b), orders)
        assert got == want, b.spec
        checked += 1
    assert checked == 31


def test_grow_refuses_a_generator_of_order_above_its_cycle_through_v0():
    # g = (0 1)(2 3 4 5) has a 2-cycle through v0 = 0 and order 4; the coset
    # {g} is made of candidates, so only g^2 != 1 refuses it.  On the census
    # graphs later layers drop such partial sets anyway, so this is the test
    # that fails without the check.
    identity = tuple(range(6))
    g = (1, 0, 3, 4, 5, 2)
    assert _grow({identity}, {0}, 0, g, 2, {g}) is None
    h = (1, 0, 3, 2, 5, 4)
    assert _grow({identity}, {0}, 0, h, 2, {h}) == {identity, h}


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
            got = enumerate_semiregular(aut, right_translations(b), orders)
            want = reference_semiregular_members(
                _elements(aut), bicayley_parts(b), make_group(orders)
            )
            assert got == want, (description, orders)
            found.append(len(got))
        assert found == counts


def test_iota_alone_is_semiregular_but_misses_the_parts():
    cube = _zero_type([2, 2], [(0, 0), (1, 0), (0, 1)])
    sub = _mul_close([iota(cube)], 8, 2)
    assert is_semiregular(sub)
    assert not semiregular_with_orbits(sub, bicayley_parts(cube))


def test_are_conjugate():
    s4 = automorphism_group(K4)
    identity = tuple(range(4))
    a = frozenset({identity, (1, 0, 2, 3)})
    b = frozenset({identity, (0, 1, 3, 2)})
    x = are_conjugate(s4, a, b)
    assert x is not None
    assert frozenset(_conjugate(x, h) for h in a) == b
    assert are_conjugate(s4, a, a) is not None
    three = _mul_close([(1, 2, 0, 3)], 4, 3)
    assert are_conjugate(s4, a, three) is None
    for b in _criterion_inputs():
        aut = automorphism_group(b.graph)
        aut_elements = _elements(aut)
        trans = right_translations(b)
        members = enumerate_semiregular(aut, trans, b.spec.group.orders)
        reach, _ = _conjugates(aut, trans)  # the one orbit each are_conjugate call walks
        for sub in members:
            x = reach.get(sub)
            want = reference_are_conjugate(aut_elements, trans, sub)
            assert (x is None) == (want is None), b.spec
            if x is not None:
                assert x in aut_elements
                assert frozenset(_conjugate(x, h) for h in trans) == sub
        want = reference_conjugacy_class_count(aut_elements, members)
        assert bci_by_criterion(b).conjugacy_class_count == want, b.spec


def test_criterion_never_lists_all_of_aut(monkeypatch):
    # H_R and the semiregular subgroups reach the criterion as element sets,
    # and Aut as its generators, order and base: the closures list Aut_w and
    # H_R, each smaller than Aut (these graphs have iota and move base[0])
    wants = []
    for b in _criterion_inputs():
        aut = automorphism_group(b.graph)
        aut_elements = _elements(aut)
        trans = right_translations(b)
        orders = b.spec.group.orders
        members = reference_enumerate_semiregular(aut_elements, bicayley_parts(b), orders)
        classes = reference_conjugacy_class_count(aut_elements, members)
        transitive = len({x[0] for x in reference_normalizer(trans, aut_elements)}) == b.graph.n
        wants.append((transitive and classes == 1, transitive, len(members), classes))
    listed = []

    def recorded(start, images):
        out = _closure(start, images)
        listed.append(len(out))
        return out

    monkeypatch.setattr(symmetry, "_closure", recorded)
    monkeypatch.setattr(construction, "_closure", recorded)
    for b, want in zip(_criterion_inputs(), wants):
        listed.clear()
        v = bci_by_criterion(b)
        got = (v.is_bci, v.normalizer_transitive, v.semiregular_count, v.conjugacy_class_count)
        assert got == want, b.spec
        assert listed and max(listed) < automorphism_group(b.graph).order(), b.spec
    assert {want[0] for want in wants} == {True, False}
    # theorem-b: the criterion, with the oracle beside it on small groups
    assert all(rec["is_bci"] for rec in census.theorem_b_verify(64))


def test_enumeration_bound_env_override(monkeypatch):
    # the bound caps |Aut| for the semiregular enumeration, the one step
    # that lists a subgroup of Aut read off its order
    k33 = _zero_type([3], [0, 1, 2])
    aut = automorphism_group(k33.graph)
    trans = right_translations(k33)
    monkeypatch.setenv("BICAYLEY_MAX_AUT", "5")
    assert max_enumeration_bound() == 5
    refusal = (
        "group of order 72 exceeds the enumeration bound 5; raise BICAYLEY_MAX_AUT to override"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        enumerate_semiregular(aut, trans, (3,))
    monkeypatch.setenv("BICAYLEY_MAX_AUT", "72")
    assert len(enumerate_semiregular(aut, trans, (3,))) == 2
    # the search gives an automorphism group's order at any size
    assert automorphism_group(_hypercube(5)).order() == 3840
    monkeypatch.setenv("BICAYLEY_MAX_AUT", "1e5")
    with pytest.raises(ValueError, match="BICAYLEY_MAX_AUT must be an integer"):
        max_enumeration_bound()
    # a bound below 1 is refused, not read as "no bound"
    for raw in ("0", "-5"):
        monkeypatch.setenv("BICAYLEY_MAX_AUT", raw)
        with pytest.raises(ValueError, match=f"must be a positive integer, got '{raw}'"):
            max_enumeration_bound()
        with pytest.raises(ValueError, match="BICAYLEY_MAX_AUT must be a positive integer"):
            enumerate_semiregular(aut, trans, (3,))
