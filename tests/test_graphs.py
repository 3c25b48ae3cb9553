"""Graph metrics vs exhaustive search; graph6 encoder vs direct bit packing."""

import math
import random
from itertools import product as cartesian

import pytest

from _oracles import (
    complete_bipartite_33,
    exhaustive_girth,
    graph6_reference,
    kneser_petersen,
    random_graph,
    small_corpus,
)
from bicayley import census
from bicayley.graphs import (
    Graph,
    bipartition,
    encode_graph6,
    girth,
    is_connected,
)
from bicayley.symmetry import automorphism_group


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])


def test_adjacency_is_sorted_and_deduplicated():
    g = Graph.from_edges(4, [(2, 0), (0, 2), (3, 0), (0, 1)])
    assert g.adjacency[0] == (1, 2, 3)
    assert g.edge_count == 3
    assert g.edges == [(0, 1), (0, 2), (0, 3)]
    assert len(g.adjacency[0]) == 3 and len(g.adjacency[1]) == 1
    assert g.has_edge(2, 0) and not g.has_edge(1, 2)


def test_relabel_preserves_structure():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert sorted(len(a) for a in h.adjacency) == sorted(len(a) for a in g.adjacency)
        assert girth(h) == girth(g)
        for u, v in g.edges:
            assert h.has_edge(perm[u], perm[v])


def test_relabel_matches_the_mapped_edges():
    """``relabel`` writes each row directly; ``from_edges`` on the mapped edge
    list is the reference, on random graphs and every census member to 256
    vertices."""
    rng = random.Random(31)
    graphs = small_corpus(40, 10)
    graphs += [random_graph(rng, rng.randint(0, 12), rng.uniform(0.1, 0.6)) for _ in range(40)]
    members = census.table1_instances(256) + census.table2_instances(256)
    graphs += [inst.bigraph.graph for inst in members]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        expected = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert g.relabel(perm) == expected
        assert g.relabel(tuple(perm)) == expected


def test_relabel_refuses_a_non_permutation():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    # a repeated image, one entry too many, one too few, floats
    for perm in ([0, 2, 0], [0, 1, 2, 3], [0, 1], [2.0, 1.0, 0.0]):
        with pytest.raises(ValueError, match="not a permutation"):
            path.relabel(perm)


def test_girth_known_graphs():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert girth(k4) == 3
    assert girth(complete_bipartite_33()) == 4
    assert girth(kneser_petersen()) == 5
    assert girth(Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])) == 6
    assert girth(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) == math.inf
    assert girth(Graph.from_edges(3, [])) == math.inf


def test_girth_matches_exhaustive_search():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.uniform(0.1, 0.5))
        assert girth(g) == exhaustive_girth(g)


def test_girth_from_one_root_per_orbit():
    rng = random.Random(23)
    members = census.table1_instances(256) + census.table2_instances(256)
    graphs = [inst.bigraph.graph for inst in members]
    for g in small_corpus(40, 10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabel(perm))
    for g in graphs:
        roots = automorphism_group(g).orbit_roots()
        assert girth(g, roots) == girth(g)


def test_bipartition_valid_or_absent():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.5))
        sides = bipartition(g)
        if sides is not None:
            side0, side1 = sides
            assert sorted(side0 + side1) == list(range(g.n))
            lookup = {v: 0 for v in side0} | {v: 1 for v in side1}
            for u, v in g.edges:
                assert lookup[u] != lookup[v]
        else:
            # exhaustive confirmation that no two-coloring works
            for colors in cartesian((0, 1), repeat=g.n):
                if all(colors[u] != colors[v] for u, v in g.edges):
                    raise AssertionError("bipartition missed a valid coloring")


def test_bipartition_known_cases():
    assert bipartition(Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])) is None
    assert bipartition(Graph.from_edges(2, [(0, 1)])) == ((0,), (1,))
    side0, side1 = bipartition(complete_bipartite_33())
    assert side0 == (0, 1, 2) and side1 == (3, 4, 5)


def test_is_connected_matches_union_find():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.05, 0.5))
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in g.edges:
            parent[find(u)] = find(v)
        assert is_connected(g) == (len({find(v) for v in range(g.n)}) <= 1)


def test_graph6_matches_reference_packer():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert encode_graph6(k4) == "C~"
    assert encode_graph6(Graph.from_edges(1, [])) == "@"
    assert encode_graph6(Graph.from_edges(3, [(0, 1), (1, 2)])) == "Bg"
    rng = random.Random(31)
    for n in (0, 1, 2, 3, 4, 5, 8, 62, 63, 100, 256):
        g = random_graph(rng, n, 0.2)
        assert encode_graph6(g) == graph6_reference(g)
