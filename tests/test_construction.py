"""Built graphs vs independent models (complete bipartite, hypercube, LCF,
Kneser), and the translation symmetries."""

import random

import pytest

from _oracles import (
    _conjugate,
    _mul_close,
    bicayley_parts,
    complete_bipartite_33,
    compose,
    hypercube,
    is_semiregular,
    kneser_petersen,
    layout_id,
    lcf_graph,
    orbits,
    semiregular_with_orbits,
)
from bicayley import census, construction, symmetry
from bicayley.abelian import make_group
from bicayley.construction import (
    BiCayleySpec,
    build,
    format_spec,
    generalized_petersen,
    iota,
    known_automorphisms,
    parse_spec,
    predicted_connected,
    right_translation,
    right_translations,
)
from bicayley.graphs import is_connected
from bicayley.symmetry import _Search, automorphism_group, certificate


def _zero_type(orders, spokes):
    group = make_group(orders)
    return build(
        BiCayleySpec.create(group, (), (), tuple(group.element(s) for s in spokes))
    )


def test_spec_validation():
    z5 = make_group([5])
    with pytest.raises(ValueError):
        BiCayleySpec.create(z5, right=(z5.element(1),))  # inverse missing
    with pytest.raises(ValueError):
        BiCayleySpec.create(z5, left=(z5.identity,))
    with pytest.raises(ValueError):
        BiCayleySpec.create(z5, spokes=(z5.element(1), z5.element(1)))
    with pytest.raises(ValueError):
        BiCayleySpec.create(z5, spokes=(make_group([7]).element(1),))
    spec = BiCayleySpec.create(z5, (z5.element(4), z5.element(1)), (), (z5.identity,))
    assert spec.right == (z5.element(1), z5.element(4)) and spec.spokes == (z5.identity,)


def test_build_matches_connection_rule():
    # edge h_0 ~ g_0 iff g h^-1 in R, h_1 ~ g_1 iff g h^-1 in L,
    # h_0 ~ g_1 iff g h^-1 in S
    rng = random.Random(13)
    for _ in range(10):
        orders = [rng.choice([2, 3, 4, 5]) for _ in range(rng.randint(1, 2))]
        group = make_group(orders)
        elems = group.elements()
        pool = [g for g in elems if not g.is_identity]
        right = set()
        for g in rng.sample(pool, min(2, len(pool))):
            right |= {g, g.inverse()}
        spokes = rng.sample(elems, rng.randint(1, min(3, len(elems))))
        spec = BiCayleySpec.create(group, tuple(right), tuple(right), tuple(spokes))
        b = build(spec)
        for h in elems:
            for g in elems:
                diff = g * h.inverse()
                assert b.graph.has_edge(layout_id(h, 0), layout_id(g, 1)) == (
                    diff in spec.spokes
                )
                if g != h:
                    inside = b.graph.has_edge(layout_id(h, 0), layout_id(g, 0))
                    assert inside == (diff in spec.right)


def test_named_graphs_match_independent_models():
    k33 = _zero_type([3], [0, 1, 2])
    assert certificate(k33.graph) == certificate(complete_bipartite_33())

    cube = _zero_type([2, 2], [(0, 0), (1, 0), (0, 1)])
    assert certificate(cube.graph) == certificate(hypercube())
    assert certificate(cube.graph) == certificate(generalized_petersen(4, 1).graph)

    heawood = _zero_type([7], [0, 1, 3])
    assert certificate(heawood.graph) == certificate(lcf_graph([5, -5], 7))

    pappus = _zero_type([3, 3], [(0, 0), (1, 0), (0, 1)])
    assert certificate(pappus.graph) == certificate(lcf_graph([5, 7, -7, 7, -7, -5], 3))

    assert certificate(generalized_petersen(5, 2).graph) == certificate(kneser_petersen())
    assert certificate(generalized_petersen(8, 3).graph) == certificate(
        lcf_graph([5, -5], 8)
    )
    assert certificate(generalized_petersen(10, 3).graph) == certificate(
        lcf_graph([5, -5, 9, -9], 5)
    )


def test_generalized_petersen_validation():
    with pytest.raises(ValueError):
        generalized_petersen(2, 1)
    with pytest.raises(ValueError):
        generalized_petersen(8, 4)
    with pytest.raises(ValueError):
        generalized_petersen(8, 0)
    gp = generalized_petersen(7, 2)
    assert gp.graph.n == 14 and gp.graph.is_regular(3)


def test_predicted_connected_matches_bfs():
    rng = random.Random(19)
    for _ in range(25):
        orders = [rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 2))]
        group = make_group(orders)
        elems = group.elements()
        pool = [g for g in elems if not g.is_identity]
        right = set()
        if pool and rng.random() < 0.6:
            g = rng.choice(pool)
            right |= {g, g.inverse()}
        nspokes = rng.randint(0, 2)
        spokes = rng.sample(elems, nspokes)
        spec = BiCayleySpec.create(group, tuple(right), tuple(right), tuple(spokes))
        assert predicted_connected(spec) == is_connected(build(spec).graph)


def test_right_translations_are_semiregular_on_parts():
    for b in (_zero_type([7], [0, 1, 3]), generalized_petersen(6, 1), _zero_type([2, 3, 2], [])):
        trans = right_translations(b)
        # every translation once, the identity first
        assert trans[0] == tuple(range(b.graph.n))
        assert sorted(trans) == sorted(right_translation(b, h) for h in b.group.elements())
        assert semiregular_with_orbits(trans, bicayley_parts(b))
        # translations are graph automorphisms
        for p in trans:
            for u, v in b.graph.edges:
                assert b.graph.has_edge(p[u], p[v])
    k33 = _zero_type([3], [0, 1, 2])
    r = right_translation(k33, k33.group.element(1))
    cycles = orbits([r], 6)  # the cycles of r, fixed points included
    assert len(cycles) == 2 and all(len(c) == 3 for c in cycles)


def test_right_translation_refuses_an_element_of_another_group():
    heawood = _zero_type([7], [0, 1, 3])
    with pytest.raises(ValueError, match="does not belong"):
        right_translation(heawood, make_group([3, 5]).element((1, 4)))
    with pytest.raises(ValueError, match="does not belong"):
        right_translation(heawood, make_group([14]).element(1))


def test_translations_and_iota_follow_the_layout():
    # right_translation(b, h): (x, i) -> (xh, i); iota: (x, i) -> (x^-1, 1-i)
    for orders in ([7], [6, 2], [2, 3, 2]):
        group = make_group(orders)
        b = build(BiCayleySpec.create(group, (), (), (group.identity,)))
        elems = group.elements()
        assert [layout_id(x, 0) for x in elems] == list(range(group.size))
        tau = iota(b)
        for h in elems:
            t = right_translation(b, h)
            for x in elems:
                for i in (0, 1):
                    assert t[layout_id(x, i)] == layout_id(x * h, i)
        for x in elems:
            for i in (0, 1):
                assert tau[layout_id(x, i)] == layout_id(x.inverse(), 1 - i)


def test_iota_is_an_automorphism_exactly_when_sets_match():
    cube = _zero_type([2, 2], [(0, 0), (1, 0), (0, 1)])
    i = iota(cube)
    assert compose(i, i) == tuple(range(8))
    assert i[0] == 4
    for u, v in cube.graph.edges:
        assert cube.graph.has_edge(i[u], i[v])
    # R != L for GP(5,2), and iota breaks an edge there
    gp = generalized_petersen(5, 2)
    j = iota(gp)
    assert any(
        not gp.graph.has_edge(j[u], j[v]) for u, v in gp.graph.edges
    )
    # <R(H), iota> is regular of order 2|H| on the Heawood instance
    heawood = _zero_type([7], [0, 1, 3])
    joined = _mul_close(right_translations(heawood) + [iota(heawood)], 14, 28)
    assert joined is not None and len(joined) == 14
    assert orbits(joined, 14) == [frozenset(range(14))] and is_semiregular(joined)


def test_tau_swaps_parts_and_inverts_translations():
    heawood = _zero_type([7], [0, 1, 3])
    tau = iota(heawood)
    for y in heawood.group.elements():
        left = _conjugate(tau, right_translation(heawood, y))
        assert left == right_translation(heawood, y.inverse())
    assert orbits(right_translations(heawood) + [tau], 14) == [frozenset(range(14))]


def _is_automorphism(graph, images) -> bool:
    return sorted(images) == list(range(graph.n)) and all(
        graph.has_edge(images[u], images[v]) for u, v in graph.edges
    )


def _affine_seeds(b):
    """The seeds that fix vertex 0, (rho, tau) as lists: translations move it
    and iota takes it to the other part.  rho rotates the spokes at vertex 0,
    so it moves the identity of part 1; tau swaps a and b and fixes it."""
    size = b.group.size
    fixing = [p for p in known_automorphisms(b) if p[0] == 0]
    return [p for p in fixing if p[size] != size], [p for p in fixing if p[size] == size]


def test_affine_seeds_build_each_step_table_once(monkeypatch):
    # rho and tau share the tables of x -> x + g for g = a, c, c - a and -a;
    # the rest are one per translation generator and iota's
    calls = []

    def recorded(orders, exponents, sign=1):
        calls.append((orders, tuple(exponents), sign))
        return shifted(orders, exponents, sign)

    shifted = construction._shifted
    monkeypatch.setattr(construction, "_shifted", recorded)
    for inst in census.table1_instances(64):
        b = inst.bigraph
        calls.clear()
        list(known_automorphisms(b))
        translations = sum(not g.is_identity for g in b.group.generators())
        assert len(calls) == translations + 1 + 4, inst.description


def test_known_automorphisms_hold_on_every_census_member_to_512_vertices():
    kinds = {}
    for inst in census.table1_instances(512) + census.table2_instances(512):
        b = inst.bigraph
        seeds = list(known_automorphisms(b))
        assert all(_is_automorphism(b.graph, p) for p in seeds), inst.description
        rho, tau = _affine_seeds(b)
        translations = sum(not g.is_identity for g in b.group.generators())
        iotas = int(b.spec.right == b.spec.left)
        assert len(seeds) == translations + iotas + len(rho) + len(tau)
        kinds.setdefault((inst.table, inst.row), set()).add((len(rho), len(tau)))
    # rho on rows 1 and 3-7, tau on rows 3-6; row 2, BC(Z_8, {0, 2, 3}), has neither
    assert kinds == {
        (1, 1): {(1, 0)},
        (1, 2): {(0, 0)},
        **{(1, row): {(1, 1)} for row in (3, 4, 5, 6)},
        (1, 7): {(1, 0)},
        **{(2, row): {(0, 0)} for row in (1, 2, 3, 4)},
    }


def test_rho_and_tau_are_the_affine_lifts():
    # read back phi from part 0 and check the defining images with group
    # arithmetic: rho has phi(a) = b - a, phi(b) = -a and part-1 shift a,
    # tau has phi(a) = b, phi(b) = a and no shift
    checked = 0
    for inst in census.table1_instances(128):
        b = inst.bigraph
        elems = b.group.elements()
        index = {g: i for i, g in enumerate(elems)}
        size = len(elems)
        one, a, c = b.spec.spokes
        rho, tau = _affine_seeds(b)
        lifts = ((rho, c * a.inverse(), a.inverse(), a), (tau, c, a, one))
        for seeds, phi_a, phi_c, shift in lifts:
            for p in seeds:
                phi = dict(zip(elems, (elems[p[i]] for i in range(size))))
                assert phi[a] == phi_a and phi[c] == phi_c
                assert all(phi[x * y] == phi[x] * phi[y] for x in elems for y in (a, c))
                assert list(p[size:]) == [size + index[phi[x] * shift] for x in elems]
                checked += 1
    assert checked > 20


def test_a_seed_that_is_not_an_automorphism_is_refused():
    heawood = _zero_type([7], [0, 1, 3]).graph
    swap = list(range(14))
    swap[0], swap[1] = 1, 0
    for bad in (tuple(swap), tuple(range(13)), (0,) * 14, tuple(range(13)) + (12,)):
        with pytest.raises(ValueError, match="not an automorphism"):
            _Search(heawood, [bad])
    # iota breaks an edge of GP(5,2), where R != L: refused through the public
    # entry point too, whenever a search runs
    gp = generalized_petersen(5, 2)
    symmetry._ANALYZED.pop(gp.graph, None)
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphism_group(gp.graph, [iota(gp)])


def test_one_type_instance_is_gp_12_5():
    spec = parse_spec("H=[6,2]; R={(0,1)}; L={(3,0)}; S={(0,0),(1,1)}")
    b = build(spec)
    assert certificate(b.graph) == certificate(generalized_petersen(12, 5).graph)


def test_spec_text_round_trip():
    texts = [
        "H=[6,2]; R={(0,1)}; L={(3,0)}; S={(0,0),(1,1)}",
        "H=[7]; S={0,1,3}",
        "H=[3,3]; S={(0,0),(1,0),(0,1)}",
        "H=[4]; R={1,3}; L={1,3}; S={0}",
    ]
    for text in texts:
        spec = parse_spec(text)
        again = parse_spec(format_spec(spec))
        assert again == spec
    spec = parse_spec("H=5; S=2")  # bare ints allowed at rank 1
    assert spec.group.size == 5 and spec.spokes[0].exponents == (2,)


def test_spec_text_errors():
    for bad in (
        "R={1}",  # no H
        "H=[4]; H=[5]",
        "H=[4]; Q={1}",
        "H=[oops]",
        "H=[4]; S={(1,2)}",  # rank mismatch
        "H=[4]; S={1,",
    ):
        with pytest.raises(ValueError):
            parse_spec(bad)
