"""Census generation: instance selection under a vertex bound, row metadata
and the Table 1 family against a row-by-row transcription, and the two
exhaustive searches, at small bounds and Theorem A at orders 48,
96, 4096 and 10^9, with the relation-lattice key checked against a walk over the
powers of t and against subgroup closure, the pattern enumeration against a
scan over every group, and the closed-walk sieve against walks listed in the
built graphs."""

import random
import re
from functools import cache

import pytest

from bicayley import bci, census, graphs, search, symmetry
from bicayley.abelian import make_group, subgroup_generated
from bicayley.census import (
    _DARTS,
    _WALK_LENGTH,
    SCOPE_NOTE,
    _closed_base_walks,
    _closed_walk_counts,
    _generated_order,
    _key_group,
    _lattice_key,
    _lattice_keys,
    _passes_sieve,
    _power_class,
    negative_controls,
    table1_instances,
    table2_instances,
    theorem_a_search,
    theorem_b_verify,
    verify_instance,
)
from bicayley.construction import BiCayleySpec, build, format_spec, parse_spec
from bicayley.graphs import bipartition, girth
from bicayley.symmetry import certificate, k_arc_regularity

from _oracles import (
    complete_bipartite_33,
    layout_id,
    lcf_graph,
    reference_closed_base_walks,
    reference_closed_walks,
    reference_isomorphism_types,
    reference_lattice_key,
    reference_quotient,
    reference_table1_specs,
    reference_theorem_a_scan,
)


def test_table1_within_64():
    instances = table1_instances(64)
    assert len(instances) == 14
    assert all(inst.table == 1 for inst in instances)
    assert all(inst.claimed_k == inst.expected_k for inst in instances)
    assert sorted(inst.bigraph.graph.n for inst in instances) == [
        6, 8, 14, 16, 18, 24, 26, 32, 38, 42, 50, 54, 56, 62,
    ]
    by_row = {}
    for inst in instances:
        by_row.setdefault(inst.row, []).append(inst)
        assert len(inst.bigraph.spec.spokes) == 3
        assert not inst.bigraph.spec.right and not inst.bigraph.spec.left
    assert {row: len(v) for row, v in by_row.items()} == {
        1: 5, 2: 1, 3: 3, 4: 2, 5: 1, 6: 1, 7: 1,
    }
    assert {row: v[0].expected_k for row, v in by_row.items()} == {
        1: 1, 2: 2, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4,
    }


def test_row1_parameters_rederived():
    # solvable u^2 + u + 1 = 0 (mod r) for 3 < r <= 32
    solvable = {
        r: next(u for u in range(r) if (u * u + u + 1) % r == 0)
        for r in range(4, 33)
        if any((u * u + u + 1) % r == 0 for u in range(r))
    }
    assert solvable == {7: 2, 13: 3, 19: 7, 21: 4, 31: 5}
    seen = {}
    for inst in table1_instances(64):
        if inst.row != 1:
            continue
        r, m, u = map(int, re.match(r"row 1, r=(\d+) m=(\d+) u=(\d+)", inst.description).groups())
        assert solvable[r] == u
        assert inst.bigraph.graph.n == 2 * r * m * m
        seen[(r, m)] = reference_quotient(inst.bigraph.spec.group, [])[0].orders
    # m = 1 members with r < 11 coincide with rows 5-7 and are omitted
    assert seen == {
        (13, 1): (13,),
        (19, 1): (19,),
        (21, 1): (21,),
        (31, 1): (31,),
        (7, 2): (14, 2),
    }


def test_table1_group_types():
    types = {inst.description: reference_quotient(inst.bigraph.spec.group, [])[0].orders
             for inst in table1_instances(64)}
    assert types["row 2, Z_8"] == (8,)
    assert types["row 3, m=4"] == (4, 4)
    assert types["row 4, m=2"] == (6, 2)
    assert types["row 4, m=3"] == (9, 3)
    assert types["row 6, Z_3^2"] == (3, 3)


def test_table1_smaller_bound():
    picked = [(inst.row, inst.bigraph.graph.n) for inst in table1_instances(20)]
    assert picked == [(2, 16), (3, 8), (5, 6), (6, 18), (7, 14)]


def test_table1_matches_the_row_by_row_transcription():
    for bound in (1, 6, 8, 14, 18, 20, 64, 256, 1024):
        got = [
            (inst.row, inst.description, format_spec(inst.bigraph.spec), inst.expected_k)
            for inst in table1_instances(bound)
        ]
        assert got == reference_table1_specs(bound), bound


def test_family_spec_is_the_smith_quotient_for_every_root():
    # every root u, not only the least that table1_instances takes, so the
    # closed form Z_rm x Z_m is checked on the root pairs of r = 91, 133, ...
    triples = 0
    for r in range(1, 2049):
        for u in (u for u in range(r) if (u * u + u + 1) % r == 0):
            m = 2 if r == 1 else 1
            while 2 * r * m * m <= 4096:
                rm = r * m
                square = make_group([rm, rm])
                relation = square.element(((-m * (u + 1)) % rm, m % rm))
                quotient, image = reference_quotient(square, [relation])
                want = sorted(image(square.element(e)) for e in ((0, 0), (1, 0), (0, 1)))
                spec = census._family_spec(r, m, u)
                assert spec.group.orders == quotient.orders, (r, m, u)
                assert list(spec.spokes) == want, (r, m, u)
                triples += 1
                m += 1
    assert triples == 1240


def test_named_members_are_k33_pappus_and_heawood():
    named = {
        (3, 1): complete_bipartite_33(),
        (1, 3): lcf_graph([5, 7, -7, 7, -7, -5], 3),
        (7, 1): lcf_graph([5, -5], 7),
    }
    assert named.keys() == census._NAMED_MEMBERS.keys()
    for (r, m), want in named.items():
        u = next(u for u in range(r) if (u * u + u + 1) % r == 0)
        assert certificate(build(census._family_spec(r, m, u)).graph) == certificate(want), (r, m)


def test_verify_instance_fields():
    by_row = {inst.row: inst for inst in table1_instances(20)}
    rec = verify_instance(by_row[5])
    assert rec["ok"] and rec["vertices"] == 6 and rec["girth"] == 4
    assert rec["arc_type"] == 3 and rec["aut_order"] == 72
    rec = verify_instance(by_row[7])
    assert rec["ok"] and rec["girth"] == 6
    assert rec["arc_type"] == 4 and rec["aut_order"] == 336
    assert rec["order_formula_ok"] and rec["claim_ok"]
    assert build(parse_spec(rec["spec"])).graph.n == 14


def test_table2_within_64():
    instances = table2_instances(64)
    assert len(instances) == 9
    rows = [(inst.row, inst.description.split(", ")[1], inst.bigraph.graph.n,
             inst.expected_k, inst.claimed_k) for inst in instances]
    assert rows == [
        (1, "Z_2^2 (GP(4,1))", 8, 2, 2),
        (2, "Z_2 x Z_10", 40, 3, 2),
        (3, "GP(4,1)", 8, 2, 2),
        (3, "GP(8,3)", 16, 2, 2),
        (3, "GP(10,2)", 20, 2, 2),
        (3, "GP(12,5)", 24, 2, 2),
        (3, "GP(24,5)", 48, 2, 2),
        (4, "GP(5,2)", 10, 3, 3),
        (4, "GP(10,3)", 20, 3, 3),
    ]
    # each member is a one-matching bi-Cayley graph: one spoke, |R| = |L| = 2
    for inst in instances:
        spec = inst.bigraph.spec
        assert len(spec.spokes) == 1
        assert len(spec.right) == len(spec.left) == 2
    names = [inst.description for inst in table2_instances(20)]
    assert names == [
        "row 1, Z_2^2 (GP(4,1))",
        "row 3, GP(4,1)",
        "row 3, GP(8,3)",
        "row 3, GP(10,2)",
        "row 4, GP(5,2)",
        "row 4, GP(10,3)",
    ]


def test_table2_sporadic_row_is_three_regular():
    # the census column records 2-arc-transitivity; the graph is exactly
    # 3-regular, so the claim is a lower bound and verification still passes
    inst = next(i for i in table2_instances(64) if i.row == 2)
    assert reference_quotient(inst.bigraph.spec.group, [])[0].orders == (10, 2)
    rec = verify_instance(inst)
    assert rec["ok"]
    assert rec["arc_type"] == 3 and rec["claimed_k"] == 2 and rec["claim_ok"]
    assert rec["aut_order"] == 480 and rec["girth"] == 8


def test_row1_and_row3_duplicate_the_cube():
    # GP(4,1) appears once as a group construction and once by name
    instances = table2_instances(64)
    certs = [certificate(inst.bigraph.graph) for inst in instances if "GP(4,1)" in inst.description]
    assert len(certs) == 2 and len(set(certs)) == 1


def test_theorem_a_search_small_bound():
    results = theorem_a_search(8)
    assert sorted(rec["name"] for rec in results) == ["GP(8,3)", "K_4", "Q_3"]
    for rec in results:
        assert rec["arc_type"] == 2
        rebuilt = build(parse_spec(rec["example"])).graph
        assert rec["vertices"] == rebuilt.n
        assert certificate(rebuilt) == rec["certificate"]


def test_theorem_a_search_matches_unreduced_scan():
    # the swap and inversion reductions keep every graph and its first example
    for bound in (8, 12):
        reference = reference_theorem_a_scan(bound)
        expected = sorted(
            cert
            for cert, spec in reference.items()
            if k_arc_regularity(build(spec).graph)[1]
        )
        results = theorem_a_search(bound)
        assert sorted(rec["certificate"] for rec in results) == expected
        for rec in results:
            assert rec["example"] == format_spec(reference[rec["certificate"]])


@cache
def _scanned_keys(max_order):
    """Lattice key -> its first generating triple (group, r, s, t), over every
    abelian group of order at most ``max_order``, involutions r <= s and one t
    per cyclic subgroup: the key reads only t's order and the one involution
    of <t>, which every generator of <t> shares.  A group of rank above 3 has
    no generating triple, so it is skipped."""
    keys = {}
    for orders in reference_isomorphism_types(max_order):
        if len(orders) > 3:
            continue
        group = make_group(orders)
        elems = group.elements()
        involutions = [x for x in elems if not x.is_identity and (x * x).is_identity]
        cyclic = {}
        for t in elems[1:]:
            powers, x = {group.identity}, t
            while not x.is_identity:
                powers.add(x)
                x = x * t
            cyclic.setdefault(frozenset(powers), t)
        for i, r in enumerate(involutions):
            for s in involutions[i:]:
                for sub, t in cyclic.items():
                    # <r, s, t> is the union of the cosets of <t> through 1, r, s, rs
                    cosets = []
                    for x in (group.identity, r, s, r * s):
                        if not any(x * y in sub for y in cosets):
                            cosets.append(x)
                    if len(cosets) * len(sub) == group.size:
                        keys.setdefault(reference_lattice_key(r, s, t), (group, r, s, t))
    return keys


def test_pattern_keys_match_the_scan():
    # the six patterns per ord(t) are exactly the keys of generating triples,
    # each over the group it names
    scanned = {key: group.orders for key, (group, *_) in _scanned_keys(96).items()}
    assert {key: _key_group(key) for key in _lattice_keys(96)} == scanned
    assert len(scanned) == 190


def _dart_arcs(group, r, s, t):
    """The arcs from the identity of each fibre that lift the six base darts
    r, s, spoke 1, spoke t and their reverses, in ``census._DARTS`` order."""
    one = group.identity
    return [
        (layout_id(one, 0), layout_id(r, 0)),
        (layout_id(one, 1), layout_id(s, 1)),
        (layout_id(one, 0), layout_id(one, 1)),
        (layout_id(one, 0), layout_id(t, 1)),
        (layout_id(one, 1), layout_id(one, 0)),
        (layout_id(one, 1), layout_id(t.inverse(), 0)),
    ]


def test_base_walk_table_matches_the_dart_scan():
    # each dart's two successors are precomputed; the reference scans all six
    assert _closed_base_walks() == reference_closed_base_walks(_DARTS, _WALK_LENGTH)
    assert len(_closed_base_walks()) == _WALK_LENGTH


def test_key_walk_counts_match_the_cover():
    keys = [key for key in _scanned_keys(96) if _generated_order(key) <= 48]
    assert len(keys) == 94
    for key in keys:
        group, r, s, t = _scanned_keys(96)[key]
        g = build(BiCayleySpec.create(group, (r,), (s,), (group.identity, t))).graph
        walks = reference_closed_walks(g, 8)
        cover = [tuple(walks[arc][i] for arc in _dart_arcs(group, r, s, t)) for i in range(8)]
        assert list(_closed_walk_counts(key)) == cover, key


def test_arc_transitive_graphs_have_equal_walk_counts_on_every_arc():
    # the sieve rejects a key only on unequal counts, so it never rejects these
    graphs = [inst.bigraph.graph for inst in table1_instances(256) + table2_instances(256)]
    graphs += [build(parse_spec(rec["example"])).graph for rec in theorem_a_search(48)]
    assert len(graphs) == 59
    for g in graphs:
        assert len(set(reference_closed_walks(g, 8).values())) == 1


_PATTERNS = (
    lambda n: (n, None, None, None),
    lambda n: (n, None, None, 0),
    lambda n: (n, n // 2, None, None),
    lambda n: (n, None, n // 2, None),
    lambda n: (n, None, None, n // 2),
    lambda n: (n, n // 2, n // 2, 0),
)


def test_walk_counts_stop_depending_on_n_past_twice_the_walk_length():
    # so the keys with n <= 16 and one n beyond decide the sieve at every order
    for i, pattern in enumerate(_PATTERNS):
        lengths = range(17, 61) if i < 2 else range(18, 61, 2)
        counts = {tuple(_closed_walk_counts(pattern(n))) for n in lengths}
        assert len(counts) == 1, i
        assert not _passes_sieve(pattern(lengths[0]))


def test_sieve_passes_five_keys_at_every_order():
    passed = [key for key in _lattice_keys(4096) if _passes_sieve(key)]
    assert passed == [
        (2, None, None, 0),
        (2, None, None, 1),
        (2, 1, 1, 0),
        (4, None, None, 2),
        (6, None, None, 3),
    ]


def test_theorem_a_sieves_no_key_past_n_18(monkeypatch):
    seen = []
    sieve = census._passes_sieve

    def recorded(key):
        seen.append(key[0])
        return sieve(key)

    monkeypatch.setattr(census, "_passes_sieve", recorded)
    results = theorem_a_search(10**9)
    assert max(seen) == 18
    assert results == theorem_a_search(192)


def _visited_triples(max_order):
    """(group, r, s, t, key) for every abelian group of order at most
    ``max_order``, involutions r <= s and t != 1 with t <= t^-1, with each key
    checked against the walk over the powers of t."""
    for orders in reference_isomorphism_types(max_order):
        group = make_group(orders)
        elems = group.elements()
        involutions = [x for x in elems if not x.is_identity and (x * x).is_identity]
        for i, r in enumerate(involutions):
            for s in involutions[i:]:
                for t in elems:
                    if t.is_identity or t.inverse() < t:
                        continue
                    key = _lattice_key(_power_class(t), r, s, r * s)
                    assert key == reference_lattice_key(r, s, t), (group, r, s, t)
                    yield group, r, s, t, key


def test_lattice_key_gives_the_generated_order():
    visited = 0
    for group, r, s, t, key in _visited_triples(24):
        sub = subgroup_generated(group, [r, s, t])
        assert _generated_order(key) == len(sub), (group, r, s, t)
        visited += 1
    assert visited == 3153


def test_equal_lattice_keys_give_equal_certificates():
    # generating triples of one key differ by an automorphism of the group
    first = {}
    repeats = 0
    for group, r, s, t, key in _visited_triples(16):
        if _generated_order(key) != group.size:
            continue
        spec = BiCayleySpec.create(group, (r,), (s,), (group.identity, t))
        cert = certificate(build(spec).graph)
        repeats += (group.orders, key) in first
        assert first.setdefault((group.orders, key), cert) == cert, (group, r, s, t)
    assert repeats == 187


_THEOREM_A_GRAPHS = [("K_4", 4, 2), ("Q_3", 8, 2), ("GP(8,3)", 16, 2), ("GP(12,5)", 24, 2)]


def test_theorem_a_search_order_48():
    results = theorem_a_search(48)
    assert [(rec["name"], rec["vertices"], rec["arc_type"]) for rec in results] == _THEOREM_A_GRAPHS


def test_theorem_a_search_order_96():
    results = theorem_a_search(96)
    assert [(rec["name"], rec["vertices"], rec["arc_type"]) for rec in results] == _THEOREM_A_GRAPHS


def test_theorem_a_search_order_4096():
    results = theorem_a_search(4096)
    assert [(rec["name"], rec["vertices"], rec["arc_type"]) for rec in results] == _THEOREM_A_GRAPHS


def test_theorem_b_small_bound():
    results = theorem_b_verify(20)
    assert [rec["vertices"] for rec in results] == [16, 8, 6, 18, 14]
    for rec in results:
        assert rec["is_bci"]
        assert rec["oracle_checked"]  # every group here has order <= 16
        assert rec["normalizer_transitive"]
        assert rec["conjugacy_class_count"] == 1
        g = build(parse_spec(rec["spec"])).graph
        assert g.n == rec["vertices"]
        assert bipartition(g) is not None


def test_theorem_b_oracle_runs_exactly_up_to_its_limit():
    results = theorem_b_verify(20, oracle_limit=7)
    checked = [rec["oracle_checked"] for rec in results]
    assert checked == [rec["vertices"] // 2 <= 7 for rec in results]
    assert checked == [False, True, True, False, True]


def test_theorem_b_refuses_a_limit_the_oracle_cannot_meet():
    for max_vertices in (20, 0):  # at 0 no member is selected: the call refuses up front
        with pytest.raises(ValueError, match="16"):
            theorem_b_verify(max_vertices, oracle_limit=17)


def test_theorem_b_raises_when_criterion_and_oracle_disagree(monkeypatch):
    real = bci.bci_oracle

    def flipped(b):
        verdict = real(b)
        return verdict._replace(is_bci=not verdict.is_bci)

    monkeypatch.setattr(bci, "bci_oracle", flipped)
    with pytest.raises(RuntimeError, match="disagree"):
        theorem_b_verify(20)


def test_results_do_not_depend_on_analysis_order(monkeypatch):
    # the generators a search keeps, which the conjugacy walk and the
    # enumeration start from, depend on which isomorphic graph was analyzed
    # first (a relabeled copy carries its generators into the original's
    # search); the verdicts, records and certificates must not
    rng = random.Random(0)
    members = table1_instances(256) + table2_instances(256)
    graphs = [inst.bigraph.graph for inst in members]
    relabeled = [g.relabel(rng.sample(range(g.n), g.n)) for g in graphs]
    tasks = [(bci.bci_by_criterion, inst.bigraph) for inst in table1_instances(128)]
    tasks += [(verify_instance, inst) for inst in members]
    tasks += [(certificate, graph) for graph in relabeled]

    def run(order):
        monkeypatch.setattr(symmetry, "_ANALYZED", {})
        monkeypatch.setattr(symmetry, "_INDEX", {})
        results = {i: tasks[i][0](tasks[i][1]) for i in order}
        return sorted(results.items()), dict(symmetry._ANALYZED)

    want, analyzed = run(range(len(tasks)))
    carried = 0
    for seed in (1, 2, 3):
        got, shuffled = run(random.Random(seed).sample(range(len(tasks)), len(tasks)))
        assert got == want, seed
        carried += sum(analyzed[g][0] != shuffled[g][0] for g in analyzed)
    assert carried  # some graph kept other generators in another order
    assert all(v.is_bci for _, v in want[: len(table1_instances(128))])


def test_census_and_criterion_paths_write_no_graph6(monkeypatch):
    # the search, the cache and the index share the packed certificate;
    # graph6 is written only when certificate() is called
    members = table1_instances(128)
    written = []
    searches = []
    real = graphs._graph6

    def counted(n, keys):
        written.append(n)
        return real(n, keys)

    for module in (graphs, search, symmetry):
        if getattr(module, "_graph6", None) is real:
            monkeypatch.setattr(module, "_graph6", counted)
    run = search._Search.run
    monkeypatch.setattr(search._Search, "run", lambda s: searches.append(s.n) or run(s))
    monkeypatch.setattr(symmetry, "_ANALYZED", {})
    monkeypatch.setattr(symmetry, "_INDEX", {})
    for inst in members:
        verify_instance(inst)
        bci.bci_by_criterion(inst.bigraph)
    assert len(searches) >= len(members) and not written
    certificate(members[0].bigraph.graph)
    assert len(written) == 1


def test_negative_controls():
    result = negative_controls()
    assert result["ok"]
    assert result["desargues_spoke_only_match"] is None
    for name in ("GP(7,2)", "GP(9,2)"):
        assert result["non_transitive"][name]["arc_type"] is None
        assert not result["non_transitive"][name]["arc_regular"]
    assert result["positive_control"]["GP(10,2)"]["arc_type"] == 2


def test_census_girths_are_even():
    for inst in table1_instances(64):
        assert girth(inst.bigraph.graph) in (4, 6)
    assert isinstance(SCOPE_NOTE, str) and "bound" in SCOPE_NOTE
