"""The group-theoretic BCI criterion against the brute-force spoke-set scan."""

import json
from itertools import combinations

import pytest

import _oracles
from _oracles import (
    check_oracle_classes,
    reference_bci_oracle,
    reference_first_match,
    reference_isomorphism_types,
    reference_walk_counts,
)
from bicayley import bci
from bicayley.abelian import _index_table, automorphism_group_of, make_group
from bicayley.bci import bci_by_criterion, bci_oracle, cross_check, verdict_payload
from bicayley.census import table1_instances
from bicayley.construction import (
    BiCayleySpec,
    build,
    generalized_petersen,
    parse_spec,
    predicted_connected,
)
from bicayley.symmetry import certificate


def spoke_graph(orders, spokes):
    g = make_group(list(orders))
    spec = BiCayleySpec.create(g, (), (), tuple(g.element(s) for s in spokes))
    return build(spec)


def test_criterion_accepts_spoke_census_members():
    for orders, spokes, semis in (
        ([3], (0, 1, 2), 2),  # K_3,3
        ([2, 2], ((0, 0), (1, 0), (0, 1)), None),  # the cube
        ([8], (0, 2, 3), None),  # Moebius-Kantor
        ([3, 3], ((0, 0), (1, 0), (0, 1)), None),  # Pappus
        ([7], (0, 1, 3), 8),  # Heawood
    ):
        v = bci_by_criterion(spoke_graph(orders, spokes))
        assert v.is_bci and v.method == "criterion"
        assert v.normalizer_transitive
        assert v.conjugacy_class_count == 1
        if semis is not None:
            assert v.semiregular_count == semis


def test_oracle_confirms_census_members():
    for orders, spokes in ([3], (0, 1, 2)), ([2, 2], ((0, 0), (1, 0), (0, 1))), (
        [7],
        (0, 1, 3),
    ):
        v = bci_oracle(spoke_graph(orders, spokes))
        assert v.is_bci and v.method == "oracle"
        assert v.counterexample is None


def test_automorphic_translate_gives_the_same_graph():
    # {0,1,5} = 5 * {0,1,3} mod 7, so the two spoke sets are equivalent
    original = spoke_graph([7], (0, 1, 3))
    translate = spoke_graph([7], (0, 1, 5))
    assert certificate(original.graph) == certificate(translate.graph)
    assert bci_oracle(translate).is_bci


def test_non_bci_pair_over_z8():
    first = spoke_graph([8], (0, 1, 2, 5))
    second = spoke_graph([8], (0, 1, 3, 4))
    # isomorphic graphs from inequivalent spoke sets
    assert certificate(first.graph) == certificate(second.graph)
    z8 = make_group([8])
    admissible = set()
    elems = z8.elements()
    for table in automorphism_group_of(z8):
        image = [elems[table[s]] for s in (0, 1, 2, 5)]
        for h in z8.elements():
            admissible.add(frozenset((h * x).exponents for x in image))
    assert frozenset(((0,), (1,), (3,), (4,))) not in admissible

    v = bci_oracle(first)
    assert not v.is_bci
    assert v.counterexample == ((0,), (1,), (3,), (4,))
    assert bci_oracle(second).counterexample == ((0,), (1,), (2,), (5,))

    c = bci_by_criterion(first)
    assert not c.is_bci
    # the failure is a second conjugacy class, not intransitivity
    assert c.normalizer_transitive
    assert c.semiregular_count == 2
    assert c.conjugacy_class_count == 2


def test_criterion_matches_oracle_on_all_small_triples():
    total = 0
    for orders in reference_isomorphism_types(8):
        group = make_group(list(orders))
        if group.size < 4:
            continue
        rest = [x for x in group.elements() if not x.is_identity]
        for pair in combinations(rest, 2):
            spec = BiCayleySpec.create(group, (), (), (group.identity,) + pair)
            if not predicted_connected(spec):
                continue
            b = build(spec)
            verdict = bci_by_criterion(b)
            assert verdict.is_bci == bci_oracle(b).is_bci
            assert verdict.is_bci  # every connected triple this small is BCI
            total += 1
    assert total == 66


def test_oracle_matches_full_scan():
    # The oracle certifies one spoke set per class under automorphisms and
    # translations; the full scan must give the same verdict and the same
    # first counterexample, connected or not.
    shapes = ([5], [6], [7], [8], [9], [2, 2], [12], [6, 2])
    cases = [(orders, 3) for orders in shapes] + [([8], 4)]
    non_bci = []
    for orders, k in cases:
        group = make_group(orders)
        rest = [x for x in group.elements() if not x.is_identity]
        for others in combinations(rest, k - 1):
            spokes = (group.identity,) + others
            b = build(BiCayleySpec.create(group, (), (), spokes))
            v = bci_oracle(b)
            assert (v.is_bci, v.counterexample) == reference_bci_oracle(b), spokes
            if not v.is_bci:
                non_bci.append(tuple(x.exponents for x in spokes))
    assert ((0,), (1,), (2,), (5,)) in non_bci
    z4_square = next(i.bigraph for i in table1_instances(64) if i.description == "row 3, m=4")
    v = bci_oracle(z4_square)
    assert (v.is_bci, v.counterexample) == reference_bci_oracle(z4_square) == (True, None)
    empty = spoke_graph([3], ())
    assert bci_oracle(empty).is_bci and reference_bci_oracle(empty) == (True, None)


def test_oracle_certifies_one_spoke_set_per_class(monkeypatch):
    # The 3-subsets of Z_13 fall into classes under x -> a x + b; the oracle
    # counts the closed walks of one set of every class but the target's own,
    # and certifies only the target: the other classes' counts differ from it.
    z13 = make_group([13])
    affine = [
        lambda t, table=table, h=h: frozenset(h * z13.element(table[x.exponents[0]]) for x in t)
        for table in automorphism_group_of(z13)
        for h in z13.elements()
    ]
    unseen = {frozenset(t) for t in combinations(z13.elements(), 3)}
    classes = 0
    while unseen:
        t = unseen.pop()
        unseen -= {act(t) for act in affine}
        classes += 1
    calls = []
    walked = []

    def counting(graph, known=()):
        calls.append(graph)
        return certificate(graph, known)

    def walking(raw, sums, neg):
        walked.append(raw)
        return spoke_walks(raw, sums, neg)

    spoke_walks = bci._spoke_walks
    monkeypatch.setattr(bci, "certificate", counting)
    monkeypatch.setattr(bci, "_spoke_walks", walking)
    v = bci_oracle(spoke_graph([13], (0, 1, 4)))
    assert v.is_bci
    assert len(walked) == classes - 1 == 2  # Z_13 is cyclic of prime order: all connected
    assert len(calls) == 1  # the target's


def test_oracle_component_filter_keeps_the_first_match(monkeypatch):
    # The oracle certifies a spoke set only when its graph has the target's
    # number of components and closed-walk counts; the unfiltered scan gives
    # the same verdict and counterexample, connected target or not, from more
    # certificates.  The members are theorem_b_verify(56)'s within the
    # oracle's order-16 limit.
    members = [i.bigraph for i in table1_instances(56) if i.bigraph.spec.group.size <= 16]
    others = (
        "H=6; S={0,2,4}",
        "H=8; S={0,1,2,5}",
        "H=[2,8]; S={(0,0),(1,0),(0,1)}",
        "H=[2,2,2,2]; S={(0,0,0,0),(1,0,0,0),(0,1,0,0)}",
    )
    calls = {bci: 0, _oracles: 0}  # certificates; the oracle's include each target's

    def counting(module):
        def counted(graph, known=()):
            calls[module] += 1
            return certificate(graph, known)

        monkeypatch.setattr(module, "certificate", counted)

    counting(bci)
    counting(_oracles)
    verdicts = []
    for b in members + [build(parse_spec(text)) for text in others]:
        v = bci_oracle(b)
        spokes = b.spec.spokes
        match = reference_first_match(b.spec.group, len(spokes), certificate(b.graph), spokes)
        expected = None if match is None else tuple(s.exponents for s in match.spokes)
        assert (v.is_bci, v.counterexample) == (match is None, expected), b.spec
        verdicts.append(v.is_bci)
    assert verdicts.count(False) == 1  # H=8; S={0,1,2,5}
    # the one candidate certified is the counterexample
    assert (calls[bci] - len(verdicts), calls[_oracles]) == (1, 28)


def test_spoke_walks_are_the_graphs_closed_walks():
    # The counts the oracle reads off H's tables are those of the built graph
    # at 0_0 and at |H|, the first vertex of part 1, which the part swap
    # x_0 <-> (-x)_1 maps to it.
    rounds = bci._WALK_ROUNDS
    sets = 0
    for orders in reference_isomorphism_types(12):
        group = make_group(orders)
        elems, sums, neg = _index_table(group)
        for k in (3, 4):
            for rest in combinations(range(1, group.size), k - 1):
                raw = (0, *rest)
                b = build(BiCayleySpec.create(group, (), (), [elems[i] for i in raw]))
                walks = tuple(bci._spoke_walks(raw, sums, neg))
                assert len(walks) == rounds
                for v in (0, group.size):
                    assert reference_walk_counts(b.graph, v, 2 * rounds)[1::2] == walks, raw
                assert bci._closed_walks(b.graph) == walks
                sets += 1
    assert sets == 1135  # the sum of C(|H|, 3) over the groups


def test_walk_filter_keeps_every_verdict_on_small_groups():
    # every class of identity-containing 3- and 4-subsets of the abelian
    # groups of order <= 12 (CI runs order <= 16 with k = 3..5)
    assert check_oracle_classes(12, (3, 4)) == (116, 8)


def test_cross_check_oracle_limit():
    assert cross_check(spoke_graph([3], (0, 1, 2))).is_bci
    # the trivial group: K_2 is its own translation group's only class
    assert cross_check(spoke_graph([1], (0,))).conjugacy_class_count == 1
    bad = cross_check(spoke_graph([8], (0, 1, 2, 5)))
    assert not bad.is_bci and bad.method == "cross"
    # the criterion's evidence and the oracle's counterexample
    assert bad.conjugacy_class_count == 2
    assert bad.counterexample == ((0,), (1,), (3,), (4,))
    # past the oracle bound the oracle refuses, and so does the cross-check
    big = spoke_graph([18], (0, 1, 3))
    for decider in (bci_oracle, cross_check):
        with pytest.raises(ValueError, match="16"):
            decider(big)


def test_rejects_graphs_with_inner_edges():
    b = generalized_petersen(5, 2)
    for decider in (bci_by_criterion, bci_oracle, cross_check):
        with pytest.raises(ValueError, match="spoke-only"):
            decider(b)


def test_verdict_payload():
    good = verdict_payload(bci_by_criterion(spoke_graph([7], (0, 1, 3))))
    assert good["is_bci"] and good["counterexample"] is None
    assert good["group"] == [7]
    assert good["spokes"] == [[0], [1], [3]]
    bad = verdict_payload(bci_oracle(spoke_graph([8], (0, 1, 2, 5))))
    assert bad["counterexample"] == [[0], [1], [3], [4]]
    for payload in (good, bad):
        json.dumps(payload)
