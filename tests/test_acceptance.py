"""Acceptance checklist for the package: eight end-to-end criteria.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s) and then
asserts, so a run doubles as a human-readable report.
"""

import random
import time

from _oracles import (
    _mul_close,
    bicayley_parts,
    brute_automorphisms,
    exhaustive_girth,
    random_graph,
    small_corpus,
)
from bicayley.census import (
    negative_controls,
    table1_instances,
    table2_instances,
    theorem_a_search,
    theorem_b_verify,
    verify_instance,
)
from bicayley.construction import generalized_petersen
from bicayley.graphs import bipartition, girth
from bicayley.symmetry import (
    automorphism_group,
    certificate,
    k_arc_regularity,
)
from bicayley.voltage import derive, fig_alpha, fig_assignment, lifts

ROW_ARC_TYPE = {1: 1, 2: 2, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4}


def _verdict(number: int, name: str, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] criterion {number}: {name}")
    assert not problems, problems


def test_criterion_1_spoke_census():
    start = time.monotonic()
    problems = []
    instances = table1_instances(64)
    if len(instances) != 14:
        problems.append(f"expected 14 instances, got {len(instances)}")
    for inst in instances:
        rec = verify_instance(inst)
        g = inst.bigraph.graph
        if not rec["ok"]:
            problems.append(f"{inst.description}: verification failed: {rec}")
        if rec["arc_type"] != ROW_ARC_TYPE[inst.row]:
            problems.append(
                f"{inst.description}: arc type {rec['arc_type']} != row value"
            )
        if rec["girth"] not in (4, 6):
            problems.append(f"{inst.description}: girth {rec['girth']}")
        halves = bipartition(g)
        if halves is None or set(map(frozenset, halves)) != set(bicayley_parts(inst.bigraph)):
            problems.append(f"{inst.description}: parts are not the bipartition")
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        problems.append(f"took {elapsed:.1f}s, limit 120s")
    _verdict(1, "spoke-only census on <= 64 vertices verifies", problems)


def test_criterion_2_one_matching_census():
    start = time.monotonic()
    problems = []
    instances = table2_instances(64)
    two_arc = {f"GP({n},{k})" for n, k in ((4, 1), (8, 3), (10, 2), (12, 5), (24, 5))}
    three_arc = {"GP(5,2)", "GP(10,3)"}
    for inst in instances:
        rec = verify_instance(inst)
        if not rec["ok"]:
            problems.append(f"{inst.description}: verification failed: {rec}")
        name = inst.description.split(", ")[1]
        if name in two_arc and rec["arc_type"] != 2:
            problems.append(f"{name}: arc type {rec['arc_type']} != 2")
        if name in three_arc and rec["arc_type"] != 3:
            problems.append(f"{name}: arc type {rec['arc_type']} != 3")
    sporadic = next(rec for rec in map(verify_instance, instances) if rec["row"] == 2)
    if not (sporadic["arc_type"] >= 2 and sporadic["claim_ok"]):
        problems.append(f"sporadic row: {sporadic}")
    for n, k in ((7, 2), (9, 2)):
        if k_arc_regularity(generalized_petersen(n, k).graph) != (None, False):
            problems.append(f"GP({n},{k}) wrongly accepted")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, limit 60s")
    _verdict(2, "one-matching census on <= 64 vertices verifies", problems)


def test_criterion_3_exhaustive_one_matching_search():
    start = time.monotonic()
    problems = []
    results = theorem_a_search(24)
    names = sorted(rec["name"] for rec in results)
    if names != ["GP(12,5)", "GP(8,3)", "K_4", "Q_3"]:
        problems.append(f"found {names}")
    elapsed = time.monotonic() - start
    if elapsed >= 600:
        problems.append(f"took {elapsed:.1f}s, limit 600s")
    _verdict(3, "search over groups <= 24 finds exactly the four graphs", problems)


def test_criterion_4_bci_for_whole_census():
    start = time.monotonic()
    problems = []
    results = theorem_b_verify(64, oracle_limit=16)
    if len(results) != 14:
        problems.append(f"expected 14 results, got {len(results)}")
    for rec in results:
        if not rec["is_bci"]:
            problems.append(f"{rec['description']}: not BCI: {rec}")
    if not any(rec["vertices"] == 54 for rec in results):
        problems.append("54-vertex member missing")
    checked = sum(1 for rec in results if rec["oracle_checked"])
    if checked != 8:
        problems.append(f"oracle confirmed {checked} members, expected 8")
    elapsed = time.monotonic() - start
    if elapsed >= 600:
        problems.append(f"took {elapsed:.1f}s, limit 600s")
    _verdict(4, "every spoke-only census member is BCI", problems)


def test_criterion_4_bci_at_128_vertices():
    problems = []
    results = theorem_b_verify(128)
    if len(results) != 26:
        problems.append(f"expected 26 results, got {len(results)}")
    for rec in results:
        if not rec["is_bci"]:
            problems.append(f"{rec['description']}: not BCI: {rec}")
    checked = sum(1 for rec in results if rec["oracle_checked"])
    if checked != 8:
        problems.append(f"oracle confirmed {checked} members, expected 8")
    _verdict(4, "every spoke-only census member within 128 vertices is BCI", problems)


def test_criterion_4_bci_at_256_vertices():
    problems = []
    results = theorem_b_verify(256)
    if len(results) != 46:
        problems.append(f"expected 46 results, got {len(results)}")
    for rec in results:
        if not rec["is_bci"]:
            problems.append(f"{rec['description']}: not BCI: {rec}")
    checked = sum(1 for rec in results if rec["oracle_checked"])
    if checked != 8:
        problems.append(f"oracle confirmed {checked} members, expected 8")
    _verdict(4, "every spoke-only census member within 256 vertices is BCI", problems)


def test_criterion_5_voltage_cover_and_lift():
    start = time.monotonic()
    problems = []
    cover = derive(fig_assignment(3))
    if certificate(cover) != certificate(generalized_petersen(12, 5).graph):
        problems.append("order-3 cover is not GP(12,5)")
    alpha = fig_alpha()
    for order, expected in ((3, True), (5, False), (7, False)):
        got = lifts(fig_assignment(order), alpha) is not None
        if got != expected:
            problems.append(f"order {order}: lift exists = {got}")
    elapsed = time.monotonic() - start
    if elapsed >= 5:
        problems.append(f"took {elapsed:.2f}s, limit 5s")
    _verdict(5, "voltage cover is GP(12,5) and the lift picks order 3", problems)


def test_criterion_6_order_formula():
    problems = []
    anchors = {"row 7, Z_7": 336, "row 6, Z_3^2": 216, "row 1, r=13 m=1 u=3": 78}
    for inst in table1_instances(64) + table2_instances(64):
        g = inst.bigraph.graph
        k, regular = k_arc_regularity(g)
        order = automorphism_group(g).order()
        if not regular or order != g.n * 3 * 2 ** (k - 1):
            problems.append(f"{inst.description}: |Aut|={order}, k={k}")
        expected = anchors.get(inst.description)
        if expected is not None and order != expected:
            problems.append(f"{inst.description}: |Aut|={order} != {expected}")
    _verdict(6, "|Aut| = n * 3 * 2^(k-1) across both census tables", problems)


def test_criterion_7_engines_match_brute_force():
    problems = []
    for g in small_corpus(50):
        brute = brute_automorphisms(g)
        group = automorphism_group(g)
        if group.order() != len(brute):
            problems.append(f"aut order {group.order()} != {len(brute)} on {g.edges}")
            continue
        if _mul_close(group.generators, g.n, len(brute)) != set(brute):
            problems.append(f"generators miss an automorphism on {g.edges}")
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.6))
        if girth(g) != exhaustive_girth(g):
            problems.append(f"girth mismatch on {g.edges}")
    _verdict(7, "automorphisms and girth agree with brute force", problems)


def test_criterion_8_negative_controls():
    start = time.monotonic()
    problems = []
    result = negative_controls()
    if result["desargues_spoke_only_match"] is not None:
        problems.append(f"GP(10,3) matched {result['desargues_spoke_only_match']}")
    if not result["ok"]:
        problems.append(f"controls failed: {result}")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, limit 60s")
    _verdict(8, "near-miss graphs are rejected", problems)
