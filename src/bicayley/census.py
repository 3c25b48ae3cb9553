"""Census of cubic symmetric abelian bi-Cayley graphs within a vertex bound.

The spoke-only (0-type) census has seven rows: BC(Z_8, {1, a^2, a^3}) and one
family, the spokes (0, 0), (1, 0), (u+1-r, 1) over H = Z_rm x Z_m, whose
members make up the infinite rows 1, 3 and 4 and the sporadic rows 5-7, so a
vertex bound selects finitely many instances.  The one-matching (2-type)
census consists of seven generalized Petersen graphs plus one sporadic group.
The classification of the 1-type graphs is re-derived here by exhaustive
search, and each census row carries its expected arc-regularity for
verification.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import takewhile
from math import inf, prod

from bicayley.abelian import GroupElement, element_order, make_group
from bicayley.bci import _ORACLE_LIMIT, _first_match, bci_by_criterion, cross_check
from bicayley.construction import (
    BiCayleyGraph,
    BiCayleySpec,
    build,
    format_spec,
    generalized_petersen,
    known_automorphisms,
)
from bicayley.graphs import Graph, girth, is_connected
from bicayley.symmetry import (
    _arc_type,
    automorphism_group,
    certificate,
    k_arc_regularity,
)

__all__ = [
    "CensusInstance",
    "table1_instances",
    "table2_instances",
    "analysis",
    "verify_instance",
    "theorem_a_search",
    "theorem_b_verify",
    "negative_controls",
    "SCOPE_NOTE",
]

SCOPE_NOTE = (
    "The spoke-only census rows 1, 3 and 4 are infinite families; results here "
    "verify every member within the requested vertex bound, not the families "
    "as a whole."
)


class CensusInstance(
    namedtuple("CensusInstance", "table row description bigraph expected_k claimed_k")
):
    """One census member: the graph, its table row, and the expected arc type.

    ``expected_k`` is the exact arc-regularity type; ``claimed_k`` is the
    transitivity level the census column records, which for one sporadic row
    is a lower bound rather than the exact type.
    """

    __slots__ = ()


def _family_spec(r: int, m: int, u: int) -> BiCayleySpec:
    """Spokes {1, a, b} over H = (Z_rm x Z_rm) / <b^m = a^(m(u+1))>.

    (x, y) -> (x + (u+1-r) y mod rm, y mod m) maps Z_rm x Z_rm onto
    Z_rm x Z_m, and its kernel is exactly the relation's subgroup: the
    relation (-m(u+1), m) maps to (-rm, 0) = 0, and both have order r.  So
    H = Z_rm x Z_m with spokes (0, 0), (1, 0) and (u+1-r, 1), or H = Z_r
    with spokes 0, 1 and u+1 when m = 1.
    """
    if m == 1:
        group = make_group([r])
        exponents = (0, 1, u + 1)
    else:
        group = make_group([r * m, m])
        exponents = ((0, 0), (1, 0), (u + 1 - r, 1))
    return BiCayleySpec.create(group, (), (), tuple(map(group.element, exponents)))


# The family members that the census lists as rows of their own, by (r, m):
# K_3,3, the Pappus graph and the Heawood graph, with their arc types
_NAMED_MEMBERS = {
    (3, 1): (5, "row 5, Z_3", 3),
    (1, 3): (6, "row 6, Z_3^2", 3),
    (7, 1): (7, "row 7, Z_7", 4),
}


def table1_instances(max_vertices: int = 64) -> list[CensusInstance]:
    """All spoke-only census members on at most ``max_vertices`` vertices.

    Row 2 is BC(Z_8, {1, a^2, a^3}).  Every other row is one family: for each
    r with a root of u^2 + u + 1 = 0 (mod r), u the least, and each m >= 1,
    the spokes {1, a, b} over H = (Z_rm x Z_rm) / <b^m = a^(m(u+1))>, a group
    of order r m^2: H = Z_rm x Z_m with spokes (0, 0), (1, 0) and
    (u+1-r, 1) (``_family_spec``).  A root exists exactly when
    r = 3^s p_1 ... p_j with s <= 1 and every p_i = 1 (mod 3).  r = 1 gives the relation 1, so
    H = Z_m^2 (row 3); r = 3 gives u = 1 and the relation a^m b^m = 1 (row 4;
    the a^m = b^m variant has girth 4 and is not symmetric).  r = m = 1 is
    the trivial group, whose three spokes coincide.  (r, m) = (3, 1), (1, 3)
    and (7, 1) are rows 5, 6 and 7 (``_NAMED_MEMBERS``), and every other
    member with r > 3 is arc-regular (row 1).
    """
    out: list[CensusInstance] = []
    z8 = make_group([8])
    if 2 * z8.size <= max_vertices:
        spec = BiCayleySpec.create(z8, (), (), tuple(z8.element(e) for e in (0, 2, 3)))
        out.append(CensusInstance(1, 2, "row 2, Z_8", build(spec), 2, 2))

    for r in range(1, max_vertices // 2 + 1):
        u = next((u for u in range(r) if (u * u + u + 1) % r == 0), None)
        m = 2 if r == 1 else 1
        while u is not None and 2 * r * m * m <= max_vertices:
            if (r, m) in _NAMED_MEMBERS:
                row, desc, k = _NAMED_MEMBERS[r, m]
            elif r == 1:
                row, desc, k = 3, f"row 3, m={m}", 2
            elif r == 3:
                row, desc, k = 4, f"row 4, m={m}", 2
            else:
                row, desc, k = 1, f"row 1, r={r} m={m} u={u}", 1
            out.append(CensusInstance(1, row, desc, build(_family_spec(r, m, u)), k, k))
            m += 1

    out.sort(key=lambda inst: (inst.row, inst.bigraph.graph.n, inst.description))
    return out


_PETERSEN_2ARC = ((4, 1), (8, 3), (10, 2), (12, 5), (24, 5))
_PETERSEN_3ARC = ((5, 2), (10, 3))


def table2_instances(max_vertices: int = 64) -> list[CensusInstance]:
    """All one-matching census members on at most ``max_vertices`` vertices."""
    out: list[CensusInstance] = []

    z22 = make_group([2, 2])
    a, b = z22.element((1, 0)), z22.element((0, 1))
    spec = BiCayleySpec.create(z22, (a, b), (a, b), (z22.identity,))
    if spec.group.size * 2 <= max_vertices:
        out.append(CensusInstance(2, 1, "row 1, Z_2^2 (GP(4,1))", build(spec), 2, 2))

    # the census column records 2-arc-transitivity for this row; the graph
    # (the unique cubic symmetric graph on 40 points) is exactly 3-regular
    z210 = make_group([2, 10])
    ab3 = z210.element((1, 3))
    bgen = z210.element((0, 1))
    spec = BiCayleySpec.create(
        z210,
        (ab3, ab3.inverse()),
        (bgen, bgen.inverse()),
        (z210.identity,),
    )
    if spec.group.size * 2 <= max_vertices:
        out.append(CensusInstance(2, 2, "row 2, Z_2 x Z_10", build(spec), 3, 2))

    row = 3
    for expected_k, pairs in ((2, _PETERSEN_2ARC), (3, _PETERSEN_3ARC)):
        for n, k in pairs:
            if 2 * n <= max_vertices:
                out.append(
                    CensusInstance(
                        2,
                        row,
                        f"row {row}, GP({n},{k})",
                        generalized_petersen(n, k),
                        expected_k,
                        expected_k,
                    )
                )
        row += 1

    return out


def analysis(bigraph: BiCayleyGraph) -> dict:
    """The symmetry record of a bi-Cayley graph: connectivity, girth (None
    for a forest), cubicity, arc type and |Aut|."""
    g = bigraph.graph
    connected = is_connected(g)
    cubic = g.is_regular(3)
    aut = automorphism_group(g, known_automorphisms(bigraph))
    k, regular = _arc_type(g, aut) if connected and cubic else (None, False)
    shortest = girth(g, aut.orbit_roots())
    return {
        "vertices": g.n,
        "girth": None if shortest == inf else shortest,
        "connected": connected,
        "cubic": cubic,
        "arc_type": k,
        "arc_regular": regular,
        "aut_order": aut.order(),
        # _arc_type finds k only where |Aut| = n * 3 * 2^(k-1)
        "order_formula_ok": k is not None,
    }


def verify_instance(inst: CensusInstance) -> dict:
    """Check connectivity, cubicity, arc-regularity and the order formula."""
    record = analysis(inst.bigraph)
    k = record["arc_type"]
    # exact k-regularity implies transitivity on all shorter arcs
    claim_ok = k is not None and k >= inst.claimed_k
    ok = (
        record["connected"] and record["cubic"] and record["arc_regular"]
        and k == inst.expected_k and claim_ok
    )
    return {
        "table": inst.table,
        "row": inst.row,
        "description": inst.description,
        "spec": format_spec(inst.bigraph.spec),
        **record,
        "expected_k": inst.expected_k,
        "claimed_k": inst.claimed_k,
        "claim_ok": claim_ok,
        "ok": ok,
    }


def _power_class(t: GroupElement) -> tuple[int, GroupElement]:
    """All that the lattice key reads of t: n = ord(t) and the one involution
    t^(n/2) in <t> for even n, or (n, 1) for odd n, when <t> has none."""
    n = element_order(t)
    return n, t ** (n // 2) if n % 2 == 0 else t.group.identity


def _lattice_key(power_class: tuple[int, GroupElement], r, s, rs) -> tuple:
    """The relation lattice of (r, s, t) for involutions r, s with product rs,
    from ``power_class = _power_class(t)``: n = ord(t) and the least k with
    t^k = r, with t^k = s and with t^k = rs, each None when there is none.  An
    element of order at most 2 in <t> is t^0 or t^(n/2), so each k is 0, n/2
    or None."""
    n, half = power_class

    def position(x: GroupElement):
        return 0 if x.is_identity else n // 2 if x == half else None

    return (n, position(r), position(s), position(rs))


def _generated_order(key: tuple) -> int:
    """|<r, s, t>| = |Z^3 / L| = 4 ord(t) / |L / (2Z + 2Z + ord(t)Z)|: one
    coset of ord(t)Z for the relation 1 and one for each of r, s, rs in <t>."""
    order, *powers = key
    return 4 * order // (1 + sum(k is not None for k in powers))


def _lattice_keys(max_order: int):
    """Every lattice key (n, k_r, k_s, k_rs) with |<r, s, t>| <= ``max_order``.

    r and s are involutions, so k_r and k_s are n/2 or None, and k_rs is 0
    exactly when r = s.  Both r and s in <t> forces r = s = t^(n/2); one of
    them in <t> puts rs outside; with neither, rs is 1, t^(n/2) or outside.
    So each n = ord(t) >= 2 has six patterns, the four naming n/2 for even n
    only, and each is the key of a generating triple of ``_key_group(key)``.
    """
    for n in range(2, max_order + 1):
        keys = [(n, None, None, None), (n, None, None, 0)]
        if n % 2 == 0:
            h = n // 2
            keys += [(n, h, None, None), (n, None, h, None), (n, None, None, h), (n, h, h, 0)]
        yield from (key for key in keys if _generated_order(key) <= max_order)


def _key_group(key: tuple) -> tuple[int, ...]:
    """Invariant factors of Z^3 / L: Z_n x Z_2^j with 2^j = |<r, s, t>| / n."""
    n, j = key[0], (_generated_order(key) // key[0]).bit_length() - 1
    return (2 * n, *(2,) * (j - 1)) if n % 2 and j else (n, *(2,) * j)


# The two-vertex base graph of BC(H, {r}, {s}, {1, t}): vertex 0 carries the
# semi-edge r, vertex 1 the semi-edge s, and the spokes 1 and t run from 0 to 1.
# Per dart: tail, head, reverse dart and the step it adds to (a, b, c) in
# the voltage r^a s^b t^c.
_DARTS = (
    (0, 0, 0, (1, 0, 0)),
    (1, 1, 1, (0, 1, 0)),
    (0, 1, 4, (0, 0, 0)),
    (0, 1, 5, (0, 0, 1)),
    (1, 0, 2, (0, 0, 0)),
    (1, 0, 3, (0, 0, -1)),
)
_WALK_LENGTH = 8


@cache
def _closed_base_walks() -> tuple[dict, ...]:
    """Per walk length 1..8: (a mod 2, b mod 2, c) -> the number of closed
    non-backtracking base walks with that voltage starting at each dart."""
    # each dart's two successors, every dart from its head but its reverse, with their steps
    after = [
        [(e, step) for e, (tail, _, _, step) in enumerate(_DARTS) if tail == head and e != back]
        for _, head, back, _ in _DARTS
    ]
    closes = [[head == tail for tail, *_ in _DARTS] for _, head, *_ in _DARTS]
    table = []
    walks = {(d, d, *_DARTS[d][3]): 1 for d in range(len(_DARTS))}
    for _ in range(_WALK_LENGTH):
        buckets: dict[tuple, list[int]] = {}
        grown: dict[tuple, int] = {}
        for (first, d, a, b, c), count in walks.items():
            if closes[d][first]:
                buckets.setdefault((a, b, c), [0] * len(_DARTS))[first] += count
            for e, (da, db, dc) in after[d]:
                step = (first, e, (a + da) % 2, (b + db) % 2, c + dc)
                grown[step] = grown.get(step, 0) + count
        table.append(buckets)
        walks = grown
    return tuple(table)


def _closed_walk_counts(key: tuple):
    """Per walk length 1..8, the number of closed non-backtracking walks in
    the cover that start at a lift of each base dart.

    A base walk lifts to a closed walk exactly when its voltage r^a s^b t^c
    is 1 (Gross and Tucker, Topological Graph Theory, 1987, ch. 2), that is
    when t^c is 1, r, s or rs for (a, b) mod 2 = (0, 0), (1, 0), (0, 1) or
    (1, 1): when c = k mod n for k = 0, k_r, k_s or k_rs.  A walk of length at
    most 8 has |c| <= 8, so for n > 16 it closes only at c = 0 and the counts
    of a pattern no longer depend on n: the walks of every group order are
    read from n <= 16 and the patterns at one n beyond.
    """
    n, *powers = key
    positions = (0, *powers)
    for buckets in _closed_base_walks():
        totals = [0] * len(_DARTS)
        for (a, b, c), counts in buckets.items():
            k = positions[a + 2 * b]
            if k is not None and (c - k) % n == 0:
                totals = [x + y for x, y in zip(totals, counts)]
        yield tuple(totals)


def _passes_sieve(key: tuple) -> bool:
    """False when two darts start different numbers of closed walks of some
    length: an automorphism maps an arc's closed non-backtracking walks onto
    another's, so such a graph is not arc-transitive."""
    return all(len(set(counts)) == 1 for counts in _closed_walk_counts(key))


def theorem_a_search(max_group_order: int = 24) -> list[dict]:
    """Exhaustive search for connected arc-transitive one-matching graphs with
    single right and left connection elements.

    Covers every group generated by involutions r, s and an element t != 1,
    with the graph R = {r}, L = {s}, S = {1, t}, and groups the outcomes by
    canonical certificate.  A generating triple makes H = Z^3/L for its
    relation lattice L = {(a, b, c) in Z^3 : r^a s^b t^c = 1}, so two
    generating triples share L exactly when an automorphism a of H maps one
    onto the other, and a maps BC(H, {r}, {s}, {1, t}) onto
    BC(H, {ra}, {sa}, {1, ta}): one graph per lattice.  L contains 2Z + 2Z + ord(t)Z and is fixed by
    its relations inside that box, read by ``_lattice_key`` from the pair
    ``_power_class(t)``; the same key gives |<r, s, t>| (``_generated_order``).
    The keys are listed by pattern (``_lattice_keys``) up to n = 18, past
    which none can pass (``_closed_walk_counts``), and only those that pass
    the closed-walk sieve (``_passes_sieve``) are built.

    Each certificate's example is the first triple of a scan over the
    survivors' groups in (order, invariant factors) order.  Exchanging the
    halves maps (r, s, t) to (s, r, t^-1), and h -> h^-1 fixes the involutions
    and maps t to t^-1, so the scan keeps only r <= s, which the first triple
    of each class satisfies, and only the first t of each pair in element
    order, which opens its lattices' triples.  An arc-transitive graph passes
    the sieve under every key that gives it, so its example is the first
    triple of that scan over every group.
    """
    # past n = 16 a pattern's walk counts no longer depend on n, and every
    # pattern fails the sieve at n = 17 and 18, so no key past n = 18 passes
    keys = takewhile(lambda key: key[0] <= 2 * _WALK_LENGTH + 2, _lattice_keys(max_group_order))
    wanted = {key: _key_group(key) for key in keys if _passes_sieve(key)}
    by_cert: dict[str, tuple[BiCayleySpec, Graph]] = {}
    for orders in sorted(set(wanted.values()), key=lambda t: (prod(t), t)):
        group = make_group(orders)
        elems = group.elements()
        involutions = [x for x in elems if not x.is_identity and (x * x).is_identity]
        classes: dict[tuple, GroupElement] = {}
        for t in elems[1:]:  # the identity comes first
            classes.setdefault(_power_class(t), t)
        todo = {key for key, group_orders in wanted.items() if group_orders == orders}
        for i, r in enumerate(involutions):
            for s in involutions[i:]:
                rs = r * s
                for power_class, t in classes.items():
                    key = _lattice_key(power_class, r, s, rs)
                    if key not in todo:
                        continue
                    todo.remove(key)
                    spec = BiCayleySpec.create(group, (r,), (s,), (group.identity, t))
                    g = build(spec).graph
                    by_cert.setdefault(certificate(g), (spec, g))

    named = _known_certificates()
    results = []
    for cert, (spec, g) in by_cert.items():
        k, regular = k_arc_regularity(g)
        if not regular:
            continue
        results.append(
            {
                "certificate": cert,
                "name": named.get(cert, "unrecognized"),
                "vertices": g.n,
                "arc_type": k,
                "example": format_spec(spec),
            }
        )
    results.sort(key=lambda rec: (rec["vertices"], rec["certificate"]))
    return results


def _known_certificates() -> dict[str, str]:
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    return {
        certificate(k4): "K_4",
        certificate(generalized_petersen(4, 1).graph): "Q_3",
        certificate(generalized_petersen(8, 3).graph): "GP(8,3)",
        certificate(generalized_petersen(12, 5).graph): "GP(12,5)",
    }


def theorem_b_verify(max_vertices: int = 64, oracle_limit: int = _ORACLE_LIMIT) -> list[dict]:
    """BCI verdicts for every spoke-only census member within the bound.

    The criterion runs on each instance; on groups of order at most
    ``oracle_limit`` it runs as ``cross_check``, with the brute-force oracle,
    which raises RuntimeError when the two disagree.  A limit above the
    oracle's own would fail on the first member past it, so it is refused.
    """
    if oracle_limit > _ORACLE_LIMIT:
        raise ValueError(
            f"oracle_limit {oracle_limit} exceeds the oracle's limit of {_ORACLE_LIMIT}"
        )
    results = []
    for inst in table1_instances(max_vertices):
        checked = inst.bigraph.spec.group.size <= oracle_limit
        verdict = (cross_check if checked else bci_by_criterion)(inst.bigraph)
        results.append(
            {
                "description": inst.description,
                "spec": format_spec(inst.bigraph.spec),
                "vertices": inst.bigraph.graph.n,
                "is_bci": verdict.is_bci,
                "normalizer_transitive": verdict.normalizer_transitive,
                "semiregular_count": verdict.semiregular_count,
                "conjugacy_class_count": verdict.conjugacy_class_count,
                "oracle_checked": checked,
            }
        )
    return results


def negative_controls() -> dict:
    """Checks that separate the census from its nearby non-members.

    GP(10,3) is one-matching but must not match any spoke-only graph over the
    one abelian group of order 10 (isomorphic within an Aut(Z_10) x| Z_10 class,
    so one spoke set per class is scanned, as in ``bci_oracle``); GP(7,2) and
    GP(9,2) are cubic but not arc-transitive; GP(10,2) is the positive control.
    """
    desargues = certificate(generalized_petersen(10, 3).graph)
    match = _first_match(make_group([10]), 3, desargues, 1)  # GP(10,3) is connected
    clash = None if match is None else format_spec(match)
    not_transitive = {}
    for n, k in ((7, 2), (9, 2)):
        arc_k, regular = k_arc_regularity(generalized_petersen(n, k).graph)
        not_transitive[f"GP({n},{k})"] = {"arc_type": arc_k, "arc_regular": regular}
    pos_k, pos_regular = k_arc_regularity(generalized_petersen(10, 2).graph)
    return {
        "desargues_spoke_only_match": clash,
        "non_transitive": not_transitive,
        "positive_control": {"GP(10,2)": {"arc_type": pos_k, "arc_regular": pos_regular}},
        "ok": (
            clash is None
            and all(not rec["arc_regular"] for rec in not_transitive.values())
            and pos_k == 2
            and pos_regular
        ),
    }
