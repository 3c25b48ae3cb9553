"""Census of cubic symmetric abelian bi-Cayley graphs within a vertex bound.

The spoke-only (0-type) census has seven rows; two are infinite families over
parameterized groups and one covers the square groups, so a vertex bound
selects finitely many instances.  The one-matching (2-type) census consists of
seven generalized Petersen graphs plus one sporadic group.  The classification
of the 1-type graphs is re-derived here by exhaustive search, and each census
row carries its expected arc-regularity for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from bicayley.abelian import (
    AbelianGroup,
    GroupElement,
    element_order,
    make_group,
    quotient_group,
)
from bicayley.bci import _ORACLE_LIMIT, _first_match, bci_by_criterion, cross_check
from bicayley.construction import (
    BiCayleyGraph,
    BiCayleySpec,
    build,
    format_spec,
    generalized_petersen,
)
from bicayley.graphs import Graph, girth, is_connected
from bicayley.symmetry import _arc_type, automorphism_group, certificate, k_arc_regularity

__all__ = [
    "CensusInstance",
    "table1_instances",
    "table2_instances",
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


@dataclass(frozen=True)
class CensusInstance:
    """One census member: the graph, its table row, and the expected arc type.

    ``expected_k`` is the exact arc-regularity type; ``claimed_k`` is the
    transitivity level the census column records, which for one sporadic row
    is a lower bound rather than the exact type.
    """

    table: int
    row: int
    description: str
    bigraph: BiCayleyGraph
    expected_k: int
    claimed_k: int


def _prime_factors(n: int) -> dict[int, int]:
    """Prime -> exponent, by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _row1_radical_ok(r: int) -> bool:
    """r = 3^s * product of primes = 1 (mod 3), s <= 1, r > 3."""
    if r <= 3:
        return False
    for p, e in _prime_factors(r).items():
        if p == 3:
            if e > 1:
                return False
        elif p % 3 != 1:
            return False
    return True


def _row1_unit(r: int) -> int:
    """Smallest u with u^2 + u + 1 = 0 (mod r)."""
    for u in range(r):
        if (u * u + u + 1) % r == 0:
            return u
    raise ValueError(f"no unit with u^2+u+1 = 0 mod {r}")


def _quotient_presented(
    order: int, relation: tuple[int, int]
) -> tuple[AbelianGroup, GroupElement, GroupElement]:
    """(Z_order x Z_order) / <relation>, with the images of the two generators."""
    square = make_group([order, order])
    quotient, qmap = quotient_group(square, [square.element(relation)])
    a = qmap.image(square.element((1, 0)))
    b = qmap.image(square.element((0, 1)))
    return quotient, a, b


def _spoke_instance(
    row: int, desc: str, group: AbelianGroup, spokes, expected_k: int
) -> CensusInstance:
    spec = BiCayleySpec.create(group, (), (), tuple(spokes))
    return CensusInstance(1, row, desc, build(spec), expected_k, expected_k)


# (row, description, factor orders, spoke exponents, arc type): Z_8 with
# S = {1, a^2, a^3}, then K_3,3, the Pappus graph and the Heawood graph
_SPORADIC_ROWS = (
    (2, "row 2, Z_8", (8,), (0, 2, 3), 2),
    (5, "row 5, Z_3", (3,), (0, 1, 2), 3),
    (6, "row 6, Z_3^2", (3, 3), ((0, 0), (1, 0), (0, 1)), 3),
    (7, "row 7, Z_7", (7,), (0, 1, 3), 4),
)


def table1_instances(max_vertices: int = 64) -> list[CensusInstance]:
    """All spoke-only census members on at most ``max_vertices`` vertices."""
    out: list[CensusInstance] = []

    # row 1: (Z_rm x Z_rm) / <b^m = a^(m(u+1))>, arc-regular
    for m in range(1, max_vertices):
        if 2 * 4 * m * m > max_vertices:
            break
        for r in range(4, max_vertices):
            if 2 * r * m * m > max_vertices:
                break
            if not _row1_radical_ok(r):
                continue
            if m == 1 and r < 11:
                continue
            u = _row1_unit(r)
            rm = r * m
            group, a, b = _quotient_presented(rm, ((-m * (u + 1)) % rm, m % rm))
            desc = f"row 1, r={r} m={m} u={u}"
            out.append(_spoke_instance(1, desc, group, (group.identity, a, b), expected_k=1))

    # row 3: Z_m^2 with S = {1, a, b}, m > 1 and m != 3
    m = 2
    while 2 * m * m <= max_vertices:
        if m != 3:
            sq = make_group([m, m])
            spokes = (sq.identity, sq.element((1, 0)), sq.element((0, 1)))
            out.append(_spoke_instance(3, f"row 3, m={m}", sq, spokes, expected_k=2))
        m += 1

    # row 4: (Z_3m x Z_3m) / <a^m b^m = 1>, m > 1.  The relation follows from
    # the same orbit argument as row 1 with r = 3, where u = 1 mod 3 forces
    # b^m = a^2m; the a^m = b^m variant has girth 4 and is not symmetric.
    m = 2
    while 2 * 3 * m * m <= max_vertices:
        group, a, b = _quotient_presented(3 * m, (m, m))
        out.append(_spoke_instance(4, f"row 4, m={m}", group, (group.identity, a, b), expected_k=2))
        m += 1

    for row, desc, orders, exponents, expected_k in _SPORADIC_ROWS:
        group = make_group(orders)
        if 2 * group.size <= max_vertices:
            spokes = [group.element(e) for e in exponents]
            out.append(_spoke_instance(row, desc, group, spokes, expected_k))

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


def verify_instance(inst: CensusInstance) -> dict:
    """Check connectivity, cubicity, arc-regularity and the order formula."""
    g = inst.bigraph.graph
    connected = is_connected(g)
    cubic = g.is_regular(3)
    aut = automorphism_group(g)
    k, regular = _arc_type(g, aut) if connected and cubic else (None, False)
    # exact k-regularity implies transitivity on all shorter arcs
    claim_ok = k is not None and k >= inst.claimed_k
    ok = connected and cubic and regular and k == inst.expected_k and claim_ok
    return {
        "table": inst.table,
        "row": inst.row,
        "description": inst.description,
        "spec": format_spec(inst.bigraph.spec),
        "vertices": g.n,
        "girth": girth(g, aut.orbit_roots()),
        "connected": connected,
        "cubic": cubic,
        "arc_type": k,
        "arc_regular": regular,
        "aut_order": aut.order(),
        # _arc_type finds k only where |Aut| = n * 3 * 2^(k-1)
        "order_formula_ok": k is not None,
        "expected_k": inst.expected_k,
        "claimed_k": inst.claimed_k,
        "claim_ok": claim_ok,
        "ok": ok,
    }


def _generated_groups(max_order: int) -> list[AbelianGroup]:
    """Every group <r, s, t> of order at most ``max_order`` for involutions r
    and s, in (order, invariant factors) order.

    H/<t> is generated by two elements of order at most 2, so it is elementary
    abelian of rank at most 2.  That holds for some t exactly when H is Z_m,
    Z_m x Z_2 or Z_m x Z_2 x Z_2 with m even.
    """
    types = [(m, *(2,) * k) for k in range(3) for m in range(2, max_order // 2**k + 1, 2)]
    return [make_group(t) for t in sorted(types, key=lambda t: (prod(t), t))]


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


def theorem_a_search(max_group_order: int = 24) -> list[dict]:
    """Exhaustive search for connected arc-transitive one-matching graphs with
    single right and left connection elements.

    Scans every group that a triple can generate (``_generated_groups``),
    every pair of involutions (r, s) and every t != 1 with <r, s, t> the whole
    group, builds the graph with R = {r}, L = {s}, S = {1, t}, and groups the
    outcomes by canonical certificate.  Exchanging the halves maps (r, s, t) to
    (s, r, t^-1), and the automorphism h -> h^-1 fixes the involutions and
    maps t to t^-1, so (r, s, t) and (s, r, t) give isomorphic graphs: the
    scan keeps only r <= s, which the first triple of each class satisfies.

    Only the first triple of each relation lattice L = {(a, b, c) in Z^3 :
    r^a s^b t^c = 1} is certified.  A generating triple makes H = Z^3/L, so two
    generating triples share L exactly when an automorphism a of H maps one
    onto the other, and a maps BC(H, {r}, {s}, {1, t}) onto
    BC(H, {ra}, {sa}, {1, ta}): a later triple of a seen lattice repeats a
    certificate already held.  L contains 2Z + 2Z + ord(t)Z and is fixed by its
    relations inside that box, read by ``_lattice_key`` from the pair
    ``_power_class(t)``; the same key gives |<r, s, t>| (``_generated_order``).
    So the scan takes only the first t of each pair in element order, which
    opens its lattices' triples: every certificate keeps the example the full
    scan would store first.  t^-1 shares t's pair, so that t is at most its
    inverse.
    """
    by_cert: dict[str, tuple[BiCayleySpec, Graph]] = {}
    for group in _generated_groups(max_group_order):
        elems = group.elements()
        involutions = [x for x in elems if not x.is_identity and (x * x).is_identity]
        classes: dict[tuple, GroupElement] = {}
        for t in elems[1:]:  # the identity comes first
            classes.setdefault(_power_class(t), t)
        seen: set[tuple] = set()
        for i, r in enumerate(involutions):
            for s in involutions[i:]:
                rs = r * s
                for power_class, t in classes.items():
                    key = _lattice_key(power_class, r, s, rs)
                    if key in seen or _generated_order(key) != group.size:
                        continue
                    seen.add(key)
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
    match = _first_match(make_group([10]), 3, desargues)
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
