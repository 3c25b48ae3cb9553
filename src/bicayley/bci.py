"""Deciding whether a spoke-only bi-Cayley graph determines its connection set.

A graph built from spokes alone has the CI-style property when every other
spoke set giving an isomorphic graph differs from it only by a group
automorphism followed by a translation.  Two independent deciders are
provided: a group-theoretic criterion on the automorphism group, and a
brute-force scan over the candidate spoke sets, one per class under group
automorphisms and translations, for small groups.  The scan builds and
certifies a candidate's graph only when two exact necessary conditions for
isomorphism hold: its number of connected components and its closed-walk
counts at a vertex equal the target's.  Both are read off H's index tables,
so a candidate that fails them is never built.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from bicayley.abelian import (
    _MAX_AUT_ORDER,
    AbelianGroup,
    _index_table,
    automorphism_group_of,
    subgroup_generated,
)
from bicayley.construction import (
    BiCayleyGraph,
    BiCayleySpec,
    build,
    known_automorphisms,
    right_translation,
    right_translations,
)
from bicayley.search import _orbit
from bicayley.symmetry import (
    _conjugates,
    automorphism_group,
    certificate,
    enumerate_semiregular,
)

__all__ = ["BciVerdict", "bci_by_criterion", "bci_oracle", "cross_check", "verdict_payload"]

_ORACLE_LIMIT = _MAX_AUT_ORDER  # the oracle lists Aut(H)
_WALK_ROUNDS = 5  # closed walks of lengths 2, 4, ..., 10; chosen by measurement


class BciVerdict(
    namedtuple(
        "BciVerdict",
        "group_orders spokes is_bci method normalizer_transitive semiregular_count "
        "conjugacy_class_count counterexample",
        defaults=(None, None, None, None),
    )
):
    """Outcome of a BCI decision, with the evidence the method produced.

    ``group_orders`` and ``spokes`` name the graph, ``spokes`` as exponent
    tuples; ``method`` is "criterion", "oracle" or "cross".  The criterion
    fills ``normalizer_transitive``, ``semiregular_count`` and
    ``conjugacy_class_count``; the oracle fills ``counterexample`` when the
    graph is not BCI.  A field a method does not fill is None.
    """

    __slots__ = ()


def _require_spoke_only(b: BiCayleyGraph) -> None:
    if b.spec.right or b.spec.left:
        raise ValueError("BCI deciders apply to spoke-only (0-type) graphs")


def _spoke_exponents(spec: BiCayleySpec) -> tuple[tuple[int, ...], ...]:
    return tuple(s.exponents for s in spec.spokes)


def bci_by_criterion(b: BiCayleyGraph) -> BciVerdict:
    """BCI holds iff the translation normalizer is transitive and all semiregular
    subgroups isomorphic to the base group with the two parts as orbits form a
    single conjugacy class."""
    _require_spoke_only(b)
    group = b.spec.group
    aut = automorphism_group(b.graph, known_automorphisms(b))
    trans = right_translations(b)
    members = enumerate_semiregular(aut, trans, group.orders)
    # H_R is generated by the translations by H's standard generators
    gens = [right_translation(b, g) for g in group.generators()]
    reached, schreier = _conjugates(aut, trans, gens)
    if frozenset(trans) not in members:
        raise RuntimeError("internal error: translation group missing from its own class")
    transitive = len(_orbit((0,), schreier)) == b.graph.n

    classes = 1  # the translation group's; its orbit also gave the normalizer
    for sub in members:
        if sub not in reached:
            classes += 1
            reached.update(_conjugates(aut, sub)[0])

    verdict = transitive and classes == 1
    return BciVerdict(
        group_orders=group.orders,
        spokes=_spoke_exponents(b.spec),
        is_bci=verdict,
        method="criterion",
        normalizer_transitive=transitive,
        semiregular_count=len(members),
        conjugacy_class_count=classes,
    )


def _identity_translates(spokes, autos, sums, neg) -> set[frozenset[int]]:
    """The identity-containing members of the class {h T^sigma} of ``spokes``,
    all as element indices: t^-1 T^sigma, for t in T^sigma, is T^sigma read
    through row t^-1 of the sum table."""
    members = set()
    for table in autos:
        image = [table[s] for s in spokes]
        for t in image:
            members.add(frozenset(map(sums[neg[t]].__getitem__, image)))
    return members


def _closed_walks(graph) -> tuple[int, ...]:
    """The numbers of closed walks of lengths 2, 4, ..., 2 * _WALK_ROUNDS at
    vertex 0 of ``graph``: the diagonal entries of powers of its adjacency
    matrix, counted one step at a time."""
    adjacency = graph.adjacency
    counts, out = {0: 1}, []
    for step in range(2 * _WALK_ROUNDS):
        grown: dict[int, int] = {}
        for v, c in counts.items():
            for w in adjacency[v]:
                grown[w] = grown.get(w, 0) + c
        counts = grown
        if step % 2:
            out.append(counts.get(0, 0))
    return tuple(out)


def _spoke_walks(raw, sums, neg):
    """Yield the numbers of closed walks of lengths 2, 4, ..., 2 * _WALK_ROUNDS
    at 0_0 of BC(H, T), T the element indices ``raw``, without the graph.

    A walk x_0 -> (x + t)_1 -> (x + t - s)_0 crosses a spoke t and back along
    a spoke s, so a closed walk of length 2j at 0_0 is t_1, s_1, ..., t_j, s_j
    in T with sum(t_i - s_i) = 0: the j-th count is the weight at 0 of the
    j-fold convolution of the differences t - s.  Counts come shortest first,
    so a comparison can stop at the first that differs."""
    steps: dict[int, int] = {}
    for t in raw:
        row = sums[t]
        for s in raw:
            d = row[neg[s]]
            steps[d] = steps.get(d, 0) + 1
    counts = {0: 1}
    for _ in range(_WALK_ROUNDS):
        grown: dict[int, int] = {}
        for x, c in counts.items():
            row = sums[x]
            for d, m in steps.items():
                y = row[d]
                grown[y] = grown.get(y, 0) + c * m
        counts = grown
        yield counts.get(0, 0)


def _first_match(
    group: AbelianGroup, k: int, target: str, components: int, walks, skip=()
) -> BiCayleySpec | None:
    """The first spoke-only spec with k spokes whose graph has certificate
    ``target``, scanning the first identity-containing k-subset of each
    Aut(H) x| H class in scan order and passing over the class of ``skip``.
    ``components`` is the target's number of connected components and
    ``walks`` its ``_closed_walks`` at vertex 0.

    BC(H, T) is isomorphic to BC(H, h T^sigma), so the graphs of a class are
    all isomorphic to a given graph or none is.  Every class meets the sets
    containing the identity, which open the lexicographic scan of all
    k-subsets (the identity comes first in ``group.elements()``): a scan for a
    graph finds the same first match among these representatives.

    Two exact filters pass over a set T before its graph is built, so neither
    changes the first match.  For T containing the identity, BC(H, T) has
    |H| / |<T>| components, and isomorphic graphs have as many.  And BC(H, T)
    over abelian H is vertex-transitive: H_R is regular on each part, and
    x_0 -> (-x)_1, x_1 -> (-x)_0 swaps the parts, sending the edge
    {x_0, (x + s)_1} to {(-x)_1, (-x - s)_0}, an edge as (-x) - (-x - s) = s
    is in T.  So every vertex has the closed-walk counts of 0_0
    (``_spoke_walks``), and an isomorphism from the target takes its vertex 0
    to a vertex with the target's counts: a T whose counts differ is not
    certified.  The scan runs on element indices; only a certified set
    becomes group elements."""
    if k == 0:
        return None  # no 0-subset contains the identity
    elems, sums, neg = _index_table(group)
    autos = automorphism_group_of(group)
    marked = _identity_translates([elems.index(s) for s in skip], autos, sums, neg)
    for rest in combinations(range(1, group.size), k - 1):
        raw = (0, *rest)
        if frozenset(raw) in marked:
            continue
        marked |= _identity_translates(raw, autos, sums, neg)
        # <T> is the orbit of the identity under translation by T
        if group.size // len(_orbit((0,), [sums[i] for i in raw])) != components:
            continue
        if any(a != b for a, b in zip(_spoke_walks(raw, sums, neg), walks)):
            continue
        b = build(BiCayleySpec.create(group, (), (), map(elems.__getitem__, raw)))
        if certificate(b.graph, known_automorphisms(b)) == target:
            return b.spec
    return None


def bci_oracle(b: BiCayleyGraph) -> BciVerdict:
    """Scan the spoke sets of the same size; each one giving an isomorphic
    graph must be a translate of an automorphic image of the original.

    The admissible family {hS^sigma} is one Aut(H) x| H class, and the graphs
    of a class are isomorphic, so T is a counterexample iff every set in its
    class is one.  One set per class is considered, the first
    identity-containing one in scan order, skipping S's class
    (``_first_match``), and it is certified only when its component count
    and closed-walk counts equal the graph's, which isomorphic graphs share:
    the first counterexample is the one the full scan reports.  An empty S is
    its own only candidate, and admissible.
    """
    _require_spoke_only(b)
    group = b.spec.group
    if group.size > _ORACLE_LIMIT:
        raise ValueError(
            f"oracle is limited to groups of order <= {_ORACLE_LIMIT}, got {group.size}"
        )
    spokes = b.spec.spokes
    shift = spokes[0].inverse() if spokes else group.identity
    components = group.size // len(subgroup_generated(group, [s * shift for s in spokes]))
    target = certificate(b.graph, known_automorphisms(b))
    walks = _closed_walks(b.graph)
    match = _first_match(group, len(spokes), target, components, walks, spokes)
    counterexample = None if match is None else _spoke_exponents(match)
    return BciVerdict(
        group_orders=group.orders,
        spokes=_spoke_exponents(b.spec),
        is_bci=counterexample is None,
        method="oracle",
        counterexample=counterexample,
    )


def cross_check(b: BiCayleyGraph) -> BciVerdict:
    """Run the oracle and the criterion, which must agree; the verdict carries
    the criterion's evidence and the oracle's counterexample.  Past the
    oracle's group-order limit the oracle's ValueError propagates."""
    other = bci_oracle(b)
    verdict = bci_by_criterion(b)
    if other.is_bci != verdict.is_bci:
        raise RuntimeError(
            f"BCI deciders disagree on {b.spec}: "
            f"criterion={verdict.is_bci} oracle={other.is_bci}"
        )
    return verdict._replace(method="cross", counterexample=other.counterexample)


def verdict_payload(v: BciVerdict) -> dict:
    return {
        "group": list(v.group_orders),
        "spokes": [list(s) for s in v.spokes],
        "is_bci": v.is_bci,
        "method": v.method,
        "normalizer_transitive": v.normalizer_transitive,
        "semiregular_count": v.semiregular_count,
        "conjugacy_class_count": v.conjugacy_class_count,
        "counterexample": None
        if v.counterexample is None
        else [list(t) for t in v.counterexample],
    }
