"""Deciding whether a spoke-only bi-Cayley graph determines its connection set.

A graph built from spokes alone has the CI-style property when every other
spoke set giving an isomorphic graph differs from it only by a group
automorphism followed by a translation.  Two independent deciders are
provided: a group-theoretic criterion on the automorphism group, and a
brute-force scan over the candidate spoke sets, one per class under group
automorphisms and translations, for small groups.
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
    reached, schreier = _conjugates(aut, trans)
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


def _first_match(
    group: AbelianGroup, k: int, target: str, components: int, skip=()
) -> BiCayleySpec | None:
    """The first spoke-only spec with k spokes whose graph has certificate
    ``target`` and ``components`` connected components, scanning the first
    identity-containing k-subset of each Aut(H) x| H class in scan order and
    passing over the class of ``skip``.

    BC(H, T) is isomorphic to BC(H, h T^sigma), so the graphs of a class are
    all isomorphic to a given graph or none is.  Every class meets the sets
    containing the identity, which open the lexicographic scan of all
    k-subsets (the identity comes first in ``group.elements()``): a scan for a
    graph finds the same first match among these representatives.  For T
    containing the identity, BC(H, T) has |H| / |<T>| components; isomorphic
    graphs have as many, so a set with another count is not certified.  The
    scan runs on element indices; only a representative becomes group
    elements."""
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
        b = build(BiCayleySpec.create(group, (), (), map(elems.__getitem__, raw)))
        if certificate(b.graph, known_automorphisms(b)) == target:
            return b.spec
    return None


def bci_oracle(b: BiCayleyGraph) -> BciVerdict:
    """Scan the spoke sets of the same size; each one giving an isomorphic
    graph must be a translate of an automorphic image of the original.

    The admissible family {hS^sigma} is one Aut(H) x| H class, and the graphs
    of a class are isomorphic, so T is a counterexample iff every set in its
    class is one.  One set per class is certified, the first identity-containing
    one in scan order, skipping S's class (``_first_match``): the first
    counterexample is the one the full scan reports.  An empty S is its own
    only candidate, and admissible.
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
    match = _first_match(group, len(spokes), target, components, spokes)
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
