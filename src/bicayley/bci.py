"""Deciding whether a spoke-only bi-Cayley graph determines its connection set.

A graph built from spokes alone has the CI-style property when every other
spoke set giving an isomorphic graph differs from it only by a group
automorphism followed by a translation.  Two independent deciders are
provided: a group-theoretic criterion on the automorphism group, and a
brute-force scan over the candidate spoke sets, one translate of each, for
small groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from bicayley.abelian import AbelianGroup, automorphism_group_of
from bicayley.construction import (
    BiCayleyGraph,
    BiCayleySpec,
    build,
    right_translations,
)
from bicayley.symmetry import (
    PermGroup,
    _conjugates,
    automorphism_group,
    certificate,
    enumerate_semiregular,
)

__all__ = ["BciVerdict", "bci_by_criterion", "bci_oracle", "cross_check", "verdict_payload"]

_ORACLE_LIMIT = 16


@dataclass(frozen=True)
class BciVerdict:
    """Outcome of a BCI decision, with the evidence the method produced."""

    group_orders: tuple[int, ...]
    spokes: tuple[tuple[int, ...], ...]
    is_bci: bool
    method: str
    normalizer_transitive: bool | None = None
    semiregular_count: int | None = None
    conjugacy_class_count: int | None = None
    counterexample: tuple[tuple[int, ...], ...] | None = None


def _require_spoke_only(b: BiCayleyGraph) -> None:
    if b.spec.right or b.spec.left:
        raise ValueError("BCI deciders apply to spoke-only (0-type) graphs")


def _spoke_exponents(b: BiCayleyGraph) -> tuple[tuple[int, ...], ...]:
    return tuple(s.exponents for s in b.spec.spokes)


def bci_by_criterion(b: BiCayleyGraph) -> BciVerdict:
    """BCI holds iff the translation normalizer is transitive and all semiregular
    subgroups isomorphic to the base group with the two parts as orbits form a
    single conjugacy class."""
    _require_spoke_only(b)
    group = b.spec.group
    aut = automorphism_group(b.graph)
    members = enumerate_semiregular(aut, b.parts, group.orders)
    trans = right_translations(b)
    reached, schreier = _conjugates(aut, trans)
    keys = [frozenset(sub.elements()) for sub in members]
    if frozenset(trans.elements()) not in keys:
        raise RuntimeError("internal error: translation group missing from its own class")
    transitive = PermGroup(b.graph.n, schreier).is_transitive_on(range(b.graph.n))

    classes = 1  # the translation group's; its orbit also gave the normalizer
    for sub, key in zip(members, keys):
        if key not in reached:
            classes += 1
            reached.update(_conjugates(aut, sub)[0])

    verdict = transitive and classes == 1
    return BciVerdict(
        group_orders=group.orders,
        spokes=_spoke_exponents(b),
        is_bci=verdict,
        method="criterion",
        normalizer_transitive=transitive,
        semiregular_count=len(members),
        conjugacy_class_count=classes,
    )


def _identity_spoke_sets(group: AbelianGroup, k: int):
    """The k-subsets of the group that contain the identity, in scan order.

    BC(H, T) is isomorphic to BC(H, hT) for every h, so these meet every
    translation class of k-subsets: a scan for a graph isomorphic to a given
    one finds a match among them iff it finds one among all k-subsets.  The
    identity comes first in ``group.elements()``, so the subsets containing it
    open the full lexicographic scan, and the first match is the same.
    """
    if k == 0:
        return  # no 0-subset contains the identity
    identity, *others = group.elements()
    for rest in combinations(others, k - 1):
        yield (identity, *rest)


def bci_oracle(b: BiCayleyGraph) -> BciVerdict:
    """Scan the spoke sets of the same size; each one giving an isomorphic
    graph must be a translate of an automorphic image of the original.

    The admissible family {hS^sigma} is closed under translation, so T is a
    counterexample iff its translate T t^-1 (t in T) is one, and only the sets
    containing the identity are scanned (``_identity_spoke_sets``); the first
    counterexample is the one the full scan reports.  An empty S is its own
    only candidate, and admissible.
    """
    _require_spoke_only(b)
    group = b.spec.group
    if group.size > _ORACLE_LIMIT:
        raise ValueError(
            f"oracle is limited to groups of order <= {_ORACLE_LIMIT}, got {group.size}"
        )
    spokes = set(b.spec.spokes)
    target = certificate(b.graph)
    autos = automorphism_group_of(group)
    # precompute the admissible images h * S^sigma as frozensets
    admissible = set()
    for sigma in autos:
        image = [sigma(s) for s in spokes]
        for h in group.elements():
            admissible.add(frozenset(h * x for x in image))

    counterexample = None
    for raw in _identity_spoke_sets(group, len(spokes)):
        candidate = frozenset(raw)
        if candidate in admissible:
            continue
        spec = BiCayleySpec.create(group, (), (), tuple(raw))
        if certificate(build(spec).graph) == target:
            counterexample = tuple(sorted(x.exponents for x in candidate))
            break

    return BciVerdict(
        group_orders=group.orders,
        spokes=_spoke_exponents(b),
        is_bci=counterexample is None,
        method="oracle",
        counterexample=counterexample,
    )


def cross_check(b: BiCayleyGraph) -> BciVerdict:
    """Run the criterion, confirm with the oracle when the group is small enough."""
    verdict = bci_by_criterion(b)
    if b.spec.group.size <= _ORACLE_LIMIT:
        other = bci_oracle(b)
        if other.is_bci != verdict.is_bci:
            raise RuntimeError(
                f"BCI deciders disagree on {b.spec}: "
                f"criterion={verdict.is_bci} oracle={other.is_bci}"
            )
    return verdict


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
