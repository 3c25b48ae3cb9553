"""Bi-Cayley graphs over finite abelian groups.

Construction, automorphism groups and k-arc-regularity, voltage lifts, and
BCI decisions, with a census CLI over the cubic families.
"""

from bicayley.abelian import (
    AbelianGroup,
    GroupElement,
    make_group,
    element_order,
    subgroup_generated,
    automorphism_group_of,
)
from bicayley.graphs import Graph, girth, bipartition, is_connected, encode_graph6
from bicayley.construction import BiCayleySpec, BiCayleyGraph, build, generalized_petersen
from bicayley.symmetry import (
    PermGroup,
    automorphism_group,
    k_arc_regularity,
)
from bicayley.voltage import VoltageAssignment, derive, lifts
from bicayley.bci import BciVerdict, bci_by_criterion, bci_oracle, cross_check
from bicayley.census import (
    table1_instances,
    table2_instances,
    verify_instance,
    theorem_a_search,
    theorem_b_verify,
    negative_controls,
)

__all__ = [
    "AbelianGroup",
    "GroupElement",
    "make_group",
    "element_order",
    "subgroup_generated",
    "automorphism_group_of",
    "Graph",
    "girth",
    "bipartition",
    "is_connected",
    "encode_graph6",
    "BiCayleySpec",
    "BiCayleyGraph",
    "build",
    "generalized_petersen",
    "PermGroup",
    "automorphism_group",
    "k_arc_regularity",
    "VoltageAssignment",
    "derive",
    "lifts",
    "BciVerdict",
    "bci_by_criterion",
    "bci_oracle",
    "cross_check",
    "table1_instances",
    "table2_instances",
    "verify_instance",
    "theorem_a_search",
    "theorem_b_verify",
    "negative_controls",
]

__version__ = "0.1.0"
