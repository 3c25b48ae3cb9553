"""The three benchmark workloads: their inputs, their calls into bicayley, and
the checks on every output.

Each workload has a ``setup(seed)`` that imports the package and makes the
inputs, and a ``run(inputs, checks)`` that makes the timed calls and checks
what they return.  Calls go through module attributes (``census.verify_instance``)
so that a traced pass sees the wrappers ``tracing.Tracer`` installs after set-up.
"""

from __future__ import annotations

import random

# Sizes are chosen so that one pass takes a few seconds on one core; see README.md.
CENSUS_MAX_VERTICES = 256
CENSUS_MEMBERS = 55  # 46 spoke-only and 9 one-matching members on <= 256 vertices
VOLTAGE_ORDERS = (3, 5, 7)

THEOREM_A_MAX_ORDER = 15
# name -> (vertices, arc type); GP(12,5) comes from a group of order 12
THEOREM_A_EXPECTED = {
    "K_4": (4, 2),
    "Q_3": (8, 2),
    "GP(8,3)": (16, 2),
    "GP(12,5)": (24, 2),
}

THEOREM_B_MAX_VERTICES = 56
THEOREM_B_ORACLE_LIMIT = 13
THEOREM_B_MEMBERS = 13
THEOREM_B_ORACLE_CHECKED = 7  # members over groups of order <= 13


class Checks:
    """Counts checks attempted and keeps a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# --- census -----------------------------------------------------------------


def setup_census(seed: int):
    from bicayley import census

    members = census.table1_instances(CENSUS_MAX_VERTICES) + census.table2_instances(
        CENSUS_MAX_VERTICES
    )
    rng = random.Random(seed)
    relabeled = []
    for inst in members:
        perm = list(range(inst.bigraph.graph.n))
        rng.shuffle(perm)
        relabeled.append(inst.bigraph.graph.relabel(perm))
    return members, relabeled


def run_census(inputs, checks: Checks) -> None:
    from bicayley import census, construction, symmetry, voltage

    members, relabeled = inputs
    checks.expect(len(members) == CENSUS_MEMBERS, f"{len(members)} census members")
    for inst, other in zip(members, relabeled):
        record = census.verify_instance(inst)
        check_census_record(checks, inst.expected_k, record)
        checks.expect(
            symmetry.certificate(other) == symmetry.certificate(inst.bigraph.graph),
            f"{inst.description}: relabeled certificate differs",
        )

    cube = symmetry.certificate(construction.generalized_petersen(4, 1).graph)
    checks.expect(symmetry.certificate(voltage.fig_base()) == cube, "voltage base is not the cube")
    gp_12_5 = symmetry.certificate(construction.generalized_petersen(12, 5).graph)
    alpha = voltage.fig_alpha()
    for order in VOLTAGE_ORDERS:
        va = voltage.fig_assignment(order)
        cover = voltage.derive(va)
        # the lift exists exactly when 3 = 0 in Z_order
        lifted = voltage.lifts(va, alpha) is not None
        checks.expect(lifted == (3 % order == 0), f"order {order}: lift={lifted}")
        if order == 3:
            checks.expect(symmetry.certificate(cover) == gp_12_5, "Z_3 cover is not GP(12,5)")


def check_census_record(checks: Checks, expected_k: int, record: dict) -> None:
    name = record["description"]
    checks.expect(record["ok"] is True, f"{name}: not ok")
    checks.expect(record["arc_type"] == expected_k, f"{name}: arc type {record['arc_type']}")


# --- theorem A --------------------------------------------------------------


def setup_theorem_a(seed: int):
    from bicayley import census  # noqa: F401  (set-up is the import)

    return THEOREM_A_MAX_ORDER


def run_theorem_a(max_order, checks: Checks) -> None:
    from bicayley import census

    check_theorem_a(checks, census.theorem_a_search(max_order))


def check_theorem_a(checks: Checks, records: list[dict]) -> None:
    found = {rec["name"]: (rec["vertices"], rec["arc_type"]) for rec in records}
    for name, shape in THEOREM_A_EXPECTED.items():
        checks.expect(found.get(name) == shape, f"{name}: found {found.get(name)}")
    checks.expect(
        len(records) == len(THEOREM_A_EXPECTED) and found.keys() == THEOREM_A_EXPECTED.keys(),
        f"found {sorted(rec['name'] for rec in records)}",
    )


# --- theorem B --------------------------------------------------------------


def setup_theorem_b(seed: int):
    from bicayley import census  # noqa: F401  (set-up is the import)

    return THEOREM_B_MAX_VERTICES, THEOREM_B_ORACLE_LIMIT


def run_theorem_b(bounds, checks: Checks) -> None:
    from bicayley import census

    max_vertices, oracle_limit = bounds
    # theorem_b_verify raises when the criterion and the oracle disagree
    check_theorem_b(checks, census.theorem_b_verify(max_vertices, oracle_limit))


def check_theorem_b(checks: Checks, records: list[dict]) -> None:
    checks.expect(len(records) == THEOREM_B_MEMBERS, f"{len(records)} members")
    for rec in records:
        checks.expect(rec["is_bci"] is True, f"{rec['description']}: not BCI")
    checked = sum(1 for rec in records if rec["oracle_checked"])
    checks.expect(checked == THEOREM_B_ORACLE_CHECKED, f"{checked} oracle-checked members")


WORKLOADS = {
    "census": (setup_census, run_census),
    "theorem-a": (setup_theorem_a, run_theorem_a),
    "theorem-b": (setup_theorem_b, run_theorem_b),
}
