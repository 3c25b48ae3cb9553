"""CLI output against stored golden files, byte for byte.

``golden/commands.json`` names each command: its arguments and exit code.
``golden/<name>.stdout`` holds its standard output.  A change that alters a
census record, a certificate or a verdict fails here.  To regenerate a file
after an intended change, run the command from the repository root:

    PYTHONPATH=src python -m bicayley.cli <argv...> > tests/golden/<name>.stdout

``golden/theorem_b_1024.json`` is the output of ``theorem-b --max-vertices
1024 --json``.  It is not in ``commands.json``, because the run takes about
half a minute; the CI workflow runs it and diffs its output against the file.
The workflow does the same with ``golden/table1_1024.json``, the output of
``table1 --max-vertices 1024 --json``: |Aut|, girth and arc type of every
Table 1 member at the search bound.

``golden/census_certificates_256.json`` pins the certificate of every census
member to 256 vertices, and of a relabeling of each, by its SHA-256: a kernel
change that reorders cells on a census member changes a digest there.
``golden/census_certificates_1024.json`` does the same for the 168 members
to the 1024-vertex search bound, where the largest cells are counted.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bicayley import census, symmetry
from bicayley.construction import known_automorphisms

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    command = COMMANDS[name]
    env = {k: v for k, v in os.environ.items() if k != "BICAYLEY_MAX_AUT"}
    env["PYTHONPATH"] = str(SRC)
    run = subprocess.run(
        [sys.executable, "-m", "bicayley.cli", *command["argv"]],
        capture_output=True,
        env=env,
        check=False,
    )
    assert run.returncode == command["exit"], run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{name}.stdout").read_bytes()


def test_census_certificates_match_golden():
    _check_census_certificates(256)


def test_census_certificates_match_golden_at_the_search_bound():
    _check_census_certificates(1024)


def _check_census_certificates(bound: int) -> None:
    golden = json.loads((GOLDEN / f"census_certificates_{bound}.json").read_text())
    rng = random.Random(golden["relabeling_seed"])
    members = census.table1_instances(bound) + census.table2_instances(bound)
    found = []
    for inst in members:
        g = inst.bigraph.graph
        symmetry._ANALYZED.pop(g, None)  # search again, seeded as verify_instance seeds it
        cert = symmetry.certificate(g, known_automorphisms(inst.bigraph))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert symmetry.certificate(g.relabel(perm)) == cert, inst.description
        digest = hashlib.sha256(cert.encode()).hexdigest()
        found.append(
            {"table": inst.table, "description": inst.description, "vertices": g.n, "sha256": digest}
        )
    assert found == golden["members"]
