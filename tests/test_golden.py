"""CLI output against stored golden files, byte for byte.

``golden/commands.json`` names each command: its arguments and exit code.
``golden/<name>.stdout`` holds its standard output.  A change that alters a
census record, a certificate or a verdict fails here.  To regenerate a file
after an intended change, run the command from the repository root:

    PYTHONPATH=src python -m bicayley.cli <argv...> > tests/golden/<name>.stdout

``golden/theorem_b_1024.json`` is the output of ``theorem-b --max-vertices
1024 --json``.  It is not in ``commands.json``, because the run takes about
half a minute; the CI workflow runs it and diffs its output against the file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
