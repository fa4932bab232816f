"""CLI outputs replayed against a recorded golden file.

Each case runs ``mps`` in-process and must reproduce the recorded stdout
and stderr byte for byte and the recorded exit code. Search commands run
with ``--jobs 1`` and ``--jobs 2``, each recorded as its own case.
``COLUMNS`` is fixed at 80, because argparse wraps usage lines to the
terminal width.
Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``,
and only when an output change is intended; it prints the argv of each
case whose recorded output changed.
"""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from multiperfect.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

SEARCHES = [
    ["scan", "--alpha", "3", "--limit", "1000000", "--output", "json"],
    ["scan", "--alpha", "2", "--limit", "10000", "--output", "csv"],
    ["scan", "--alpha", "4", "--limit", "2200000", "--output", "table"],
    ["scan", "--alpha", "9/5", "--limit", "100", "--odd-only"],
    ["chain-search", "--alpha", "3", "--limit", "10000000", "--max-omega", "12"],
    ["chain-search", "--alpha", "4", "--limit", "1000000000", "--max-omega", "12",
     "--output", "table"],
    ["chain-search", "--alpha", "2", "--limit", "100000000", "--max-omega", "8",
     "--odd-only", "--output", "csv"],
    ["chain-search", "--alpha", "9/5", "--limit", "10000", "--max-omega", "6"],
    # A header-only CSV: no 5-perfect number is below 100.
    ["scan", "--alpha", "5", "--limit", "100", "--output", "csv"],
    ["verify", "--alpha", "3", "--limit", "1000000", "--max-omega", "12"],
    ["verify", "--alpha", "3/2", "--limit", "10000", "--max-omega", "12"],
    # Both routes list only n = 30, which is not primitive.
    ["verify", "--alpha", "12/5", "--limit", "100", "--max-omega", "3"],
]

OTHERS = [
    ["classify", "523776"],
    ["classify", "1379454720", "--output", "json"],
    ["classify", "1"],
    ["classify", "12"],
    ["decompose", "1379454720"],
    ["decompose", "210", "--output", "json"],
    ["decompose", "15"],
    ["signature", "extract", "672"],
    ["signature", "extract", "459818240", "--output", "json"],
    ["signature", "reconstruct", "--alpha", "3", "--p1", "2", "--exponents", "5,1,1"],
    ["signature", "reconstruct", "--alpha", "3", "--p1", "2", "--exponents", "5,1,1",
     "--output", "json"],
    ["signature", "reconstruct", "--alpha", "3", "--p1", "2", "--exponents", "2,1"],
    ["signature", "reconstruct", "--alpha", "3", "--p1", "2", "--exponents", "5,1,1,1",
     "--output", "json"],
    ["signature", "reconstruct", "--alpha", "3", "--p1", "2", "--exponents", "5,1,1,1"],
    ["bounds", "--alpha", "2", "--max-r", "20", "--output", "json"],
    ["bounds", "--alpha", "2", "--max-r", "20"],
    ["bounds", "--alpha", "3/2", "--max-r", "6", "--limit", "1000000", "--output", "csv"],
    # Row 21 has the multiperfect bound but no absolute bound or chain check.
    ["bounds", "--alpha", "2", "--max-r", "21", "--output", "csv"],
    ["bounds", "--alpha", "2", "--max-r", "21", "--limit", "1000000"],
    ["bounds", "--alpha", "3/2", "--max-r", "3"],
    # Exit 1: a usage error, and input the library rejects.
    ["scan", "--alpha", "1", "--limit", "100", "--jobs", "1"],
    ["chain-search", "--alpha", "2", "--limit", "100", "--max-omega", "0", "--jobs", "1"],
]

CASES = [argv + ["--jobs", jobs] for argv in SEARCHES for jobs in ("1", "2")] + OTHERS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _recorded():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_matches_golden(argv):
    assert run(argv) == _recorded()[tuple(argv)]


if __name__ == "__main__":
    recorded = _recorded() if GOLDEN.exists() else {}
    cases = [run(argv) for argv in CASES]
    for case in cases:
        if recorded.get(tuple(case["argv"])) != case:
            print(" ".join(case["argv"]))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
