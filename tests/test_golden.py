"""CLI outputs replayed against a recorded golden file.

Each case runs ``mps`` in-process and must reproduce the recorded stdout
byte for byte and the recorded exit code. Search commands run with
``--jobs 1`` and ``--jobs 2``, and both must match the one recording.
Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``,
and only when an output change is intended.
"""

import contextlib
import io
import json
from pathlib import Path

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
    ["verify", "--alpha", "3", "--limit", "1000000", "--max-omega", "12"],
    ["verify", "--alpha", "3/2", "--limit", "10000", "--max-omega", "12"],
    # Both routes list only n = 30, which is not primitive.
    ["verify", "--alpha", "12/5", "--limit", "100", "--max-omega", "3"],
]

OTHERS = [
    ["classify", "523776"],
    ["classify", "1379454720", "--output", "json"],
    ["classify", "1"],
    ["decompose", "1379454720"],
    ["decompose", "210", "--output", "json"],
    ["signature", "extract", "672"],
    ["signature", "extract", "459818240", "--output", "json"],
    ["signature", "reconstruct", "--alpha", "3", "--p1", "2", "--exponents", "5,1,1"],
    ["signature", "reconstruct", "--alpha", "3", "--p1", "2", "--exponents", "5,1,1",
     "--output", "json"],
    ["signature", "reconstruct", "--alpha", "3", "--p1", "2", "--exponents", "2,1"],
    ["signature", "reconstruct", "--alpha", "3", "--p1", "2", "--exponents", "5,1,1,1",
     "--output", "json"],
    ["bounds", "--alpha", "2", "--max-r", "20", "--output", "json"],
    ["bounds", "--alpha", "2", "--max-r", "20"],
    ["bounds", "--alpha", "3/2", "--max-r", "6", "--limit", "1000000", "--output", "csv"],
    # Exit 1: a usage error, and input the library rejects.
    ["scan", "--alpha", "1", "--limit", "100", "--jobs", "1"],
    ["chain-search", "--alpha", "2", "--limit", "100", "--max-omega", "0", "--jobs", "1"],
]

CASES = [argv + ["--jobs", jobs] for argv in SEARCHES for jobs in ("1", "2")] + OTHERS


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _recorded():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_matches_golden(argv):
    assert run(argv) == _recorded()[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
