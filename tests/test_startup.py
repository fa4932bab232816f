"""What a fresh process imports: numpy and mpmath only where they are used.

numpy serves only the sieve's block kernel and mpmath only the interval
evaluation of the bounds; a process that runs neither must not pay for
importing them, and none pays for a process pool it does not start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import multiperfect

SCRIPT = """
import contextlib, io, json, sys
import multiperfect, multiperfect.cli

def loaded():
    return [m for m in ("numpy", "mpmath", "concurrent.futures") if m in sys.modules]

steps = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    multiperfect.cli.main(["chain-search", "--alpha", "2", "--limit", "10000",
                           "--max-omega", "4", "--jobs", "1"])
steps["chain-search"] = loaded()
multiperfect.brute_scan(2, 1000)
steps["brute_scan"] = loaded()
multiperfect.bound_report(2, 3)
steps["bound_report"] = loaded()
print(json.dumps(steps))
"""


def test_heavy_imports_wait_for_first_use():
    src = str(Path(multiperfect.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [],
        "chain-search": [],
        "brute_scan": ["numpy"],
        "bound_report": ["numpy", "mpmath"],
    }
