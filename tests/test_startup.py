"""What a fresh process imports: numpy and mpmath only where they are used.

numpy serves only the sieve's block kernel and mpmath only the interval
evaluation of the bounds; a process that runs neither must not pay for
importing them, and none pays for a process pool it does not start. The
package itself loads no standard-library machinery that a normal run
leaves unused.
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


SRC = str(Path(multiperfect.__file__).parents[1])

# Each costs start-up time and serves no normal run: dataclasses pulls in
# inspect, typing is only annotations, traceback serves the exit-3 path
# and csv only --output csv.
UNUSED_AT_START = ("dataclasses", "inspect", "typing", "traceback", "csv")


def test_heavy_imports_wait_for_first_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
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


def test_import_loads_no_unused_stdlib_machinery():
    # -S skips site, whose .pth files may import any of these on their own.
    script = (
        "import sys, multiperfect, multiperfect.cli; "
        f"print(sorted(m for m in {UNUSED_AT_START!r} if m in sys.modules))"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
