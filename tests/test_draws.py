"""Property tests draw the same examples however the suite is collected.

hypothesis mixes constants from every loaded module outside the standard
library, site-packages and test directories into its draws, derandomized
or not, so a property test could draw one set of examples alone and
another in the full suite. conftest.py imports every greenprov module
first, so that set is the same in every session. This check runs each
property test with ``draws_recorder`` in fresh interpreters: once in a
session collecting the whole suite, and once in a session collecting only
its own file, and compares the hashes of what it drew.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def drawn(path):
    """What each property test collected from ``path`` draws, by node id."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "tests.draws_recorder", path],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = next(line for line in done.stdout.splitlines() if line.startswith("DRAWS "))
    return json.loads(line.removeprefix("DRAWS "))


def test_property_tests_draw_the_same_alone_and_in_the_full_suite():
    full = drawn("tests")
    assert full
    files = sorted({nodeid.partition("::")[0] for nodeid in full})
    with ThreadPoolExecutor(max_workers=2) as pool:
        alone = {k: v for draws in pool.map(drawn, files) for k, v in draws.items()}
    assert alone == full
