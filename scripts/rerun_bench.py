#!/usr/bin/env python3
"""Time reruns of a small sweep into one output directory against fresh ones.

    python3 scripts/rerun_bench.py [--dir DIR] > BENCH_rerun.json

Run it from the root of a source checkout; it imports greenprov from
``src/``. It writes a stats-and-rates config and runs ``greenprov sweep``
over an 8 x 8 grid of ``c_en`` and ``c_viol`` (64 cells) 20 times into
one ``--output`` directory, then 20 times into a new directory each. Each
run is timed around ``cli.main`` in this process, so the times hold the
solve, formatting and file writes, not interpreter start-up; the sweep's
own messages go to standard error. Every ``sweep.csv`` must equal the
first one byte for byte (reruns are deterministic). The work happens in a
temporary directory under ``--dir`` (default: the system temporary
directory), removed at the end; the file system matters, since a rewrite
of a just-written file can wait for its writeback. The result is printed
as JSON.
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from greenprov import cli  # noqa: E402

CONFIG = """\
stats: {mean_demand: 40.0, max_demand: 80.0, r_agreed: 100.0}
rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0}
"""
PARAMS = ["--param=c_en=0.1:3.0:8", "--param=c_viol=0.2:5.0:8"]
RUNS = 20


def timed_runs(config, outputs):
    """Milliseconds of one sweep into each of ``outputs``, and its sweep.csv bytes."""
    times, written = [], set()
    for output in outputs:
        with contextlib.redirect_stdout(sys.stderr):
            start = time.perf_counter()
            code = cli.main(["sweep", str(config), *PARAMS, "--output", str(output)])
            times.append((time.perf_counter() - start) * 1e3)
        if code != 0:
            sys.exit(f"greenprov sweep exited with {code}")
        written.add((output / "sweep.csv").read_bytes())
    return times, written


def summary(times):
    return {"median_ms": statistics.median(times), "min_ms": min(times),
            "max_ms": max(times), "runs_ms": [round(t, 3) for t in times]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=None, help="parent of the temporary directory")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="greenprov-rerun-", dir=args.dir) as tmp:
        tmp = Path(tmp)
        config = tmp / "sweep.yaml"
        config.write_text(CONFIG, encoding="utf-8")
        same, same_bytes = timed_runs(config, [tmp / "same"] * RUNS)
        fresh, fresh_bytes = timed_runs(config, [tmp / f"fresh-{i}" for i in range(RUNS)])
    if len(same_bytes | fresh_bytes) != 1:
        sys.exit("sweep.csv differs between reruns")
    result = {
        "workflow": f"greenprov sweep {' '.join(PARAMS)} (64 cells)",
        "runs": RUNS,
        "same_output_dir": summary(same),
        "fresh_output_dir": summary(fresh),
        "reruns_byte_identical": True,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    sys.stdout.write(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
