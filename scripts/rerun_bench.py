#!/usr/bin/env python3
"""Time CLI reruns into one output directory against runs into fresh ones.

    python3 scripts/rerun_bench.py [--src DIR] [--dir DIR] > result.json

Run it from a source checkout; it imports greenprov from ``--src``
(default: this checkout's ``src/``), so pointing it at another revision's
``src/`` measures that revision with the same procedure. It times two
workflows, each 20 times into one ``--output`` directory and 20 times into
a new directory each, alternating the two kinds of run:

- ``sweep``: ``greenprov sweep`` from explicit stats and rates over an
  8 x 8 grid of ``c_en`` and ``c_viol`` (64 cells);
- ``simulate-trace``: ``greenprov simulate --trace`` on the benchmark's
  simulate-trace config shape (truncated-normal demand, mu 40 and sigma 15
  on [0, 80], ``r_agreed`` 100, balance policy, 2 x 5e4 steps).

The same directory gets one untimed run first, so every timed run into it
replaces files written moments before. Each run is timed around
``cli.main`` in this process, so the times hold the work and the file
writes, not interpreter start-up; the commands' own messages go to
standard error. Every output file must equal its first version byte for
byte (reruns are deterministic). The work happens in a temporary
directory under ``--dir`` (default: the system temporary directory),
removed at the end; the file system matters, since replacing a file just
written can wait for its writeback. The result is printed as JSON.
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
RUNS = 20

# Each workflow's config, its argv after the config, and the files it writes
WORKFLOWS = {
    "sweep": (
        "stats: {mean_demand: 40.0, max_demand: 80.0, r_agreed: 100.0}\n"
        "rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0}\n",
        ["sweep", "--param=c_en=0.1:3.0:8", "--param=c_viol=0.2:5.0:8"],
        ["sweep.csv"],
    ),
    "simulate-trace": (
        "demand: {kind: truncated_normal, mu: 40.0, sigma: 15.0, lower: 0.0, upper: 80.0}\n"
        "stats: {r_agreed: 100.0}\n"
        "rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0}\n"
        "policy: {kind: balance}\n"
        "simulation: {steps: 50000, replications: 2, seed: 5, energy_full: 2.0,\n"
        "             carbon_intensity: 0.5}\n",
        ["simulate", "--trace"],
        ["report.json", "trace.csv"],
    ),
}


def run(cli, config, command, output, names):
    """Milliseconds of one run into ``output``, and the bytes of its files."""
    with contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        code = cli.main([command[0], str(config), *command[1:], "--output", str(output)])
        elapsed = (time.perf_counter() - start) * 1e3
    if code != 0:
        sys.exit(f"greenprov {command[0]} exited with {code}")
    return elapsed, tuple((output / name).read_bytes() for name in names)


def summary(times):
    return {"median_ms": statistics.median(times), "min_ms": min(times),
            "max_ms": max(times), "runs_ms": [round(t, 3) for t in times]}


def measure(cli, tmp, name):
    text, command, names = WORKFLOWS[name]
    config = tmp / f"{name}.yaml"
    config.write_text(text, encoding="utf-8")
    same_dir = tmp / f"{name}-same"
    _, first = run(cli, config, command, same_dir, names)
    same, fresh = [], []
    for i in range(RUNS):
        for times, output in ((same, same_dir), (fresh, tmp / f"{name}-fresh-{i}")):
            elapsed, written = run(cli, config, command, output, names)
            if written != first:
                sys.exit(f"{name}: {', '.join(names)} differ between reruns")
            times.append(elapsed)
    return {
        "command": f"greenprov {' '.join(command)}",
        "same_output_dir": summary(same),
        "fresh_output_dir": summary(fresh),
        "same_minus_fresh_median_ms": statistics.median(s - f for s, f in zip(same, fresh)),
        "reruns_byte_identical": True,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory to import greenprov from")
    parser.add_argument("--dir", default=None, help="parent of the temporary directory")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from greenprov import cli

    with tempfile.TemporaryDirectory(prefix="greenprov-rerun-", dir=args.dir) as tmp:
        workflows = {name: measure(cli, Path(tmp), name) for name in WORKFLOWS}
    result = {
        "runs": RUNS,
        "workflows": workflows,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    sys.stdout.write(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
