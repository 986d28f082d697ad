#!/usr/bin/env python3
"""Compare two revisions on the benchmark in alternating pairs of runs.

    python3 scripts/paired_bench.py PARENT CHANGE --topic T [--workloads W ...]
        [--pairs 10] [--seconds 8] [--seeds S ...] [--held-out S] [--smoke]
        [--out PATH]

Run it from a git checkout holding both revisions. Each revision is
exported with ``git archive`` into a temporary directory, removed at the
end, and its bytecode is compiled first, so no run recompiles a module.
Each pair runs ``perfbench/run.py --workload W --seed S --seconds N
--trace 0`` once in each export, unchanged, with the parent first in even
pairs and the change first in odd ones; the held-out seed adds one more
pair per workload, kept out of the statistics.

The result, ``BENCH_<topic>.json`` in the checkout unless ``--out`` says
otherwise, has one fixed shape:

``provenance``
    Both revisions as given and as commits, the command, the machine and
    the Python, numpy and PyYAML versions.
``settings``
    Workloads, pairs, seconds, seeds, held-out seed and smoke flag.
``workloads``
    Per workload: per end-to-end metric of ``BENCHMARK.json``, the parent's
    and the change's quartiles, the change's wins over the pairs (ties
    count for neither), the relative change of the median, the parent's
    relative interquartile range, the held-out pair, whether a gain could
    be claimed (at least nine wins in ten and a median difference larger
    than the parent's interquartile range) and the verdict against the
    metric's bound; the failed checks of each side; whether both sides
    wrote the same output bytes at every seed; and every run's result line
    and detail record.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def export(revision, dest):
    """Write ``revision``'s tree into ``dest`` and compile its bytecode."""
    archive = _git("archive", "--format=tar", revision)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=dest, env=env, check=True, stdout=subprocess.DEVNULL)


def bench(tree, workload, seed, seconds, smoke):
    """One ``perfbench/run.py`` run in ``tree``: its result line and detail record."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0", *(["--smoke"] if smoke else [])]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} in {tree} exited with {done.returncode}:\n{done.stderr}")
    *detail, result = done.stdout.strip().splitlines()
    return {"result": json.loads(result), "detail": json.loads("\n".join(detail))}


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(metric, pairs, held_out):
    """The fixed statistics of one metric over ``pairs`` of (parent, change) values."""
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(better(c, p) for p, c in pairs)
    iqr = pq[2] - pq[0]
    worse_rel = ((cq[1] - pq[1]) if lower else (pq[1] - cq[1])) / pq[1]
    every_run_better = all(better(c, p) for c in change for p in parent)
    if worse_rel > metric["bound"]:
        verdict = "worse_than_bound"
    elif iqr / pq[1] > metric["bound"] and not every_run_better:
        # the parent's own spread is wider than the bound
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    entry = {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "pairs": len(pairs),
        "parent_q1_median_q3": pq,
        "change_q1_median_q3": cq,
        "change_wins": wins,
        "median_change_rel": (cq[1] - pq[1]) / pq[1],
        "parent_iqr_rel": iqr / pq[1],
        "gain": wins >= 0.9 * len(pairs) and better(cq[1], pq[1]) and abs(cq[1] - pq[1]) > iqr,
        "bound_verdict": verdict,
        "held_out": None,
    }
    if held_out is not None:
        p, c = held_out
        entry["held_out"] = {"parent": p, "change": c, "change_better": better(c, p)}
    return entry


def value(run, name):
    return run["result"]["metrics"][name]["value"]


def summarize(metrics, runs, held_out_seed):
    """Per metric statistics, failed checks and output identity of one workload."""
    paired = [r for r in runs if r["seed"] != held_out_seed]
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [by_seed[s] for s in dict.fromkeys(r["seed"] for r in paired)]
    held = by_seed.get(held_out_seed)
    out = {"metrics": {}}
    for metric in metrics:
        name = metric["name"]
        out["metrics"][name] = compare(
            metric,
            [(value(p["parent"], name), value(p["change"], name)) for p in pairs],
            None if held is None else (value(held["parent"], name), value(held["change"], name)),
        )
    out["failed_checks"] = {side: sum(r["result"]["failed"] for r in runs if r["side"] == side)
                            for side in SIDES}
    out["outputs_identical"] = all(
        sides["parent"]["detail"]["output_sha256"] == sides["change"]["detail"]["output_sha256"]
        for sides in by_seed.values()
    )
    out["runs"] = runs
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("change", help="the changed revision")
    parser.add_argument("--topic", required=True, help="names the output BENCH_<topic>.json")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="workloads to run (default: every one in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="--seconds of each run (default 8)")
    parser.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="one seed per pair (default: 101, 102, ...)")
    parser.add_argument("--held-out", type=int, default=None,
                        help="seed of one more pair, kept out of the statistics")
    parser.add_argument("--smoke", action="store_true", help="run the benchmark at tiny sizes")
    parser.add_argument("--out", default=None, help="output path (default: BENCH_<topic>.json)")
    args = parser.parse_args(argv)

    seeds = args.seeds or list(range(101, 101 + args.pairs))
    if len(seeds) != args.pairs or len(set(seeds)) != len(seeds):
        parser.error(f"--seeds needs {args.pairs} distinct seeds")
    if args.held_out in seeds:
        parser.error("--held-out must differ from every paired seed")
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in zip(SIDES, (args.parent, args.change))}

    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
        plan = list(enumerate(seeds))
        if args.held_out is not None:
            plan.append((len(seeds), args.held_out))
        results = {}
        for workload in workloads:
            runs = []
            for i, seed in plan:
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    start = time.time()
                    run = bench(trees[side], workload, seed, args.seconds, args.smoke)
                    runs.append({"pair": i, "seed": seed, "side": side, "position": position,
                                 "started": start, **run})
                    print(f"{workload} seed {seed} {side}: work_per_s "
                          f"{value(run, 'work_per_s'):.4g}", file=sys.stderr)
            results[workload] = summarize(benchmark["end_to_end"], runs, args.held_out)
    machine = next(iter(results.values()))["runs"][0]["detail"]["provenance"]

    record = {
        "topic": args.topic,
        "provenance": {
            "parent": {"revision": args.parent, "commit": commits["parent"]},
            "change": {"revision": args.change, "commit": commits["change"]},
            "command": ["python3", "scripts/paired_bench.py", *(argv or sys.argv[1:])],
            "platform": platform.platform(),
            # the machine and versions, as the first run recorded them
            **{key: machine[key] for key in ("cpu_model", "nproc", "python", "numpy", "pyyaml")},
        },
        "settings": {"workloads": workloads, "pairs": args.pairs, "seconds": args.seconds,
                     "seeds": seeds, "held_out": args.held_out, "smoke": args.smoke},
        "workloads": results,
    }
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
