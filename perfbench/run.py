#!/usr/bin/env python3
"""The greenprov benchmark: three seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; it imports greenprov from
``src/``. Workloads (why each was chosen is in BENCHMARK.json):

``simulate-trace``
    CLI ``simulate --trace`` on truncated-normal demand (mu 40, sigma 15 on
    [0, 80], r_agreed 100, balance policy, 2 x 5e4 steps).
``policy-search``
    Library run on an empirical profile of 2000 seeded observations with
    satisfaction 0.05: ``empirical_optimum`` over 101 levels at 2 x 3e5
    steps, ``compare_policies`` over the five policy kinds, and
    ``market.settle`` of each policy's emissions.
``sweep``
    Two CLI ``sweep`` runs from explicit stats (mean 40, max 80, r_agreed
    100): a closed-form grid over c_viol x c_en x mean_demand of 1e5 cells,
    and a satisfaction 0.05 grid of 2e4 cells solved by bisection.

The seed generates every config, observation and price; the program sees
only the generated files. Each repetition is a fresh single-threaded Python
process, started only after the previous one has exited (closed loop, one
client). Repetitions run until ``--seconds`` have passed and the medians
are reported. Outputs go to a temporary directory in the checkout, which is
removed at the end.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (spawn until
greenprov is imported and the configs are loaded with their stats derived),
``wall_s`` (spawn until the process has exited), ``work_per_s`` (work items
per second after set-up: steps x replications on simulate-trace, (levels +
policies) x steps x replications on policy-search, grid cells on sweep) and
``peak_rss_mb`` (the process's peak resident set from ``wait4``; Linux
carries the parent's own resident set, about 20 MB, across exec, so it is
a floor). Times are scaled to a reference CPU speed, see REFERENCE_S. The
detail record also gives ``work_per_s`` under the workload's own name
(``steps_per_s``, ``evals_per_s`` or ``cells_per_s``) and ``fail_ratio``,
the failed over the attempted output checks of the result line.

``--trace 1`` also runs a traced copy of each repetition, which wraps the
public functions of each module from the benchmark's own code, and an
``-X importtime`` import, and reports the per-layer metrics.

``--smoke`` shrinks every workload for the benchmark's own tests.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
the lines before it hold provenance, quartiles, hashes and every check.
"""

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import marshal
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import yaml

import checks as output_checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORKLOADS = ("simulate-trace", "policy-search", "sweep")
CHILD_TIMEOUT_S = 150
# On shared cloud VMs the CPU speed drifts by about +-25 % over seconds to
# minutes (a fixed pure-Python loop took 0.29 to 0.52 s within two minutes
# on a 2-vCPU 2.1 GHz Xeon VM), which moves whole runs. End-to-end times are
# therefore reported at a reference speed: multiplied by REFERENCE_S over
# the run's median time of a fixed interpreter workload
# (calibration_seconds), sampled between repetitions. On that VM this cut
# the run-to-run spread of wall_s and work_per_s by about a third. Raw times
# are kept in the detail record.
REFERENCE_S = 0.03
CALIBRATION_SAMPLES = 3
_CALIBRATION_CODE = marshal.dumps(compile("\n".join(
    f"def f{i}(a, b=1.5):\n    c = [a * k + b for k in range({i % 13})]\n"
    f"    return sum(c) / (len(c) or 1)\nX{i} = {{'k': {i}, 'v': f{i}({i})}}"
    for i in range(300)), "calibration", "exec"))
UNMEASURED = [
    "hardware performance counters: perf events are not readable here",
    "cold-cache runs: the page cache cannot be dropped, so every timed process "
    "follows an untimed import that warms it",
]


# -- inputs -----------------------------------------------------------------

def _num(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _rates(rng, satisfaction):
    return {
        "c_en": _num(rng, 1.0, 2.0),
        "c_co2": _num(rng, 0.25, 0.75),
        "c_viol": _num(rng, 0.5, 1.5),
        "satisfaction": satisfaction,
    }


def _simulation(steps, seed):
    return {"steps": steps, "replications": 2, "seed": seed,
            "energy_full": 2.0, "carbon_intensity": 0.5}


def make_plan(workload, seed, smoke=False):
    """Every input of one workload, drawn from ``seed`` alone."""
    rng = random.Random(f"greenprov-bench/{workload}/{seed}")
    plan = {"workload": workload, "seed": seed}
    if workload == "simulate-trace":
        steps = 500 if smoke else 50_000
        plan.update(steps=steps, replications=2, sim_seed=rng.getrandbits(64))
        plan["configs"] = [{
            "demand": {"kind": "truncated_normal", "mu": 40.0, "sigma": 15.0,
                       "lower": 0.0, "upper": 80.0},
            "stats": {"r_agreed": 100.0},
            "rates": _rates(rng, 0.0),
            "policy": {"kind": "balance"},
            "simulation": _simulation(steps, plan["sim_seed"]),
        }]
        plan["work"] = steps * 2
    elif workload == "policy-search":
        steps, observations, levels = (2_000, 200, 11) if smoke else (300_000, 2_000, 101)
        values = [round(min(max(rng.gauss(40.0, 15.0), 0.0), 80.0), 3)
                  for _ in range(observations)]
        plan.update(steps=steps, replications=2, sim_seed=rng.getrandbits(64), r_agreed=100.0)
        plan["configs"] = [{
            "demand": {"kind": "empirical", "values": values},
            "stats": {"r_agreed": 100.0},
            "rates": _rates(rng, 0.05),
            "policy": {"kind": "balance"},
            "simulation": _simulation(steps, plan["sim_seed"]),
        }]
        full_kg = 2.0 * 0.5 * steps * 2
        plan["params"] = {
            "levels": levels,
            "x_percent": _num(rng, 0.1, 0.3),
            "fixed_level": _num(rng, 45.0, 70.0),
            "price_per_kg": _num(rng, 0.01, 0.05),
            "caps_kg": [round(rng.uniform(0.4, 0.9) * full_kg, 3) for _ in range(5)],
        }
        plan["work"] = (levels + 5) * steps * 2
    else:
        # mean_demand runs past max_demand (80) to 100, so about a fifth of
        # the cells are infeasible; with the 0.05 surcharge the cells whose
        # mean sits near the max have no balance root.
        grids = ((5, 5, 5), (4, 4, 5)) if smoke else ((50, 50, 40), (25, 25, 32))
        plan["sweeps"] = [
            {
                "stats": {"mean_demand": 40.0, "max_demand": 80.0, "r_agreed": 100.0},
                "rates": {"c_en": 1.5, "c_co2": _num(rng, 0.02, 0.5), "c_viol": 1.0,
                          "satisfaction": satisfaction},
                "params": {
                    "c_viol": [_num(rng, 0.05, 0.2), _num(rng, 4.0, 6.0), n_viol],
                    "c_en": [_num(rng, 0.02, 0.2), _num(rng, 2.0, 3.0), n_en],
                    "mean_demand": [_num(rng, 0.0, 4.0), 100.0, n_mean],
                },
            }
            for (n_viol, n_en, n_mean), satisfaction in zip(grids, (0.0, 0.05))
        ]
        plan["configs"] = [{"stats": s["stats"], "rates": s["rates"]} for s in plan["sweeps"]]
        plan["work"] = sum(math.prod(g) for g in grids)
    return plan


def write_configs(plan, directory):
    paths = []
    for i, document in enumerate(plan["configs"]):
        path = directory / f"config-{i}.yaml"
        path.write_text(yaml.safe_dump(document, sort_keys=False, default_flow_style=None), encoding="utf-8")
        paths.append(str(path))
    return paths


def child_spec(plan, configs, out, mode, marks):
    spec = {
        "workload": plan["workload"],
        "mode": mode,
        "configs": configs,
        "out": str(out),
        "marks": str(marks),
        "workload_id": f"{plan['workload']}/seed={plan['seed']}/{out.name}",
    }
    if plan["workload"] == "simulate-trace":
        spec["cli"] = [["simulate", configs[0], "--trace", "--output", str(out)]]
    elif plan["workload"] == "sweep":
        spec["cli"] = [
            ["sweep", config,
             *(f"--param={name}={lo!r}:{hi!r}:{n}" for name, (lo, hi, n) in sweep["params"].items()),
             "--output", str(out / tag)]
            for config, sweep, tag in zip(configs, plan["sweeps"], "ab")
        ]
    else:
        spec["params"] = plan["params"]
    return spec


# -- processes --------------------------------------------------------------

def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def spawn(argv, stdout, stderr):
    """Run one process to its exit; spawn and exit times and peak RSS."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t_spawn": t_spawn, "t_exit": t_exit, "code": proc.returncode,
            "maxrss_kb": usage.ru_maxrss}


def _file_stats(path):
    digest = hashlib.sha256()
    size = lines = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
            size += len(block)
            lines += block.count(b"\n")
    return {"sha256": digest.hexdigest(), "bytes": size, "lines": lines}


def run_workload(plan, configs, out, mode):
    out.mkdir(parents=True)
    spec_path, marks_path = out / "spec.json", out.parent / f"{out.name}.marks.json"
    spec_path.write_text(json.dumps(child_spec(plan, configs, out, mode, marks_path)))
    record = spawn([sys.executable, str(CHILD), str(spec_path)],
                   out.parent / f"{out.name}.stdout", out.parent / f"{out.name}.stderr")
    spec_path.unlink()
    if marks_path.exists():
        record.update(json.loads(marks_path.read_text()))
    record["stderr"] = (out.parent / f"{out.name}.stderr").read_text(errors="replace")[-2000:]
    spans = out / "spans.json"
    if spans.exists():
        record["totals"] = span_totals(json.loads(spans.read_text())["spans"])
        spans.unlink()
    record["files"] = {
        str(path.relative_to(out)): _file_stats(path)
        for path in sorted(out.rglob("*")) if path.is_file()
    }
    return record


def parse_importtime(text):
    """Cumulative greenprov import time and summed self time of scipy modules."""
    cumulative, scipy_self = {}, 0
    for line in text.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        cumulative[name] = int(fields[1])
        if name == "scipy" or name.startswith("scipy."):
            scipy_self += int(fields[0])
    return cumulative.get("greenprov", 0) / 1e6, scipy_self / 1e6


def run_importtime(directory, tag):
    stdout, stderr = directory / f"{tag}.stdout", directory / f"{tag}.stderr"
    record = spawn([sys.executable, "-X", "importtime", "-c",
                    "import sys; n = len(sys.modules); import greenprov; "
                    "print(len(sys.modules) - n)"], stdout, stderr)
    record["greenprov_s"], record["scipy_s"] = parse_importtime(stderr.read_text())
    modules = stdout.read_text().strip()
    record["modules"] = int(modules) if modules.isdigit() else 0
    return record


def calibration_seconds():
    """Time of a fixed interpreter workload: float formatting into CSV rows
    and running unmarshalled module code, as greenprov's writers and imports do."""
    start = time.perf_counter()
    writer = csv.writer(io.StringIO())
    for i in range(10_000):
        x = i * 1.000001
        writer.writerow(("%.12g" % x, "%.12g" % (x * x), i % 7 == 0))
    for _ in range(8):
        exec(marshal.loads(_CALIBRATION_CODE), {})
    return time.perf_counter() - start


def measure(plan, tmp, seconds, trace):
    """Repetitions until ``seconds`` have passed, and the calibration samples."""
    configs = write_configs(plan, tmp)
    # Untimed: fills the bytecode cache and the page cache.
    spawn([sys.executable, "-c", "import greenprov"], tmp / "warm.stdout", tmp / "warm.stderr")
    repeats = []
    calibration = [calibration_seconds() for _ in range(CALIBRATION_SAMPLES)]
    start = time.monotonic()
    while not repeats or time.monotonic() - start < seconds:
        i = len(repeats)
        repeat = {"plain": run_workload(plan, configs, tmp / f"{i}-plain", "plain")}
        if trace:
            repeat["traced"] = run_workload(plan, configs, tmp / f"{i}-traced", "traced")
            repeat["imports"] = run_importtime(tmp, f"{i}-import")
        if i > 0:
            for mode in ("plain", "traced"):
                shutil.rmtree(tmp / f"{i}-{mode}", ignore_errors=True)
        repeats.append(repeat)
        calibration += [calibration_seconds() for _ in range(CALIBRATION_SAMPLES)]
    return repeats, calibration


# -- metrics ----------------------------------------------------------------

def span_totals(spans):
    """Per span name: calls, total seconds, self seconds and items."""
    children = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    totals = {}
    for i, (name, start, end, _, items) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0})
        entry["calls"] += 1
        entry["s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - children[i]) / 1e9
        entry["items"] += items
    return totals


def end_to_end(repeats, plan, scale=1.0):
    """Times multiplied by ``scale`` (reference speed over measured speed)."""
    runs = [r["plain"] for r in repeats if r["plain"]["code"] == 0 and "t_done" in r["plain"]]
    return {
        "setup_s": ("s", [scale * (r["t_setup"] - r["t_spawn"]) for r in runs]),
        "wall_s": ("s", [scale * (r["t_exit"] - r["t_spawn"]) for r in runs]),
        "work_per_s": ("1/s", [plan["work"] / (scale * (r["t_done"] - r["t_setup"]))
                               for r in runs]),
        "peak_rss_mb": ("MB", [r["maxrss_kb"] / 1024 for r in runs]),
    }


def layer_values(repeat, plan):
    traced, imports = repeat["traced"], repeat["imports"]
    totals = traced.get("totals", {})

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    draws, sample_s = get("demand.sample_many", "items"), get("demand.sample_many", "s")
    solves = get("balance.closed_form", "calls") + get("balance.numeric", "calls")
    solve_s = get("balance.closed_form", "s") + get("balance.numeric", "s")
    cli_files = {} if plan["workload"] == "policy-search" else traced["files"]
    stream = plan.get("steps", 0) * plan.get("replications", 0)
    return {
        "import.greenprov_s": ("s", imports["greenprov_s"]),
        "import.scipy_s": ("s", imports["scipy_s"]),
        "import.modules": ("count", imports["modules"]),
        "config.load_config_s": ("s", get("config.load_config", "s")),
        "config.build_scenario_s": ("s", get("config.build_scenario", "s")),
        "demand.sample_many_s": ("s", sample_s),
        "demand.draws_per_s": ("1/s", draws / sample_s if sample_s else 0.0),
        "demand.sample_many_calls": ("count", get("demand.sample_many", "calls")),
        "demand.draws": ("count", draws),
        "demand.tail_probability_s": ("s", get("demand.tail_probability", "s")),
        "simulate.run_simulation_calls": ("count", get("simulate.run_simulation", "calls")),
        "simulate.kernel_self_s": ("s", get("simulate.run_simulation", "self_s")),
        "simulate.unique_draw_ratio": ("ratio", stream / draws if draws else 0.0),
        "simulate.trace_assembly_s": ("s", traced.get("trace_assembly_s", 0.0)),
        "simulate.empirical_optimum_s": ("s", get("simulate.empirical_optimum", "s")),
        "simulate.compare_policies_s": ("s", get("simulate.compare_policies", "s")),
        "balance.closed_form_calls": ("count", get("balance.closed_form", "calls")),
        "balance.closed_form_s": ("s", get("balance.closed_form", "s")),
        "balance.numeric_calls": ("count", get("balance.numeric", "calls")),
        "balance.numeric_s": ("s", get("balance.numeric", "s")),
        "balance.cell_us": ("us", 1e6 * solve_s / solves if solves else 0.0),
        "market.settle_s": ("s", get("market.settle", "s")),
        "cli.self_s": ("s", get("cli.main", "self_s")),
        "cli.rows_written": ("count", sum(f["lines"] - 1 for p, f in cli_files.items()
                                          if p.endswith(".csv"))),
        "cli.bytes_written": ("B", sum(f["bytes"] for f in cli_files.values())),
        "trace.overhead_s": ("s", (traced["t_spans"] - traced["t_spawn"])
                             - (repeat["plain"]["t_done"] - repeat["plain"]["t_spawn"])),
    }


def per_layer(repeats, plan):
    usable = [r for r in repeats
              if r["traced"]["code"] == 0 and "t_spans" in r["traced"]
              and r["plain"]["code"] == 0 and "t_done" in r["plain"]]
    series = {}
    for repeat in usable:
        for name, (unit, value) in layer_values(repeat, plan).items():
            series.setdefault(name, (unit, []))[1].append(value)
    return series


def summarize(series):
    out = {}
    for name, (unit, values) in series.items():
        entry = {"unit": unit, "n": len(values), "median": statistics.median(values),
                 "min": min(values), "max": max(values)}
        if len(values) >= 2:
            entry["q1"], _, entry["q3"] = statistics.quantiles(values, n=4)
        out[name] = entry
    return out


# -- checks -----------------------------------------------------------------

def _import_schemas():
    sys.path.insert(0, str(SRC))
    from greenprov import schemas

    return schemas


def run_checks(plan, tmp, repeats, trace):
    checks = output_checks.Checks()
    src = str(SRC)
    for i, repeat in enumerate(repeats):
        for mode in ("plain", "traced") if trace else ("plain",):
            record = repeat[mode]
            checks.add(f"{mode}[{i}].exit_code", record["code"] == 0,
                       f"code {record['code']}: {record['stderr'][-300:]}")
            checks.add(f"{mode}[{i}].imports_checkout",
                       record.get("greenprov", "").startswith(src), record.get("greenprov"))
        if trace:
            checks.add(f"import[{i}].exit_code", repeat["imports"]["code"] == 0,
                       repeat["imports"]["code"])
    try:
        output_checks.check_outputs(checks, plan, tmp / "0-plain", _import_schemas())
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        checks.add("outputs.readable", False, repr(exc))

    def digests(record):
        return {path: f["sha256"] for path, f in record["files"].items()}

    first = digests(repeats[0]["plain"])
    others = [digests(r[m]) for r in repeats for m in ("plain", "traced") if m in r]
    checks.add("outputs.identical_across_repeats", bool(first) and all(d == first for d in others),
               f"{len(others)} output sets")
    if trace:
        layers = per_layer(repeats, plan)
        unsteady = [name for name, (unit, values) in layers.items()
                    if unit in ("count", "B") and len(set(values)) != 1]
        checks.add("trace.counts_repeat_exactly", not unsteady, unsteady)
    return checks, first


# -- provenance -------------------------------------------------------------

def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(seed):
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "pyyaml": _version("PyYAML"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "not_measured": UNMEASURED,
    }


# -- main -------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "greenprov" / "__init__.py").is_file():
        print(f"error: no greenprov sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    plan = make_plan(args.workload, args.seed, args.smoke)
    record = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "provenance": provenance(args.seed), "load_before": os.getloadavg()}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        repeats, calibration = measure(plan, tmp, args.seconds, bool(args.trace))
        record["load_after"] = os.getloadavg()
        checks, hashes = run_checks(plan, tmp, repeats, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    scale = REFERENCE_S / statistics.median(calibration)
    series = per_layer(repeats, plan) if args.trace else end_to_end(repeats, plan, scale)
    if not all(values for _, values in series.values()):
        print(json.dumps({"error": "no repetition completed", "checks": checks.items}),
              file=sys.stderr)
        return 1
    summary = summarize(series)
    record.update(
        repeats=len(repeats),
        work_items=plan["work"],
        metrics=dict(summary, fail_ratio={"unit": "ratio",
                                          "value": checks.failed / len(checks.items)}),
        calibration_s={"median": statistics.median(calibration), "n": len(calibration),
                       "reference": REFERENCE_S, "scale": scale},
        raw_metrics=summarize(end_to_end(repeats, plan)),
        output_sha256=hashes,
        checks=checks.items,
    )
    if not args.trace:
        # The workload's own name for its throughput.
        name = {"simulate-trace": "steps_per_s", "policy-search": "evals_per_s",
                "sweep": "cells_per_s"}[args.workload]
        record["metrics"][name] = summary["work_per_s"]
    print(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": len(checks.items),
        "failed": checks.failed,
        "metrics": {name: {"value": entry["median"], "unit": entry["unit"]}
                    for name, entry in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
