"""Checks on the files the benchmark workloads write.

Every check appends one ``{"check", "ok", "detail"}`` record; the benchmark's
fail ratio is the number that failed over the number attempted. The checks
read only output files and the workload plan, so a test can corrupt an
output and run them again.
"""

import csv
import itertools
import json
import math

# A simulated violation frequency must lie within this many binomial
# standard deviations of the profile's exact tail probability. One run
# makes up to six such comparisons and a benchmark evaluation makes a few
# hundred runs; at 3 sigma (0.27 % per comparison) some correct run would
# fail, at 5 sigma (6e-7) none should.
Z_LIMIT = 5.0
REL = 1e-9


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"check": name, "ok": bool(ok), "detail": str(detail)})
        return bool(ok)

    @property
    def failed(self):
        return sum(not item["ok"] for item in self.items)


def _close(a, b, rel=REL, floor=0.0):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def _schema_errors(document, schema):
    import jsonschema

    try:
        jsonschema.validate(document, schema)
    except jsonschema.ValidationError as exc:
        return exc.message
    return ""


def _frequency(checks, name, aggregate, draws):
    count = aggregate["violation_count"]
    freq = aggregate["violation_frequency"]
    p = aggregate["tail_violation_probability"]
    checks.add(f"{name}.frequency_is_count_over_draws", _close(freq, count / draws),
               f"{freq} vs {count}/{draws}")
    sigma = math.sqrt(p * (1.0 - p) / draws)
    z = abs(freq - p) / sigma if sigma > 0 else (0.0 if freq == p else math.inf)
    checks.add(f"{name}.frequency_within_{Z_LIMIT:g}_sigma", z <= Z_LIMIT,
               f"frequency {freq}, tail probability {p}, z {z:.3g}")


def check_report(checks, path, plan, schemas):
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    errors = _schema_errors(report, schemas.SIMULATION_REPORT_SCHEMA)
    checks.add("report.schema", not errors, errors)
    checks.add("report.seed", report.get("seed") == plan["sim_seed"], report.get("seed"))
    _frequency(checks, "report", report["aggregate"], plan["steps"] * plan["replications"])
    return report


def check_trace(checks, path, report, plan, schemas):
    steps, reps = plan["steps"], plan["replications"]
    aggregate = report["aggregate"]
    level = aggregate["provision_level"]
    rows = violations = misplaced = off_level = 0
    wastage = 0.0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        for row in reader:
            if int(row[0]) != rows // steps or int(row[1]) != rows % steps:
                misplaced += 1
            if not _close(float(row[3]), level, 1e-11):
                off_level += 1
            violations += row[4] == "1"
            wastage += float(row[6])
            rows += 1
    checks.add("trace.header", header == list(schemas.TRACE_HEADER), header)
    checks.add("trace.rows", rows == steps * reps, f"{rows} rows for {steps}x{reps}")
    checks.add("trace.row_order", misplaced == 0, f"{misplaced} rows out of place")
    checks.add("trace.provisioned", off_level == 0, f"{off_level} rows off level {level}")
    checks.add("trace.violations", violations == aggregate["violation_count"],
               f"{violations} vs {aggregate['violation_count']}")
    checks.add("trace.wastage_total", _close(wastage, aggregate["total_wastage_cost"]),
               f"{wastage} vs {aggregate['total_wastage_cost']}")


def check_policy_search(checks, path, plan, schemas):
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    params = plan["params"]
    r_agreed = plan["r_agreed"]

    optimum = result["optimum"]
    levels, costs = optimum["levels"], optimum["costs"]
    n = params["levels"]
    grid = [r_agreed * i / (n - 1) for i in range(n)]
    checks.add("optimum.levels", len(levels) == n and all(map(_close, levels, grid)),
               f"{len(levels)} levels")
    checks.add("optimum.costs", len(costs) == len(levels), f"{len(costs)} costs")
    best = min(range(len(costs)), key=lambda i: (costs[i], i))
    checks.add("optimum.r_star_is_argmin",
               optimum["r_star"] == levels[best] and optimum["cost"] == costs[best],
               f"r_star {optimum['r_star']}, argmin {levels[best]}")

    runs = result["comparison"]
    draws = plan["steps"] * plan["replications"]
    checks.add("comparison.all_policies_ran",
               len(runs) == 5 and all(run["error"] is None for run in runs),
               [run["error"] for run in runs])
    cost = {}
    for run in runs:
        if run["report"] is None:
            continue
        name = f"comparison[{run['label']}]"
        errors = _schema_errors(run["report"], schemas.SIMULATION_REPORT_SCHEMA)
        checks.add(f"{name}.schema", not errors, errors)
        aggregate = run["report"]["aggregate"]
        _frequency(checks, name, aggregate, draws)
        cost[run["label"]] = aggregate["total_wastage_cost"] + aggregate["total_penalty_cost"]
    ranked = [cost.get(label, math.nan) for label in result["ranking"]]
    checks.add("comparison.ranking_sorted_by_cost",
               sorted(result["ranking"]) == sorted(cost)
               and all(a <= b for a, b in zip(ranked, ranked[1:])),
               result["ranking"])

    settlement = result["settlement"]
    entries = settlement["entries"]
    price = settlement["price_per_kg"]
    checks.add("settlement.entries",
               len(entries) == len(cost)
               and all(_close(e["position_kg"], e["cap_kg"] - e["emissions_kg"], 1e-12)
                       and _close(e["cash_flow"], e["position_kg"] * price, 1e-12)
                       for e in entries),
               f"{len(entries)} entries")
    for total, field in (("total_position_kg", "position_kg"), ("total_cash_flow", "cash_flow")):
        parts = [e[field] for e in entries]
        checks.add(f"settlement.{total}",
                   _close(settlement[total], math.fsum(parts), 1e-12,
                          1e-12 * math.fsum(map(abs, parts))),
                   f"{settlement[total]} vs {math.fsum(parts)}")


def _grid(start, stop, count):
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def check_sweep(checks, name, path, sweep, schemas):
    """Row count, grid order, and that error rows are exactly the infeasible
    cells; solved rows balance wastage against penalty plus surcharge."""
    params = sweep["params"]
    names = sorted(params)
    cells = itertools.product(*(_grid(*params[key]) for key in names))
    columns = list(schemas.SWEEP_HEADER)
    col = {key: columns.index(key) for key in columns}
    rows = misplaced = wrong_error = wrong_result = errors_seen = 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        for cell, row in zip(cells, reader):
            rows += 1
            if any(not _close(float(row[col[k]]), v, 1e-11, 1e-12) for k, v in zip(names, cell)):
                misplaced += 1
            mean, peak, agreed, c_en, c_co2, c_viol, surcharge = (
                float(row[col[k]]) for k in (
                    "mean_demand", "max_demand", "r_agreed", "c_en", "c_co2", "c_viol",
                    "satisfaction"))
            c_prov = c_en + c_co2
            scale = c_prov + c_viol + surcharge
            # Cells within rounding of a feasibility boundary may go either way.
            invalid = mean > peak
            headroom = (peak - mean) / agreed * c_prov - surcharge
            no_root = surcharge > 0.0 and headroom < 0.0
            ambiguous = abs(mean - peak) <= 1e-9 * peak or (
                surcharge > 0.0 and abs(headroom) <= 1e-9 * scale)
            if row[col["error"]]:
                errors_seen += 1
                wrong_error += not (invalid or no_root or ambiguous)
                continue
            if (invalid or no_root) and not ambiguous:
                wrong_error += 1
                continue
            level = float(row[col["r_provisioned"]])
            wasted = float(row[col["c_wastage"]])
            penalty = float(row[col["expected_penalty"]]) + surcharge
            tol = 1e-9 * peak
            if not (mean - tol <= level <= peak + tol
                    and _close(wasted, penalty, REL, 1e-12 * scale)):
                wrong_result += 1
        rows += sum(1 for _ in reader)
    expected = math.prod(count for _, _, count in params.values())
    checks.add(f"{name}.header", header == columns, header)
    checks.add(f"{name}.rows", rows == expected, f"{rows} rows for {expected} cells")
    checks.add(f"{name}.grid_order", misplaced == 0, f"{misplaced} rows off the grid")
    checks.add(f"{name}.error_rows_are_infeasible_cells", wrong_error == 0,
               f"{wrong_error} wrong of {errors_seen} error rows")
    checks.add(f"{name}.solved_rows_balance", wrong_result == 0,
               f"{wrong_result} solved rows out of [mean, max] or unbalanced")


def check_outputs(checks, plan, out, schemas):
    """Run every check for the workload whose outputs are in ``out``."""
    workload = plan["workload"]
    if workload == "simulate-trace":
        report = check_report(checks, f"{out}/report.json", plan, schemas)
        check_trace(checks, f"{out}/trace.csv", report, plan, schemas)
    elif workload == "policy-search":
        check_policy_search(checks, f"{out}/result.json", plan, schemas)
    else:
        for i, sweep in enumerate(plan["sweeps"]):
            check_sweep(checks, f"sweep_{'ab'[i]}", f"{out}/{'ab'[i]}/sweep.csv", sweep, schemas)
