"""Command-line front end.

Four workflows over one YAML scenario config:

``greenprov balance <config>``
    Solve the wastage-penalty equilibrium from the stats/rates sections;
    print the record and write balance.json.
``greenprov simulate <config> [--seed N] [--steps N] [--trace]``
    Run the Monte Carlo scenario; write report.json (and trace.csv with
    --trace) and echo the effective seed.
``greenprov etm <config>``
    Settle the market section's accounts; write settlement.csv.
``greenprov sweep <config> --param name=start:stop:count [...]``
    Re-solve the balance over a parameter grid; write sweep.csv.

Exit codes: 0 success, 1 input/config error, 2 domain or solver error.
Output files are deterministic: rerunning with the same config and seed
reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .balance import CostRates, DemandStats, balance_grid, solve_balance
from .config import (
    build_scenario,
    load_config,
    rates_to_dict,
    scenario_to_dict,
    stats_to_dict,
)
from .errors import (
    ConfigError,
    DegenerateCosts,
    NonzeroSatisfaction,
    NoRootInRange,
    PolicyUnresolvable,
)
from .market import settle
from .schemas import SETTLEMENT_HEADER, SWEEP_HEADER, TRACE_HEADER
from .simulate import run_simulation

SWEEP_PARAMS = ("c_co2", "c_en", "c_viol", "max_demand", "mean_demand", "r_agreed")
# The DemandStats and CostRates inputs in sweep.csv column order.
_SWEEP_INPUTS = SWEEP_HEADER[:6]

# trace.csv and sweep.csv are formatted and written this many rows at a
# time, so the text of a table is never held whole.
_ROW_BLOCK = 1 << 10

# One % format per table row. Numbers never need CSV quoting; the sweep's
# inputs and satisfaction arrive preformatted, and its error field is left
# empty here (unsolved rows are rewritten whole).
_TRACE_ROW = "%d,%d,%.12g,%.12g,%d,%.12g,%.12g,%.12g\n"
_SWEEP_ROW = "%s," * 7 + "%.12g," * 5 + "\n"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; in this tool's contract
    # code 2 means a solver failure, so usage problems are re-raised and
    # mapped to 1 in main().
    def error(self, message):
        raise _UsageError(message)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="greenprov", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("config", help="path to the YAML scenario config")
        sub.add_argument(
            "--output", default=".", help="directory for report files (default: .)"
        )
        return sub

    add("balance", "solve the wastage-penalty balance").set_defaults(func=cmd_balance)

    sim = add("simulate", "run the Monte Carlo scenario")
    sim.add_argument("--seed", type=_u64, default=None, help="override the config seed")
    sim.add_argument(
        "--steps", type=_positive_int, default=None, help="override the step count"
    )
    sim.add_argument(
        "--trace", action="store_true", help="also write the per-step table trace.csv"
    )
    sim.set_defaults(func=cmd_simulate)

    add("etm", "settle emission-credit positions").set_defaults(func=cmd_etm)

    swp = add("sweep", "re-solve the balance over parameter grids")
    swp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="name=start:stop:count",
        help="grid over one balance input; repeatable "
        f"(names: {', '.join(SWEEP_PARAMS)})",
    )
    swp.set_defaults(func=cmd_sweep)
    return parser


def _out_dir(args) -> Path:
    path = Path(args.output)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _json_record(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # + 0.0 turns negative zero into plain zero before printing
    return "%.12g" % (float(value) + 0.0)


def _csv_field(text: str) -> str:
    """A text field quoted as csv.QUOTE_MINIMAL would, and on a carriage return too."""
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_rows(fmt: str, columns) -> list[str]:
    """``fmt % row`` for each row of equal-length array columns."""
    # + 0.0 turns negative zero into plain zero before printing
    lists = [(c + 0.0 if c.dtype.kind == "f" else c).tolist() for c in columns]
    return list(map(fmt.__mod__, zip(*lists)))


def _write_csv(path: Path, header, blocks):
    """Write the header row, then each block of formatted lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for lines in blocks:
            handle.write("".join(lines))


def cmd_balance(args) -> int:
    parsed = load_config(args.config)
    rates = parsed.require("rates")
    stats = parsed.stats()
    result = solve_balance(stats, rates)
    text = _json_record(
        {
            "stats": stats_to_dict(stats),
            "rates": rates_to_dict(rates),
            "result": dataclasses.asdict(result),
        }
    )
    _write_text(_out_dir(args) / "balance.json", text)
    sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    parsed = load_config(args.config)
    scenario = build_scenario(parsed, seed_override=args.seed, steps_override=args.steps)
    report = run_simulation(scenario, trace=True if args.trace else False)
    out = _out_dir(args)
    _write_text(
        out / "report.json",
        _json_record(
            {
                "seed": scenario.seed,
                "scenario": scenario_to_dict(scenario),
                "aggregate": report.aggregate_dict(),
            }
        ),
    )
    print(f"seed: {scenario.seed}")
    print(f"wrote {out / 'report.json'}")
    if args.trace:
        tr = report.trace
        columns = (
            tr.replication, tr.step, tr.demand, tr.provisioned,
            tr.violation, tr.wasted, tr.wastage_cost, tr.penalty_cost,
        )
        blocks = (
            _format_rows(_TRACE_ROW, (c[start:start + _ROW_BLOCK] for c in columns))
            for start in range(0, len(tr), _ROW_BLOCK)
        )
        _write_csv(out / "trace.csv", TRACE_HEADER, blocks)
        print(f"wrote {out / 'trace.csv'}")
    return 0


def cmd_etm(args) -> int:
    parsed = load_config(args.config)
    market = parsed.require("market")
    settlement = settle(list(market.accounts), market.price_per_kg)
    rows = [
        (
            entry.name,
            _fmt(entry.cap_kg),
            _fmt(entry.emissions_kg),
            _fmt(entry.position_kg),
            _fmt(entry.cash_flow),
        )
        for entry in settlement.entries
    ]
    rows.append(
        (
            "TOTAL",
            _fmt(sum(e.cap_kg for e in settlement.entries)),
            _fmt(sum(e.emissions_kg for e in settlement.entries)),
            _fmt(settlement.total_position_kg),
            _fmt(settlement.total_cash_flow),
        )
    )
    out = _out_dir(args)
    lines = [",".join((_csv_field(row[0]),) + row[1:]) + "\n" for row in rows]
    _write_csv(out / "settlement.csv", SETTLEMENT_HEADER, [lines])
    print(",".join(SETTLEMENT_HEADER))
    for row in rows:
        print(",".join(row))
    return 0


def _parse_param(text: str, seen: set[str]) -> tuple[str, np.ndarray]:
    name, sep, grid = text.partition("=")
    pieces = grid.split(":")
    if not sep or len(pieces) != 3:
        raise ConfigError(f"invalid --param {text!r}: expected name=start:stop:count")
    if name not in SWEEP_PARAMS:
        raise ConfigError(
            f"invalid --param {text!r}: unknown parameter {name!r} "
            f"(expected one of {', '.join(SWEEP_PARAMS)})"
        )
    if name in seen:
        raise ConfigError(f"invalid --param {text!r}: duplicate parameter {name!r}")
    try:
        start, stop = float(pieces[0]), float(pieces[1])
        count = int(pieces[2])
    except ValueError as exc:
        raise ConfigError(f"invalid --param {text!r}: {exc}") from exc
    if count < 1:
        raise ConfigError(f"invalid --param {text!r}: count must be >= 1")
    try:
        # non-finite or overflowing bounds give inf/NaN points: error rows
        with np.errstate(invalid="ignore", over="ignore"):
            grid = np.linspace(start, stop, count)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise ConfigError(
            f"invalid --param {text!r}: {count} points do not fit in memory"
        ) from exc
    # over an infinite or overflowing span linspace gives NaN at the start
    grid[0] = start
    seen.add(name)
    return name, grid


def _sweep_cell(values: dict, satisfaction: float) -> list[str]:
    """Result and error fields of one sweep cell, solved by the scalar path."""
    try:
        result = solve_balance(
            DemandStats(values["mean_demand"], values["max_demand"], values["r_agreed"]),
            CostRates(values["c_en"], values["c_co2"], values["c_viol"], satisfaction),
        )
    except ValueError as exc:
        return ["", "", "", "", "", str(exc)]
    return [_fmt(v) for v in dataclasses.astuple(result)] + [""]


def cmd_sweep(args) -> int:
    parsed = load_config(args.config)
    rates = parsed.require("rates")
    stats = parsed.stats()
    if not args.param:
        raise ConfigError("sweep needs at least one --param")
    seen: set[str] = set()
    grids = dict(_parse_param(text, seen) for text in args.param)
    names = sorted(grids)

    base = {
        "mean_demand": stats.mean_demand,
        "max_demand": stats.max_demand,
        "r_agreed": stats.r_agreed,
        "c_en": rates.c_en,
        "c_co2": rates.c_co2,
        "c_viol": rates.c_viol,
    }
    # Cells run in itertools.product order over the sorted names (the last
    # name varies fastest).
    shape = tuple(len(grids[name]) for name in names)
    total = math.prod(shape)
    if total > np.iinfo(np.intp).max:
        raise ConfigError(f"sweep grid of {total} cells is too large to index")
    # Each input value is formatted once; rows pick their labels by index
    # (a fixed input has one label, at index 0).
    labels = {
        k: np.array(
            _format_rows("%.12g", [grids[k]]) if k in grids else [_fmt(base[k])],
            dtype=object,
        )
        for k in _SWEEP_INPUTS
    }
    labels["satisfaction"] = np.array([_fmt(rates.satisfaction)], dtype=object)
    fixed_index = np.zeros(_ROW_BLOCK, dtype=np.intp)
    failed = 0

    def blocks():
        nonlocal failed
        for start in range(0, total, _ROW_BLOCK):
            n = min(_ROW_BLOCK, total - start)
            index = dict(zip(names, np.unravel_index(np.arange(start, start + n), shape)))
            inputs = {
                k: grids[k][index[k]] if k in index else np.full(n, base[k])
                for k in _SWEEP_INPUTS
            }
            solved, results = balance_grid(
                *(inputs[k] for k in _SWEEP_INPUTS), rates.satisfaction
            )
            texts = [labels[k][index.get(k, fixed_index[:n])] for k in labels]
            lines = _format_rows(_SWEEP_ROW, texts + list(results))
            for i in np.flatnonzero(~solved).tolist():
                values = {k: float(inputs[k][i]) for k in _SWEEP_INPUTS}
                cell = _sweep_cell(values, rates.satisfaction)
                failed += cell[-1] != ""
                cell[-1] = _csv_field(cell[-1])
                lines[i] = ",".join([t[i] for t in texts] + cell) + "\n"
            yield lines

    out = _out_dir(args)
    _write_csv(out / "sweep.csv", SWEEP_HEADER, blocks())
    successes = total - failed
    print(f"wrote {out / 'sweep.csv'} ({successes}/{total} rows solved)")
    return 0 if successes else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateCosts, NonzeroSatisfaction, NoRootInRange) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except PolicyUnresolvable as exc:
        print(f"policy error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
