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

Exit codes: 0 success, 1 input/config or output error, 2 domain or solver
error.
Output files are deterministic: rerunning with the same config and seed
reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .balance import FAILURES, CostRates, DemandStats, balance_closed_form, balance_grid
from .config import build_scenario, load_config, scenario_to_dict
from .errors import (
    ConfigError,
    DegenerateCosts,
    NonFiniteResult,
    NoRootInRange,
    PolicyUnresolvable,
)
from .market import settle
from .schemas import SETTLEMENT_HEADER, SWEEP_HEADER, TRACE_HEADER
from .simulate import run_simulation

# The balance inputs, the DemandStats then CostRates fields, in sweep.csv
# column order; any but the satisfaction surcharge may be swept.
_SWEEP_INPUTS = tuple(
    f.name for f in dataclasses.fields(DemandStats) + dataclasses.fields(CostRates)
)
SWEEP_PARAMS = tuple(sorted(k for k in _SWEEP_INPUTS if k != "satisfaction"))

# trace.csv and sweep.csv are formatted and written this many rows at a
# time, so the text of a table is never held whole.
_ROW_BLOCK = 1 << 10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; in this tool's contract
    # code 2 means a solver failure, so usage problems are re-raised and
    # mapped to 1 in main().
    def error(self, message):
        raise _UsageError(message)


def _int_in(low, high, rule: str):
    """An argparse type: an integer in [low, high), else a usage error
    that states ``rule``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not low <= value < high:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


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
    sim.add_argument("--seed", type=_int_in(0, 2**64, "an unsigned 64-bit integer"),
                     default=None, help="override the config seed")
    sim.add_argument("--steps", type=_int_in(1, math.inf, "an integer >= 1"),
                     default=None, help="override the step count")
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


@contextlib.contextmanager
def _output(path: Path):
    """A handle on a new file beside ``path``, made as "w" would (mode 0o666
    less the umask), that replaces ``path`` only when the block exits
    cleanly; on an exception it is removed and ``path`` is left as it was."""
    staged = path.with_name(f".{path.name}.{os.getpid()}")
    staged.unlink(missing_ok=True)  # left by a killed run with this process id
    try:
        with open(staged, "x", encoding="utf-8", newline="\n") as handle:
            yield handle
        # Unlinking first replaces a link rather than writing through it, and
        # keeps the rename from replacing a file, which can start a writeback.
        path.unlink(missing_ok=True)
        staged.rename(path)
    except BaseException:
        staged.unlink(missing_ok=True)
        raise


def _json_record(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"


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


def _row_block(templates, kinds, columns) -> str:
    """Row ``i`` of a block is ``templates[kinds[i]]`` filled with row ``i``
    of the arrays ``columns[kinds[i]]``, for an intp array ``kinds``; it is
    made by one % of the rows' joined templates over all their values."""
    values = np.empty((len(kinds), max(map(len, columns))), dtype=object)
    filled = np.zeros(values.shape, dtype=bool)
    for k in np.flatnonzero(np.bincount(kinds)):  # the kinds in the block
        rows = np.flatnonzero(kinds == k)
        for j, column in enumerate(columns[k]):
            values[rows, j] = column[rows]
        filled[rows, :len(columns[k])] = True
    lines = np.array(templates, dtype=object)[kinds].tolist()
    return "".join(lines) % tuple(values[filled].tolist())


def cmd_balance(args) -> int:
    parsed = load_config(args.config)
    rates = parsed.require("rates")
    stats = parsed.stats()
    result = balance_closed_form(stats, rates)
    text = _json_record(
        {
            "stats": dataclasses.asdict(stats),
            "rates": dataclasses.asdict(rates),
            "result": dataclasses.asdict(result),
        }
    )
    with _output(_out_dir(args) / "balance.json") as handle:
        handle.write(text)
    sys.stdout.write(text)
    return 0


def _trace_writer(handle, scenario):
    """A run_simulation hook writing each demand chunk's trace.csv lines at
    the resolved level to ``handle``, _ROW_BLOCK rows at a time."""
    rates, agreed = scenario.rates, scenario.stats.r_agreed

    def write(level, chunk):
        # The replication and level are constant, and a violated row wastes
        # nothing and pays the penalty: only its step and demand vary.
        head = f"{chunk.replication},%d,%.12g,{_fmt(level)},"
        templates = [head + "0,%.12g,%.12g,0\n", head + f"1,0,0,{_fmt(rates.c_viol)}\n"]
        for start in range(0, len(chunk.demand), _ROW_BLOCK):
            d = chunk.demand[start:start + _ROW_BLOCK]
            step = chunk.first_step + start
            steps = np.arange(step, step + len(d))
            # This runs before the report's totals are checked, on values
            # that check may yet reject; like the scoring, it must not warn.
            with np.errstate(all="ignore"):
                wasted = np.maximum(level - d, 0.0)
                # + 0.0 turns negative zero into plain zero before printing
                scored = [steps, d + 0.0, wasted + 0.0,
                          wasted / agreed * rates.c_provision + 0.0]
            violated = (d > level).astype(np.intp)
            handle.write(_row_block(templates, violated, [scored, scored[:2]]))

    return write


def cmd_simulate(args) -> int:
    parsed = load_config(args.config)
    scenario = build_scenario(parsed, seed_override=args.seed, steps_override=args.steps)
    out = _out_dir(args)
    # trace.csv is written as the demand is scored, and replaces the old one
    # only once report.json is written.
    with _output(out / "trace.csv") if args.trace else contextlib.nullcontext() as trace:
        on_chunk = None
        if trace:
            trace.write(",".join(TRACE_HEADER) + "\n")
            on_chunk = _trace_writer(trace, scenario)
        report = run_simulation(scenario, on_chunk=on_chunk)
        record = {
            "seed": scenario.seed,
            "scenario": scenario_to_dict(scenario),
            "aggregate": report.aggregate_dict(),
        }
        with _output(out / "report.json") as handle:
            handle.write(_json_record(record))
    print(f"seed: {scenario.seed}")
    print(f"wrote {out / 'report.json'}")
    if args.trace:
        print(f"wrote {out / 'trace.csv'}")
    return 0


def cmd_etm(args) -> int:
    parsed = load_config(args.config)
    market = parsed.require("market")
    settlement = settle(list(market.accounts), market.price_per_kg)
    entries = settlement.entries
    rows = list(map(dataclasses.astuple, entries))
    rows.append(("TOTAL", sum(e.cap_kg for e in entries), sum(e.emissions_kg for e in entries),
                 settlement.total_position_kg, settlement.total_cash_flow))
    lines = [",".join(SETTLEMENT_HEADER) + "\n"]
    lines += [",".join([_csv_field(name), *map(_fmt, values)]) + "\n" for name, *values in rows]
    with _output(_out_dir(args) / "settlement.csv") as handle:
        handle.writelines(lines)
    sys.stdout.writelines(lines)
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
    # ValueError or IndexError (from 2**63 - 1 points on): beyond numpy's size limit
    except (MemoryError, ValueError, IndexError) as exc:
        raise ConfigError(
            f"invalid --param {text!r}: {count} points do not fit in memory"
        ) from exc
    # over an infinite or overflowing span linspace gives NaN at the start
    grid[0] = start
    seen.add(name)
    return name, grid


def cmd_sweep(args) -> int:
    parsed = load_config(args.config)
    rates = parsed.require("rates")
    stats = parsed.stats()
    if not args.param:
        raise ConfigError("sweep needs at least one --param")
    seen: set[str] = set()
    grids = dict(_parse_param(text, seen) for text in args.param)
    names = sorted(grids)

    base = vars(stats) | vars(rates)
    # Cells run in itertools.product order over the sorted names (the last
    # name varies fastest).
    shape = tuple(len(grids[name]) for name in names)
    total = math.prod(shape)
    if total > np.iinfo(np.intp).max:
        raise ConfigError(f"sweep grid of {total} cells is too large to index")
    # One % format per row kind: a solved row, then one per FAILURES entry.
    # A fixed input and satisfaction are literal text in it; each swept
    # value is formatted once, and rows pick their labels by index. Numbers
    # never need CSV quoting, and an error template is quoted once, since
    # the numbers filled into it never contain a comma or a quote.
    # + 0.0 turns negative zero into plain zero before printing
    labels = {k: np.array(["%.12g" % (x + 0.0) for x in grids[k].tolist()], dtype=object)
              for k in _SWEEP_INPUTS if k in grids}
    head = "".join("%s," if k in grids else _fmt(base[k]) + "," for k in _SWEEP_INPUTS)
    n_results = len(SWEEP_HEADER) - len(_SWEEP_INPUTS) - 1  # the BalanceResult columns
    templates = [head + "%.12g," * n_results + "\n"]
    templates += [head + "," * n_results + _csv_field(f.template) + "\n" for f in FAILURES]
    failed = 0

    def blocks():
        nonlocal failed
        for start in range(0, total, _ROW_BLOCK):
            cells = np.arange(start, min(start + _ROW_BLOCK, total))
            index = dict(zip(names, np.unravel_index(cells, shape)))
            failure, results, values = balance_grid(
                *(grids[k][index[k]] if k in grids else base[k] for k in _SWEEP_INPUTS)
            )
            kinds = failure + 1
            failed += np.count_nonzero(kinds)
            texts = [labels[k][index[k]] for k in labels]
            columns = [texts + [c + 0.0 for c in results]]
            # the message values as the scalar path prints them, -0.0 included
            columns += [texts + [values[name] for name in f.fields] for f in FAILURES]
            yield _row_block(templates, kinds, columns)

    out = _out_dir(args)
    with _output(out / "sweep.csv") as handle:
        handle.write(",".join(SWEEP_HEADER) + "\n")
        handle.writelines(blocks())
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # load_config reports the config's own read errors
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateCosts, NoRootInRange) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except PolicyUnresolvable as exc:
        print(f"policy error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteResult as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
