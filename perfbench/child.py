"""One workload process of the greenprov benchmark.

Usage: python child.py SPEC_JSON

The spec (written by run.py) names the workload, the generated config files,
the output directory and the marks file. The process imports greenprov,
loads the workload's configs and derives their demand stats (set-up), runs
the workflow, and writes the CLOCK_MONOTONIC times of those two points to
the marks file. The parent process records the spawn and exit times on the
same clock.

With ``"mode": "traced"`` it first wraps the public functions the workflows
call, from this file, and keeps one span per call in memory: (name, start,
end, parent span, item count). The spans are written to ``spans.json`` when
the workflow has finished. Untraced runs call the unmodified program only.
"""

import functools
import json
import sys
import time


class Tracer:
    """Spans of the calls into greenprov's layers, kept in memory."""

    def __init__(self, workload_id):
        self.workload_id = workload_id
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, items]
        self.stack = []
        self.enabled = True

    def wrap(self, name, fn, items=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, 0, 0, tracer.stack[-1] if tracer.stack else -1,
                    items(args, kwargs) if items else 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer.stack.pop()

        return traced

    def patch(self, name, owners, attr, items=None):
        """Wrap ``attr`` wherever one of ``owners`` binds the same function."""
        found = [getattr(owner, attr) for owner in owners if hasattr(owner, attr)]
        if not found:
            return
        original = found[0]
        wrapped = self.wrap(name, original, items)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                setattr(owner, attr, wrapped)

    def install(self):
        from greenprov import balance, cli, config, demand, market, simulate

        def draws(args, kwargs):
            return int(kwargs["n"] if "n" in kwargs else args[2])

        self.patch("config.load_config", [config, cli], "load_config")
        self.patch("config.build_scenario", [config, cli], "build_scenario")
        self.patch("demand.sample_many", [demand.DemandProfile], "sample_many", draws)
        self.patch("demand.tail_probability", [demand.DemandProfile], "tail_probability")
        self.patch("balance.closed_form", [balance, simulate, cli], "balance_closed_form")
        self.patch("balance.numeric", [balance, simulate, cli], "balance_numeric")
        self.patch("simulate.run_simulation", [simulate, cli], "run_simulation")
        self.patch("simulate.empirical_optimum", [simulate], "empirical_optimum")
        self.patch("simulate.compare_policies", [simulate], "compare_policies")
        self.patch("market.settle", [market], "settle")
        self.patch("cli.main", [cli], "main")

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload_id": self.workload_id,
                    "columns": ["name", "start_ns", "end_ns", "parent", "items"],
                    "spans": self.spans,
                },
                handle,
            )


def policy_search(scenario, params, out):
    """Grid search, policy comparison and emission settlement on one scenario."""
    from greenprov import config, market, simulate

    r_agreed = scenario.stats.r_agreed
    n = params["levels"]
    grid = [r_agreed * i / (n - 1) for i in range(n)]
    optimum = simulate.empirical_optimum(scenario, grid)
    policy = simulate.Policy
    policies = [
        policy.fixed_agreed(),
        policy.mean_follow(),
        policy.balance(),
        policy.balance_band(params["x_percent"]),
        policy.fixed_level(params["fixed_level"]),
    ]
    comparison = simulate.compare_policies(scenario, policies)
    accounts = [
        market.DataCenterAccount(run.policy.label, cap, run.report.total_emissions_kg)
        for run, cap in zip(comparison.runs, params["caps_kg"])
        if run.report is not None
    ]
    settlement = market.settle(accounts, params["price_per_kg"])
    result = {
        "optimum": {
            "r_star": optimum.r_star,
            "cost": optimum.cost,
            "levels": list(optimum.levels),
            "costs": list(optimum.costs),
            "balance_gap": optimum.balance_gap,
        },
        "comparison": [
            {
                "label": run.policy.label,
                "error": run.error,
                "report": None if run.report is None else {
                    "seed": run.report.seed,
                    "scenario": config.scenario_to_dict(run.report.scenario),
                    "aggregate": run.report.aggregate_dict(),
                },
            }
            for run in comparison.runs
        ],
        "ranking": list(comparison.ranking),
        "settlement": {
            "price_per_kg": settlement.price_per_kg,
            "entries": [
                {
                    "name": e.name,
                    "cap_kg": e.cap_kg,
                    "emissions_kg": e.emissions_kg,
                    "position_kg": e.position_kg,
                    "cash_flow": e.cash_flow,
                }
                for e in settlement.entries
            ],
            "total_position_kg": settlement.total_position_kg,
            "total_cash_flow": settlement.total_cash_flow,
        },
    }
    with open(f"{out}/result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")


def trace_assembly_seconds(scenario, run_simulation, rounds=3):
    """Best time with the per-step trace on minus best time with it off."""
    best = {True: float("inf"), False: float("inf")}
    for _ in range(rounds):
        for trace in (True, False):
            start = time.perf_counter()
            run_simulation(scenario, trace=trace)
            best[trace] = min(best[trace], time.perf_counter() - start)
    return best[True] - best[False]


def main(spec_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    traced = spec["mode"] == "traced"

    import greenprov
    from greenprov import config, simulate

    run_simulation = simulate.run_simulation
    if traced:
        tracer = Tracer(spec["workload_id"])
        tracer.install()

    workload = spec["workload"]
    if workload == "sweep":
        for path in spec["configs"]:
            config.load_config(path).stats()
    else:
        scenario = config.build_scenario(config.load_config(spec["configs"][0]))
    marks = {"greenprov": greenprov.__file__, "t_setup": time.monotonic()}

    if workload == "policy-search":
        policy_search(scenario, spec["params"], spec["out"])
    else:
        from greenprov import cli

        for argv in spec["cli"]:
            code = cli.main(argv)
            if code != 0:
                sys.exit(f"greenprov {' '.join(argv)} exited with {code}")
    marks["t_done"] = time.monotonic()

    if traced:
        tracer.enabled = False
        tracer.write(f"{spec['out']}/spans.json")
        marks["t_spans"] = time.monotonic()
        if workload == "simulate-trace":
            marks["trace_assembly_s"] = trace_assembly_seconds(scenario, run_simulation)
    with open(spec["marks"], "w", encoding="utf-8") as handle:
        json.dump(marks, handle)


if __name__ == "__main__":
    main(sys.argv[1])
