"""No workflow loads a module it does not need.

greenprov depends on numpy and PyYAML only: importing it, building and
sampling the truncated-normal and lognormal families, and the CLI's
``balance``, ``sweep`` and truncated-normal ``simulate --trace`` leave no
``scipy*`` module in sys.modules.  A sweep with error rows leaves no
``numpy.ma*`` module either: numpy loads it lazily (``np.unique`` does),
and it costs about 1.4 MB of resident memory.
numpy 2 loads ``numpy.random`` lazily too, and with it ``secrets``,
``hashlib`` and ``_hashlib`` (OpenSSL's libcrypto): about 6.1 MB of
resident memory and 8.5 ms.  Only a workflow that draws demand needs it, so
importing greenprov and the CLI's ``balance``, ``sweep`` and ``etm`` leave
none of them loaded, while building a ``Scenario`` loads ``numpy.random``,
before any run.
Each check runs in its own interpreter, since this one may have scipy
loaded by another test dependency; one interpreter checks every package
its workflow must not load.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import greenprov

SRC = str(Path(greenprov.__file__).resolve().parents[1])

REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


# numpy.random and the modules numpy 2 loads with it
RANDOM = ("numpy.random", "secrets", "_hashlib")


def modules_loaded(code: str, packages: tuple[str, ...]) -> list[str]:
    """Modules of the packages (dotted names) loaded after running code in
    a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + REPORT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    return [m for m in loaded if any(m == p or m.startswith(p + ".") for p in packages)]


def write(tmp_path, text: str) -> str:
    path = tmp_path / "scenario.yaml"
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


RATES = "rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0}\n"
MARKET = """
market:
  price_per_kg: 0.01
  accounts:
    - {name: dc-east, cap_kg: 100000, emissions_kg: 120000}
"""


def test_import_loads_no_scipy():
    # nor numpy.random: only a Scenario loads it
    assert modules_loaded("import greenprov", ("scipy", *RANDOM)) == []


@pytest.mark.parametrize(
    "config,commands",
    [
        ("stats: {mean_demand: 40, max_demand: 80, r_agreed: 100}\n" + RATES + MARKET,
         [["balance"], ["etm"]]),
        ("demand: {kind: uniform, lower: 0, upper: 80}\nstats: {r_agreed: 100}\n" + RATES,
         [["balance"]]),
        ("stats: {mean_demand: 40, max_demand: 80, r_agreed: 100}\n" + RATES,
         [["sweep", "--param", "c_viol=0:2:3"]]),
    ],
    ids=["balance-explicit", "balance-uniform", "sweep-explicit"],
)
def test_cli_without_parametric_demand_loads_no_scipy(tmp_path, config, commands):
    # nor numpy.random: none of these workflows draws demand
    path = write(tmp_path, config)
    runs = [[name, path, "--output", str(tmp_path / "out"), *rest] for name, *rest in commands]
    code = f"""
        import contextlib, io
        from greenprov.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            for args in {runs!r}:
                assert main(args) == 0
    """
    assert modules_loaded(code, ("scipy", *RANDOM)) == []


@pytest.mark.parametrize(
    "kind,params",
    [("truncated_normal", [40, 15, 0, 80]), ("lognormal", [3.0, 0.5, 60.0])],
)
def test_parametric_profiles_load_no_scipy(kind, params):
    loaded = modules_loaded(f"""
        import numpy as np
        from greenprov import make_profile
        profile = make_profile({kind!r}, {params!r})
        profile.sample_many(np.random.default_rng(1), 1000)
        profile.mean(), profile.variance(), profile.quantile(0.99)
        profile.tail_probability(30.0)
    """, ("scipy",))
    assert loaded == []


def test_simulate_trace_loads_no_scipy(tmp_path):
    path = write(
        tmp_path,
        "demand: {kind: truncated_normal, mu: 40, sigma: 15, lower: 0, upper: 80}\n"
        "stats: {r_agreed: 100}\n" + RATES + "policy: {kind: balance}\n"
        "simulation: {steps: 10, replications: 1, seed: 1, energy_full: 2.0,"
        " carbon_intensity: 0.5}\n",
    )
    args = ["simulate", path, "--output", str(tmp_path / "out"), "--trace"]
    # the Scenario loads numpy.random as it is built, before any run
    loaded = modules_loaded(f"""
        import contextlib, io, sys
        from greenprov.cli import main
        from greenprov.config import build_scenario, load_config
        assert "numpy.random" not in sys.modules
        build_scenario(load_config({path!r}))
        assert "numpy.random" in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({args!r}) == 0
    """, ("scipy",))
    assert loaded == []


def test_sweep_with_error_rows_loads_no_numpy_ma(tmp_path):
    # mean_demand runs past max_demand and the surcharge leaves some cells
    # without a root: InvalidStats and NoRootInRange rows beside solved ones
    path = write(
        tmp_path,
        "stats: {mean_demand: 40, max_demand: 80, r_agreed: 100}\n"
        "rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0, satisfaction: 0.05}\n",
    )
    args = ["sweep", path, "--output", str(tmp_path / "out"),
            "--param", "mean_demand=0:100:21", "--param", "c_en=0:2:5"]
    loaded = modules_loaded(f"""
        import contextlib, io
        from greenprov.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({args!r}) == 0
        text = open({str(tmp_path / "out" / "sweep.csv")!r}).read()
        assert "< mean_demand" in text and "does not cross zero" in text
    """, ("numpy.ma", *RANDOM))
    assert loaded == []
