"""No workflow loads a module it does not need.

greenprov depends on numpy and PyYAML only: importing it, building and
sampling the truncated-normal and lognormal families, and the CLI's
``balance``, ``sweep`` and truncated-normal ``simulate --trace`` leave no
``scipy*`` module in sys.modules.  A sweep with error rows leaves no
``numpy.ma*`` module either: numpy loads it lazily (``np.unique`` does),
and it costs about 1.4 MB of resident memory.
Each check runs in its own interpreter, since this one may have scipy
loaded by another test dependency.
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


def modules_loaded(code: str, package: str) -> list[str]:
    """Modules of package (a dotted name) loaded after running code in a
    fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + REPORT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    return [m for m in loaded if m == package or m.startswith(package + ".")]


def scipy_modules(code: str) -> list[str]:
    """scipy modules loaded after running code in a fresh interpreter."""
    return modules_loaded(code, "scipy")


def write(tmp_path, text: str) -> str:
    path = tmp_path / "scenario.yaml"
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


RATES = "rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0}\n"


def test_import_loads_no_scipy():
    assert scipy_modules("import greenprov") == []


@pytest.mark.parametrize(
    "config,argv",
    [
        ("stats: {mean_demand: 40, max_demand: 80, r_agreed: 100}\n" + RATES, ["balance"]),
        ("demand: {kind: uniform, lower: 0, upper: 80}\nstats: {r_agreed: 100}\n" + RATES,
         ["balance"]),
        ("stats: {mean_demand: 40, max_demand: 80, r_agreed: 100}\n" + RATES,
         ["sweep", "--param", "c_viol=0:2:3"]),
    ],
    ids=["balance-explicit", "balance-uniform", "sweep-explicit"],
)
def test_cli_without_parametric_demand_loads_no_scipy(tmp_path, config, argv):
    path = write(tmp_path, config)
    args = [argv[0], path, "--output", str(tmp_path / "out"), *argv[1:]]
    code = f"""
        import contextlib, io
        from greenprov.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({args!r}) == 0
    """
    assert scipy_modules(code) == []


@pytest.mark.parametrize(
    "kind,params",
    [("truncated_normal", [40, 15, 0, 80]), ("lognormal", [3.0, 0.5, 60.0])],
)
def test_parametric_profiles_load_no_scipy(kind, params):
    loaded = scipy_modules(f"""
        import numpy as np
        from greenprov import make_profile
        profile = make_profile({kind!r}, {params!r})
        profile.sample_many(np.random.default_rng(1), 1000)
        profile.mean(), profile.variance(), profile.quantile(0.99)
        profile.tail_probability(30.0)
    """)
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
    loaded = scipy_modules(f"""
        import contextlib, io
        from greenprov.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({args!r}) == 0
    """)
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
    """, "numpy.ma")
    assert loaded == []
