"""Shared test set-up."""

import importlib
import pkgutil
import shutil
import tempfile
from pathlib import Path

import hypothesis
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import greenprov
from greenprov import cli, simulate

_HYPOTHESIS_HOME = pytest.StashKey[Path]()

# Property tests are derandomized and keep no example database, so every
# run checks the same inputs and writes nothing; a test sets only its
# example count and health-check overrides on top of this profile.
settings.register_profile("greenprov", derandomize=True, database=None, deadline=None)
settings.load_profile("greenprov")

# hypothesis also mixes into its draws the constants of every module loaded
# from outside the standard library, site-packages and test directories:
# here, the greenprov modules. Loading them all before any test runs gives
# every session the same constants, so a property test draws the same
# examples alone as in the full suite (test_draws.py checks this).
for module in pkgutil.walk_packages(greenprov.__path__, "greenprov."):
    importlib.import_module(module.name)


def pytest_configure(config):
    # hypothesis caches the constants it finds in the source under
    # ./.hypothesis while tests are collected; give it a temporary home.
    # Only its Unicode tables, which take seconds to build and depend on
    # nothing in the tree, outlive the session: they are kept in the
    # system's temporary directory, one cache per hypothesis version.
    home = Path(tempfile.mkdtemp(prefix="hypothesis-"))
    tables = Path(tempfile.gettempdir()) / f"greenprov-hypothesis-{hypothesis.__version__}"
    tables.mkdir(exist_ok=True)
    (home / "unicode_data").symlink_to(tables, target_is_directory=True)
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    # CLI commands without --output write into the working directory;
    # keep those files out of the source tree.
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def small_chunks(monkeypatch):
    # A run's demand is drawn simulate._CHUNK steps at a time and its tables
    # are written cli._ROW_BLOCK rows at a time; both are read at call time.
    # Small sizes (the chunk still a multiple of the block) let a test cross
    # the chunk boundaries in a few hundred rows.
    monkeypatch.setattr(simulate, "_CHUNK", 64)
    monkeypatch.setattr(cli, "_ROW_BLOCK", 16)
