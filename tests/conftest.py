"""Shared test set-up."""

import pytest


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    # CLI commands without --output write into the working directory;
    # keep those files out of the source tree.
    monkeypatch.chdir(tmp_path)
