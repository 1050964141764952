"""Every demo script runs to completion against the current library."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # demos may write output files
    runpy.run_path(str(script), run_name="__main__")
