"""Smoke runs of the demo scripts and the demo configurations."""

import runpy
from pathlib import Path

import pytest

from bitrans.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_script_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("config", sorted((DEMOS / "configs").glob("*.yaml")),
                         ids=lambda p: p.stem)
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_demo_config_exits_0(config, command, tmp_path):
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
