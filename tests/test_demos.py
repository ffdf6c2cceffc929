"""The demos that drive the walk, series and Lyapunov code run to the end."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["walk_tour.py", "dufresne_limit.py", "lyapunov_spectrum.py"])
def test_demo_runs_and_prints(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.count("\n") >= 5
