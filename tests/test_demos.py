"""Every demo runs to the end, prints all its lines and warns of nothing."""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# Lines each demo prints; every demo in demos/ is listed.
LINES = {
    "walk_tour.py": 25,
    "dufresne_limit.py": 14,
    "lyapunov_spectrum.py": 21,
    "law_gallery.py": 21,
    "kesten_fixed_point.py": 3,
    "grsk_dynamics.py": 9,
}


@pytest.mark.parametrize("name", list(LINES))
def test_demo_runs_and_prints(name, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.out.count("\n") == LINES[name]
    assert captured.err == ""


def test_every_demo_is_run():
    assert set(LINES) == {path.name for path in DEMOS.glob("*.py")}
