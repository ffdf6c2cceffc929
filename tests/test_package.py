"""The package namespace: what ``import posdefwalks`` binds and exports."""

import os
import subprocess
import sys
import types
from pathlib import Path

import posdefwalks


def test_all_lists_every_public_name_the_package_binds():
    # __all__ and the import list in __init__.py are kept by hand; they must agree.
    bound = {
        name
        for name, value in vars(posdefwalks).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(posdefwalks.__all__) == len(set(posdefwalks.__all__))
    assert set(posdefwalks.__all__) == bound | {"__version__"}


def test_the_package_never_imports_scipy_stats_integrate_or_interpolate():
    # Each of these would add a third to a half of a second to every process's
    # start; the KS tests, the eta CDF window and the CDF tables take their
    # numbers from numpy and scipy.special alone.
    code = (
        "import math, sys, posdefwalks, posdefwalks.cli\n"
        "from posdefwalks import special, verify\n"
        "BANNED = ('scipy.stats', 'scipy.integrate', 'scipy.interpolate')\n"
        "def check(by):\n"
        "    assert not [m for m in BANNED if m in sys.modules], f'imported by {by}'\n"
        "check('the package')\n"
        "for idx, name in enumerate(verify.REDUCED_CONFIG):\n"
        "    verify.run_check(name, 11, stream_id=1000 + idx, config=verify.REDUCED_CONFIG)\n"
        "    check(name)\n"
        "verify.check_intertwining_d1(special.ModelParams(1, 2.0, 5.0), s_grid=(1.0,))\n"
        "check('intertwining_d1')\n"
        "cdf = special.QuadratureCdf(lambda x: x * x * math.exp(-x), 1e-4, 60.0)\n"
        "cdf(1.0)\n"
        "check('a QuadratureCdf of a float-only density')\n"
    )
    src = str(Path(posdefwalks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
