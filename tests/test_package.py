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


def test_the_package_never_imports_scipy():
    # All of scipy costs a process about 0.3 s to import, half of its start
    # (scipy.special alone pulls in numpy's f2py, testing and ma); the
    # package's special functions, KS law, quadrature rule and CDF tables
    # take their numbers from numpy and math alone. numpy's lazy numpy.ma
    # (about 14 ms, which np.median loads) is banned too. Checked after the
    # import and after each step, each CLI run in the same process.
    code = (
        "import contextlib, io, math, sys, posdefwalks, posdefwalks.cli\n"
        "from posdefwalks import cli, special, verify\n"
        "def check(by):\n"
        "    banned = [m for m in sys.modules\n"
        "              if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']]\n"
        "    assert not banned, f'{banned} imported by {by}'\n"
        "check('the package')\n"
        "for idx, name in enumerate(verify.REDUCED_CONFIG):\n"
        "    verify.run_check(name, 11, stream_id=1000 + idx, config=verify.REDUCED_CONFIG)\n"
        "    check(name)\n"
        "verify.check_intertwining_d1(special.ModelParams(1, 2.0, 5.0), s_grid=(1.0,))\n"
        "check('intertwining_d1')\n"
        "cdf = special.QuadratureCdf(lambda x: x * x * math.exp(-x), 1e-4, 60.0)\n"
        "cdf(1.0)\n"
        "check('a QuadratureCdf of a float-only density')\n"
        "verify.FULL_CONFIG['lukacs'] = verify.REDUCED_CONFIG['lukacs']\n"
        "for line in ('lyapunov --d 2 --alpha 2 --beta 5 --steps 20 --replicas 3',\n"
        "             'dufresne --d 1 --alpha 2 --beta 5 --n 5', 'verify lukacs --seed 1'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(line.split()) == 0, line\n"
        "    check(line)\n"
    )
    src = str(Path(posdefwalks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
