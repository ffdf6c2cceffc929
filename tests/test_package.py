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


def test_the_package_never_imports_scipy_stats():
    # scipy.stats would add about half a second to every process's start;
    # the KS tests and the eta CDF window take their numbers from scipy.special.
    code = (
        "import sys, posdefwalks, posdefwalks.cli\n"
        "from posdefwalks import verify\n"
        "assert 'scipy.stats' not in sys.modules, 'imported by the package'\n"
        "for idx, name in enumerate(verify.REDUCED_CONFIG):\n"
        "    verify.run_check(name, 11, stream_id=1000 + idx, config=verify.REDUCED_CONFIG)\n"
        "    assert 'scipy.stats' not in sys.modules, f'imported by {name}'\n"
    )
    src = str(Path(posdefwalks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
