"""Import weight of the package.

``import tracereg`` loads no scipy subpackage: LAPACK's ``gtsv`` comes from
scipy's extension module ``scipy/linalg/_flapack``, loaded from its file,
not through the ``scipy.linalg`` package, whose import also loads
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma`` and costs about 0.3 s
and 18 MB in every process that imports the package.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import tracereg
print(" ".join(sorted(
    name for name, mod in sys.modules.items()
    if (name.startswith("scipy.") and hasattr(mod, "__path__"))
    or name in ("scipy", "numpy.f2py", "numpy.testing", "numpy.ma"))))
"""

SAME_ROUTINE = """
import {first}, {second}
import scipy.linalg.lapack, tracereg.func1d
print(tracereg.func1d.dgtsv is scipy.linalg.lapack.dgtsv)
"""


def _python(code, *path, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in path] + [str(SRC)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env, check=check,
                          capture_output=True, text=True)


def test_import_loads_no_scipy_subpackage():
    assert _python(PROBE).stdout.split() == []


def test_both_import_orders_share_one_dgtsv():
    for first, second in [("tracereg", "scipy.linalg"), ("scipy.linalg", "tracereg")]:
        out = _python(SAME_ROUTINE.format(first=first, second=second)).stdout
        assert out.split() == ["True"], (first, second)


def test_scipy_without_flapack_is_an_import_error(tmp_path):
    stub = tmp_path / "scipy"
    stub.mkdir()
    (stub / "__init__.py").write_text("")
    run = _python("import tracereg", tmp_path, check=False)
    assert run.returncode != 0
    assert "ImportError" in run.stderr and "_flapack" in run.stderr
