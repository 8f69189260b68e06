"""Import weight of the package.

``import tracereg`` loads only ``scipy.linalg`` of scipy's subpackages
(for LAPACK's ``gtsv``); pulling in another one, such as
``scipy.integrate`` or ``scipy.interpolate``, costs start-up time and
memory in every process that imports the package.
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
    if name.count(".") == 1 and name.startswith("scipy.")
    and not name.split(".")[1].startswith("_") and hasattr(mod, "__path__"))))
"""


def test_import_loads_only_scipy_linalg():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["scipy.linalg"]
