"""The benchmark's traced runs wrap package functions by name.

``perfbench/workloads.py`` lists the call sites it patches and reads some
call arguments by parameter name.  Untraced runs never touch them, so a
rename would break only the traced run; these tests catch it here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from tracereg import datagen, experiments

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "traffic_lines.py"


def _load_workloads():
    # one loader for perfbench/workloads.py: the traffic script's
    spec = importlib.util.spec_from_file_location("traffic_lines", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.load_workloads()


def test_call_sites_resolve():
    missing = []
    for module, attr, _ in _load_workloads().CALL_SITES:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing


def test_hooked_parameters_exist():
    assert {"problem", "seed"} <= set(
        inspect.signature(datagen.perturb_flux).parameters)
    assert "out_dir" in inspect.signature(experiments.write_rates).parameters
