"""The benchmark's traced runs wrap package functions by name.

``perfbench/workloads.py`` lists the call sites it patches and reads some
call arguments by parameter name.  Untraced runs never touch them, so a
rename would break only the traced run; these tests catch it here.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from tracereg import datagen, experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    # workloads.py imports its sibling ``stats`` as a top-level module
    had_stats = "stats" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        if not had_stats:
            sys.modules.pop("stats", None)
    return module


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
