"""``scripts/traffic_lines.py`` lists the statements a traced run missed."""

import importlib.util
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "traffic_lines.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("traffic_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_lists_the_cold_statements_but_raises(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(textwrap.dedent('''\
        def f(x):
            """Docstring."""
            if x > 0:
                y = (x
                     + 1)
            else:
                y = -x
            if x > 10:
                raise ValueError(x)
            return y
        '''))
    script = _load_script()
    spec = importlib.util.spec_from_file_location("sample", path)
    sample = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sample)
    executed = script.traced(lambda: sample.f(1), str(tmp_path))
    lines = {line for _, line in executed}
    assert script.unreached(str(path), lines) == [(7, "y = -x")]
    assert script.unreached(str(path), set()) == [
        (3, "if x > 0:"), (4, "y = (x"), (7, "y = -x"), (8, "if x > 10:"),
        (10, "return y")]
