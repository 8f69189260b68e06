"""The verdicts of ``scripts/bench_pairs.py`` on made-up runs.

``compare`` turns one metric's runs, one a pair for each tree, into the
``BENCH_*.json`` fields; these tests feed it runs whose verdict is known.
They run no git command and no benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


bench_pairs = _load()

# the parent's runs: median 10.0, interquartile distance 0.35
PARENT = [9.6, 9.7, 9.8, 9.9, 10.0, 10.0, 10.1, 10.2, 10.3, 10.4]


def _change(ahead: int, gap: float = 1.0) -> list[float]:
    # the change a clear gap below the parent in the first `ahead` pairs,
    # and above it in the rest
    return [p - gap if i < ahead else p + 0.05 for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("ahead, counts", [(10, True), (9, True), (8, False)])
def test_a_gain_counts_when_nine_tenths_of_ten_pairs_are_ahead(ahead, counts):
    v = bench_pairs.compare({"parent": PARENT, "change": _change(ahead)}, "lower", 0.25)
    assert v["change_wins"] == f"{ahead}/10"
    assert v["parent_iqr"] == pytest.approx(0.35)
    assert v["gain_counts"] is counts


def test_a_gap_within_the_parents_iqr_does_not_count():
    v = bench_pairs.compare({"parent": PARENT, "change": _change(10, gap=0.3)}, "lower", 0.25)
    assert v["change_wins"] == "10/10"
    assert v["gain_counts"] is False


@pytest.mark.parametrize("change", [[1.0] * 9, [p / 100 for p in PARENT[:9]]])
def test_nine_pairs_never_count(change):
    v = bench_pairs.compare({"parent": PARENT[:9], "change": change}, "lower", 0.25)
    assert v["change_wins"] == "9/9"
    assert v["gain_counts"] is False


def test_better_higher_flips_the_sign():
    higher = [p + 1.0 for p in PARENT]
    up = bench_pairs.compare({"parent": PARENT, "change": higher}, "higher", 0.25)
    assert up["change_wins"] == "10/10" and up["gain_counts"] is True
    assert up["worse_by"] < 0
    down = bench_pairs.compare({"parent": PARENT, "change": higher}, "lower", 0.25)
    assert down["change_wins"] == "0/10" and down["gain_counts"] is False
    assert down["worse_by"] > 0


@pytest.mark.parametrize("factor, bound, within", [
    (1.04, 0.05, True), (1.06, 0.05, False), (1.20, 0.25, True), (1.30, 0.25, False)])
def test_within_bound_follows_the_bound(factor, bound, within):
    v = bench_pairs.compare({"parent": PARENT, "change": [p * factor for p in PARENT]},
                            "lower", bound)
    assert v["worse_by"] == pytest.approx(factor - 1.0)
    assert v["within_bound"] is within


def test_the_fields_are_the_two_trees():
    v = bench_pairs.compare({"parent": PARENT, "change": PARENT}, "lower", 0.25)
    assert not any(key.startswith("aa") for key in v)
    assert {"parent", "change", "parent_runs", "change_runs"} <= set(v)


def test_the_trees_export_names_have_one_length():
    assert bench_pairs.TREES == ("parent", "change")
    assert len({len(name) for name in bench_pairs.TREES}) == 1
