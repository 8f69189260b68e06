"""Compare two output trees of the rate-study presets.

    python scripts/compare_outputs.py OLD NEW

OLD and NEW are ``out/`` directories written by
``scripts/reproduce_rates.py`` (one ``<preset>/`` directory per study and
``check.txt``, the standard output of ``tracereg check``).  For each
preset it prints whether ``rates``, ``summary`` and the reconstruction
``a_alpha`` (each ``.csv`` and ``.dat``) are byte-identical, or which
tree lacks the file.  If any differ, it also prints the largest relative
move of ``err_l2`` and ``err_h1`` over the rows of ``rates.csv`` and both
fitted slopes, old and new, to four decimals.  For ``check.txt`` it
prints whether the two are byte-identical and, if not, the lines that
differ.  Exits 0 when every file is present and byte-identical in both
trees and 1 otherwise.
"""

import csv
import difflib
import math
import os
import sys

FILES = ("rates.csv", "rates.dat", "summary.csv", "summary.dat",
         "a_alpha.csv", "a_alpha.dat")
CHECK = "check.txt"


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def relative_move(old: str, new: str) -> float:
    a, b = float(old), float(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def compare_preset(old_dir: str, new_dir: str) -> tuple[bool, str]:
    state = {}
    for name in FILES:
        paths = [os.path.join(d, name) for d in (old_dir, new_dir)]
        missing = [p for p in paths if not os.path.isfile(p)]
        if missing:
            state[name] = f"missing in {', '.join(missing)}"
            continue
        with open(paths[0], "rb") as f_old, open(paths[1], "rb") as f_new:
            state[name] = "same" if f_old.read() == f_new.read() else "differs"
    line = ", ".join(f"{name} {s}" for name, s in state.items())
    if all(s == "same" for s in state.values()):
        return True, line
    if any(state[name].startswith("missing") for name in ("rates.csv", "summary.csv")):
        return False, line
    old_rows = read_rows(os.path.join(old_dir, "rates.csv"))
    new_rows = read_rows(os.path.join(new_dir, "rates.csv"))
    if len(old_rows) != len(new_rows):
        return False, f"{line}; rates.csv has {len(old_rows)} -> {len(new_rows)} rows"
    for col in ("err_l2", "err_h1"):
        move = max(relative_move(o[col], n[col]) for o, n in zip(old_rows, new_rows))
        line += f"; {col} moved by at most {move:.2g} relative"
    old_sum = read_rows(os.path.join(old_dir, "summary.csv"))[0]
    new_sum = read_rows(os.path.join(new_dir, "summary.csv"))[0]
    for col in ("slope_l2", "slope_h1"):
        line += f"; {col} {float(old_sum[col]):.4f} -> {float(new_sum[col]):.4f}"
    return False, line


def compare_check(old: str, new: str) -> bool:
    paths = [os.path.join(d, CHECK) for d in (old, new)]
    missing = [p for p in paths if not os.path.isfile(p)]
    if missing:
        print(f"{CHECK}: missing {', '.join(missing)}")
        return False
    with open(paths[0]) as f_old, open(paths[1]) as f_new:
        old_lines, new_lines = f_old.readlines(), f_new.readlines()
    if old_lines == new_lines:
        print(f"{CHECK}: same")
        return True
    print(f"{CHECK}: differs")
    sys.stdout.writelines(difflib.unified_diff(old_lines, new_lines, paths[0],
                                               paths[1], n=0))
    return False


def run(old: str, new: str) -> int:
    all_same = compare_check(old, new)
    presets = sorted(name for name in set(os.listdir(old)) | set(os.listdir(new))
                     if name != CHECK)
    for preset in presets:
        old_dir, new_dir = os.path.join(old, preset), os.path.join(new, preset)
        if not (os.path.isdir(old_dir) and os.path.isdir(new_dir)):
            print(f"{preset}: missing in {old if not os.path.isdir(old_dir) else new}")
            all_same = False
            continue
        same, line = compare_preset(old_dir, new_dir)
        all_same &= same
        print(f"{preset}: {line}")
    return 0 if all_same else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: compare_outputs.py OLD NEW")
    sys.exit(run(sys.argv[1], sys.argv[2]))
