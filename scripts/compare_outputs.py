"""Compare two output trees of the rate-study presets.

    python scripts/compare_outputs.py OLD NEW

OLD and NEW are ``out/`` directories written by
``scripts/reproduce_rates.py`` (one ``<preset>/`` directory per study).
For each preset it prints whether ``rates`` and ``summary`` (``.csv`` and
``.dat``) are byte-identical.  If any differ, it also prints the largest
relative move of ``err_l2`` and ``err_h1`` over the rows of ``rates.csv``
and both fitted slopes, old and new, to four decimals.  Exits 0 when
every file of every preset is byte-identical and 1 otherwise.
"""

import csv
import math
import os
import sys

FILES = ("rates.csv", "rates.dat", "summary.csv", "summary.dat")


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def relative_move(old: str, new: str) -> float:
    a, b = float(old), float(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def compare_preset(old_dir: str, new_dir: str) -> tuple[bool, str]:
    same = {}
    for name in FILES:
        with open(os.path.join(old_dir, name), "rb") as f_old, \
                open(os.path.join(new_dir, name), "rb") as f_new:
            same[name] = f_old.read() == f_new.read()
    line = ", ".join(f"{name} {'same' if ok else 'differs'}"
                     for name, ok in same.items())
    if all(same.values()):
        return True, line
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


def run(old: str, new: str) -> int:
    presets = sorted(set(os.listdir(old)) | set(os.listdir(new)))
    all_same = True
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
