#!/usr/bin/env python3
"""List how one ``harmap verify`` JSON-lines report differs from another.

    python3 scripts/report_diff.py OLD.jsonl NEW.jsonl

Rows are keyed by (name, n). The script prints one summary line, then one
line for each key that one report repeats (the diff reads its last row),
each row added or removed, each row whose status changed, and each row whose
lhs, rhs or margin moved by more than the larger of its two
``error_estimate``s, in the form a change log lists them. It always exits 0:
a difference is a finding to record, not an error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

SIDES = ("lhs", "rhs", "margin")


def load_rows(path) -> tuple[dict, dict]:
    """(name, n) -> row for each line of a report, where a repeated key keeps
    its last row, and each repeated key -> its number of rows."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    keys = Counter((row["name"], row["n"]) for row in rows)
    return ({(row["name"], row["n"]): row for row in rows},
            {key: count for key, count in keys.items() if count > 1})


def _number(x) -> float | None:
    """A side as a float; non-finite values are written as their repr."""
    return None if x is None else float(x)


def _moved(old, new, tol: float) -> bool:
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return a != b
    return not (a == b or abs(b - a) <= tol or (math.isnan(a) and math.isnan(b)))


def _label(key) -> str:
    name, n = key
    return f"`{name}`" if n is None else f"`{name}` n={n}"


def diff_lines(old: dict, new: dict) -> list[str]:
    """The summary line and one line per difference, in sorted row order."""
    added = sorted(new.keys() - old.keys(), key=repr)
    removed = sorted(old.keys() - new.keys(), key=repr)
    status, moved = [], []
    for key in sorted(old.keys() & new.keys(), key=repr):
        a, b = old[key], new[key]
        if a["status"] != b["status"]:
            status.append(f"- status {_label(key)}: {a['status']} -> {b['status']}"
                          f" (margin {a['margin']} -> {b['margin']})")
        tol = max(_number(a["error_estimate"]), _number(b["error_estimate"]))
        sides = [f"{s} {a[s]} -> {b[s]}" for s in SIDES if _moved(a[s], b[s], tol)]
        if sides:
            moved.append(f"- moved {_label(key)}: {', '.join(sides)} (error estimate {tol:g})")
    lines = [f"{len(old)} -> {len(new)} rows: {len(added)} added, {len(removed)} removed, "
             f"{len(status)} changed status, {len(moved)} moved beyond their error estimates"]
    lines += [f"- added {_label(key)}: {new[key]['status']}" for key in added]
    lines += [f"- removed {_label(key)}: {old[key]['status']}" for key in removed]
    return lines + status + moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the earlier JSON-lines report")
    parser.add_argument("new", help="the later JSON-lines report")
    args = parser.parse_args(argv)
    (old, old_repeated), (new, new_repeated) = load_rows(args.old), load_rows(args.new)
    lines = diff_lines(old, new)
    lines[1:1] = [f"- repeated {_label(key)} in {side}: {repeated[key]} rows, the last read"
                  for side, repeated in (("old", old_repeated), ("new", new_repeated))
                  for key in sorted(repeated, key=repr)]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
