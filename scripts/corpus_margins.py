#!/usr/bin/env python3
"""Sweep a fuzz corpus and tabulate the worst margins of each inequality.

Shows how close random admissible maps come to the sharp bounds: the minimum
margin per check over the corpus, with the map index attaining it. The rows
come from one campaign (``harmap.cli.run_config``) of five suites on the
corpus alone, at the campaign's defaults. Margins are oriented so that >= 0
means the inequality holds.
"""

import argparse
import sys

from harmap import FuzzSpec
from harmap.cli import SuiteConfig, run_config

SUITES = ("three-circles", "hardy-area", "coeff-bound", "gradient-bound", "isoperimetric")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--degree", type=int, default=8)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    cfg = SuiteConfig(suites=SUITES, include_builtin=False, seed=args.seed,
                      fuzz=FuzzSpec(count=args.count, degree=args.degree, seed=args.seed))
    reports, _ = run_config(cfg)
    worst: dict[str, tuple[float, int]] = {}
    for rep in reports:
        check, map_id = rep.name.split("@")  # check(parameters)@fuzz-NNNN
        name, idx = check.split("(")[0], int(map_id.removeprefix("fuzz-"))
        if rep.margin is not None and (name not in worst or rep.margin < worst[name][0]):
            worst[name] = (rep.margin, idx)

    width = max(len(k) for k in worst)
    print(f"{'check':<{width}}  {'min margin':>14}  map")
    for name in sorted(worst):
        margin, idx = worst[name]
        print(f"{name:<{width}}  {margin:14.6e}  {idx:4d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
