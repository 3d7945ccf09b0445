"""Print the set-up time of one workload, measured in a fresh process.

Set-up is importing ``harmap`` and building the workload's inputs. The
import can be timed only once per process, so ``run.py`` starts this
script several times and reports the median.

    python3 perfbench/setup_time.py --workload corpus --seed 42
"""

import argparse

from workloads import WORKLOADS, set_up


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(repr(set_up(args.workload, args.seed)[2]))


if __name__ == "__main__":
    main()
