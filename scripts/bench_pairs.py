#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload by alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload query --seed 42 \\
        --pairs 10 --out BENCH_14.json

PARENT and CHANGE are directories holding a checkout each. A pair runs
``perfbench/run.py`` of both for PARENT's ``BENCHMARK.json`` run length,
each on its own sources, the parent first in even pairs and the change
first in odd ones. For every metric a run prints
(the end-to-end metrics of its result line and the rows of its table, such
as ``wall_s`` and the per-kind latencies of ``query``) the summary gives
each side's median and quartiles, the pairs the change won, ties
counting for neither, and the median of the per-pair ratios change / parent
(``pair_ratio_median``), which the host's drift between pairs moves less
than it moves either side's median. A gain is claimed when the change wins
at least nine tenths of the pairs and its median beats the parent's by
more than the parent's interquartile range. A metric with a bound in
``BENCHMARK.json`` is within it when the change's median is no worse than
the parent's by more than that fraction. Beside the metrics, the summary
gives what the benchmark also rejects on: whether the two sides' digests
agree, whether each side's digests equal the reference of PARENT's
``perfbench/workloads.py`` (``campaign`` at a seed that has one), and each
side's failed/attempted share. The summary is printed and stored in
``--out``, a JSON object keyed by ``workload/seed``; the file's other keys
are kept.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def parse_output(text: str) -> dict:
    """One run of ``perfbench/run.py``: the manifest's digest, the result
    line's correctness and metrics, and the numeric rows of its table."""
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    manifest = next(json.loads(line[len("manifest "):]) for line in lines
                    if line.startswith("manifest "))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        parts = line.split()
        # A table row: "  name  value  unit  n=N  tail".
        if line.startswith("  ") and len(parts) == 5 and parts[3].startswith("n="):
            try:
                metrics.setdefault(parts[0], float(parts[1]))
            except ValueError:  # "n/a"
                pass
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digest": manifest.get("digest"), "metrics": metrics}


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], declared: list[dict]) -> dict:
    """Per metric, from (parent run, change run) pairs as
    :func:`parse_output` returns them; ``declared`` is ``BENCHMARK.json``'s
    ``end_to_end`` list, which gives the bounds and the better direction
    (lower for a metric it does not declare)."""
    spec = {m["name"]: m for m in declared}
    names = [n for n in pairs[0][0]["metrics"] if all(n in p["metrics"] and n in c["metrics"]
                                                      for p, c in pairs)]
    out = {}
    for name in names:
        lower = spec.get(name, {}).get("better", "lower") == "lower"
        sign = 1.0 if lower else -1.0
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(parent, change))
        losses = sum(sign * (cv - pv) > 0 for pv, cv in zip(parent, change))
        med_p, med_c = statistics.median(parent), statistics.median(change)
        q_p, q_c = _quartiles(parent), _quartiles(change)
        gain = sign * (med_p - med_c)  # > 0: the change is better
        ratios = [cv / pv for pv, cv in zip(parent, change) if pv]
        bound = spec.get(name, {}).get("bound")
        out[name] = {
            "parent": parent,
            "change": change,
            "parent_median": med_p,
            "change_median": med_c,
            "parent_quartiles": list(q_p),
            "change_quartiles": list(q_c),
            "relative_change": (med_c - med_p) / med_p if med_p else None,
            "pair_ratio_median": statistics.median(ratios) if ratios else None,
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "gain_claimed": wins >= WIN_SHARE * len(pairs) and gain > q_p[1] - q_p[0],
            "within_bound": None if bound is None else -gain <= bound * abs(med_p),
        }
    return out


def outputs(pairs: list[tuple[dict, dict]], reference: str | None) -> dict:
    """The checks on the runs' outputs, from (parent run, change run) pairs:
    whether every pair's digests agree, each side's digests against
    ``reference`` (None: no reference), and each side's share of failed
    operations over all its runs."""
    out = {"digests_agree": all(p["digest"] == c["digest"] for p, c in pairs),
           "reference": reference}
    for i, side in enumerate(("parent", "change")):
        runs = [pair[i] for pair in pairs]
        out[f"{side}_matches_reference"] = (
            None if reference is None else all(run["digest"] == reference for run in runs))
        attempted = sum(run["attempted"] for run in runs)
        out[f"{side}_failed_share"] = sum(run["failed"] for run in runs) / max(attempted, 1)
    return out


def campaign_reference(checkout: Path, workload: str, seed: int) -> str | None:
    """The campaign digest that ``checkout``'s benchmark pins for ``seed``."""
    if workload != "campaign":
        return None
    spec = importlib.util.spec_from_file_location("workloads", checkout / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CAMPAIGN_REFERENCE.get(seed)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return parse_output(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    args.parent, args.change = args.parent.resolve(), args.change.resolve()

    declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]  # the run length the benchmark sets, on both sides
    pairs = []
    for i in range(args.pairs):
        sides = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        runs = {side: run_once(side, args.workload, args.seed, seconds) for side in sides}
        pairs.append((runs[args.parent], runs[args.change]))
        cpu = [runs[s]["metrics"].get("cpu_s") for s in (args.parent, args.change)]
        print(f"pair {i + 1}/{args.pairs}: cpu_s parent {cpu[0]:.4g}, change {cpu[1]:.4g}",
              flush=True)

    metrics = summarize(pairs, declared["end_to_end"])
    checks = outputs(pairs, campaign_reference(args.parent, args.workload, args.seed))
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    print(f"  digests agree: {'yes' if checks['digests_agree'] else 'NO'}"
          + ("" if checks["reference"] is None else
             f"; equal the reference {checks['reference'][:8]}: parent "
             f"{'yes' if checks['parent_matches_reference'] else 'NO'}, change "
             f"{'yes' if checks['change_matches_reference'] else 'NO'}"))
    print(f"  failed/attempted: parent {checks['parent_failed_share']:.4g}, "
          f"change {checks['change_failed_share']:.4g}")
    print(f"  {'metric':16s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'ratio':>7s} {'wins':>6s}  gain  bound")
    for name, m in metrics.items():
        shown = [f"{m[f'{side}_median']:.4g} [{m[f'{side}_quartiles'][0]:.4g}, "
                 f"{m[f'{side}_quartiles'][1]:.4g}]" for side in ("parent", "change")]
        ratio = "-" if m["pair_ratio_median"] is None else f"{m['pair_ratio_median']:.4g}"
        bound = "-" if m["within_bound"] is None else "ok" if m["within_bound"] else "WORSE"
        print(f"  {name:16s} {shown[0]:>30s} {shown[1]:>30s} {ratio:>7s} {m['wins']:>3d}/{m['pairs']:<2d}"
              f"  {'yes' if m['gain_claimed'] else 'no':4s}  {bound}")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "correct": all(run["correct"] for pair in pairs for run in pair),
        "digests": sorted({run["digest"] for pair in pairs for run in pair}),
        **checks,
        "metrics": metrics,
    }
    stored = json.loads(args.out.read_text()) if args.out.exists() else {}
    stored[f"{args.workload}/{args.seed}"] = summary
    args.out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
