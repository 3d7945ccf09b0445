"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 42 --seconds 20 --trace 0

Set-up (import plus inputs) is timed in several fresh processes and in
this one. Then one untimed warm-up iteration and whole timed iterations
run one after another while the next one is expected to end within
``--seconds`` (at least three timed ones without tracing). Outputs,
the warm-up's too, are checked after the loop. With ``--trace 0`` the last
line of output carries the end-to-end metrics; with ``--trace 1`` half of
the time runs untraced and half traced, and the last line carries the
per-layer metrics from the traced iterations. The metric names and units
are those of ``BENCHMARK.json``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import layers
import spans
from workloads import QUERY_KINDS, ROOT, WORKLOADS, harmap_src, set_up

SETUP_PROBES = 4
MIN_ITERATIONS = 3
PROBE_TIMEOUT_S = 120
SPANS_DIR = ROOT / ".perfbench-out"


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def high_percentile(samples):
    """(p, value): the highest whole percentile with at least ten samples
    beyond it, by nearest rank; None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return 100 * rank // n, sorted(samples)[rank - 1]


def setup_samples(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_time.py"),
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def cpu_time() -> float:
    """CPU seconds used so far by all threads of this process and by its
    children that have ended and been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def more(walls, start: float, seconds: float, min_iterations: int) -> bool:
    """Run another iteration while one more is expected to end in time."""
    if len(walls) < min_iterations:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def timed_loop(state, seconds: float, min_iterations: int):
    """A warm-up iteration, then timed ones; returns (walls, cpus,
    outcomes), the warm-up's outcome first and its times left out."""
    walls, cpus = [], []
    start = time.perf_counter()
    outcomes = [state.iterate()]
    while more(walls, start, seconds, min_iterations):
        t0, c0 = time.perf_counter(), cpu_time()
        outcomes.append(state.iterate())
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_time() - c0)
    return walls, cpus, outcomes


def traced_loop(hm, state, seconds: float, workload: str):
    """Traced iterations; returns (walls, outcomes, per-iteration layer
    metrics). The spans of the last iteration are written to SPANS_DIR."""
    walls, outcomes, per_iteration = [], [], []
    recorder = None
    start = time.perf_counter()
    while more(walls, start, seconds, 1):
        recorder = spans.SpanRecorder()
        with spans.traced(recorder, hm):
            t0 = time.perf_counter()
            outcomes.append(state.iterate())
            walls.append(time.perf_counter() - t0)
        per_iteration.append(layers.layer_metrics(recorder.spans, recorder.pool_workers))
    SPANS_DIR.mkdir(exist_ok=True)
    recorder.write(SPANS_DIR / f"spans-{workload}.jsonl")
    return walls, outcomes, per_iteration


def git_commit():
    """The checkout's commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, digest: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "HARMAP_THREADS": os.environ.get("HARMAP_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "digest": digest,
        "campaign_digest": digest if args.workload == "campaign" else None,
    }


def print_table(title: str, rows) -> None:
    """rows: (name, value or None, unit, sample count, samples or None)."""
    print(title)
    for name, value, unit, n, samples in rows:
        hp = high_percentile(samples) if samples else None
        tail = "-" if hp is None else f"p{hp[0]}={hp[1]:.6g}"
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>12s} {unit:6s} n={n:<6d} {tail}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=nonnegative_int, required=True)
    ap.add_argument("--seconds", type=positive_float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        harmap_src()
        setups = setup_samples(args.workload, args.seed)
        hm, state, own_setup = set_up(args.workload, args.seed)
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append(own_setup)

    if args.trace:
        walls, _, outcomes = timed_loop(state, args.seconds / 2, 1)
        t_walls, t_outcomes, per_iteration = traced_loop(hm, state, args.seconds / 2,
                                                         args.workload)
        outcomes += t_outcomes
    else:
        walls, cpus, outcomes = timed_loop(state, args.seconds, MIN_ITERATIONS)
    attempted, failed, notes = state.check(outcomes)
    correct = failed == 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("manifest " + json.dumps(manifest(args, outcomes[0].digest)))
    for note in notes[:20]:
        print(f"note: {note}")
    print(f"{args.workload} seed {args.seed}: {len(outcomes)} iterations, "
          f"attempted {attempted}, failed {failed}, failed_ratio {failed / attempted:g}")

    if args.trace:
        values = {name: statistics.median(m[name] for m in per_iteration)
                  for name in per_iteration[0]}
        for name in values:
            if layers.is_count(name) and len({m[name] for m in per_iteration}) != 1:
                correct = False
                print(f"note: count {name} differs between traced iterations")
        values["trace.overhead_ratio"] = statistics.median(t_walls) / statistics.median(walls)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        values = {"setup_s": statistics.median(setups),
                  "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": peak_rss_mb}
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        rows = [
            ("setup_s", values["setup_s"], "s", len(setups), setups),
            ("cpu_s", values["cpu_s"], "s", len(cpus), cpus),
            ("wall_s", statistics.median(walls), "s", len(walls), walls),
            ("peak_rss_mb", peak_rss_mb, "MB", 1, None),
            ("failed_ratio", failed / attempted, "ratio", attempted, None),
        ]
        for kind in QUERY_KINDS:
            lat = [s * 1e3 for out in outcomes[1:] for s in out.latencies.get(kind, ())]
            rows.append((f"{kind}_ms", statistics.median(lat) if lat else None, "ms",
                         len(lat), lat))
        print_table("end-to-end (wall_s and below: not in the result line;"
                    " per-kind latencies: query only)", rows)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    if args.trace:
        print_table("per-layer (median over traced iterations)",
                    [(name, values[name], units[name], len(per_iteration), None)
                     for name in units])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
