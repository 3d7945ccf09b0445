"""Tests of the scripts that call the library from outside it."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_corpus_margins_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "corpus_margins.py"), "--count", "3"],
                         capture_output=True, text=True, env=env, timeout=120, check=True).stdout
    lines = out.splitlines()
    assert lines[0].split() == ["check", "min", "margin", "map"]
    names = {line.split()[0] for line in lines[1:]}
    assert {"three-circles", "hardy-area", "coeff-bound", "bloch-bound", "isoperimetric"} <= names


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_output(cpu_s, rss_mb, bloch_ms, digest="ab" * 32, failed=0):
    """The lines of one perfbench/run.py run that the summary reads."""
    result = {"correct": not failed, "attempted": 192, "failed": failed, "metrics": {
        "setup_s": {"value": 0.3, "unit": "s"},
        "cpu_s": {"value": cpu_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }}
    return "\n".join([
        "manifest " + json.dumps({"workload": "query", "seed": 42, "digest": digest}),
        f"query seed 42: 16 iterations, attempted 192, failed {failed}, failed_ratio {failed / 192:.4g}",
        "end-to-end (wall_s and below: not in the result line; per-kind latencies: query only)",
        f"  {'cpu_s':44s} {cpu_s:12.6g} {'s':6s} n={16:<6d} -",
        f"  {'peak_rss_mb':44s} {rss_mb:12.6g} {'MB':6s} n={1:<6d} -",
        f"  {'bloch_ms':44s} {bloch_ms:12.6g} {'ms':6s} n={512:<6d} p98=30",
        f"  {'hardy_inf_ms':44s} {'n/a':>12s} {'ms':6s} n={0:<6d} -",
        json.dumps(result),
    ])


DECLARED = [{"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "cpu_s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]


def test_bench_pairs_summary_applies_the_pair_rule():
    bench = _bench_pairs()
    parent_cpu = [1.00, 1.10, 0.90, 1.05, 0.95, 1.02, 0.98, 1.08, 0.92, 1.00]
    change_cpu = [0.70, 0.72, 0.95, 0.74, 0.70, 0.71, 0.73, 0.75, 0.69, 0.70]  # loses pair 3
    pairs = [(bench.parse_output(_run_output(p, 70.0, 20.0)),
              bench.parse_output(_run_output(c, 71.5 + (i % 2), 10.0)))
             for i, (p, c) in enumerate(zip(parent_cpu, change_cpu))]
    assert pairs[0][0]["digest"] == "ab" * 32
    assert "hardy_inf_ms" not in pairs[0][0]["metrics"]
    m = bench.summarize(pairs, DECLARED)
    assert set(m) == {"setup_s", "cpu_s", "peak_rss_mb", "bloch_ms"}
    cpu = m["cpu_s"]
    assert (cpu["wins"], cpu["losses"], cpu["pairs"]) == (9, 1, 10)
    assert cpu["parent_median"] == 1.0 and cpu["change_median"] == 0.715
    assert cpu["parent_quartiles"] == pytest.approx([0.9575, 1.0425])
    assert cpu["gain_claimed"] and cpu["within_bound"]
    # Ties count for neither side; no gain is claimed without wins.
    assert (m["setup_s"]["wins"], m["setup_s"]["losses"]) == (0, 0)
    assert not m["setup_s"]["gain_claimed"] and m["setup_s"]["within_bound"]
    # Memory 2-3 % higher: every pair lost, within the 15 % bound.
    rss = m["peak_rss_mb"]
    assert rss["losses"] == 10 and rss["within_bound"] and not rss["gain_claimed"]
    assert m["bloch_ms"]["gain_claimed"] and m["bloch_ms"]["within_bound"] is None


def test_bench_pairs_claims_no_gain_inside_the_parents_spread():
    # The change wins every pair, but its median gain (0.01) is less than
    # the parent's interquartile range (0.1).
    bench = _bench_pairs()
    parent_cpu = [0.9, 1.1] * 5
    pairs = [(bench.parse_output(_run_output(p, 70.0, 20.0)),
              bench.parse_output(_run_output(p - 0.01, 70.0, 20.0 + 0.2 * p))) for p in parent_cpu]
    m = bench.summarize(pairs, DECLARED)
    assert m["cpu_s"]["wins"] == 10 and not m["cpu_s"]["gain_claimed"]
    assert m["bloch_ms"]["losses"] == 10 and m["bloch_ms"]["relative_change"] > 0


def test_bench_pairs_stores_the_median_pair_ratio():
    # The host drifts 2x between pairs and the change is 0.9x of the parent
    # in each: the medians' gap (0.15) is inside the parent's interquartile
    # range (1.0), so no gain is claimed, but the median pair ratio reads 0.9.
    # A parent reading 0 gives no ratio.
    bench = _bench_pairs()
    parent_cpu = [1.0, 2.0] * 5
    pairs = [(bench.parse_output(_run_output(p, 70.0, 20.0 * (i > 0))),
              bench.parse_output(_run_output(0.9 * p, 70.0, 10.0))) for i, p in enumerate(parent_cpu)]
    m = bench.summarize(pairs, DECLARED)
    assert m["cpu_s"]["wins"] == 10 and not m["cpu_s"]["gain_claimed"]
    assert m["cpu_s"]["pair_ratio_median"] == pytest.approx(0.9, rel=1e-15)
    assert m["peak_rss_mb"]["pair_ratio_median"] == 1.0
    assert m["bloch_ms"]["pair_ratio_median"] == 0.5  # the median of 9 ratios, pair 1's dropped


def test_bench_pairs_checks_digests_and_failed_shares():
    # Beside the metrics, the benchmark rejects a change whose digest
    # differs from the parent's or from the pinned campaign reference, or
    # whose runs fail a larger share of operations.
    bench = _bench_pairs()
    same = [(bench.parse_output(_run_output(1.0, 70.0, 20.0)),
             bench.parse_output(_run_output(0.9, 70.0, 20.0)))] * 3
    assert bench.outputs(same, None) == {
        "digests_agree": True, "reference": None,
        "parent_matches_reference": None, "change_matches_reference": None,
        "parent_failed_share": 0.0, "change_failed_share": 0.0}
    off = same[:2] + [(bench.parse_output(_run_output(1.0, 70.0, 20.0)),
                       bench.parse_output(_run_output(0.9, 70.0, 20.0, "cd" * 32, failed=48)))]
    checks = bench.outputs(off, "ab" * 32)
    assert not checks["digests_agree"] and checks["reference"] == "ab" * 32
    assert checks["parent_matches_reference"] and not checks["change_matches_reference"]
    assert checks["parent_failed_share"] == 0.0 and checks["change_failed_share"] == 48 / 576
    # The reference is the campaign digest the parent's benchmark pins for the seed.
    reference = bench.campaign_reference(ROOT, "campaign", 42)
    assert reference == "f804fa72d5d9fa8fac834cb3e8388ab251a7ef4f3a1867b1b50c9aa576900b62"
    assert bench.campaign_reference(ROOT, "campaign", 17) is None
    assert bench.campaign_reference(ROOT, "query", 42) is None


def _row(name, lhs, rhs, status="pass", n=None, error=0.0):
    """A report row as ``harmap verify`` writes it; a non-finite side is its repr."""
    margin = None if lhs is None or rhs is None else rhs - float(lhs)
    return {"name": name, "n": n, "lhs": lhs, "rhs": rhs,
            "margin": margin if margin is None or math.isfinite(margin) else repr(margin),
            "status": status,
            "slack": 1e-9, "hypotheses": {}, "witnesses": [], "error_estimate": error, "details": {}}


def _report_diff(tmp_path, old, new) -> list[str]:
    """The lines ``scripts/report_diff.py`` prints for two reports of these rows."""
    paths = []
    for name, rows in (("old.jsonl", old), ("new.jsonl", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text("".join(json.dumps(row) + "\n" for row in rows))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_diff.py"), *map(str, paths)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0 and run.stderr == ""
    return run.stdout.splitlines()


def test_report_diff_lists_what_a_repin_records(tmp_path):
    old = [_row("kept", 0.5, 1.0), _row("within-error", 0.5, 1.0, error=0.01),
           _row("coeff", 0.25, 1.0, n=1), _row("coeff", 0.5, 1.0, n=2),
           _row("gone", 0.1, 1.0), _row("unbounded", "inf", 1.0, status="fail"),
           _row("violated", None, None, status="hypothesis-violated")]
    new = [_row("kept", 0.5, 1.0), _row("within-error", 0.505, 1.0, error=0.001),
           _row("coeff", 0.25, 1.0, n=1), _row("coeff", 0.75, 1.0, n=2),
           _row("unbounded", "inf", 1.0, status="fail"),
           _row("violated", 1.5, 1.0, status="fail"), _row("new", 0.2, 1.0)]
    assert _report_diff(tmp_path, old, new) == [
        "7 -> 7 rows: 1 added, 1 removed, 1 changed status, 2 moved beyond their error estimates",
        "- added `new`: pass",
        "- removed `gone`: pass",
        "- status `violated`: hypothesis-violated -> fail (margin None -> -0.5)",
        "- moved `coeff` n=2: lhs 0.5 -> 0.75, margin 0.5 -> 0.25 (error estimate 0)",
        "- moved `violated`: lhs None -> 1.5, rhs None -> 1.0, margin None -> -0.5 (error estimate 0)",
    ]


def test_report_diff_names_repeated_keys(tmp_path):
    # A key that a report repeats is named once per report, with its count.
    old = [_row("kept", 0.5, 1.0), _row("twice", 0.5, 1.0), _row("twice", 0.5, 1.0)]
    new = [_row("kept", 0.5, 1.0), _row("twice", 0.5, 1.0),
           *(_row("coeff", lhs, 1.0, n=1) for lhs in (0.25, 0.25, 0.5))]
    assert _report_diff(tmp_path, old, new) == [
        "2 -> 3 rows: 1 added, 0 removed, 0 changed status, 0 moved beyond their error estimates",
        "- repeated `twice` in old: 2 rows, the last read",
        "- repeated `coeff` n=1 in new: 3 rows, the last read",
        "- added `coeff` n=1: pass",
    ]
