"""Tests of the benchmark's tracing: counts repeat, wrappers come off.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_between_runs(workload):
    first = traced_metrics(workload, 5)
    second = traced_metrics(workload, 5)
    counts = [name for name in first if layers.is_count(name)]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def _bindings(hm):
    mods = [hm] + [getattr(hm, short) for short in spans.LAYER_MODULES]
    snapshot = {(mod.__name__, attr): val for mod in mods for attr, val in vars(mod).items()}
    snapshot[("HarmonicMap", "__call__")] = hm.core.HarmonicMap.__call__
    return snapshot


def test_traced_run_restores_every_binding():
    hm = workloads.import_harmap()
    before = _bindings(hm)
    f = hm.builtin_maps()["mixed-quadratic"]
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with spans.traced(recorder, hm) as patches:
            assert hm.functionals.wirtinger is not before[("harmap.functionals", "wirtinger")]
            assert hm.lipschitz.wirtinger is hm.verify.wirtinger is hm.core.wirtinger
            hm.bloch_seminorm(f)
            f(0.25 + 0.5j)
            hm.cli.run_config(hm.cli.SuiteConfig(suites=("hardy-area",)))
            raise RuntimeError("leave the block by an exception")
    names = {span[1] for span in recorder.spans}
    assert {"functionals.bloch_seminorm", "core.wirtinger", "cli.task", "core.eval"} <= names
    assert len(patches) > 100
    after = _bindings(hm)
    changed = [key for key, val in before.items() if after[key] is not val]
    assert changed == []


def test_self_time_subtracts_children():
    # (id, name, start, end, parent, thread, attrs)
    recorded = [
        (2, "core.wirtinger", 1.0, 2.0, 1, 7, {"points": 1}),
        (3, "core.wirtinger", 2.5, 3.0, 1, 7, {"points": 64}),
        (1, "functionals.golden_max", 0.0, 4.0, 4, 7, {"evals": 2}),
        (4, "functionals.grid_sup", 0.0, 5.0, 0, 7, {}),
    ]
    m = layers.layer_metrics(recorded, [])
    assert m["functionals.golden_max.self_s"] == pytest.approx(2.5)
    assert m["functionals.grid_sup.self_s"] == pytest.approx(1.0)
    assert m["functionals.polish_share"] == pytest.approx(0.8)
    assert m["core.wirtinger.scalar_calls"] == 1
    assert m["core.wirtinger.points"] == 65
    assert m["cli.workers"] == 0
