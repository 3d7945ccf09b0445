"""The benchmark's workloads (perfbench/workloads.py) run on this checkout.

The benchmark calls ``harmap`` by name: a ``Query`` iteration runs the
functional mix on 32 degree-32 maps, a ``Corpus`` one builds and re-admits
a fuzz corpus. Running one iteration of each and its own output checks here
makes a change to a signature the benchmark calls fail in the fast suite,
not in a benchmark run. The workloads module is imported as it is, never
edited.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    return workloads, workloads.import_harmap()


def test_query_iteration_passes_its_checks(monkeypatch):
    workloads, hm = _workloads(monkeypatch)
    query = workloads.Query(hm, 42)
    attempted, failed, notes = query.check([query.iterate()])
    assert attempted == workloads.QUERY_COUNT * len(workloads.QUERY_KINDS)
    assert failed == 0, notes


def test_corpus_iteration_passes_its_checks(monkeypatch):
    workloads, hm = _workloads(monkeypatch)
    monkeypatch.setattr(workloads, "CORPUS_COUNT", 50)
    corpus = workloads.Corpus(hm, 42)
    attempted, failed, notes = corpus.check([corpus.iterate()])
    assert attempted == 50
    assert failed == 0, notes
