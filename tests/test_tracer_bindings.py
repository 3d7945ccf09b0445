"""The benchmark tracer (perfbench/spans.py) binds harmap names and puts
them back.

The tracer wraps functions by module attribute, so a refactor that removes
or renames one of them (an ``__all__`` entry, ``cli.ThreadPoolExecutor``,
``cli._run_suite_on_map``, ``HarmonicMap.__call__``) fails here, in the
fast suite, rather than in a benchmark run.
"""

import importlib
import types
from pathlib import Path

import harmap
import harmap.cli  # noqa: F401  (the tracer wraps the cli layer too)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings(mods):
    snapshot = {(mod.__name__, attr): val for mod in mods for attr, val in vars(mod).items()}
    snapshot[("HarmonicMap", "__call__")] = harmap.core.HarmonicMap.__call__
    return snapshot


def test_tracer_binds_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    layers = importlib.import_module("layers")
    mods = [harmap] + [getattr(harmap, short) for short in spans.LAYER_MODULES]
    before = _bindings(mods)

    with spans.traced(spans.SpanRecorder(), harmap) as patches:
        patched = {(owner.__name__, attr) for owner, attr, _ in patches}

    for mod in mods[1:]:
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                assert (mod.__name__, attr) in patched
    for short, names in (("functionals", layers.FUNCTIONALS + ("grid_sup",)),
                         ("verify", layers.VERIFIERS), ("lipschitz", layers.CONDITIONS)):
        assert {(f"harmap.{short}", name) for name in names} <= patched
    assert {("harmap.cli", "ThreadPoolExecutor"), ("harmap.cli", "_run_suite_on_map"),
            ("harmap.cli", "_run_majorant_regularity"), ("HarmonicMap", "__call__")} <= patched
    after = _bindings(mods)
    assert [key for key, val in before.items() if after[key] is not val] == []
