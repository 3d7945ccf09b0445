"""Span recorder for the traced benchmark run.

The recorder wraps functions of the ``harmap`` modules from outside the
program: every module binding that points at a wrapped function (the
defining module's, each importing module's and the package's re-export)
is replaced by one shared wrapper, and :func:`traced` puts every original
back on exit, also when the traced code raises.

Each call becomes one span ``(id, name, start, end, parent, thread,
attrs)``. The parent is the innermost open span on the same thread, so a
span's children never overlap and its self time is its duration minus
the sum of its children's durations. Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from contextlib import contextmanager

# Modules whose public functions are wrapped. ``grids`` is left out: its
# work is cached construction that falls inside set-up time.
LAYER_MODULES = ("core", "functionals", "lipschitz", "verify", "report", "cli")


class SpanRecorder:
    """Collects spans from wrapped calls; safe to call from pool threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pool_workers: list[int] = []
        self._local = threading.local()
        # next() on itertools.count and list.append are single C calls, so
        # they need no lock under the interpreter lock.
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, pre=None, post=None):
        """A wrapper recording one span per call of ``fn``.

        ``pre(args, kwargs, attrs)`` returns the ``(args, kwargs)`` to call
        with; ``post(args, kwargs, result, attrs)`` inspects the result.
        Both fill the span's ``attrs`` dict.
        """
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            attrs = {}
            if pre is not None:
                args, kwargs = pre(args, kwargs, attrs)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident(), attrs))
            if post is not None:
                post(args, kwargs, result, attrs)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "name", "start", "end", "parent", "thread", "attrs")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), default=repr))
                fh.write("\n")


# ---------------------------------------------------------------------------
# Probes: per-function attributes recorded on the span
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(z) -> int:
    size = getattr(z, "size", None)
    if size is None:
        return len(z) if isinstance(z, (list, tuple)) else 1
    return int(size)


def _points(index, name):
    def pre(args, kwargs, attrs):
        attrs["points"] = _size(_arg(args, kwargs, index, name))
        return args, kwargs

    return pre


def _count_evals(args, kwargs, attrs):
    fn = _arg(args, kwargs, 0, "fn")
    attrs["evals"] = 0

    def counted(x):
        attrs["evals"] += 1
        return fn(x)

    if args:
        return (counted,) + args[1:], kwargs
    return args, {**kwargs, "fn": counted}


def _record_sense(args, kwargs, result, attrs):
    attrs["ok"] = bool(result.ok)


def _record_accepted(args, kwargs, result, attrs):
    attrs["accepted"] = len(result)


def _record_arg_key(args, kwargs, attrs):
    attrs["key"] = repr((args, sorted(kwargs.items())))
    return args, kwargs


def _tell_before(args, kwargs, attrs):
    attrs["pos"] = _arg(args, kwargs, 1, "fh").tell()
    return args, kwargs


def _tell_after(args, kwargs, result, attrs):
    attrs["bytes"] = _arg(args, kwargs, 1, "fh").tell() - attrs.pop("pos")


def _task_start(suite):
    def pre(args, kwargs, attrs):
        attrs["suite"] = suite if suite else args[0]
        attrs["cpu0"] = time.thread_time()
        return args, kwargs

    return pre


def _task_end(args, kwargs, result, attrs):
    attrs["cpu"] = time.thread_time() - attrs.pop("cpu0")


PROBES = {
    "core.wirtinger": (_points(1, "z"), None),
    "core.is_sense_preserving": (None, _record_sense),
    "functionals.golden_max": (_count_evals, None),
    "lipschitz.regularity_check": (_record_arg_key, None),
    "verify.fuzz_corpus": (None, _record_accepted),
    "report.write_json_lines": (_tell_before, _tell_after),
}


# ---------------------------------------------------------------------------
# Installing and restoring the wrappers
# ---------------------------------------------------------------------------


def _targets(harmap):
    """(span name, owner, attribute, original, pre, post) for every
    wrapped function, at the binding where it is defined."""
    out = []
    for short in LAYER_MODULES:
        mod = getattr(harmap, short)
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                pre, post = PROBES.get(name, (None, None))
                out.append((name, mod, attr, obj, pre, post))
    cli = harmap.cli
    # The campaign's per-task entry points, one span per (suite, map) task.
    out.append(("cli.task", cli, "_run_suite_on_map", cli._run_suite_on_map,
                _task_start(None), _task_end))
    out.append(("cli.task", cli, "_run_majorant_regularity", cli._run_majorant_regularity,
                _task_start("majorant-regularity"), _task_end))
    core = harmap.core
    out.append(("core.eval", core.HarmonicMap, "__call__", core.HarmonicMap.__call__,
                _points(1, "z"), None))
    return out


def _recording_pool(recorder, base):
    class RecordingPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            recorder.pool_workers.append(self._max_workers)

    return RecordingPool


@contextmanager
def traced(recorder: SpanRecorder, harmap):
    """Wrap the layer functions of ``harmap`` while the block runs.

    Yields the list of ``(owner, attribute, original)`` patches made; every
    one is restored when the block exits.
    """
    modules = [harmap] + [getattr(harmap, short) for short in LAYER_MODULES]
    wrappers = {}
    patches = []
    try:
        for name, owner, attr, orig, pre, post in _targets(harmap):
            wrapper = recorder.wrap(name, orig, pre, post)
            wrappers[id(orig)] = wrapper
            patches.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
        # Re-bind every import of a wrapped function in the other modules.
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        pool = harmap.cli.ThreadPoolExecutor
        patches.append((harmap.cli, "ThreadPoolExecutor", pool))
        harmap.cli.ThreadPoolExecutor = _recording_pool(recorder, pool)
        yield patches
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)
