"""Per-layer metrics derived from the spans of one traced iteration.

Layers are the ``harmap`` modules. A span's self time is its duration
minus its children's durations (children run on the span's own thread, so
they never overlap). Counts depend only on the inputs and repeat exactly
from run to run; times do not.
"""

from __future__ import annotations

from collections import defaultdict

SUITES = (
    "three-circles",
    "area-overlap",
    "hardy-area",
    "coeff-bound",
    "gradient-bound",
    "isoperimetric",
    "lipschitz-16",
    "hl-17",
    "majorant-regularity",
)
VERIFIERS = (
    "verify_three_circles",
    "verify_area_overlap",
    "verify_hardy_area",
    "verify_coeff_bound",
    "verify_gradient_bound",
    "verify_isoperimetric",
)
FUNCTIONALS = ("area_sup", "length_sup", "area_quadrature", "hardy_norm", "hardy_mean",
               "bloch_seminorm")
CONDITIONS = ("verify_hl_equivalence", "cond_a_constant", "cond_b_constant", "cond_c_constant")

# Metrics measured in time (or a share of time); every other metric is a
# count or a ratio of counts and must repeat exactly.
_TIMED_SUFFIXES = ("self_s", ".s", "cpu_s", "wait_s", "polish_share", "overhead_ratio")


def is_count(name: str) -> bool:
    return not name.endswith(_TIMED_SUFFIXES)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Index:
    """Spans grouped by name, with self and inclusive durations."""

    def __init__(self, spans):
        child_time = defaultdict(float)
        for sid, name, start, end, parent, thread, attrs in spans:
            if parent:
                child_time[parent] += end - start
        self.by_name = defaultdict(list)
        self.name_of = {}
        for sid, name, start, end, parent, thread, attrs in spans:
            dur = end - start
            self.by_name[name].append((sid, parent, dur, dur - child_time[sid], attrs))
            self.name_of[sid] = name

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def self_s(self, name: str) -> float:
        return sum(s[3] for s in self.by_name[name])

    def total(self, name: str, key: str) -> int:
        return sum(s[4].get(key, 0) for s in self.by_name[name])

    def under(self, name: str, parent_name: str) -> list:
        """Spans of ``name`` whose direct parent is a ``parent_name`` span."""
        return [s for s in self.by_name[name] if self.name_of.get(s[1]) == parent_name]


def layer_metrics(spans, pool_workers) -> dict[str, float]:
    """Every per-layer metric of one traced iteration, by name."""
    ix = _Index(spans)
    m: dict[str, float] = {}

    # core
    wirt = ix.by_name["core.wirtinger"]
    m["core.wirtinger.calls"] = len(wirt)
    m["core.wirtinger.points"] = ix.total("core.wirtinger", "points")
    m["core.wirtinger.scalar_calls"] = sum(1 for s in wirt if s[4]["points"] == 1)
    m["core.wirtinger.self_s"] = ix.self_s("core.wirtinger")
    for fn in ("is_sense_preserving", "qc_constant"):
        m[f"core.{fn}.calls"] = ix.calls(f"core.{fn}")
        m[f"core.{fn}.self_s"] = ix.self_s(f"core.{fn}")
    m["core.eval.points"] = ix.total("core.eval", "points")
    m["core.eval.self_s"] = ix.self_s("core.eval")

    # functionals
    m["functionals.grid_sup.calls"] = ix.calls("functionals.grid_sup")
    m["functionals.grid_sup.self_s"] = ix.self_s("functionals.grid_sup")
    m["functionals.golden_max.calls"] = ix.calls("functionals.golden_max")
    m["functionals.golden_max.evals"] = ix.total("functionals.golden_max", "evals")
    m["functionals.golden_max.self_s"] = ix.self_s("functionals.golden_max")
    polish = sum(s[2] for s in ix.under("functionals.golden_max", "functionals.grid_sup"))
    sup_total = sum(s[2] for s in ix.by_name["functionals.grid_sup"])
    m["functionals.polish_share"] = _ratio(polish, sup_total)
    for fn in FUNCTIONALS:
        m[f"functionals.{fn}.calls"] = ix.calls(f"functionals.{fn}")
        m[f"functionals.{fn}.self_s"] = ix.self_s(f"functionals.{fn}")

    # lipschitz
    reg = ix.by_name["lipschitz.regularity_check"]
    m["lipschitz.regularity_check.calls"] = len(reg)
    m["lipschitz.regularity_check.self_s"] = ix.self_s("lipschitz.regularity_check")
    m["lipschitz.regularity_check.useful_ratio"] = _ratio(len({s[4]["key"] for s in reg}), len(reg))
    for fn in CONDITIONS:
        m[f"lipschitz.{fn}.self_s"] = ix.self_s(f"lipschitz.{fn}")
    m["lipschitz.chord_interpolation_bound.calls"] = ix.calls("lipschitz.chord_interpolation_bound")

    # verify: every fuzz draw gets one sense scan; draws that pass it get
    # one distortion-constant check.
    scans = ix.under("core.is_sense_preserving", "verify.fuzz_corpus")
    accepted = ix.total("verify.fuzz_corpus", "accepted")
    m["verify.fuzz.draws"] = len(scans)
    m["verify.fuzz.accepted"] = accepted
    m["verify.fuzz.accept_ratio"] = _ratio(accepted, len(scans))
    m["verify.fuzz.reject_sense"] = sum(1 for s in scans if not s[4]["ok"])
    m["verify.fuzz.reject_k"] = len(ix.under("core.qc_constant", "verify.fuzz_corpus")) - accepted
    for fn in VERIFIERS:
        m[f"verify.{fn}.self_s"] = ix.self_s(f"verify.{fn}")

    # report
    m["report.make_report.calls"] = ix.calls("report.make_report")
    m["report.write_json_lines.s"] = sum(s[2] for s in ix.by_name["report.write_json_lines"])
    m["report.write_json_lines.bytes"] = ix.total("report.write_json_lines", "bytes")

    # cli: per-task wall time minus the task thread's CPU time is the time
    # the task waited, under the pool mostly for the interpreter lock.
    tasks = ix.by_name["cli.task"]
    m["cli.tasks"] = len(tasks)
    m["cli.workers"] = max(pool_workers) if pool_workers else (1 if tasks else 0)
    for suite in SUITES:
        m[f"cli.suite.{suite}.s"] = sum(s[2] for s in tasks if s[4]["suite"] == suite)
    cpu = sum(s[4]["cpu"] for s in tasks)
    m["cli.task.cpu_s"] = cpu
    m["cli.task.wait_s"] = sum(s[2] for s in tasks) - cpu
    return m
