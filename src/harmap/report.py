"""Inequality verification records and their JSON-lines / CSV serialization.

Every check produces one ``VerificationReport``: the two sides of the
inequality (oriented so that lhs <= rhs is the claim), the margin rhs - lhs,
the per-hypothesis detail, and the slack below which a negative margin is
attributed to rounding rather than to a counterexample. Reports serialize
with canonical float formatting (shortest round-trip) so identical runs
produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

__all__ = [
    "PASS",
    "FAIL",
    "HYPOTHESIS_VIOLATED",
    "VerificationReport",
    "make_report",
    "write_json_lines",
    "write_csv",
    "summarize",
]

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_VIOLATED = "hypothesis-violated"

CSV_COLUMNS = ("name", "n", "lhs", "rhs", "margin", "status")


def _jsonable(x):
    """Numbers for JSON output; non-finite floats become repr strings."""
    if x is None or isinstance(x, (bool, str, int)):
        return x
    x = float(x)
    return x if math.isfinite(x) else repr(x)


@dataclass
class VerificationReport:
    """One inequality check: sides, margin, hypotheses and witnesses.

    ``margin`` is oriented so that margin >= 0 means the inequality holds;
    ``status`` is ``pass`` iff every hypothesis holds and margin >= -slack.
    ``witnesses`` holds (point, value) pairs, points being complex or real.
    ``n`` indexes per-coefficient rows; ``details`` carries auxiliary
    recorded constants (never used for the verdict).
    """

    name: str
    lhs: float | None
    rhs: float | None
    margin: float | None
    status: str
    slack: float
    hypotheses: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    n: int | None = None
    error_estimate: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def hypotheses_ok(self) -> bool:
        return all(bool(v) for v in self.hypotheses.values())

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "margin": _jsonable(self.margin),
            "status": self.status,
            "slack": _jsonable(self.slack),
            "hypotheses": {k: bool(v) for k, v in self.hypotheses.items()},
            "witnesses": [[[p.real, p.imag] if isinstance(p, complex) else _jsonable(p), _jsonable(v)]
                          for p, v in self.witnesses],
            "error_estimate": _jsonable(self.error_estimate),
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }

    def csv_row(self) -> list[str]:
        def fmt(x):
            return "" if x is None else repr(float(x))

        return [self.name, "" if self.n is None else str(self.n), fmt(self.lhs), fmt(self.rhs),
                fmt(self.margin), self.status]


def make_report(
    name: str,
    lhs: float | None,
    rhs: float | None,
    slack: float,
    hypotheses: dict | None = None,
    n: int | None = None,
    witnesses=(),
    error_estimate: float = 0.0,
    details: dict | None = None,
    force_fail: bool = False,
    orientation: str = "le",
) -> VerificationReport:
    """Build a report for the claim lhs <= rhs (or lhs >= rhs with
    ``orientation="ge"``); the margin is oriented so that >= 0 means pass.

    If any hypothesis is False the status is ``hypothesis-violated`` and the
    sides may be None. ``force_fail`` marks a report failed even with a
    nonnegative margin (used when an auxiliary pointwise check breaks).
    """
    if orientation not in ("le", "ge"):
        raise ValueError("orientation must be 'le' or 'ge'")
    hyp = dict(hypotheses or {})
    lhs = None if lhs is None else float(lhs)
    rhs = None if rhs is None else float(rhs)
    margin = None if lhs is None or rhs is None else rhs - lhs if orientation == "le" else lhs - rhs
    if not all(bool(v) for v in hyp.values()):
        status = HYPOTHESIS_VIOLATED
    elif force_fail or margin is None or margin < -slack:
        status = FAIL
    else:
        status = PASS
    return VerificationReport(
        name=name, lhs=lhs, rhs=rhs, margin=margin, status=status, slack=float(slack),
        hypotheses=hyp, witnesses=list(witnesses), n=n, error_estimate=float(error_estimate),
        details=dict(details or {}),
    )


def write_json_lines(reports, fh) -> None:
    """One canonical JSON object per line (fixed key order, repr floats)."""
    for rep in reports:
        fh.write(json.dumps(rep.to_json_dict(), allow_nan=False))
        fh.write("\n")


def write_csv(reports, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        writer.writerow(rep.csv_row())


def summarize(reports) -> dict:
    counts = {PASS: 0, FAIL: 0, HYPOTHESIS_VIOLATED: 0}
    for rep in reports:
        counts[rep.status] = counts.get(rep.status, 0) + 1
    return counts
