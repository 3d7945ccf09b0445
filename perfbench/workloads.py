"""The benchmark's workloads: set-up, one timed iteration, output checks.

Every workload is a closed loop with one caller: the next iteration starts
when the previous one has returned. Inputs come from the seed alone.
``harmap`` is imported by :func:`import_harmap`, not at module import, so
that set-up time includes the import.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sha256 of the default campaign's JSON-lines report, by seed.
CAMPAIGN_REFERENCE = {
    42: "f804fa72d5d9fa8fac834cb3e8388ab251a7ef4f3a1867b1b50c9aa576900b62",
}

CORPUS_COUNT = 1000
CORPUS_DEGREE = 8
QUERY_COUNT = 32
QUERY_DEGREE = 32
QUERY_R = 0.9
QUERY_KINDS = ("area", "length", "hardy2", "hardy_inf", "bloch", "roundtrip")


def harmap_src() -> Path:
    """This checkout's ``src`` directory; raises when it holds no harmap."""
    src = ROOT / "src"
    if not (src / "harmap" / "__init__.py").is_file():
        raise FileNotFoundError(f"no harmap sources under {src}")
    return src


def import_harmap():
    """Import ``harmap`` from this checkout's ``src``, never from elsewhere."""
    src = harmap_src()
    sys.path.insert(0, str(src))
    import harmap

    if Path(harmap.__file__).resolve().parent != (src / "harmap").resolve():
        raise ImportError(f"harmap imported from {harmap.__file__}, not from {src}")
    # Bind the submodules the workloads and the tracer reach as attributes.
    from harmap import cli, core, functionals, lipschitz, report, verify  # noqa: F401

    return harmap


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Outcome:
    """One iteration's result: a digest plus what the checks need."""

    def __init__(self, digest: str, items, latencies=None):
        self.digest = digest
        self.items = items
        self.latencies = latencies or {}


class Campaign:
    """The default ``harmap verify`` campaign, rows hashed in memory."""

    name = "campaign"

    def __init__(self, hm, seed: int):
        self.hm = hm
        self.seed = seed
        self.config = hm.cli.default_config(seed)

    def iterate(self) -> Outcome:
        reports, counts = self.hm.cli.run_config(self.config)
        buf = io.StringIO()
        self.hm.report.write_json_lines(reports, buf)
        return Outcome(sha256(buf.getvalue().encode("ascii")), counts)

    def check(self, outcomes) -> tuple[int, int, list[str]]:
        """Operations are report rows; a row fails when its status is
        ``fail`` or when its iteration's digest differs from the reference
        (the recorded one at a known seed, else the first iteration's)."""
        reference = CAMPAIGN_REFERENCE.get(self.seed, outcomes[0].digest)
        attempted = failed = 0
        notes = []
        for i, out in enumerate(outcomes):
            rows = sum(out.items.values())
            attempted += rows
            if out.digest != reference:
                failed += rows
                notes.append(f"iteration {i}: digest {out.digest} != {reference}")
            else:
                failed += out.items[self.hm.report.FAIL]
        return attempted, failed, notes


class Corpus:
    """A 1000-map fuzz corpus, each map serialized to its file bytes."""

    name = "corpus"

    def __init__(self, hm, seed: int):
        self.hm = hm
        self.spec = hm.verify.FuzzSpec(count=CORPUS_COUNT, degree=CORPUS_DEGREE, seed=seed)

    def iterate(self) -> Outcome:
        maps = self.hm.verify.fuzz_corpus(self.spec)
        blobs = [self.hm.core.map_json_bytes(f) for f in maps]
        return Outcome(sha256(b"".join(blobs)), blobs)

    def _area_excess(self, blob: bytes) -> float | None:
        """S_f(1) - 1 of a map read back from its bytes, or None when the
        map fails the sense or distortion gate."""
        hm = self.hm
        f = hm.core.HarmonicMap.from_json_dict(json.loads(blob))
        if not hm.core.is_sense_preserving(f).ok:
            return None
        if hm.core.qc_constant(f) > self.spec.target_K:
            return None
        return hm.functionals.area_sup(f).value - 1.0

    def check(self, outcomes) -> tuple[int, int, list[str]]:
        """Operations are maps. The first iteration's maps are read back
        from their bytes and must pass the admission gates again with
        S_f(1) <= 1; a later map fails when its bytes differ from the first
        iteration's.

        The rescale to S_f(1) = 1 rounds, so S_f(1) is compared with the
        slack the program's own "S_f(1) <= 1" hypothesis uses
        (``verify.CLOSED_FORM_SLACK``); maps above 1 within it are noted.
        """
        first = outcomes[0].items
        slack = self.hm.verify.CLOSED_FORM_SLACK
        excess = [self._area_excess(blob) for blob in first]
        failed = sum(1 for e in excess if e is None or e > slack)
        notes = [f"{failed} maps fail readmission"] if failed else []
        above = [e for e in excess if e is not None and 0.0 < e <= slack]
        if above:
            notes.append(f"{len(above)} maps have S_f(1) above 1 by at most {max(above):.3g}"
                         " (within the slack)")
        attempted = self.spec.count * len(outcomes)
        for i, out in enumerate(outcomes[1:], start=1):
            changed = sum(1 for a, b in zip(first, out.items) if a != b)
            if changed:
                failed += changed
                notes.append(f"iteration {i}: {changed} maps changed bytes")
        return attempted, failed, notes


class Query:
    """The ``harmap functional`` mix on a degree-32 corpus built at set-up."""

    name = "query"

    def __init__(self, hm, seed: int):
        self.hm = hm
        self.maps = hm.verify.fuzz_corpus(
            hm.verify.FuzzSpec(count=QUERY_COUNT, degree=QUERY_DEGREE, seed=seed)
        )

    def _queries(self, f):
        fn = self.hm.functionals
        m = 4 * f.degree
        return (
            ("area", lambda: fn.area_quadrature(f, QUERY_R)),
            ("length", lambda: fn.length_sup(f)),
            ("hardy2", lambda: fn.hardy_norm(f, 2.0)),
            ("hardy_inf", lambda: fn.hardy_norm(f, math.inf)),
            ("bloch", lambda: fn.bloch_seminorm(f)),
            ("roundtrip", lambda: [self.hm.core.coeff_from_contour(f, n, QUERY_R, m)
                                   for n in range(1, f.degree + 1)]),
        )

    def iterate(self) -> Outcome:
        latencies = {kind: [] for kind in QUERY_KINDS}
        items = []
        for f in self.maps:
            row = {}
            for kind, call in self._queries(f):
                t0 = time.perf_counter()
                row[kind] = call()
                latencies[kind].append(time.perf_counter() - t0)
            items.append(row)
        return Outcome(sha256(repr(items).encode("ascii")), items, latencies)

    def _failures(self, f, row) -> list[str]:
        hm = self.hm
        bad = []
        area = row["area"]
        series = hm.functionals.area_series(f, QUERY_R).value
        if not abs(area.value - series) <= area.error_estimate:
            bad.append(f"area_quadrature {area.value!r} vs series {series!r}")
        h2 = row["hardy2"]
        coeff_sum = sum(abs(v) ** 2 for v in f.a) + sum(abs(v) ** 2 for v in f.b)
        if not abs(h2.value**2 - coeff_sum) <= 2.0 * h2.value * h2.error_estimate:
            bad.append(f"hardy_norm(2)^2 {h2.value**2!r} vs coefficient sum {coeff_sum!r}")
        # The recovered coefficients carry rounding from the m-node
        # trapezoid sums, scaled up by r^-(n-1) for degree n.
        scale = max(abs(v) for v in f.a + f.b)
        for n, (a_n, b_n) in enumerate(row["roundtrip"], start=1):
            tol = 64 * sys.float_info.epsilon * scale * QUERY_R ** -(n - 1)
            if abs(a_n - f.a[n]) > tol or abs(b_n - f.b[n - 1]) > tol:
                bad.append(f"contour round trip misses degree {n}")
                break
        return bad

    def check(self, outcomes) -> tuple[int, int, list[str]]:
        """Operations are single queries. The first iteration's results must
        pass the oracle checks; a later iteration's queries fail when their
        results differ from the first iteration's."""
        first = outcomes[0]
        notes = []
        failed = 0
        for f, row in zip(self.maps, first.items):
            bad = self._failures(f, row)
            failed += len(bad)
            notes.extend(bad)
        per_iteration = len(self.maps) * len(QUERY_KINDS)
        for i, out in enumerate(outcomes[1:], start=1):
            if out.digest != first.digest:
                failed += per_iteration
                notes.append(f"iteration {i}: results differ from the first")
        return per_iteration * len(outcomes), failed, notes


WORKLOADS = {w.name: w for w in (Campaign, Corpus, Query)}


def set_up(workload: str, seed: int):
    """Import ``harmap`` and build the workload's inputs; returns
    ``(harmap, workload object, seconds taken)``."""
    t0 = time.perf_counter()
    hm = import_harmap()
    state = WORKLOADS[workload](hm, seed)
    return hm, state, time.perf_counter() - t0
