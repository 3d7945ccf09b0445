"""Command-line front end: functionals, verification suites, fuzz campaigns.

Three subcommands:

* ``functional`` evaluates one functional of one map file and prints it as
  JSON (optionally emitting a CSV table of radius-parameterized curves),
* ``verify`` runs a suite configuration over map files / builtins / a fuzz
  corpus and writes one report row per check (JSON lines or CSV),
* ``fuzz`` writes a reproducible corpus of map files plus a manifest.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error, 3 corpus generation failure. Hypothesis-violated rows
are counted separately and do not fail a run. Parallelism over (map, suite)
tasks is capped by the HARMAP_THREADS environment variable; report rows are
emitted in sorted order regardless of completion order, so identical seeds
give byte-identical report files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import HarmonicMap, load_map, map_json_bytes
from .functionals import (
    area_series,
    area_sup,
    area_quadrature,
    bloch_seminorm,
    hardy_mean,
    hardy_norm,
    length_function,
    length_sup,
)
from .grids import Grid, QuadratureSpec, disk_sample
from .lipschitz import (
    PowerMajorant,
    chord_interpolation_bound,
    cond_a_constant,
    cond_b_constant,
    cond_c_constant,
    majorant_from_config,
    regularity_check,
    verify_hl_equivalence,
)
from .report import (
    FAIL,
    HYPOTHESIS_VIOLATED,
    PASS,
    make_report,
    summarize,
    write_csv,
    write_json_lines,
)
from .verify import (
    FuzzSpec,
    GenerationFailed,
    _gradient_sample,
    builtin_maps,
    fuzz_corpus,
    verify_area_overlap,
    verify_coeff_bound,
    verify_gradient_bound,
    verify_hardy_area,
    verify_isoperimetric,
    verify_three_circles,
)

__all__ = ["main", "entry", "SuiteConfig", "ConfigError", "default_config", "run_config"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GENERATION = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------


def _lipschitz_16(f: HarmonicMap, cfg: SuiteConfig, q: QuadratureSpec):
    reports = []
    for omega in cfg.majorants:
        c1 = cond_a_constant(f, omega, cfg.grid)
        c2 = cond_b_constant(f, omega)
        c3 = cond_c_constant(f, omega)
        reports.append(
            make_report(
                f"cond-b-vs-a[{omega.label()}]", c2, math.pi * c1, slack=1e-6,
                details={"C1": c1, "C2": c2, "C3": c3},
            )
        )
    rng = np.random.default_rng(np.random.SeedSequence((q.seed, 0x43484F52)))
    n = 10_000
    z = disk_sample(rng, n, 0.999)
    w = disk_sample(rng, n, 0.999)
    t = rng.uniform(1e-9, 1.0 - 1e-9, n)
    lhs, rhs = chord_interpolation_bound(z, w, t)
    k = int(np.argmin(lhs - rhs))
    reports.append(
        make_report(
            "chord-distance-bound", float(lhs[k]), float(rhs[k]), slack=1e-12,
            orientation="ge", witnesses=[(complex(z[k]), float(t[k]))],
        )
    )
    return reports


def _hl_17(f: HarmonicMap, cfg: SuiteConfig, q: QuadratureSpec):
    reports = []
    for omega in cfg.majorants:
        for rep in verify_hl_equivalence(f, omega, cfg.grid):
            rep.name = f"{rep.name}[{omega.label()}]"
            reports.append(rep)
    return reports


def _regularity_row(name: str, value: float | None, exact: float | None, details: dict):
    if exact is None:  # no closed form: the row records the empirical constant
        return make_report(name, value, value, slack=0.0, details=details)
    if math.isinf(exact):  # the claim is divergence: pass iff no constant exists
        ok = value is None
        return make_report(name, 0.0, 0.0, slack=0.0, force_fail=not ok,
                           details={"divergent": 1.0 if ok else 0.0})
    return make_report(name, value, exact, slack=0.05 * exact,
                       force_fail=value < exact * 0.95, details=details)


def _run_majorant_regularity(cfg: SuiteConfig):
    """Map-independent regularity rows. Majorants with closed-form constants
    (the power family: 1/alpha and 1/(1-alpha)) are compared against them at
    5% tolerance; the others record their empirical constants."""
    reports = []
    for omega in cfg.majorants:
        rep = regularity_check(omega, delta0=1.0)
        head, tail = omega.exact_regularity() or (None, None)
        reports.append(
            _regularity_row(f"majorant-head-integral[{omega.label()}]", rep.c_eq2, head, {})
        )
        reports.append(
            _regularity_row(f"majorant-tail-integral[{omega.label()}]", rep.c_eq3, tail,
                            {"truncation": rep.c_eq3_truncation})
        )
    return reports


# Suite name -> (runner, per_map). A per-map runner takes (map, config, task
# quadrature) and runs once per map; a global one takes the config and runs
# once per campaign.
SUITES = {
    "three-circles": (
        lambda f, cfg, q: [verify_three_circles(f, r1, r) for r1, r in cfg.three_circles_pairs],
        True,
    ),
    "area-overlap": (lambda f, cfg, q: [verify_area_overlap(f, q=q, grid=cfg.grid)], True),
    "hardy-area": (lambda f, cfg, q: [verify_hardy_area(f, q, cfg.grid)], True),
    "coeff-bound": (lambda f, cfg, q: verify_coeff_bound(f, q, cfg.grid), True),
    "gradient-bound": (
        lambda f, cfg, q: verify_gradient_bound(
            f, _gradient_sample(q, cfg.gradient_sample_count), q, cfg.grid
        ),
        True,
    ),
    "isoperimetric": (
        lambda f, cfg, q: [verify_isoperimetric(f, r, q) for r in cfg.isoperimetric_radii],
        True,
    ),
    "lipschitz-16": (_lipschitz_16, True),
    "hl-17": (_hl_17, True),
    "majorant-regularity": (_run_majorant_regularity, False),
}
SUITE_NAMES = tuple(SUITES)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _json_bool(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"must be true or false, got {v!r}")
    return v


def _output_fields(out) -> dict:
    if not isinstance(out, dict) or set(out) - {"path", "format"}:
        raise ValueError('must be an object with optional "path" and "format"')
    return {field: str(out[key]) for key, field in
            (("path", "output_path"), ("format", "output_format")) if key in out}


# Config key -> parser of its JSON value. The key names the SuiteConfig
# field, except "maps" (map_files) and "output" (output_path, output_format).
_CONFIG_PARSERS = {
    "suites": tuple,
    "maps": tuple,
    "include_builtin": _json_bool,
    "fuzz": lambda v: None if v is None else FuzzSpec.from_json_dict(v),
    "quadrature": lambda v: QuadratureSpec(**v),
    "grid": lambda v: Grid(**v),
    "majorants": lambda v: tuple(majorant_from_config(m) for m in v),
    "three_circles_pairs": lambda v: tuple((float(p[0]), float(p[1])) for p in v),
    "isoperimetric_radii": lambda v: tuple(float(r) for r in v),
    "gradient_sample_count": int,
    "seed": int,
    "output": _output_fields,
}


@dataclass
class SuiteConfig:
    """A verification campaign: which suites, on which maps, how resolved."""

    suites: tuple = SUITE_NAMES
    map_files: tuple = ()
    include_builtin: bool = True
    fuzz: FuzzSpec | None = None
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    grid: Grid = field(default_factory=Grid)
    majorants: tuple = (PowerMajorant(0.5), PowerMajorant(1.0))
    three_circles_pairs: tuple = ((0.1, 0.3), (0.1, 0.5), (0.3, 0.6), (0.3, 0.9))
    isoperimetric_radii: tuple = (0.3, 0.6, 0.9)
    gradient_sample_count: int = 64
    seed: int = 42
    output_path: str = "harmap-reports.jsonl"
    output_format: str = "json"

    def validate(self) -> None:
        """Refuse, before any work starts, every value a suite would reject."""
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}")
        if not self.suites:
            raise ConfigError("at least one suite is required")
        if not (self.map_files or self.include_builtin or self.fuzz):
            raise ConfigError("at least one map source is required")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format: {self.output_format!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.gradient_sample_count < 1:
            raise ConfigError("gradient_sample_count must be >= 1")
        for r1, r in self.three_circles_pairs:
            if not 0.0 < r1 <= r < 1.0:
                raise ConfigError(f"three_circles_pairs: need 0 < r1 <= r < 1, got {[r1, r]}")
        for r in self.isoperimetric_radii:
            if not 0.0 < r <= 1.0 - 1e-9:
                raise ConfigError(f"isoperimetric_radii: need 0 < r <= 1 - 1e-9, got {r}")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SuiteConfig":
        if not isinstance(obj, dict):
            raise ConfigError("the configuration must be a JSON object")
        bad = set(obj) - set(_CONFIG_PARSERS)
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        kwargs: dict = {}
        for key, value in obj.items():
            try:
                parsed = _CONFIG_PARSERS[key](value)
            except KeyError as exc:
                raise ConfigError(f"{key}: missing key {exc}") from exc
            except (AttributeError, TypeError, ValueError, IndexError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
            if key == "output":
                kwargs.update(parsed)
            else:
                kwargs["map_files" if key == "maps" else key] = parsed
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def default_config(seed: int = 42, output_path: str = "harmap-reports.jsonl",
                   output_format: str = "json") -> SuiteConfig:
    """The default campaign: every suite on the builtin family plus a small
    seeded corpus, with Monte Carlo resolution trimmed for turnaround."""
    return SuiteConfig(
        fuzz=FuzzSpec(count=48, degree=8, seed=seed),
        quadrature=QuadratureSpec(mc_samples=200_000, seed=seed),
        seed=seed,
        output_path=output_path,
        output_format=output_format,
    )


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------


def _load_sources(cfg: SuiteConfig) -> list[tuple[str, HarmonicMap]]:
    sources: list[tuple[str, HarmonicMap]] = []
    if cfg.include_builtin:
        for name, f in builtin_maps().items():
            sources.append((f"builtin:{name}", f))
    for path in cfg.map_files:
        sources.append((f"file:{Path(path).name}", load_map(path)))
    if cfg.fuzz is not None:
        for i, f in enumerate(fuzz_corpus(cfg.fuzz, cfg.grid)):
            sources.append((f"fuzz-{i:04d}", f))
    return sources


def _task_quadrature(cfg: SuiteConfig, index: int) -> QuadratureSpec:
    # Per-task stream index keeps Monte Carlo draws independent across tasks
    # while staying reproducible for a fixed campaign seed.
    mix = int(np.random.SeedSequence((cfg.seed, index)).generate_state(1)[0])
    return replace(cfg.quadrature, seed=mix)


def _run_suite_on_map(suite: str, map_id: str, f: HarmonicMap | None, cfg: SuiteConfig, index: int):
    """One campaign task: a suite on one map, or once (map_id "-", f None)
    for a global suite. Row names end in @map_id."""
    runner, per_map = SUITES[suite]
    reports = runner(f, cfg, _task_quadrature(cfg, index)) if per_map else runner(cfg)
    for rep in reports:
        rep.name = f"{rep.name}@{map_id}"
    return reports


def run_config(cfg: SuiteConfig):
    """Execute a campaign; returns (reports sorted, summary dict)."""
    cfg.validate()
    sources = _load_sources(cfg)
    tasks = []
    for suite in sorted(set(cfg.suites)):
        targets = sources if SUITES[suite][1] else [("-", None)]
        tasks.extend((suite, map_id, f) for map_id, f in targets)
    tasks.sort(key=lambda t: (t[0], t[1]))

    def run_task(item):
        index, (suite, map_id, f) = item
        return _run_suite_on_map(suite, map_id, f, cfg, index)

    workers = os.environ.get("HARMAP_THREADS")
    workers = int(workers) if workers else (os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_task, enumerate(tasks)))
    else:
        chunks = [run_task(item) for item in enumerate(tasks)]
    reports = [rep for chunk in chunks for rep in chunk]
    reports.sort(key=lambda r: (r.name, -1 if r.n is None else r.n))
    return reports, summarize(reports)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_functional(args) -> int:
    try:
        f = load_map(args.map)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load map: {exc}", file=sys.stderr)
        return EXIT_USAGE
    q = QuadratureSpec()
    try:
        if args.name == "area":
            fv = area_series(f, args.r) if args.r is not None else area_sup(f)
        elif args.name == "length":
            fv = length_function(f, args.r, q) if args.r is not None else length_sup(f, q)
        elif args.name == "hardy":
            if args.p is None:
                p = 2.0
            else:
                p = math.inf if args.p == "inf" else float(args.p)
            fv = hardy_mean(f, p, args.r, q) if args.r is not None else hardy_norm(f, p, q)
        elif args.name == "bloch":
            fv = bloch_seminorm(f)
        else:  # pragma: no cover - argparse choices guard this
            return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(fv.to_json_dict()))
    if args.emit_table:
        _emit_table(f, args.emit_table, args.r1)
        print(f"wrote table to {args.emit_table}", file=sys.stderr)
    return EXIT_OK


def _emit_table(f: HarmonicMap, path: str, r1: float | None) -> None:
    """Radius-parameterized curves for external plotting: the area and
    length functions with the bounds they are checked against."""
    q = QuadratureSpec()
    rows = []
    header = ["r", "area", "length", "isoperimetric_rhs"]
    if r1 is not None:
        header.append("three_circles_rhs")
        m = max(area_series(f, r1).value, 0.0)
    for r in np.linspace(0.05, 0.99, 48):
        r = float(r)
        s = area_series(f, r).value
        l = length_function(f, r, q).value
        row = [r, s, l, l * l / (4.0 * math.pi**2)]
        if r1 is not None:
            row.append(m ** (math.log(r) / math.log(r1)) if r1 <= r and m > 0 else "")
        rows.append(row)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v == "" else repr(v) for v in row) + "\n")


def _cmd_verify(args) -> int:
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = SuiteConfig.from_json_dict(json.load(fh))
        else:
            cfg = default_config(seed=args.seed)
        if args.out:
            cfg.output_path = args.out
        if args.format:
            cfg.output_format = args.format
        cfg.validate()
        for path in cfg.map_files:  # a bad map file is a usage error, not a mid-run crash
            load_map(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        reports, counts = run_config(cfg)
    except GenerationFailed as exc:
        print(f"error: corpus generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    with open(cfg.output_path, "w", encoding="ascii", newline="") as fh:
        if cfg.output_format == "csv":
            write_csv(reports, fh)
        else:
            write_json_lines(reports, fh)
    print(
        f"{len(reports)} checks: {counts[PASS]} pass, {counts[FAIL]} fail, "
        f"{counts[HYPOTHESIS_VIOLATED]} hypothesis-violated -> {cfg.output_path}"
    )
    return EXIT_FAIL if counts[FAIL] else EXIT_OK


def _cmd_fuzz(args) -> int:
    try:
        spec = FuzzSpec(
            count=args.count,
            degree=args.degree,
            seed=args.seed,
            coeff_decay=args.decay,
            enforce_coeff_dominance=args.dominance,
            target_K=args.target_k,
            rescale_area=not args.no_rescale,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        maps = fuzz_corpus(spec)
    except GenerationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, f in enumerate(maps):
        name = f"map-{i:04d}.json"
        (outdir / name).write_bytes(map_json_bytes(f))
        files.append(name)
    manifest = {"spec": spec.to_json_dict(), "files": files}
    (outdir / "manifest.json").write_bytes(
        (json.dumps(manifest, indent=2) + "\n").encode("ascii")
    )
    print(f"wrote {len(files)} maps to {outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmap",
        description="Distortion functionals and inequality verification for "
        "planar harmonic mappings on the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fun = sub.add_parser("functional", help="evaluate one functional of a map file")
    p_fun.add_argument("--map", required=True, help="map JSON file")
    p_fun.add_argument("--name", required=True, choices=("area", "length", "hardy", "bloch"))
    p_fun.add_argument("--r", type=float, default=None, help="radius (omit for the boundary sup)")
    p_fun.add_argument("--p", default=None, help="Hardy exponent (number or 'inf'; default 2)")
    p_fun.add_argument("--emit-table", default=None, metavar="CSV",
                       help="also write radius-parameterized curves")
    p_fun.add_argument("--r1", type=float, default=None,
                       help="inner radius for the three-circles curve in the table")
    p_fun.set_defaults(func=_cmd_functional)

    p_ver = sub.add_parser("verify", help="run verification suites from a config")
    p_ver.add_argument("--config", default=None, help="suite config JSON (omit for the default campaign)")
    p_ver.add_argument("--out", default=None, help="override the report output path")
    p_ver.add_argument("--format", default=None, choices=("json", "csv"))
    p_ver.add_argument("--seed", type=int, default=42, help="campaign seed for the default config")
    p_ver.set_defaults(func=_cmd_verify)

    p_fz = sub.add_parser("fuzz", help="write a reproducible corpus of map files")
    p_fz.add_argument("--count", type=int, default=100)
    p_fz.add_argument("--degree", type=int, default=8)
    p_fz.add_argument("--seed", type=int, default=42)
    p_fz.add_argument("--decay", type=float, default=0.55)
    p_fz.add_argument("--dominance", action="store_true", default=False,
                      help="rescale b so |b_n| <= |a_n|")
    p_fz.add_argument("--target-k", type=float, default=10.0)
    p_fz.add_argument("--no-rescale", action="store_true", default=False,
                      help="skip the rescale to total area <= 1")
    p_fz.add_argument("--out", default="fuzz-maps")
    p_fz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:  # console-script shim
    sys.exit(main())
