"""Command-line front end: functionals, verification suites, fuzz campaigns.

Three subcommands:

* ``functional`` evaluates one functional of one map file and prints it as
  JSON (optionally emitting a CSV table of radius-parameterized curves),
* ``verify`` runs a suite configuration over map files / builtins / a fuzz
  corpus and writes one report row per check (JSON lines or CSV),
* ``fuzz`` writes a reproducible corpus of map files plus a manifest.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error, 3 corpus generation failure, 4 internal error (an
unexpected exception, reported on one line as ``error: internal: ...``).
Hypothesis-violated rows are counted separately and do not fail a run. A
campaign runs each suite as one task over all its maps, so a suite's disk
suprema are polished for every map at once. The tasks run one after
another: the work is Python-bound under the interpreter lock, and on a
2-core machine a 2-thread pool raised the default campaign's CPU time
(4.1-4.6 s against 3.9-4.0 s serial). Report rows are emitted in sorted
order, so identical seeds give byte-identical report files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor  # unused: the benchmark tracer binds this name
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import HarmonicMap, _grid_stretch_memo, from_json, json_fields, load_map, map_json_bytes
from .functionals import (
    area_series,
    area_sup,
    bloch_seminorm,
    hardy_mean,
    hardy_norm,
    length_function,
    length_sup,
)
from .grids import Grid, QuadratureSpec, disk_sample
from .lipschitz import (
    Majorant,
    OutsideTable,
    PowerMajorant,
    _disk_means,
    _hl_map_side,
    _hl_rows,
    _mean_constant,
    _pair_constant,
    _pair_quotients,
    _regularity,
    chord_interpolation_bound,
    cond_a_constants,
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
    _reset_map_memos,
    builtin_maps,
    fuzz_corpus,
    verify_area_overlap,
    verify_coeff_bound,
    verify_gradient_bounds,
    verify_hardy_area,
    verify_isoperimetric,
    verify_three_circles,
)

__all__ = ["main", "entry", "SuiteConfig", "ConfigError", "default_config", "run_config"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GENERATION = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------


def _per_map(run):
    """A suite runner over a list of maps from a one-map runner (f, cfg, q)."""
    return lambda fs, cfg, qs: [run(f, cfg, q) for f, q in zip(fs, qs)]


def _gradient_bound(fs, cfg: SuiteConfig, qs):
    samples = [_gradient_sample(q, cfg.gradient_sample_count) for q in qs]
    return verify_gradient_bounds(fs, samples, qs, cfg.grid)


def _chord_row(q: QuadratureSpec):
    rng = np.random.default_rng(np.random.SeedSequence((q.seed, 0x43484F52)))
    n = 10_000
    z = disk_sample(rng, n, 0.999)
    w = disk_sample(rng, n, 0.999)
    t = rng.uniform(1e-9, 1.0 - 1e-9, n)
    lhs, rhs = chord_interpolation_bound(z, w, t)
    k = int(np.argmin(lhs - rhs))
    return make_report(
        "chord-distance-bound", float(lhs[k]), float(rhs[k]), slack=1e-12,
        orientation="ge", witnesses=[(complex(z[k]), float(t[k]))],
    )


def _per_majorant(fs, cfg: SuiteConfig, names, run):
    """Each map's rows for every majorant, named ``name[label]``; ``run(omega)``
    gives one row list per map. A majorant table short of what ``run`` asks
    for gives each map, per name, a hypothesis-violated row with that range."""
    reports = [[] for _ in fs]
    for omega in cfg.majorants:
        try:
            chunks = run(omega)
        except OutsideTable as exc:
            short = {"majorant table covers the evaluated range": False}
            chunks = [[make_report(name, None, None, 0.0, hypotheses=short,
                                   details={"t_lo": exc.t_lo, "t_hi": exc.t_hi})
                       for name in names] for _ in fs]
        for rows, chunk in zip(reports, chunks):
            for rep in chunk:
                rep.name = f"{rep.name}[{omega.label()}]"
                rows.append(rep)
    return reports


def _lipschitz_16(fs, cfg: SuiteConfig, qs):
    # C2's and C3's map sides, shared by every majorant (C1's is core's memo).
    quotients = [_pair_quotients(f) for f in fs]
    means = [_disk_means(f) for f in fs]

    def run(omega):
        chunks = []
        for c1, qt, m in zip(cond_a_constants(fs, omega, cfg.grid), quotients, means):
            c2, c3 = _pair_constant(qt, omega), _mean_constant(m, omega)
            chunks.append([make_report("cond-b-vs-a", c2, math.pi * c1, slack=1e-6,
                                       details={"C1": c1, "C2": c2, "C3": c3})])
        return chunks

    reports = _per_majorant(fs, cfg, ["cond-b-vs-a"], run)
    for rows, q in zip(reports, qs):
        rows.append(_chord_row(q))
    return reports


def _hl_17(fs, cfg: SuiteConfig, qs):
    side = _hl_map_side(fs, cfg.grid)  # shared by every majorant
    return _per_majorant(fs, cfg, ["hl-forward", "hl-reverse"], lambda omega: _hl_rows(side, omega))


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
        rep = _regularity(omega)
        head, tail = omega.exact_regularity() or (None, None)
        reports.append(
            _regularity_row(f"majorant-head-integral[{omega.label()}]", rep.c_eq2, head, {})
        )
        reports.append(
            _regularity_row(f"majorant-tail-integral[{omega.label()}]", rep.c_eq3, tail,
                            {"truncation": rep.c_eq3_truncation})
        )
    return reports


# Suite name -> (runner, per_map). A per-map runner takes (maps, config,
# one task quadrature per map) and returns one list of rows per map, so a
# suite's disk suprema are polished for every map at once; a global runner
# takes the config and runs once per campaign.
SUITES = {
    "three-circles": (
        _per_map(lambda f, cfg, q: [verify_three_circles(f, r1, r)
                                    for r1, r in cfg.three_circles_pairs]),
        True,
    ),
    "area-overlap": (
        _per_map(lambda f, cfg, q: [verify_area_overlap(f, q=q, grid=cfg.grid)]), True
    ),
    "hardy-area": (_per_map(lambda f, cfg, q: [verify_hardy_area(f, q, cfg.grid)]), True),
    "coeff-bound": (_per_map(lambda f, cfg, q: verify_coeff_bound(f, q, cfg.grid)), True),
    "gradient-bound": (_gradient_bound, True),
    "isoperimetric": (
        _per_map(lambda f, cfg, q: [verify_isoperimetric(f, r, q)
                                    for r in cfg.isoperimetric_radii]),
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


@dataclass
class SuiteConfig:
    """A verification campaign: which suites, on which maps, how resolved."""

    suites: tuple[str, ...] = SUITE_NAMES
    map_files: tuple[str, ...] = ()
    include_builtin: bool = True
    fuzz: FuzzSpec | None = None
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    grid: Grid = field(default_factory=Grid)
    majorants: tuple[Majorant, ...] = (PowerMajorant(0.5), PowerMajorant(1.0))
    three_circles_pairs: tuple[tuple[float, float], ...] = (
        (0.1, 0.3), (0.1, 0.5), (0.3, 0.6), (0.3, 0.9))
    isoperimetric_radii: tuple[float, ...] = (0.3, 0.6, 0.9)
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

    @cached_property
    def _file_maps(self) -> list[tuple[str, HarmonicMap]]:
        """(map_id, f) for each of ``map_files``, read on first use; a file
        that cannot be read as a map is a configuration error. A campaign
        drops it when it ends, so the next one reads the files again."""
        try:
            return [(f"file:{Path(path).name}", load_map(path)) for path in self.map_files]
        except (OSError, ValueError) as exc:
            raise ConfigError(f"maps: {exc}") from None

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SuiteConfig":
        """The configuration of a JSON object, each key checked by
        :func:`~harmap.core.from_json` against its field's annotation. A key
        names its field, except "maps" (``map_files``) and "output" (an
        object of "path" and "format", for ``output_path``/``output_format``)."""
        kinds = json_fields(cls)
        kinds["maps"] = kinds.pop("map_files")
        kinds["output"] = {"path": kinds.pop("output_path"), "format": kinds.pop("output_format")}
        if not isinstance(obj, dict):
            raise ConfigError("the configuration must be a JSON object")
        unknown = sorted(set(obj) - set(kinds))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        try:
            kwargs = from_json(kinds, obj)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if "maps" in kwargs:
            kwargs["map_files"] = kwargs.pop("maps")
        kwargs.update({f"output_{key}": v for key, v in kwargs.pop("output", {}).items()})
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def default_config(seed: int = 42) -> SuiteConfig:
    """The default campaign: every suite on the builtin family plus a small
    seeded corpus, with Monte Carlo resolution trimmed for turnaround."""
    return SuiteConfig(
        fuzz=FuzzSpec(count=48, degree=8, seed=seed),
        quadrature=QuadratureSpec(mc_samples=200_000, seed=seed),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------


def _load_sources(cfg: SuiteConfig) -> list[tuple[str, HarmonicMap]]:
    sources: list[tuple[str, HarmonicMap]] = []
    if cfg.include_builtin:
        for name, f in builtin_maps().items():
            sources.append((f"builtin:{name}", f))
    sources.extend(cfg._file_maps)
    if cfg.fuzz is not None:
        for i, f in enumerate(fuzz_corpus(cfg.fuzz, cfg.grid)):
            sources.append((f"fuzz-{i:04d}", f))
    return sources


def _task_quadrature(cfg: SuiteConfig, index: int) -> QuadratureSpec:
    # Per-task stream index keeps Monte Carlo draws independent across tasks
    # while staying reproducible for a fixed campaign seed.
    mix = int(np.random.SeedSequence((cfg.seed, index)).generate_state(1)[0])
    return replace(cfg.quadrature, seed=mix)


def _run_suite_on_map(suite: str, targets, cfg: SuiteConfig, indices):
    """One campaign task: a suite on every map of ``targets`` ((map_id, f)
    pairs) at once, each map with the Monte Carlo stream of its task index
    in ``indices``; or once (targets [("-", None)]) for a global suite. Row
    names end in @map_id."""
    runner, per_map = SUITES[suite]
    if per_map:
        chunks = runner([f for _, f in targets], cfg, [_task_quadrature(cfg, i) for i in indices])
    else:
        chunks = [runner(cfg)]
    reports = []
    for (map_id, _), chunk in zip(targets, chunks):
        for rep in chunk:
            rep.name = f"{rep.name}@{map_id}"
            reports.append(rep)
    return reports


def run_config(cfg: SuiteConfig):
    """Execute a campaign; returns (reports sorted, summary dict).

    Each suite is one task over all its maps, run in suite order. A map
    keeps the Monte Carlo stream of its (suite, map_id) position in sorted
    order.
    """
    cfg.validate()
    _reset_map_memos()
    try:
        with _grid_stretch_memo():  # Lambda_f grids are kept for this campaign only
            sources = sorted(_load_sources(cfg), key=lambda s: s[0])
            reports, index = [], 0
            for suite in sorted(set(cfg.suites)):
                targets = sources if SUITES[suite][1] else [("-", None)]
                indices = range(index, index + len(targets))
                reports.extend(_run_suite_on_map(suite, targets, cfg, indices))
                index += len(targets)
    finally:
        _reset_map_memos()
        cfg.__dict__.pop("_file_maps", None)
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
    try:
        if args.name == "area":
            fv = area_series(f, args.r) if args.r is not None else area_sup(f)
        elif args.name == "length":
            fv = length_function(f, args.r) if args.r is not None else length_sup(f)
        elif args.name == "hardy":
            p = 2.0 if args.p is None else float(args.p)  # float("inf") is the h^inf exponent
            fv = hardy_mean(f, p, args.r) if args.r is not None else hardy_norm(f, p)
        else:  # argparse's choices leave "bloch"
            fv = bloch_seminorm(f)
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
    rows = []
    header = ["r", "area", "length", "isoperimetric_rhs"]
    if r1 is not None:
        header.append("three_circles_rhs")
        m = max(area_series(f, r1).value, 0.0)
    for r in np.linspace(0.05, 0.99, 48):
        r = float(r)
        s = area_series(f, r).value
        l = length_function(f, r).value
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
        cfg._file_maps  # read the map files now: a bad one is a usage error, not a mid-run crash
        out = Path(cfg.output_path)  # refused before the campaign, not after it
        if out.is_dir() or not out.parent.is_dir():
            raise ConfigError(f"output: {str(out)!r} is not a file path in an existing directory")
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
    manifest = {"spec": asdict(spec), "files": files}
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
    try:
        return args.func(args)
    except Exception as exc:  # a fault in the program, not in its input
        print(f"error: internal: {type(exc).__name__}: {exc}".replace("\n", " "), file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:  # console-script shim
    sys.exit(main())
