"""Command-line front end: functionals, verification suites, fuzz campaigns.

Three subcommands:

* ``functional`` evaluates one functional of one map file and prints it as
  JSON (optionally emitting a CSV table of radius-parameterized curves),
* ``verify`` runs a suite configuration over map files / builtins / a fuzz
  corpus and writes one report row per check (JSON lines or CSV); the
  three-circles rows take the fixed (r1, r) pairs ``THREE_CIRCLES_PAIRS``
  and the isoperimetric rows the fixed radii ``ISOPERIMETRIC_RADII``. Each
  campaign reads its map files once, before it draws the fuzz corpus or runs
  a suite; a file that cannot be read is a configuration error,
* ``fuzz`` writes a reproducible corpus of map files, drawn from the one
  distribution of :func:`~harmap.verify.fuzz_corpus`, plus a manifest that
  names it.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error, or an output that cannot be written (``error: cannot
write ...``), 3 corpus generation failure, 4 internal error (an unexpected
exception, reported on one line as ``error: internal: ...``).
Hypothesis-violated rows are counted separately and do not fail a run. A
campaign runs each suite as one task over a block of maps (all of them up
to 94), so a suite's disk suprema are polished for the block at once. It
calls each Lipschitz-space constant once per majorant, and the campaign
memo of ``core``, one per block, computes each map's majorant-free side
once. The tasks run one after another, on one thread: the work is
Python-bound under the interpreter lock, so threads would not run it in
parallel. Report rows are emitted in sorted order, so identical seeds give
byte-identical report files. ``functional`` and ``fuzz`` never load scipy,
nor does ``verify`` outside the ``lipschitz-16``, ``hl-17`` and
``majorant-regularity`` suites (see :mod:`harmap.grids`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor  # unused: the benchmark tracer binds this name
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import HarmonicMap, _campaign_memo, from_json, json_fields, load_map
from .core import map_json_bytes
from .functionals import (
    area_series,
    area_sup,
    bloch_seminorm,
    hardy_mean,
    hardy_norm,
    length_function,
    length_sup,
)
from .grids import GRID, disk_sample
from .lipschitz import (
    Majorant,
    OutsideTable,
    PowerMajorant,
    _hl_sample,
    _regularity,
    chord_interpolation_bound,
    cond_a_constants,
    cond_b_constant,
    cond_c_constant,
    default_pair_sample,
    verify_hl_equivalences,
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
    _COEFF_DECAY,
    _check_mc_samples,
    _gradient_sample,
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
_MEMO_BUDGET = 16 << 20  # bytes of the arrays a campaign's memo may hold for a block of maps


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------


def _per_map(run):
    """A suite runner over a list of maps from a one-map runner (f, cfg, seed)."""
    return lambda fs, cfg, seeds: [run(f, cfg, seed) for f, seed in zip(fs, seeds)]


def _gradient_bound(fs, cfg: SuiteConfig, seeds):
    return verify_gradient_bounds(fs, [_gradient_sample(seed) for seed in seeds])


def _chord_row(seed: int):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x43484F52)))
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
    gives one row list per map (``fs`` is ``[None]`` for a global suite). A
    majorant table short of what ``run`` asks for gives each map, per name,
    a hypothesis-violated row with that range."""
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


def _lipschitz_16(fs, cfg: SuiteConfig, seeds):
    def run(omega):
        chunks = []
        for f, c1 in zip(fs, cond_a_constants(fs, omega)):
            c2, c3 = cond_b_constant(f, omega), cond_c_constant(f, omega)
            chunks.append([make_report("cond-b-vs-a", c2, math.pi * c1, slack=1e-6,
                                       details={"C1": c1, "C2": c2, "C3": c3})])
        return chunks

    reports = _per_majorant(fs, cfg, ["cond-b-vs-a"], run)
    for rows, seed in zip(reports, seeds):
        rows.append(_chord_row(seed))
    return reports


def _hl_17(fs, cfg: SuiteConfig, seeds):
    return _per_majorant(fs, cfg, ["hl-forward", "hl-reverse"],
                         lambda omega: verify_hl_equivalences(fs, omega))


def _regularity_row(name: str, value: float | None, exact: float | None, details: dict):
    if exact is None:  # no closed form: the row records the empirical constant
        return make_report(name, value, value, slack=0.0, details=details)
    if math.isinf(exact):  # the claim is divergence: pass iff no constant exists
        ok = value is None
        return make_report(name, 0.0, 0.0, slack=0.0, force_fail=not ok,
                           details={"divergent": 1.0 if ok else 0.0})
    return make_report(name, value, exact, slack=0.05 * exact,
                       force_fail=value < exact * 0.95, details=details)


def _run_majorant_regularity(fs, cfg: SuiteConfig, seeds):
    """Map-independent regularity rows. Majorants with closed-form constants
    (the power family: 1/alpha and 1/(1-alpha)) are compared against them at
    5% tolerance; the others record their empirical constants. A sampled
    table that does not reach down to the probe scales gives
    hypothesis-violated rows, as in the per-map majorant suites."""
    names = ["majorant-head-integral", "majorant-tail-integral"]

    def run(omega):
        rep = _regularity(omega)
        head, tail = omega.exact_regularity() or (None, None)
        return [[_regularity_row(names[0], rep.c_eq2, head, {}),
                 _regularity_row(names[1], rep.c_eq3, tail, {"truncation": rep.c_eq3_truncation})]]

    return _per_majorant(fs, cfg, names, run)


# The (r1, r) pairs of the three-circles rows and the radii of the
# isoperimetric rows, one row per map each.
THREE_CIRCLES_PAIRS = ((0.1, 0.3), (0.1, 0.5), (0.3, 0.6), (0.3, 0.9))
ISOPERIMETRIC_RADII = (0.3, 0.6, 0.9)

# Suite name -> runner. A runner takes (maps, config, one task seed per map)
# and returns one list of rows per map, so a suite's disk suprema are
# polished for every map at once. A global suite runs once per campaign, on
# the one map None.
SUITES = {
    "three-circles": _per_map(lambda f, cfg, seed: [verify_three_circles(f, r1, r)
                                                    for r1, r in THREE_CIRCLES_PAIRS]),
    "area-overlap": _per_map(lambda f, cfg, seed: [verify_area_overlap(
        f, seed=seed, mc_samples=cfg.mc_samples)]),
    "hardy-area": _per_map(lambda f, cfg, seed: [verify_hardy_area(f)]),
    "coeff-bound": _per_map(lambda f, cfg, seed: verify_coeff_bound(f)),
    "gradient-bound": _gradient_bound,
    "isoperimetric": _per_map(lambda f, cfg, seed: [verify_isoperimetric(f, r)
                                                    for r in ISOPERIMETRIC_RADII]),
    "lipschitz-16": _lipschitz_16,
    "hl-17": _hl_17,
    "majorant-regularity": _run_majorant_regularity,
}
GLOBAL_SUITES = ("majorant-regularity",)
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
    mc_samples: int = 1_000_000
    majorants: tuple[Majorant, ...] = (PowerMajorant(0.5), PowerMajorant(1.0))
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
        try:
            _check_mc_samples(self.mc_samples)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # Entries whose rows would share a name; a file listed twice is one map.
        files = {Path(path).resolve(): f"@file:{Path(path).name}" for path in self.map_files}
        for key, names in (("maps", list(files.values())),
                           ("majorants", [omega.label() for omega in self.majorants])):
            shared = sorted({name for name in names if names.count(name) > 1})
            if shared:
                raise ConfigError(f"{key}: more than one entry names rows {', '.join(shared)}")

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
            raise ConfigError(f"{', '.join(unknown)}: not a config key")
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
        mc_samples=200_000,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------


def _load_sources(cfg: SuiteConfig) -> list[tuple[str, HarmonicMap]]:
    """(map_id, f) for the builtins, each file that ``map_files`` names (once
    however often it is listed) and the fuzz corpus. The files are read
    before the corpus is drawn; one that cannot be read as a map is a
    configuration error."""
    sources: list[tuple[str, HarmonicMap]] = []
    if cfg.include_builtin:
        for name, f in builtin_maps().items():
            sources.append((f"builtin:{name}", f))
    try:
        for path in dict.fromkeys(Path(p).resolve() for p in cfg.map_files):
            sources.append((f"file:{path.name}", load_map(path)))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"maps: {exc}") from None
    if cfg.fuzz is not None:
        for i, f in enumerate(fuzz_corpus(cfg.fuzz)):
            sources.append((f"fuzz-{i:04d}", f))
    return sources


def _task_seed(cfg: SuiteConfig, index: int) -> int:
    # Per-task stream index keeps Monte Carlo draws independent across tasks
    # while staying reproducible for a fixed campaign seed.
    return int(np.random.SeedSequence((cfg.seed, index)).generate_state(1)[0])


def _run_suite_on_map(suite: str, targets, cfg: SuiteConfig, first: int):
    """One campaign task: a suite on every map of ``targets`` ((map_id, f)
    pairs) at once, each map with the Monte Carlo stream of task index
    ``first`` plus its position; or once (targets [("-", None)]) for a
    global suite. Row names end in @map_id."""
    seeds = [_task_seed(cfg, first + i) for i in range(len(targets))]
    chunks = SUITES[suite]([f for _, f in targets], cfg, seeds)
    reports = []
    for (map_id, _), chunk in zip(targets, chunks):
        for rep in chunk:
            rep.name = f"{rep.name}@{map_id}"
            reports.append(rep)
    return reports


def _memo_block() -> int:
    """Maps a campaign runs its per-map suites on under one memo: as many as
    keep every array memoized for a map within ``_MEMO_BUDGET``, at least 1.
    A map's arrays are its Lambda_f scan (8 bytes a node of ``grids.GRID``),
    its pair quotients (8 bytes a pair of :func:`default_pair_sample`) and
    its hl-17 fields (16 bytes a pair of ``_hl_sample``): 94 maps."""
    pairs, hl_pairs = default_pair_sample()[0].size, _hl_sample()[0].size
    return max(1, _MEMO_BUDGET // (8 * GRID.n_r * GRID.n_theta + 8 * pairs + 16 * hl_pairs))


def run_config(cfg: SuiteConfig):
    """Execute a campaign; returns (reports sorted, summary dict).

    A global suite runs once. The per-map suites run in suite order on
    blocks of :func:`_memo_block` maps, each block under its own campaign
    memo, which holds its maps' majorant-free scans, so suites and
    majorants share them, and drops them when the block ends. A map keeps
    the Monte Carlo stream of its (suite, map_id) position in sorted order.
    """
    cfg.validate()
    sources = sorted(_load_sources(cfg), key=lambda s: s[0])
    starts, index, reports = {}, 0, []
    for suite in sorted(set(cfg.suites)):
        starts[suite], index = index, index + (1 if suite in GLOBAL_SUITES else len(sources))
    for suite in starts.keys() & GLOBAL_SUITES:
        reports.extend(_run_suite_on_map(suite, [("-", None)], cfg, starts.pop(suite)))
    block = _memo_block()
    for lo in range(0, len(sources), block):
        with _campaign_memo():
            for suite, start in starts.items():
                reports.extend(_run_suite_on_map(suite, sources[lo : lo + block], cfg, start + lo))
    reports.sort(key=lambda r: (r.name, -1 if r.n is None else r.n))
    return reports, summarize(reports)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _is_file_path(path: str) -> bool:
    """Whether ``path`` can name a file to write: not a directory, in an existing one."""
    return not Path(path).is_dir() and Path(path).parent.is_dir()


def _functional_usage(args) -> str | None:
    """What makes a ``functional`` command unusable, found before any work."""
    if args.r is not None and args.name == "bloch":
        return "--r does not apply to bloch, a sup over the disk"
    if args.p is not None and args.name != "hardy":
        return "--p applies to hardy only"
    if args.r1 is not None and not (args.emit_table and 0.0 < args.r1 < 1.0):
        return "--r1 needs --emit-table and must lie in (0, 1)"
    if args.emit_table and not _is_file_path(args.emit_table):
        return f"--emit-table: {args.emit_table!r} is not a file path in an existing directory"
    return None


def _cmd_functional(args) -> int:
    usage = _functional_usage(args)
    if usage:
        print(f"error: {usage}", file=sys.stderr)
        return EXIT_USAGE
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
        try:
            _emit_table(f, args.emit_table, args.r1)
        except OSError as exc:
            return _write_error(args.emit_table, exc)
        print(f"wrote table to {args.emit_table}", file=sys.stderr)
    return EXIT_OK


def _emit_table(f: HarmonicMap, path: str, r1: float | None) -> None:
    """Radius-parameterized curves for external plotting: the area and
    length functions with the bounds they are checked against."""
    header = ["r", "area", "length", "isoperimetric_rhs"]
    if r1 is not None:
        header.append("three_circles_rhs")
        m = max(area_series(f, r1).value, 0.0)
    lines = [",".join(header)]
    for r in np.linspace(0.05, 0.99, 48).tolist():
        s = area_series(f, r).value
        l = length_function(f, r).value
        row = [r, s, l, l * l / (4.0 * math.pi**2)]
        if r1 is not None:
            row.append(m ** (math.log(r) / math.log(r1)) if r1 <= r and m > 0 else "")
        lines.append(",".join("" if v == "" else repr(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="")


def _write_error(path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_verify(args) -> int:
    if args.config and args.seed is not None:
        print('error: --seed applies to the default campaign only; a config sets "seed"', file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = SuiteConfig.from_json_dict(json.load(fh))
        else:
            cfg = default_config() if args.seed is None else default_config(seed=args.seed)
        if args.out:
            cfg.output_path = args.out
        if args.format:
            cfg.output_format = args.format
        if not _is_file_path(cfg.output_path):  # refused before the campaign, not after it
            raise ConfigError(f"output: {cfg.output_path!r} is not a file path in an existing directory")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        reports, counts = run_config(cfg)
    except ConfigError as exc:  # e.g. a map file that cannot be read, refused before any draw
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GenerationFailed as exc:
        print(f"error: corpus generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    try:  # UTF-8 for the map names in CSV rows; json.dumps escapes to ASCII
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            if cfg.output_format == "csv":
                write_csv(reports, fh)
            else:
                write_json_lines(reports, fh)
    except OSError as exc:
        return _write_error(cfg.output_path, exc)
    # A pass is unresolved when margin <= error_estimate: at the computed
    # accuracy the row cannot tell the claim from its failure. That holds
    # for a negative margin that the row's slack lets pass, too.
    unresolved = sum(rep.status == PASS and rep.margin <= rep.error_estimate
                     for rep in reports)
    print(
        f"{len(reports)} checks: {counts[PASS]} pass ({unresolved} unresolved), "
        f"{counts[FAIL]} fail, {counts[HYPOTHESIS_VIOLATED]} hypothesis-violated "
        f"-> {cfg.output_path}"
    )
    return EXIT_FAIL if counts[FAIL] else EXIT_OK


def _cmd_fuzz(args) -> int:
    try:
        spec = FuzzSpec(count=args.count, degree=args.degree, seed=args.seed)
        outdir = Path(args.out)  # its nearest existing part must be a directory
        if not next(p for p in (outdir, *outdir.parents) if p.exists()).is_dir():
            raise ValueError(f"--out: {args.out!r} is not a directory path")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        maps = fuzz_corpus(spec)
    except GenerationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    files = [f"map-{i:04d}.json" for i in range(len(maps))]
    # The draw no option changes, named so that a corpus still explains itself.
    draw = {"coeff_decay": _COEFF_DECAY, "target_K": spec.target_K,
            "enforce_coeff_dominance": True, "rescale_area": True}
    manifest = json.dumps({"spec": asdict(spec), "draw": draw, "files": files}, indent=2) + "\n"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, f in zip(files, maps):
            (outdir / name).write_bytes(map_json_bytes(f))
        (outdir / "manifest.json").write_bytes(manifest.encode("ascii"))
    except OSError as exc:
        return _write_error(outdir, exc)
    print(f"wrote {len(files)} maps to {outdir}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints it on one line and exits 2, as for any usage error
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_ver.add_argument("--seed", type=int, default=None,
                       help="seed of the default campaign (default 42); not with --config")
    p_ver.set_defaults(func=_cmd_verify)

    p_fz = sub.add_parser("fuzz", help="write a reproducible corpus of map files")
    p_fz.add_argument("--count", type=int, default=100)
    p_fz.add_argument("--degree", type=int, default=8)
    p_fz.add_argument("--seed", type=int, default=42)
    p_fz.add_argument("--out", default="fuzz-maps")
    p_fz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except Exception as exc:  # a fault in the program, not in its input
        print(f"error: internal: {type(exc).__name__}: {exc}".replace("\n", " "), file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:  # console-script shim
    sys.exit(main())
