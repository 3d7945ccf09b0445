import hashlib
import json
import math
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from harmap.cli import ConfigError, SuiteConfig, default_config, main, run_config
from harmap.core import MAX_FILE_DEGREE, map_json_bytes
from harmap.grids import Grid, QuadratureSpec
from harmap.lipschitz import PowerMajorant
from harmap.verify import FuzzSpec, builtin_maps


@pytest.fixture()
def id_map_file(tmp_path):
    path = tmp_path / "id.json"
    path.write_bytes(map_json_bytes(builtin_maps()["identity"]))
    return path


@pytest.fixture()
def affine_map_file(tmp_path):
    path = tmp_path / "affine.json"
    path.write_bytes(map_json_bytes(builtin_maps()["affine-root2"]))
    return path


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out.splitlines()[0])


# -- functional -------------------------------------------------------------------


def test_functional_area(capsys, id_map_file):
    code, obj = run_json(capsys, ["functional", "--map", str(id_map_file), "--name", "area", "--r", "0.7"])
    assert code == 0
    assert obj["value"] == pytest.approx(0.49, abs=1e-12)


def test_functional_length(capsys, id_map_file):
    code, obj = run_json(capsys, ["functional", "--map", str(id_map_file), "--name", "length", "--r", "0.5"])
    assert code == 0
    assert obj["value"] == pytest.approx(math.pi, abs=1e-12)


def test_functional_bloch_affine(capsys, affine_map_file):
    code, obj = run_json(capsys, ["functional", "--map", str(affine_map_file), "--name", "bloch"])
    assert code == 0
    assert obj["value"] == pytest.approx(math.sqrt(2) + 1, abs=1e-9)


def test_functional_hardy_norm(capsys, id_map_file):
    code, obj = run_json(capsys, ["functional", "--map", str(id_map_file), "--name", "hardy", "--p", "2"])
    assert code == 0
    assert obj["value"] == pytest.approx(1.0, abs=1e-9)


def test_functional_hardy_defaults_and_mean(capsys, affine_map_file):
    # omitting --p gives the h^2 norm; --r switches to the circle mean
    code, obj = run_json(capsys, ["functional", "--map", str(affine_map_file), "--name", "hardy"])
    assert code == 0
    assert obj["value"] == pytest.approx(math.sqrt(3.0), abs=1e-9)  # sqrt(2 + 1)
    code, obj = run_json(capsys, [
        "functional", "--map", str(affine_map_file), "--name", "hardy", "--r", "0.8",
    ])
    assert code == 0
    assert obj["value"] ** 2 == pytest.approx(0.64 * 3.0, abs=1e-10)
    code, obj = run_json(capsys, [
        "functional", "--map", str(affine_map_file), "--name", "hardy", "--p", "inf",
    ])
    assert code == 0
    assert obj["value"] == pytest.approx(math.sqrt(2) + 1, abs=1e-6)


def test_functional_malformed_map(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["functional", "--map", str(bad), "--name", "area"]) == 2


def test_functional_bad_params(capsys, id_map_file):
    assert main(["functional", "--map", str(id_map_file), "--name", "area", "--r", "1.5"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["functional", "--map", str(id_map_file), "--name", "nope"])
    assert exc.value.code == 2


def test_functional_emit_table(tmp_path, capsys, id_map_file):
    table = tmp_path / "curves.csv"
    code = main([
        "functional", "--map", str(id_map_file), "--name", "area",
        "--emit-table", str(table), "--r1", "0.1",
    ])
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "r,area,length,isoperimetric_rhs,three_circles_rhs"
    r, area, length, iso, tc = lines[-1].split(",")
    assert float(area) == pytest.approx(float(r) ** 2, abs=1e-12)
    assert float(iso) == pytest.approx(float(length) ** 2 / (4 * math.pi**2), rel=1e-12)


# -- fuzz ---------------------------------------------------------------------------


def test_fuzz_reproducible_bytes(tmp_path):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    for out in (out1, out2):
        assert main(["fuzz", "--count", "2", "--degree", "1", "--seed", "7", "--out", str(out)]) == 0
    for name in ("map-0000.json", "map-0001.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fuzz_dominance_contract(tmp_path):
    out = tmp_path / "dom"
    assert main(["fuzz", "--count", "3", "--degree", "4", "--seed", "9", "--dominance", "--out", str(out)]) == 0
    for path in sorted(out.glob("map-*.json")):
        obj = json.loads(path.read_text())
        for (ar, ai), (br, bi) in zip(obj["a"][1:], obj["b"]):
            assert math.hypot(br, bi) <= math.hypot(ar, ai) + 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["enforce_coeff_dominance"] is True
    assert manifest["files"] == ["map-0000.json", "map-0001.json", "map-0002.json"]


def test_fuzz_nan_target_k_is_a_usage_error(tmp_path, capsys):
    assert main(["fuzz", "--count", "1", "--target-k", "nan", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: target_K must be >= 1"]
    assert not (tmp_path / "x").exists()


def test_fuzz_generation_failure_exit_code(tmp_path):
    code = main(["fuzz", "--count", "1", "--degree", "2", "--seed", "1",
                 "--target-k", "1.0", "--out", str(tmp_path / "x")])
    assert code == 3


# -- verify -------------------------------------------------------------------------


def small_config(tmp_path, fmt="json"):
    return {
        "suites": ["three-circles", "hardy-area", "isoperimetric"],
        "include_builtin": True,
        "fuzz": {"count": 3, "degree": 4, "seed": 5},
        "quadrature": {"mc_samples": 20000, "seed": 5},
        "seed": 5,
        "output": {"path": str(tmp_path / f"rows.{fmt}"), "format": fmt},
    }


def test_verify_small_config_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config(tmp_path)))
    assert main(["verify", "--config", str(cfg)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "rows.json").read_text().splitlines()]
    assert rows
    statuses = {row["status"] for row in rows}
    assert "fail" not in statuses
    names = sorted(row["name"] for row in rows)
    assert names == sorted(names)


def test_verify_csv_format(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config(tmp_path, fmt="csv")))
    assert main(["verify", "--config", str(cfg)]) == 0
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert lines[0] == "name,n,lhs,rhs,margin,status"
    assert len(lines) > 10


def test_verify_unknown_suite_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    obj = small_config(tmp_path)
    obj["suites"] = ["three-circles", "not-a-suite"]
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 2


def test_verify_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{")
    assert main(["verify", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"suites": []}))
    assert main(["verify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "bad",
    [
        {"majorants": [{"family": "power"}]},
        {"majorants": [0.5]},
        {"seed": -1},
        {"grid": {"n_r": "x"}},
        {"three_circles_pairs": [[0.5, 0.2]]},
        {"isoperimetric_radii": [1.5]},
        {"output": "x"},
        {"maps": ["nope.json"]},
        {"include_builtin": "false"},
        {"seed": 4.9},
        {"seed": True},
        {"gradient_sample_count": "7"},
        {"grid": {"n_r": 8.5}},
        {"quadrature": {"mc_samples": 1e5}},
        {"fuzz": {"count": 2.5}},
        {"three_circles_pairs": [[0.1, 0.3, 99]]},
        {"maps": "ab.json"},
        {"suites": "hl-17"},
        {"maps": ["boolean-coefficient.json"]},
        {"maps": ["three-entry-pair.json"]},
        {"maps": ["unknown-key.json"]},
        {"maps": ["degree-over-cap.json"]},
        {"grid": {"n_r": 10**8, "n_theta": 10**8}},
        {"quadrature": {"mc_samples": 10**13}},
        {"isoperimetric_radii": [10**400]},
        {"fuzz": {"target_K": math.nan}},
        {"output": {"path": "no-such-dir/rows.jsonl"}},
        {"output": {"path": "."}},
    ],
    ids=["majorant-without-alpha", "majorant-not-object", "negative-seed", "non-integer-grid",
         "reversed-radius-pair", "radius-outside-disk", "output-not-object", "missing-map-file",
         "include-builtin-not-boolean", "fractional-seed", "boolean-seed",
         "string-sample-count", "fractional-grid", "float-mc-samples", "fractional-fuzz-count",
         "three-element-pair", "maps-not-array", "suites-not-array",
         "map-boolean-coefficient", "map-three-entry-pair", "map-unknown-key",
         "map-degree-over-cap", "grid-too-many-nodes", "too-many-mc-samples",
         "integer-beyond-float-range", "nan-target-k", "output-in-missing-directory",
         "output-is-a-directory"],
)
def test_verify_bad_config_values_are_usage_errors(tmp_path, capsys, monkeypatch, bad):
    import harmap.cli as cli

    monkeypatch.setattr(cli, "run_config", lambda cfg: pytest.fail("campaign started"))
    monkeypatch.chdir(tmp_path)
    identity = {"a": [[0, 0], [1, 0]], "b": [[0, 0]]}
    bad_maps = {
        "boolean-coefficient.json": {"a": [[0, 0], [True, 0]], "b": [[0, 0]]},
        "three-entry-pair.json": {"a": [[0, 0], [1, 0, 5]], "b": [[0, 0]]},
        "unknown-key.json": {**identity, "c": 1},
        "degree-over-cap.json": {"a": [[0, 0]] * (MAX_FILE_DEGREE + 2),
                                 "b": [[0, 0]] * (MAX_FILE_DEGREE + 1)},
    }
    for name, obj in bad_maps.items():
        (tmp_path / name).write_text(json.dumps(obj))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad configuration: ")
    assert err[0].startswith(f"error: bad configuration: {next(iter(bad))}")  # names the key


def test_functional_rejects_malformed_map_files(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for obj in ({"a": [[0, 0], [True, 0]], "b": [[0, 0]]},
                {"a": [[0, 0], [1, 0, 5]], "b": [[0, 0]]},
                {"a": [[0, 0], [1, 0]], "b": [[0, 0]], "c": 1},
                {"a": [[0, 0], [1, 0]]}):
        path.write_text(json.dumps(obj))
        assert main(["functional", "--map", str(path), "--name", "area"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot load map: malformed map object")


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Suite configuration", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    obj = json.loads(example)
    cfg = SuiteConfig.from_json_dict(obj)
    renamed = {"map_files", "output_path", "output_format"}
    assert set(obj) == {f.name for f in fields(SuiteConfig)} - renamed | {"maps", "output"}
    assert cfg == replace(default_config(), map_files=("extra-map.json",),
                          output_path="reports.jsonl")


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    import harmap.cli as cli

    def broken(f, r, q=None):
        raise RuntimeError("broken\nverifier")

    monkeypatch.setattr(cli, "verify_isoperimetric", broken)
    cfg = tmp_path / "cfg.json"
    obj = small_config(tmp_path)
    obj["suites"] = ["isoperimetric"]
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: internal: RuntimeError: broken verifier"]


def test_sampled_majorant_short_of_the_evaluated_range(tmp_path, capsys):
    # The table stops at t = 50; lipschitz-16 evaluates omega up to
    # 1 / (1 - r_max) = 200. Those checks are hypothesis-violated rows that
    # record the requested range, and the power majorant's rows keep their
    # bytes.
    def rows(majorants):
        obj = {"suites": ["lipschitz-16", "hl-17"], "majorants": majorants,
               "grid": {"n_r": 16, "n_theta": 32},
               "output": {"path": str(tmp_path / "rows.jsonl")}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        assert main(["verify", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        return (tmp_path / "rows.jsonl").read_text().splitlines()

    power = {"family": "power", "alpha": 0.5}
    sampled = {"family": "sampled", "table": [[1e-3, 0.03], [1, 1], [50, 7]]}
    mixed = rows([sampled, power])
    assert [r for r in mixed if "[power(0.5)]" in r] == [r for r in rows([power]) if "[power" in r]
    short = [json.loads(r) for r in mixed if "[sampled(3)]" in r]
    assert len(short) == 3 * len(builtin_maps())
    for row in short:
        assert row["status"] == "hypothesis-violated"
        assert row["hypotheses"] == {"majorant table covers the evaluated range": False}
        assert row["details"]["t_lo"] < row["details"]["t_hi"]
        assert not 1e-3 <= row["details"]["t_lo"] <= row["details"]["t_hi"] <= 50


def test_verify_runs_deterministically(tmp_path, capsys):
    cfg_obj = small_config(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_obj))
    assert main(["verify", "--config", str(cfg)]) == 0
    first = (tmp_path / "rows.json").read_bytes()
    assert main(["verify", "--config", str(cfg)]) == 0
    assert (tmp_path / "rows.json").read_bytes() == first


def test_config_validation_direct():
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("nope",)).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(suites=(), include_builtin=True).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(include_builtin=False).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(output_format="xml").validate()
    with pytest.raises(ConfigError):
        SuiteConfig.from_json_dict({"mystery": 1})


def test_default_config_runs_clean():
    cfg = default_config(seed=42)
    cfg.fuzz = None
    cfg.suites = ("three-circles", "gradient-bound", "majorant-regularity")
    reports, counts = run_config(cfg)
    assert counts["fail"] == 0
    assert counts["pass"] > 0


def test_regularity_runs_once_per_majorant(monkeypatch):
    # Two majorants through both regularity consumers: each majorant's one
    # 24-scale probe runs exactly once and serves both. No other test uses
    # these majorants, so the memo starts empty.
    import harmap.lipschitz as lipschitz

    calls = Counter()
    original = lipschitz.regularity_check

    def counting(omega, delta0, probes=24):
        calls[(omega, delta0, probes)] += 1
        return original(omega, delta0, probes)

    monkeypatch.setattr(lipschitz, "regularity_check", counting)
    cfg = SuiteConfig(suites=("hl-17", "majorant-regularity"),
                      majorants=(PowerMajorant(0.37), PowerMajorant(0.83)))
    reports, counts = run_config(cfg)
    assert counts["fail"] == 0
    assert sum(rep.name.startswith("hl-forward") for rep in reports) == 12
    assert calls == Counter({(cfg.majorants[0], 1.0, 24): 1, (cfg.majorants[1], 1.0, 24): 1})


def test_verify_exit_one_on_failure(tmp_path, capsys, monkeypatch):
    # Force one failing row through a stubbed verifier to exercise the
    # exit-code path (genuine failures do not occur on true inequalities).
    import harmap.cli as cli
    from harmap.report import make_report

    def broken(f, r, q=None):
        return make_report("isoperimetric(stub)", 2.0, 1.0, slack=0.0)

    monkeypatch.setattr(cli, "verify_isoperimetric", broken)
    cfg = tmp_path / "cfg.json"
    obj = small_config(tmp_path)
    obj["suites"] = ["isoperimetric"]
    obj["fuzz"] = None
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_verify_reads_each_map_file_once(tmp_path, monkeypatch, id_map_file, affine_map_file):
    # The configuration check reads the map files, and the campaign uses
    # what it read.
    import harmap.cli as cli

    calls = Counter()
    original = cli.load_map

    def counting(path):
        calls[str(path)] += 1
        return original(path)

    monkeypatch.setattr(cli, "load_map", counting)
    obj = small_config(tmp_path)
    obj["maps"] = [str(id_map_file), str(affine_map_file), str(id_map_file)]
    obj["fuzz"] = None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 0
    assert sum(calls.values()) == 3
    rows = (tmp_path / "rows.json").read_text()
    assert "@file:id.json" in rows and "@file:affine.json" in rows


def test_verify_streams_follow_sorted_ids_across_sources(tmp_path, capsys):
    # File ids sort between the builtin and the fuzz ids, and two files
    # with one basename keep their order in "maps": each map keeps the
    # Monte Carlo stream of its sorted (suite, map_id) position.
    maps = tmp_path / "maps"
    assert main(["fuzz", "--count", "3", "--degree", "3", "--seed", "5", "--out", str(maps)]) == 0
    (maps / "dup.json").write_bytes((maps / "map-0001.json").read_bytes())
    obj = {
        "maps": [str(maps / "map-0002.json"), str(maps / "map-0000.json"), str(maps / "dup.json")],
        "fuzz": {"count": 3, "degree": 4, "seed": 9},
        "quadrature": {"mc_samples": 10000, "seed": 3},
        "grid": {"n_r": 16, "n_theta": 32},
        "seed": 77,
        "output": {"path": str(tmp_path / "rows.jsonl"), "format": "json"},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 0
    digest = hashlib.sha256((tmp_path / "rows.jsonl").read_bytes()).hexdigest()
    assert digest == "45d9204f54393875dab6e6d6cf7fd0179288c3020c9f235e9043af2b072e0704"


def test_lipschitz_16_computes_each_maps_disk_means_once(monkeypatch):
    # C3's disk means depend on the map, not on the majorant: two majorants
    # need the 18 default probe means of each map once.
    import harmap.lipschitz as lipschitz

    calls = []
    original = lipschitz._disk_mean_abs_dev

    def counting(f, z0, r, *args):
        calls.append(f)
        return original(f, z0, r, *args)

    monkeypatch.setattr(lipschitz, "_disk_mean_abs_dev", counting)
    cfg = SuiteConfig(suites=("lipschitz-16",), include_builtin=False,
                      fuzz=FuzzSpec(count=3, degree=3, seed=4), grid=Grid(n_r=16, n_theta=32))
    assert len(cfg.majorants) == 2
    reports, summary = run_config(cfg)
    assert summary["fail"] == 0
    assert sorted(Counter(calls).values()) == [18, 18, 18]


def test_lipschitz_suites_scan_each_maps_side_once(monkeypatch):
    # Lambda_f on the grid and on the hl-17 segments, |f(z) - f(w)| on the
    # pairs: none depends on the majorant. With two majorants, each map's
    # grid field is evaluated once for both suites and its segment field
    # once, and a second campaign does the same scans again.
    import harmap.core as core
    from harmap.core import HarmonicMap

    grid = Grid(n_r=16, n_theta=32)
    scans = Counter()
    original = core.wirtinger

    def counting(f, z):
        if isinstance(f, HarmonicMap):
            scans["grid" if z is grid.nodes else np.shape(z)[1:], f] += 1
        return original(f, z)

    monkeypatch.setattr(core, "wirtinger", counting)
    cfg = SuiteConfig(suites=("hl-17", "lipschitz-16"), fuzz=None, grid=grid)
    assert len(cfg.majorants) == 2
    maps = builtin_maps().values()
    for _ in range(2):
        scans.clear()
        reports, summary = run_config(cfg)
        assert summary["fail"] == 0
        assert scans == Counter({**{("grid", f): 1 for f in maps}, **{((64,), f): 1 for f in maps}})


def test_lipschitz_results_on_a_grid_do_not_reuse_another_grids_memos():
    # Within a campaign's memo, scans on one grid serve no other grid.
    import harmap.core as core
    from harmap.functionals import bloch_seminorms
    from harmap.lipschitz import cond_a_constants, verify_hl_equivalences

    maps = list(builtin_maps().values())
    omega = PowerMajorant(0.5)

    def results(grid):
        return (bloch_seminorms(maps, grid), cond_a_constants(maps, omega, grid),
                verify_hl_equivalences(maps, omega, grid))

    other = Grid(n_r=16, n_theta=32, r_max=0.9)
    fresh = results(other)
    with core._grid_stretch_memo():
        default = results(Grid())  # the memo now holds the default grid's scans
        assert len(core._GRID_STRETCH) == len(maps)
        assert results(other) == fresh
    assert default != fresh
    assert core._GRID_STRETCH is None  # nothing outlives the block


def _count_scalar_wirtinger(monkeypatch):
    """Count the one-point wirtinger evaluations at every module binding."""
    import harmap.core as core
    import harmap.functionals as functionals
    import harmap.lipschitz as lipschitz
    import harmap.verify as verify

    scalar = []
    original = core.wirtinger

    def counting(f, z):
        if np.size(z) == 1:
            scalar.append(1)
        return original(f, z)

    for mod in (core, functionals, lipschitz, verify):
        monkeypatch.setattr(mod, "wirtinger", counting)
    return scalar


def test_disk_sups_are_polished_for_all_maps_at_once(monkeypatch):
    # Doubling the corpus must not add one-point evaluations: every
    # golden-section step evaluates all maps in one call.
    scalar = _count_scalar_wirtinger(monkeypatch)
    counts = []
    for count in (8, 16):
        cfg = SuiteConfig(
            suites=("gradient-bound", "lipschitz-16", "hl-17"),
            include_builtin=False,
            fuzz=FuzzSpec(count=count, degree=4, seed=3),
            quadrature=QuadratureSpec(mc_samples=10_000, seed=3),
            grid=Grid(n_r=16, n_theta=32),
        )
        scalar.clear()
        reports, summary = run_config(cfg)
        assert summary["fail"] == 0
        counts.append(len(scalar))
    assert counts[1] == counts[0]


def test_campaign_runs_on_one_thread_by_default(monkeypatch):
    import harmap.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was constructed")

    monkeypatch.setenv("HARMAP_THREADS", "4")  # a stale pool setting starts no pool
    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    cfg = SuiteConfig(suites=("three-circles", "hardy-area", "majorant-regularity"), fuzz=None)
    reports, summary = run_config(cfg)
    assert summary["fail"] == 0 and reports


def test_per_map_memos_live_for_one_campaign(monkeypatch):
    # A second campaign in the same process does the same scans as the
    # first: it does not reuse the first one's memos.
    import harmap.verify as verify

    calls = Counter()
    for name in ("length_sup", "is_sense_preserving"):
        original = getattr(verify, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counting)
    cfg = SuiteConfig(
        suites=("coeff-bound", "gradient-bound", "hardy-area"),
        fuzz=FuzzSpec(count=2, degree=3, seed=8),
        quadrature=QuadratureSpec(mc_samples=10_000, seed=8),
    )
    per_run = []
    for _ in range(2):
        calls.clear()
        run_config(cfg)
        per_run.append(dict(calls))
    assert per_run[0] == per_run[1]
    assert per_run[0]["length_sup"] > 0 and per_run[0]["is_sense_preserving"] > 0
