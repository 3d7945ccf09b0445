import hashlib
import json
import math
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from harmap.cli import ConfigError, SuiteConfig, default_config, main, run_config
from harmap.core import MAX_FILE_DEGREE, HarmonicMap, map_json_bytes
from harmap.grids import GRID
from harmap.lipschitz import PowerMajorant
from harmap.verify import FuzzSpec, builtin_maps, fuzz_corpus


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


@pytest.mark.parametrize("a1, p, scale", [(0.5, "1200", 0.5), (3.0, "800", 3.0), (0.0, "1200", 0.0)],
                         ids=["underflow", "overflow", "zero"])
def test_functional_hardy_at_large_p(capsys, tmp_path, a1, p, scale):
    # |f| = scale r on every circle: mean scale r, norm scale, for every p.
    path = tmp_path / "linear.json"
    path.write_bytes(map_json_bytes(HarmonicMap(a=(0, a1), b=(0,))))
    base = ["functional", "--map", str(path), "--name", "hardy", "--p", p]
    code, obj = run_json(capsys, base)
    assert code == 0
    assert obj["value"] == pytest.approx(scale, rel=1e-12, abs=0.0)
    assert 0.0 <= obj["error_estimate"] <= 1e-11
    code, obj = run_json(capsys, base + ["--r", "0.9"])
    assert code == 0
    assert obj["value"] == pytest.approx(0.9 * scale, rel=1e-14, abs=0.0)
    assert 0.0 <= obj["error_estimate"] <= 1e-13


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
    capsys.readouterr()
    assert main(["functional", "--map", str(id_map_file), "--name", "nope"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: argument --name: invalid choice: 'nope'")


@pytest.mark.parametrize("p", ["1e-310", "5e-324"])
def test_functional_hardy_refuses_a_subnormal_p(capsys, affine_map_file, p):
    for extra in ([], ["--r", "1"]):
        assert main(["functional", "--map", str(affine_map_file), "--name", "hardy",
                     "--p", p, *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: p must be")


@pytest.mark.parametrize(
    "argv",
    [
        ["--name", "area", "--emit-table", "t.csv", "--r1", "2"],
        ["--name", "area", "--emit-table", "t.csv", "--r1", "-0.5"],
        ["--name", "area", "--emit-table", "no-such-dir/t.csv"],
        ["--name", "bloch", "--r", "7"],
        ["--name", "area", "--p", "3"],
        ["--name", "area", "--r1", "0.1"],
    ],
    ids=["r1-above-one", "negative-r1", "table-in-missing-directory", "bloch-with-r",
         "p-without-hardy", "r1-without-table"],
)
def test_functional_usage_errors_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                        id_map_file, argv):
    import harmap.cli as cli

    monkeypatch.setattr(cli, "load_map", lambda path: pytest.fail("map loaded"))
    monkeypatch.chdir(tmp_path)
    assert main(["functional", "--map", str(id_map_file), *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["id.json"]  # no table written


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
    assert main(["fuzz", "--count", "3", "--degree", "4", "--seed", "9", "--out", str(out)]) == 0
    for path in sorted(out.glob("map-*.json")):
        obj = json.loads(path.read_text())
        for (ar, ai), (br, bi) in zip(obj["a"][1:], obj["b"]):
            assert math.hypot(br, bi) <= math.hypot(ar, ai) + 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"] == {"count": 3, "degree": 4, "seed": 9}
    assert manifest["draw"] == {"coeff_decay": 0.55, "target_K": 10.0,
                                "enforce_coeff_dominance": True, "rescale_area": True}
    assert manifest["files"] == ["map-0000.json", "map-0001.json", "map-0002.json"]


@pytest.mark.parametrize(
    "argv",
    [["--out", "taken"], ["--out", "taken/sub"], ["--count", str(10**12), "--out", "new"],
     ["--decay", "0.55", "--out", "new"], ["--dominance", "--out", "new"],
     ["--target-k", "nan", "--out", "new"], ["--no-rescale", "--out", "new"]],
    ids=["out-is-a-file", "out-below-a-file", "count-over-cap", "decay-is-not-an-option",
         "dominance-is-not-an-option", "target-k-is-not-an-option", "no-rescale-is-not-an-option"],
)
def test_fuzz_usage_errors_exit_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    import harmap.cli as cli

    monkeypatch.setattr(cli, "fuzz_corpus", lambda spec: pytest.fail("corpus started"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("x")
    assert main(["fuzz", "--count", "1", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    if argv[0] not in ("--out", "--count"):  # an option the fuzzer no longer has
        assert err == f"error: unrecognized arguments: {' '.join(argv[:-2])}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_fuzz_generation_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(FuzzSpec, "target_K", 1.0)  # reached by b = 0 only, which no draw has
    code = main(["fuzz", "--count", "1", "--degree", "2", "--seed", "1", "--out", str(tmp_path / "x")])
    assert code == 3


# -- verify -------------------------------------------------------------------------


def small_config(tmp_path, fmt="json"):
    return {
        "suites": ["three-circles", "hardy-area", "isoperimetric"],
        "include_builtin": True,
        "fuzz": {"count": 3, "degree": 4, "seed": 5},
        "mc_samples": 20000,
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


def test_verify_summary_counts_unresolved_passes(tmp_path, capsys):
    # The builtin equality cases pass with margin <= error_estimate: 6
    # isoperimetric rows (identity, scale-half) and 12 three-circles rows
    # (identity, affine-quarters, affine-root2) of the 34 passes. Six of
    # those are rounding-level negative margins with a zero error estimate,
    # which the slack lets pass: all of affine-root2's, and identity's and
    # affine-quarters' at (r1, r) = (0.1, 0.3). They count as unresolved.
    obj = small_config(tmp_path)
    obj["suites"] = ["three-circles", "isoperimetric"]
    obj["fuzz"] = None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "rows.json").read_text().splitlines()]
    passes = [row for row in rows if row["status"] == "pass"]
    unresolved = [row["name"] for row in passes if row["margin"] <= row["error_estimate"]]
    negative = [row["name"] for row in passes if row["margin"] < 0.0 and row["error_estimate"] == 0.0]
    assert len(unresolved) == 18
    assert len(negative) == 6 and set(negative) <= set(unresolved)
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"42 checks: 34 pass (18 unresolved), 0 fail, 8 hypothesis-violated -> {tmp_path / 'rows.json'}"
    )


def test_area_sup_runs_once_per_map_in_a_campaign(tmp_path, monkeypatch):
    # S_f(1) of a map whose area polynomial is not monotone takes the
    # roots of S'. Each of the four three-circles rows reads it (one
    # np.roots call a row before the campaign memo kept it).
    import harmap.functionals as functionals

    calls = []
    roots = functionals.np.roots

    def counting(p):
        calls.append(len(p))
        return roots(p)

    degree = 96
    path = tmp_path / "wavy.json"
    path.write_bytes(map_json_bytes(HarmonicMap(a=(0, 1) + (0,) * (degree - 1),
                                                b=(0,) * (degree - 1) + (0.2,))))
    obj = {
        "suites": ["three-circles", "hardy-area", "gradient-bound"],
        "maps": [str(path)],
        "include_builtin": False,
        "fuzz": None,
        "output": {"path": str(tmp_path / "rows.jsonl"), "format": "json"},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    monkeypatch.setattr(functionals.np, "roots", counting)
    assert main(["verify", "--config", str(cfg)]) == 0
    assert calls == [degree]


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


def test_verify_refuses_seed_beside_config(tmp_path, capsys, monkeypatch):
    # A config carries its own seed; --seed would be silently ignored.
    import harmap.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config(tmp_path)))
    monkeypatch.setattr(cli, "run_config", lambda cfg: pytest.fail("the campaign ran"))
    assert main(["verify", "--config", str(cfg), "--seed", "7"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --seed")
    assert not (tmp_path / "rows.json").exists()


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
        {"output": "x"},
        {"maps": ["nope.json"]},
        {"include_builtin": "false"},
        {"seed": 4.9},
        {"seed": True},
        {"mc_samples": "7"},
        {"grid": {"n_r": 8.5}},
        {"mc_samples": 1e5},
        {"fuzz": {"count": 2.5}},
        {"majorants": [{"family": "sampled", "table": [[0.01, 0.1, 99], [1, 1]]}]},
        {"maps": "ab.json"},
        {"suites": "hl-17"},
        {"maps": ["boolean-coefficient.json"]},
        {"maps": ["three-entry-pair.json"]},
        {"maps": ["unknown-key.json"]},
        {"maps": ["degree-over-cap.json"]},
        {"grid": {"n_r": 10**8, "n_theta": 10**8}},
        {"mc_samples": 10**13},
        {"majorants": [{"family": "power", "alpha": 10**400}]},
        {"fuzz": {"target_K": math.nan}},
        {"output": {"path": "no-such-dir/rows.jsonl"}},
        {"output": {"path": "."}},
        {"quadrature": {"angular_nodes": 10**9}},
        {"quadrature": {"radial_nodes": 10**9}},
        {"quadrature": {"radial_nodes": 1024, "angular_nodes": 2048}},
        {"quadrature": {"radial_nodes": 64}},
        {"fuzz": {"count": 10**12}},
        {"gradient_sample_count": 10**12},
        {"majorants": [{"family": "sampled", "table": [[0.01, 0.1], [1, 1]]},
                       {"family": "sampled", "table": [[0.01, 0.2], [1, 1]]}]},
        {"majorants": [{"family": "power", "alpha": 0.5},
                       {"family": "power", "alpha": 0.5000001}]},
        {"maps": ["a/m.json", "b/m.json"]},
        {"mc_samples": 5000},
        {"quadrature": {"mc_samples": 200000}},
        {"gradient_sample_count": 64},
        {"grid": {"r_max": 0.4}},
        {"three_circles_pairs": [[0.1, 0.3], [0.1, 0.5], [0.3, 0.6], [0.3, 0.9]]},
        {"isoperimetric_radii": [0.3, 0.6, 0.9]},
        {"fuzz": {"count": 48, "coeff_decay": 0.55}},
        {"fuzz": {"enforce_coeff_dominance": True}},
        {"fuzz": {"target_K": 10.0}},
        {"fuzz": {"rescale_area": True}},
        {"majorants": [{"family": "power", "alpha": math.nan}]},
    ],
    ids=["majorant-without-alpha", "majorant-not-object", "negative-seed", "non-integer-grid",
         "output-not-object", "missing-map-file",
         "include-builtin-not-boolean", "fractional-seed", "boolean-seed",
         "string-sample-count", "fractional-grid", "float-mc-samples", "fractional-fuzz-count",
         "three-element-pair", "maps-not-array", "suites-not-array",
         "map-boolean-coefficient", "map-three-entry-pair", "map-unknown-key",
         "map-degree-over-cap", "grid-too-many-nodes", "too-many-mc-samples",
         "integer-beyond-float-range", "nan-target-k", "output-in-missing-directory",
         "output-is-a-directory", "too-many-angular-nodes", "too-many-radial-nodes",
         "too-many-quadrature-nodes", "radial-nodes-is-an-unknown-key",
         "fuzz-count-over-cap", "too-many-gradient-samples",
         "sampled-majorants-one-label", "power-majorants-one-label",
         "map-files-one-basename", "too-few-mc-samples", "quadrature-is-an-unknown-key",
         "gradient-sample-count-is-an-unknown-key", "grid-is-an-unknown-key",
         "three-circles-pairs-unknown-key", "isoperimetric-radii-unknown-key",
         "coeff-decay-unknown-fuzz-field", "dominance-unknown-fuzz-field",
         "target-k-unknown-fuzz-field", "rescale-area-unknown-fuzz-field",
         "nan-majorant-alpha"],
)
def test_verify_bad_config_values_are_usage_errors(tmp_path, capsys, monkeypatch, bad):
    # Refused before any work: no corpus is drawn and no suite runs.
    import harmap.cli as cli

    monkeypatch.setattr(cli, "fuzz_corpus", lambda spec: pytest.fail("corpus drawn"))
    monkeypatch.setattr(cli, "_run_suite_on_map", lambda *args: pytest.fail("suite started"))
    monkeypatch.chdir(tmp_path)
    identity = {"a": [[0, 0], [1, 0]], "b": [[0, 0]]}
    bad_maps = {
        "boolean-coefficient.json": {"a": [[0, 0], [True, 0]], "b": [[0, 0]]},
        "three-entry-pair.json": {"a": [[0, 0], [1, 0, 5]], "b": [[0, 0]]},
        "unknown-key.json": {**identity, "c": 1},
        "degree-over-cap.json": {"a": [[0, 0]] * (MAX_FILE_DEGREE + 2),
                                 "b": [[0, 0]] * (MAX_FILE_DEGREE + 1)},
        "a/m.json": identity,  # two maps whose rows would both end @file:m.json
        "b/m.json": {"a": [[0, 0], [1, 0]], "b": [[0.5, 0]]},
    }
    for name, obj in bad_maps.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(json.dumps(obj))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad configuration: ")
    assert err[0].startswith(f"error: bad configuration: {next(iter(bad))}")  # names the key
    key = next(iter(bad))
    if key in ("grid", "quadrature", "gradient_sample_count", "three_circles_pairs",
               "isoperimetric_radii"):
        assert err == [f"error: bad configuration: {key}: not a config key"]
    removed = sorted(set(bad["fuzz"]) - {"count", "degree", "seed"}) if key == "fuzz" else []
    if removed:
        assert err == [f"error: bad configuration: fuzz: unknown fields: {removed}"]


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


def _linear_map_file(path, a1: float):
    path.write_text(json.dumps({"a": [[0.0, 0.0], [a1, 0.0]], "b": [[0.0, 0.0]]}))
    return path


# (2 pi a1)^2 is the largest float at this a1, the scale of l_f(1)^2 for a1 z.
LARGEST_A1 = math.sqrt(np.finfo(float).max) / (2.0 * math.pi)


@pytest.mark.parametrize("name", ["area", "length", "hardy", "bloch"])
def test_functional_refuses_coefficients_that_overflow(tmp_path, capsys, name):
    for a1 in (1e200, 1e308, 1.001 * LARGEST_A1):
        path = _linear_map_file(tmp_path / "huge.json", a1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["functional", "--map", str(path), "--name", name]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: cannot load map: map coefficients too large")
    path = _linear_map_file(tmp_path / "edge.json", 0.999 * LARGEST_A1)
    extras = [[]] if name == "bloch" else [[], ["--r", "0.5"]]
    extras += [["--p", "inf"], ["--p", "1e-16"]] if name == "hardy" else []
    for extra in extras:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, obj = run_json(capsys, ["functional", "--map", str(path), "--name", name, *extra])
        assert code == 0 and math.isfinite(obj["value"]) and math.isfinite(obj["error_estimate"])


def test_verify_refuses_coefficients_that_overflow(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    obj = small_config(tmp_path)
    obj.update(include_builtin=False, fuzz=None)
    obj["suites"].append("coeff-bound")
    obj["maps"] = [str(_linear_map_file(tmp_path / "huge.json", 1e200))]
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: bad configuration: maps: map coefficients too large")
    obj["maps"] = [str(_linear_map_file(tmp_path / "edge.json", 0.999 * LARGEST_A1))]
    cfg.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", str(cfg)]) in (0, 1)
    assert "error" not in capsys.readouterr().err


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

    def broken(f, r):
        raise RuntimeError("broken\nverifier")

    monkeypatch.setattr(cli, "verify_isoperimetric", broken)
    cfg = tmp_path / "cfg.json"
    obj = small_config(tmp_path)
    obj["suites"] = ["isoperimetric"]
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: internal: RuntimeError: broken verifier"]


def test_verify_writes_a_csv_of_non_ascii_map_names_as_utf8(tmp_path, capsys):
    path = tmp_path / "карта.json"
    path.write_bytes(map_json_bytes(builtin_maps()["identity"]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["hardy-area"], "maps": [str(path)],
                               "include_builtin": False,
                               "output": {"path": str(tmp_path / "rows.csv"), "format": "csv"}}))
    assert main(["verify", "--config", str(cfg)]) == 0
    lines = (tmp_path / "rows.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["name,n,lhs,rhs,margin,status",
                     "hardy-area@file:карта.json,,1.0,1.0,0.0,pass"]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["verify", "--out", "/dev/full"],
    ["functional", "--map", "{map}", "--name", "area", "--emit-table", "/dev/full"],
])
def test_an_output_that_cannot_be_written_exits_2(capsys, monkeypatch, id_map_file, argv):
    import harmap.cli as cli

    monkeypatch.setattr(cli, "default_config", lambda: SuiteConfig(suites=("hardy-area",)))
    assert main([a.format(map=id_map_file) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cannot write /dev/full: No space left on device"]


def test_fuzz_corpus_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch):
    import errno

    def full(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", full)
    out = tmp_path / "corpus"
    assert main(["fuzz", "--count", "1", "--degree", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {out}: No space left on device"]


def test_sampled_majorant_short_of_the_evaluated_range(tmp_path, capsys):
    # The table stops at t = 50; lipschitz-16 evaluates omega up to
    # 1 / (1 - r_max) = 200. Those checks are hypothesis-violated rows that
    # record the requested range, and the power majorant's rows keep their
    # bytes.
    def rows(majorants):
        obj = {"suites": ["lipschitz-16", "hl-17"], "majorants": majorants,
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

    def counting(omega):
        calls[omega] += 1
        return original(omega)

    monkeypatch.setattr(lipschitz, "regularity_check", counting)
    cfg = SuiteConfig(suites=("hl-17", "majorant-regularity"),
                      majorants=(PowerMajorant(0.37), PowerMajorant(0.83)))
    reports, counts = run_config(cfg)
    assert counts["fail"] == 0
    assert sum(rep.name.startswith("hl-forward") for rep in reports) == 12
    assert calls == Counter({cfg.majorants[0]: 1, cfg.majorants[1]: 1})


def test_lipschitz_16_weighs_by_each_majorant_once(monkeypatch):
    # The default campaign's 54 maps through lipschitz-16 with two majorants
    # no other test uses: C2's weights on the pair sample and C3's r omega(1/r)
    # at the 18 probe radii are computed once per majorant, not once per map
    # (108 pair calls and 1944 scalar calls before).
    import harmap.lipschitz as lipschitz

    shapes = Counter()
    call = lipschitz.Majorant.__call__

    def counting(omega, t):
        shapes[np.shape(t)] += 1
        return call(omega, t)

    monkeypatch.setattr(lipschitz.Majorant, "__call__", counting)
    cfg = replace(default_config(seed=42), suites=("lipschitz-16",),
                  majorants=(PowerMajorant(0.41), PowerMajorant(0.67)))
    reports, counts = run_config(cfg)
    assert counts["fail"] == 0
    pairs = lipschitz.default_pair_sample()[0].shape
    assert shapes[()] == 2 * 18 and shapes[pairs] == 2


def test_verify_exit_one_on_failure(tmp_path, capsys, monkeypatch):
    # Force one failing row through a stubbed verifier to exercise the
    # exit-code path (genuine failures do not occur on true inequalities).
    import harmap.cli as cli
    from harmap.report import make_report

    def broken(f, r):
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
    # The campaign reads each map file once, before its fuzz draw; a file
    # listed twice is read once and gives one set of rows.
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
    assert sum(calls.values()) == 2
    names = [json.loads(line)["name"] for line in (tmp_path / "rows.json").read_text().splitlines()]
    assert names.count("hardy-area@file:id.json") == 1
    assert names.count("hardy-area@file:affine.json") == 1


def test_verify_refuses_an_unreadable_map_file_before_any_draw(tmp_path, capsys, monkeypatch):
    import harmap.cli as cli

    monkeypatch.setattr(cli, "fuzz_corpus", lambda spec: pytest.fail("corpus drawn"))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    obj = small_config(tmp_path)
    obj["maps"] = [str(bad)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad configuration: maps: ")
    assert not (tmp_path / "rows.json").exists()


def test_a_second_campaign_reads_the_map_files_again(tmp_path):
    path = tmp_path / "m.json"
    cfg = SuiteConfig(suites=("coeff-bound",), map_files=(str(path),), include_builtin=False)
    rows = []
    for name in ("identity", "affine-root2"):
        path.write_bytes(map_json_bytes(builtin_maps()[name]))
        rows.append([rep.to_json_dict() for rep in run_config(cfg)[0]])
    assert rows[1] == [rep.to_json_dict() for rep in run_config(replace(cfg))[0]]
    assert rows[0] != rows[1]


def test_verify_a_map_whose_sense_and_lambda_roundings_disagree(tmp_path, capsys):
    # |a_1| and |b_1| agree to 16 digits: the Jacobian rounds positive while
    # |f_z| - |f_zbar| does not, so K is inf and hardy-area's hypothesis
    # fails; the run ends normally.
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"a": [[0.0, 0.0], [-340.5365670018157, 576.8574068568087]],
                                "b": [[-433.22418163072047, 510.9270297814907]]}))
    obj = small_config(tmp_path)
    obj.update(suites=["hardy-area"], include_builtin=False, fuzz=None, maps=[str(path)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 0
    (row,) = [json.loads(line) for line in (tmp_path / "rows.json").read_text().splitlines()]
    assert row["name"] == "hardy-area@file:edge.json"
    assert row["status"] == "hypothesis-violated"
    assert row["hypotheses"]["finite distortion constant"] is False


# Three degree-3 map files; the first two have |b_3| > |a_3|, which the
# fuzzer never draws.
STREAM_MAPS = [
    {
        "a": [
            [0.0, 0.0],
            [0.36264550779890325, -0.9517334281782378],
            [-0.011434137531123935, 0.052301608375151375],
            [0.007097408339997066, 0.0018519204000981202],
        ],
        "b": [
            [-0.06476380238162281, 0.19157745273833457],
            [-0.02529094675465853, 0.008790460336122814],
            [0.008847544930083731, -0.014573612559930386],
        ],
    },
    {
        "a": [
            [0.0, 0.0],
            [-1.0450077173908543, 0.19443231216360457],
            [-0.05606681311090319, -0.034232849551407235],
            [0.013984935839341775, 0.00641288270221102],
        ],
        "b": [
            [-0.21935286204953874, -0.295710529915342],
            [0.02892764128296013, 9.544481130552464e-05],
            [-0.021126267769185258, -0.014293666485592858],
        ],
    },
    {
        "a": [
            [0.0, 0.0],
            [-0.7574541571608076, 0.36917863211980856],
            [0.08347252737419669, 0.037394737101057576],
            [0.006109589242795643, 0.03521159005359119],
        ],
        "b": [
            [0.12513743961330479, -0.16098722106082117],
            [-0.02591166644591354, -0.0003944930254169882],
            [0.0009119361621530316, -0.031121918831044537],
        ],
    },
]


def test_verify_streams_follow_sorted_ids_across_sources(tmp_path, capsys):
    # File ids sort between the builtin and the fuzz ids, whatever the
    # order of "maps", and a copy of a map under another name is a map of
    # its own: each map keeps the Monte Carlo stream of its sorted
    # (suite, map_id) position.
    maps = tmp_path / "maps"
    maps.mkdir()
    for i, obj in enumerate(STREAM_MAPS):
        (maps / f"map-{i:04d}.json").write_text(json.dumps(obj))
    (maps / "dup.json").write_bytes((maps / "map-0001.json").read_bytes())
    obj = {
        "maps": [str(maps / "map-0002.json"), str(maps / "map-0000.json"), str(maps / "dup.json")],
        "fuzz": {"count": 3, "degree": 4, "seed": 9},
        "mc_samples": 10000,
        "seed": 77,
        "output": {"path": str(tmp_path / "rows.jsonl"), "format": "json"},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 0
    digest = hashlib.sha256((tmp_path / "rows.jsonl").read_bytes()).hexdigest()
    assert digest == "8073763bc0e6a93760eb3fef58751138a135dd1ea9ae65d9bc0f41a0d2c781b5"


def _disk_sup_digest(tmp_path):
    obj = {
        "suites": ["gradient-bound", "lipschitz-16", "hl-17"],
        "fuzz": {"count": 4, "degree": 5, "seed": 11},
        "majorants": [{"family": "power", "alpha": 0.75},
                      {"family": "sampled",
                       "table": [[1e-8, 1e-6], [1e-2, 0.05], [1.0, 1.0], [1e4, 10.0]]}],
        "seed": 7,
        "output": {"path": str(tmp_path / "rows.jsonl"), "format": "json"},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 0
    return hashlib.sha256((tmp_path / "rows.jsonl").read_bytes()).hexdigest()


DISK_SUP_DIGEST = "0ccc5159e6fc751df216a4e866719123cb816f5c95f44f0a5affa68e7b4b9347"


def test_verify_disk_sup_digest(tmp_path):
    # Pins the disk-sup suites on their own maps and majorants: the
    # identity's Bloch ratio peaks at the origin, and a sampled majorant
    # covers every probed range.
    assert _disk_sup_digest(tmp_path) == DISK_SUP_DIGEST


def _count_grid_scans(monkeypatch):
    """Count, by map, the evaluations of one map's derivative fields on the
    grid while a campaign's suites run. The fuzzer's admission scans, made
    while the sources load, are left out."""
    import harmap.cli as cli
    import harmap.core as core

    scans = Counter()
    wirtinger, load = core.wirtinger, cli._load_sources

    def counting(f, z):
        if isinstance(f, HarmonicMap) and np.shape(z) == GRID.nodes.shape:
            scans[f] += 1
        return wirtinger(f, z)

    def loading(cfg):
        sources = load(cfg)
        scans.clear()
        return sources

    monkeypatch.setattr(core, "wirtinger", counting)
    monkeypatch.setattr(cli, "_load_sources", loading)
    return scans


def test_a_memo_that_keeps_nothing_gives_the_same_bytes(tmp_path, monkeypatch):
    # With the campaign memo off, each map's grid scan (core._grid_scan) is
    # done again each time a suite or majorant needs it.
    import contextlib

    import harmap.cli as cli

    scans = _count_grid_scans(monkeypatch)
    monkeypatch.setattr(cli, "_campaign_memo", contextlib.nullcontext)
    assert _disk_sup_digest(tmp_path) == DISK_SUP_DIGEST
    assert len(scans) == 10 and min(scans.values()) > 1  # 6 builtin and 4 fuzz maps


def test_campaign_blocks_keep_the_bytes_and_scan_each_map_once(tmp_path, monkeypatch):
    # Blocks of 3 of the 10 maps, each under its own memo: the streams and
    # rows are those of one block, and each map's grid is scanned once.
    import harmap.cli as cli

    scans = _count_grid_scans(monkeypatch)
    memo, memos = cli._campaign_memo, []
    monkeypatch.setattr(cli, "_memo_block", lambda: 3)
    monkeypatch.setattr(cli, "_campaign_memo", lambda: memos.append(1) or memo())
    assert _disk_sup_digest(tmp_path) == DISK_SUP_DIGEST
    assert len(memos) == 4
    assert len(scans) == 10 and set(scans.values()) == {1}


def test_memo_block_fits_every_memoized_array_of_its_maps():
    # A map keeps 8 bytes a grid node, 8 a pair of the Lipschitz pair sample
    # and 16 a pair of hl-17's segments: 177 104 bytes.
    import harmap.cli as cli

    assert cli._memo_block() == 94


def test_memo_blocks_compute_each_maps_majorant_free_sides_once(monkeypatch):
    # 30 maps take more than the budget: blocks of 23, each computing a
    # map's pair quotients and hl-17 fields once for both majorants, and
    # none keeping more array bytes than the budget.
    import contextlib

    import harmap.cli as cli
    import harmap.core as core
    import harmap.lipschitz as lipschitz

    runs = Counter()
    for name in ("_pair_quotients", "_hl_fields"):
        fn = getattr(lipschitz, name).__wrapped__

        def counting(*args, fn=fn, name=name):
            runs[name, args[0]] += 1
            return fn(*args)

        monkeypatch.setattr(lipschitz, name, core._memoized(counting))
    memo, held = cli._campaign_memo, []

    @contextlib.contextmanager
    def measured():
        with memo():
            yield
            values = [v for value in core._MEMO.values()
                      for v in (value if isinstance(value, tuple) else (value,))]
            held.append(sum(getattr(v, "nbytes", 0) for v in values))

    monkeypatch.setattr(cli, "_MEMO_BUDGET", 4 << 20)
    monkeypatch.setattr(cli, "_campaign_memo", measured)
    cfg = SuiteConfig(suites=("lipschitz-16", "hl-17"), include_builtin=False,
                      fuzz=FuzzSpec(count=30, degree=3, seed=42))
    run_config(cfg)
    assert len(runs) == 60 and set(runs.values()) == {1}
    assert len(held) == 2 and max(held) <= 4 << 20


def test_majorant_table_above_the_probe_scales_is_a_hypothesis_row(tmp_path, capsys):
    # The table starts at t = 2, above the regularity probes in (0, 1):
    # every majorant suite reports the range it missed instead of crashing.
    obj = {
        "suites": ["majorant-regularity", "lipschitz-16", "hl-17"],
        "majorants": [{"family": "sampled", "table": [[2, 1], [100, 3]]}],
        "fuzz": None,
        "output": {"path": str(tmp_path / "rows.jsonl"), "format": "json"},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(cfg)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = {row["name"]: row for row in map(json.loads, (tmp_path / "rows.jsonl").open())}
    for name in ("majorant-head-integral", "majorant-tail-integral"):
        row = rows[f"{name}[sampled(2)]@-"]
        assert row["status"] == "hypothesis-violated"
        assert row["details"]["t_lo"] == row["details"]["t_hi"] < 2.0


def test_lipschitz_16_computes_each_maps_disk_means_once(monkeypatch):
    # C3's disk means depend on the map, not on the majorant: two majorants
    # need the 18 default probe means of each map once. All 18 probes'
    # quadrature nodes, 32 radii x 128 angles each, are evaluated in one call.
    import harmap.core as core

    calls = []
    original = core.HarmonicMap.__call__

    def counting(f, z):
        if np.shape(z)[1:] == (32, 128):
            calls.append((f, np.shape(z)[0]))
        return original(f, z)

    monkeypatch.setattr(core.HarmonicMap, "__call__", counting)
    cfg = SuiteConfig(suites=("lipschitz-16",), include_builtin=False,
                      fuzz=FuzzSpec(count=3, degree=3, seed=4))
    assert len(cfg.majorants) == 2
    reports, summary = run_config(cfg)
    assert summary["fail"] == 0
    assert sorted(Counter(calls).values()) == [1, 1, 1]
    assert [probes for _, probes in calls] == [18, 18, 18]


def test_lipschitz_16_computes_each_maps_pair_quotients_once(monkeypatch):
    # C2's |f(z) - f(w)| on the pairs depends on the map only: with two
    # majorants each map is evaluated on the pair sample once (f(z), f(w)).
    import harmap.core as core
    from harmap.lipschitz import default_pair_sample

    shape = default_pair_sample()[0].shape
    calls = Counter()
    original = core.HarmonicMap.__call__

    def counting(f, z):
        if np.shape(z) == shape:
            calls[f] += 1
        return original(f, z)

    monkeypatch.setattr(core.HarmonicMap, "__call__", counting)
    cfg = SuiteConfig(suites=("lipschitz-16",), fuzz=None)
    assert len(cfg.majorants) == 2
    reports, summary = run_config(cfg)
    assert summary["fail"] == 0
    assert calls == Counter({f: 2 for f in builtin_maps().values()})


def test_lipschitz_suites_scan_each_maps_side_once(monkeypatch):
    # Lambda_f on the grid and on the hl-17 segments, |f(z) - f(w)| on the
    # pairs: none depends on the majorant. With two majorants, each map's
    # grid field is evaluated once for both suites and its segment field
    # once, and a second campaign does the same scans again.
    import harmap.core as core
    from harmap.core import HarmonicMap

    scans = Counter()
    original = core.wirtinger

    def counting(f, z):
        if isinstance(f, HarmonicMap):
            scans["grid" if z is GRID.nodes else np.shape(z)[1:], f] += 1
        return original(f, z)

    monkeypatch.setattr(core, "wirtinger", counting)
    cfg = SuiteConfig(suites=("hl-17", "lipschitz-16"), fuzz=None)
    assert len(cfg.majorants) == 2
    maps = builtin_maps().values()
    for _ in range(2):
        scans.clear()
        reports, summary = run_config(cfg)
        assert summary["fail"] == 0
        assert scans == Counter({**{("grid", f): 1 for f in maps}, **{((64,), f): 1 for f in maps}})


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
            mc_samples=10_000,
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
    import harmap.functionals as functionals

    lengths = Counter()  # circle-length evaluations, i.e. length_sup memo misses
    original = functionals._circle_lengths
    monkeypatch.setattr(functionals, "_circle_lengths",
                        lambda f, rs, n: lengths.update([f]) or original(f, rs, n))
    cfg = SuiteConfig(
        suites=("coeff-bound", "gradient-bound", "hardy-area"),
        fuzz=FuzzSpec(count=2, degree=3, seed=8),
        mc_samples=10_000,
    )
    scans = _count_grid_scans(monkeypatch)
    per_run = []
    for _ in range(2):
        lengths.clear()
        run_config(cfg)
        per_run.append((Counter(lengths), Counter(scans)))
    assert per_run[0] == per_run[1]
    assert per_run[0][0] and per_run[0][1]


def test_a_campaign_evaluates_each_maps_fields_on_its_grid_once(monkeypatch):
    # The quasiconformal hypotheses of four suites, the Bloch, C1 and C4
    # suprema and hl-reverse all read one grid scan per map.
    cfg = SuiteConfig(
        suites=("area-overlap", "hardy-area", "coeff-bound", "gradient-bound",
                "lipschitz-16", "hl-17"),
        fuzz=FuzzSpec(count=3, degree=4, seed=5),
        mc_samples=10_000,
    )
    maps = [*builtin_maps().values(), *fuzz_corpus(cfg.fuzz)]
    scans = _count_grid_scans(monkeypatch)
    reports, summary = run_config(cfg)
    assert summary["fail"] == 0
    assert scans == Counter({f: 1 for f in maps})
