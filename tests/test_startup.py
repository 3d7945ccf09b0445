"""scipy is loaded on first use. Each probe runs in a fresh interpreter, so
the modules that other tests imported do not count."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PRELUDE = """
import math, sys
import harmap
from harmap import cli, core, functionals, lipschitz, report, verify


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert scipy_modules() == [], scipy_modules()
"""


def loaded_after(body: str, tmp_path) -> list[str]:
    """The scipy modules loaded once ``body`` has run after importing harmap."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    script = PRELUDE + body + "\nprint('loaded:', *scipy_modules())\n"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=120, check=True).stdout
    return out.splitlines()[-1].split()[1:]  # the commands print their own lines first


def test_import_fuzz_and_the_query_functionals_load_no_scipy(tmp_path):
    body = """
f = verify.fuzz_corpus(verify.FuzzSpec(count=4, degree=8, seed=0))[0]
core.map_json_bytes(f)
functionals.area_sup(f)
functionals.area_quadrature(f, 0.9)
functionals.length_sup(f)
functionals.hardy_norm(f, 2)
functionals.hardy_norm(f, math.inf)
functionals.bloch_seminorm(f)
core.coeff_from_contour(f, 1, 0.9, 4 * f.degree)
core.save_map(f, "map.json")
for name in ("area", "length", "hardy", "bloch"):
    assert cli.main(["functional", "--map", "map.json", "--name", name]) == 0
for name in ("area", "length", "hardy"):
    assert cli.main(["functional", "--map", "map.json", "--name", name, "--r", "0.5"]) == 0
assert cli.main(["functional", "--map", "map.json", "--name", "hardy", "--p", "0.5"]) == 0
assert cli.main(["fuzz", "--count", "2", "--degree", "4", "--out", "corpus"]) == 0
# Nor does a campaign of suites that need no quadrature nodes.
cli.run_config(cli.SuiteConfig(suites=("three-circles", "hardy-area", "isoperimetric")))
"""
    assert loaded_after(body, tmp_path) == []


def test_area_quadrature_loads_no_scipy(tmp_path):
    body = """
functionals.area_quadrature(verify.builtin_maps()["identity"], 0.9)
"""
    assert loaded_after(body, tmp_path) == []


def test_lipschitz_16_still_loads_scipy_special(tmp_path):
    # Its disk means read scipy's Gauss-Legendre rule, which the pinned
    # campaign digest holds bit for bit.
    body = """
cli.run_config(cli.SuiteConfig(suites=("lipschitz-16",), fuzz=None))
"""
    assert "scipy.special" in loaded_after(body, tmp_path)


def test_majorant_integrals_load_quad(tmp_path):
    body = """
lipschitz.PowerMajorant(0.5).head_integral(0.1)
"""
    assert "scipy.integrate" in loaded_after(body, tmp_path)
