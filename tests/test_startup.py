"""scipy is loaded on first use. Each probe runs in a fresh interpreter, so
the modules that other tests imported do not count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import roots_legendre

from harmap.grids import gauss_legendre_01

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
functionals.length_sup(f)
functionals.hardy_norm(f, 2)
functionals.hardy_norm(f, math.inf)
functionals.bloch_seminorm(f)
core.coeff_from_contour(f, 1, 0.9, 4 * f.degree)
core.save_map(f, "map.json")
for name in ("area", "length", "hardy", "bloch"):
    assert cli.main(["functional", "--map", "map.json", "--name", name]) == 0
assert cli.main(["fuzz", "--count", "2", "--degree", "4", "--out", "corpus"]) == 0
# Nor does a campaign of suites that need no quadrature nodes.
cli.run_config(cli.SuiteConfig(suites=("three-circles", "hardy-area", "isoperimetric")))
"""
    assert loaded_after(body, tmp_path) == []


def test_area_quadrature_loads_scipy_special_and_no_quad(tmp_path):
    body = """
functionals.area_quadrature(verify.builtin_maps()["identity"], 0.9)
assert "scipy.special" in sys.modules
"""
    assert not [m for m in loaded_after(body, tmp_path) if m.startswith("scipy.integrate")]


def test_majorant_integrals_load_quad(tmp_path):
    body = """
lipschitz.PowerMajorant(0.5).head_integral(0.1)
"""
    assert "scipy.integrate" in loaded_after(body, tmp_path)


def test_gauss_legendre_nodes_are_transplanted_bit_for_bit():
    for n in (1, 2, 7, 64, 128):
        x, w = roots_legendre(n)
        nodes, weights = gauss_legendre_01(n)
        assert np.array_equal(nodes, 0.5 * (x + 1.0)) and np.array_equal(weights, 0.5 * w)
