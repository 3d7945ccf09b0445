"""Smoke tests of the scripts that call the library from outside it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_corpus_margins_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "corpus_margins.py"), "--count", "3"],
                         capture_output=True, text=True, env=env, timeout=120, check=True).stdout
    lines = out.splitlines()
    assert lines[0].split() == ["check", "min", "margin", "map"]
    names = {line.split()[0] for line in lines[1:]}
    assert {"three-circles", "hardy-area", "coeff-bound", "bloch-bound", "isoperimetric"} <= names
