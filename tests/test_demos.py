"""The demos run, and demo 06 still draws the checked-in figures byte for byte."""

import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from perptri.construction import construct
from perptri.svg import render_svg

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_metrics_and_areas.py",
        "02_construction_cases.py",
        "03_identity_chain.py",
        "04_extremal_minima.py",
        "05_fuzz_sweep.py",
    ],
)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout


def test_figures_match_checked_in_svgs(tmp_path):
    figures = runpy.run_path(str(DEMOS / "06_render_figures.py"))["FIGURES"]
    drawn = {name: construct(t) for name, t in figures.items()}
    drawn["right_phi60"] = construct(figures["right"], math.radians(60))
    for name, d in drawn.items():
        path = tmp_path / f"{name}.svg"
        render_svg(d, path)
        assert path.read_bytes() == (DEMOS / "figures" / f"{name}.svg").read_bytes(), name
