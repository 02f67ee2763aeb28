"""A defect table: every wrong geometry fed to the kernel is caught, by the residuals expected.

Each defect changes one input of `ratio.identity_chain` by a relative
DELTA = 1e-6: a field of the `TriangleMetrics` it reads (made wrong where
`geom.anchored_metrics` measures, for `Triangle` and for the sweep alike),
the cotangents `ratio.angle_trig` returns, or the derived area its callers
take from `geom.derived_triangle` (`identity_report` and the sweep).
A residual catches a defect when it is over the bound on more than half of
`sample_corpus(20000, 5)`; on this corpus every residual is over it on at
least 98 % of the triangles or on none.  Each defect must also be seen end
to end: by the sweep's `over_bound` and by `perptri verify`, which exits 1.

`squared_sum_expansion` catches none of the seven: it compares
-(sum alpha^2)^2 with -2 sum alpha^2 beta^2 - sum alpha^4, which holds for
any three numbers, so it checks only the binary64 arithmetic of that step.
"""

import io
import json
import math
import sys

import numpy as np
import pytest

import perptri.geom as geom_mod
import perptri.ratio as ratio_mod
import perptri.sweep as sweep_mod
from perptri.cli import main
from perptri.geom import NUMPY
from perptri.ratio import CHECK_ORDER, identity_chain, residual_bound, smallest_angle, within_bound
from perptri.sampling import sample_corpus
from perptri.sweep import _chain_inputs, run_sweep

DELTA = 1e-6
HALF_PI = 0.5 * math.pi

#: The kernel's own routines, kept before any test replaces them.
MEASURE, TRIG, DERIVED = geom_mod.anchored_metrics, ratio_mod.angle_trig, ratio_mod.derived_triangle


def metrics_defect(change):
    """A defect that changes the metrics every triangle is measured to have."""
    def inject(monkeypatch):
        for module in (geom_mod, sweep_mod):
            monkeypatch.setattr(module, "anchored_metrics",
                                lambda ops, *xy: change(MEASURE(ops, *xy)))
    return inject


def relative(name):
    """The metrics with field name times 1 + DELTA."""
    return lambda m: m._replace(**{name: getattr(m, name) * (1.0 + DELTA)})


def swapped_b_and_gamma(m):
    return m._replace(ang_b=m.ang_g, ang_g=m.ang_b)


def wrong_cot(monkeypatch):
    """cot x and cot(x/2) times 1 + DELTA; sin x, which gives no cotangent, is kept."""
    def trig(ops, x):
        cot, half_cot, sin = TRIG(ops, x)
        return cot * (1.0 + DELTA), half_cot * (1.0 + DELTA), sin
    monkeypatch.setattr(ratio_mod, "angle_trig", trig)


def tilted_lines(monkeypatch):
    """The derived triangle's lines turned by pi/2 + DELTA rad, not pi/2."""
    cos_phi, sin_phi = math.cos(HALF_PI + DELTA), math.sin(HALF_PI + DELTA)
    for module in (ratio_mod, sweep_mod):
        monkeypatch.setattr(module, "derived_triangle",
                            lambda bx, by, gx, gy, _cos, _sin:
                            DERIVED(bx, by, gx, gy, cos_phi, sin_phi))


def all_but(*names):
    return set(CHECK_ORDER) - set(names)


#: Each defect and the residuals that catch it.
DEFECTS = {
    "angle A x (1 + delta)": (metrics_defect(relative("ang_a")), {
        "area_increment", "cot_term_a", "chain_sum", "area_quadratic", "half_angle_cots",
        "area_from_cots", "area_ratio", "area_agreement"}),
    "B and Gamma swapped": (metrics_defect(swapped_b_and_gamma), {
        "area_increment", "cot_term_g", "cot_term_b", "chain_sum", "area_quadratic",
        "half_angle_cots"}),
    "alpha x (1 + delta)": (metrics_defect(relative("alpha")),
                            all_but("squared_sum_expansion", "area_ratio")),
    "E x (1 + delta)": (metrics_defect(relative("area")),
                        all_but("squared_sum_expansion", "half_angle_cots")),
    "s x (1 + delta)": (metrics_defect(relative("s")), {"half_angle_cots", "area_agreement"}),
    "derived lines at 90 deg + delta rad": (tilted_lines, {"area_increment", "area_ratio"}),
    "cot x (1 + delta)": (wrong_cot, all_but("sixteen_area_sq", "squared_sum_expansion")),
}

#: Scalene triangles, so that swapping B and Gamma changes them: right, acute, obtuse.
SCALAR_SPECS = [
    {"vertices": {"A": [0, 0], "B": [4, 0], "Gamma": [0, 3]}},
    {"vertices": {"A": [0, 0], "B": [5, 0], "Gamma": [1.5, 3.5]}},
    {"vertices": {"A": [1, 2], "B": [7, 2.5], "Gamma": [-1, 4]}},
]


@pytest.fixture(scope="module")
def corpus():
    return sample_corpus(20000, 5)


def over_bound_shares(corpus) -> dict:
    """The share of the corpus over the bound, per residual, as the sweep measures it."""
    inputs = _chain_inputs(corpus)
    bound = residual_bound(smallest_angle(NUMPY, inputs[1]))
    residuals = {}
    identity_chain(inputs, residuals)
    return {name: float(np.mean(~within_bound(residuals[name], bound))) for name in CHECK_ORDER}


def verify_codes(monkeypatch) -> list:
    codes = []
    for doc in SCALAR_SPECS:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        codes.append(main(["verify", "-"]))
    return codes


def test_without_a_defect_nothing_is_caught(corpus, monkeypatch, capsys):
    assert set(over_bound_shares(corpus).values()) == {0.0}
    assert run_sweep(corpus.ang_b.size, 5).over_bound == 0
    assert verify_codes(monkeypatch) == [0, 0, 0]
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("name", DEFECTS)
def test_each_defect_is_caught_by_its_residuals(corpus, monkeypatch, capsys, name):
    inject, catchers = DEFECTS[name]
    inject(monkeypatch)
    shares = over_bound_shares(corpus)
    assert {residual for residual, share in shares.items() if share > 0.5} == catchers
    assert run_sweep(corpus.ang_b.size, 5).over_bound > corpus.ang_b.size // 2
    assert verify_codes(monkeypatch) == [1, 1, 1]
    assert capsys.readouterr().out.count("verdict: FAIL") == 3

