"""Minima of the cotangent sum: closed forms against numeric searches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perptri import extremal
from perptri.extremal import (
    LATTICE_MARGIN,
    SEARCH_HI,
    SEARCH_LO,
    ExtremalReport,
    brent_min,
    cot_sum_lattice_min,
    cot_sum_slice,
    cot_sum_slice_deriv,
    global_cot_sum_min,
    minimize_slice,
    right_cot_sum,
    right_triangle_min,
    slice_argmin,
    slice_min_value,
)
from perptri.geom import MATH, angle_trig
from perptri.ratio import identity_chain
from perptri.sampling import sample_corpus
from perptri.sweep import _chain_inputs, run_sweep

SQRT3 = math.sqrt(3.0)

#: The slices whose minima perfbench's extremal_search times.
SLICE_KS = tuple(float(k) for k in np.logspace(-2.0, 2.0, 41))

#: Unimodal objectives on a bracket, each with its minimum at m.
UNIMODAL = {
    "parabola": lambda x, m: (x - m) ** 2,
    "vee": lambda x, m: abs(x - m),
    "increasing": lambda x, m: x,
    "decreasing": lambda x, m: -x,
    "log": lambda x, m: math.log1p(abs(x - m)),
}


# ---------------------------------------------------------------------------
# Brent's method on a known function
# ---------------------------------------------------------------------------

def test_search_of_a_parabola_stops_after_a_handful_of_probes():
    # One parabolic step lands on the vertex; two probes X_TOL/4 either side
    # of it then close the bracket.  Golden-section needs 44 probes for the
    # same sqrt(eps) bracket, shrinking it by 0.618 per probe.
    probes = []

    def f(x):
        probes.append(x)
        return (x - 2.0) ** 2 + 1.0

    x, fx = brent_min(f, 0.0, 5.0)
    assert len(probes) <= 6, len(probes)
    assert (x, fx) == (2.0, 1.0)
    assert all(abs(p - x) <= 0.5 * extremal.X_TOL for p in probes[-2:]), probes


def test_search_finds_the_edge_minimum_of_an_increasing_function():
    # minimum of an increasing function is at the left edge
    x, _ = brent_min(math.exp, 1.0, 3.0)
    assert x == pytest.approx(1.0, abs=1e-8)


@given(
    lo=st.floats(min_value=-1e6, max_value=1e6),
    width=st.floats(min_value=0.0, max_value=1e6),
    at=st.floats(min_value=-0.5, max_value=1.5),
    shape=st.sampled_from(sorted(UNIMODAL)),
)
@settings(max_examples=200, deadline=None)
def test_search_probes_only_inside_the_bracket(lo, width, at, shape):
    # The invariant that lets a search evaluate the unchecked slice: every x
    # the objective sees lies in [lo, hi], whatever the bracket and wherever
    # the minimum (inside it or not).
    hi = lo + width
    m = lo + at * width
    probes = []

    def f(x):
        probes.append(x)
        return UNIMODAL[shape](x, m)

    brent_min(f, lo, hi)
    assert probes
    assert all(lo <= x <= hi for x in probes), (min(probes), max(probes))


def test_slice_search_is_the_search_of_the_public_slice():
    # minimize_slice searches the unchecked slice; the report must equal, to
    # the bit, the one built from a search of the checked cot_sum_slice.
    for k in SLICE_KS:
        numeric_argmin, numeric_min = brent_min(
            lambda x: cot_sum_slice(k, x), SEARCH_LO, SEARCH_HI)
        min_value = slice_min_value(k)
        assert minimize_slice(k) == ExtremalReport(
            k, slice_argmin(k), min_value, numeric_argmin, numeric_min,
            abs(min_value - numeric_min)), k


# ---------------------------------------------------------------------------
# closed forms at hand-checked points
# ---------------------------------------------------------------------------

def test_slice_min_value_at_one():
    # (2 - sqrt(2) + 2)/sqrt(2) = 2 sqrt(2) - 1
    assert slice_min_value(1.0) == pytest.approx(2.0 * math.sqrt(2.0) - 1.0, abs=1e-15)


def test_slice_min_value_at_inv_sqrt3():
    assert slice_min_value(1.0 / SQRT3) == pytest.approx(SQRT3, abs=1e-15)


def test_slice_argmin_at_one():
    # cot(3 pi / 8) = sqrt(2) - 1, so the argmin is 3 pi / 8
    assert slice_argmin(1.0) == pytest.approx(3.0 * math.pi / 8.0, abs=1e-12)


def test_slice_argmin_range():
    for k in (0.01, 0.5, 1.0, 10.0, 100.0, 1e8):
        x = slice_argmin(k)
        assert math.pi / 4.0 < x < math.pi / 2.0


def test_deriv_exact_point():
    # k = 1, x = pi/4: -csc^2(pi/4) (1 + 2 - 1) / (1 + 1)^2 = -1
    assert cot_sum_slice_deriv(1.0, math.pi / 4.0) == pytest.approx(-1.0, abs=1e-14)


@pytest.mark.parametrize("k", [0.05, 1.0 / SQRT3, 1.0, 3.0, 40.0])
def test_closed_forms_are_consistent(k):
    x_star = slice_argmin(k)
    assert cot_sum_slice(k, x_star) == pytest.approx(slice_min_value(k), rel=1e-13)
    # stationarity and local sign structure
    assert abs(cot_sum_slice_deriv(k, x_star)) < 1e-9
    assert cot_sum_slice_deriv(k, x_star - 0.05) < 0.0
    assert cot_sum_slice_deriv(k, min(x_star + 0.05, SEARCH_HI)) > 0.0


@given(
    ang_b=st.floats(min_value=0.05, max_value=1.5),
    ang_g=st.floats(min_value=0.05, max_value=1.5),
)
@settings(max_examples=80, deadline=None)
def test_two_angle_form_matches_three_angle_form(ang_b, ang_g):
    # Both base angles acute: the slice with k = cot B is the cot sum written
    # through B and Gamma alone, claimed exact there.
    full = sum(angle_trig(MATH, x)[0] for x in (math.pi - ang_b - ang_g, ang_b, ang_g))
    short = cot_sum_slice(1.0 / math.tan(ang_b), ang_g)
    assert short == pytest.approx(full, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("k", [0.1, 1.0, 7.0])
@pytest.mark.parametrize("x", [0.5, 0.9, 1.3])
def test_deriv_matches_finite_differences(k, x):
    h = 1e-6
    fd = (cot_sum_slice(k, x + h) - cot_sum_slice(k, x - h)) / (2.0 * h)
    exact = cot_sum_slice_deriv(k, x)
    assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# domain guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad_k", [0.0, -1.0, math.nan, math.inf, 1e200])
def test_bad_k_raises(bad_k, monkeypatch):
    with pytest.raises(ValueError):
        slice_min_value(bad_k)
    with pytest.raises(ValueError):
        slice_argmin(bad_k)

    def evaluated(k, x):
        raise AssertionError(f"the slice was evaluated at k={k!r}")

    # minimize_slice checks k once, before its search makes any evaluation.
    monkeypatch.setattr(extremal, "_slice", evaluated)
    with pytest.raises(ValueError, match="slice parameter k"):
        minimize_slice(bad_k)


@pytest.mark.parametrize("bad_x", [0.0, -0.5, math.pi / 2.0, 3.0])
def test_bad_slice_angle_raises(bad_x):
    with pytest.raises(ValueError):
        cot_sum_slice(1.0, bad_x)
    with pytest.raises(ValueError):
        cot_sum_slice_deriv(1.0, bad_x)


def test_right_cot_sum_domain():
    with pytest.raises(ValueError):
        right_cot_sum(0.0)
    with pytest.raises(ValueError):
        right_cot_sum(math.pi / 2.0)


# ---------------------------------------------------------------------------
# numeric confirmation layer
# ---------------------------------------------------------------------------

def test_global_minimum_is_sqrt3_at_equilateral():
    total, ang_b, ang_g = global_cot_sum_min()
    assert total == SQRT3
    assert ang_b == math.pi / 3.0
    assert ang_g == math.pi / 3.0


def test_searches_stop_at_sqrt_eps_and_keep_the_minima(monkeypatch):
    # Each search stops once its bracket is sqrt(eps) wide, where its probes
    # differ by rounding only: 262 slice evaluations for the global search,
    # 578 for the 41-slice table (9 to 28 a slice) and 6 of the right
    # family's unchecked 2/sin 2B.  Each slice minimum stays within 1e-13 of
    # its closed form (1.42e-14 measured).
    calls = {"slice": 0, "right": 0}

    def counted(name, bare):
        def evaluate(*args):
            calls[name] += 1
            return bare(*args)
        return evaluate

    monkeypatch.setattr(extremal, "_slice", counted("slice", extremal._slice))
    monkeypatch.setattr(extremal, "_right_cot_sum",
                        counted("right", extremal._right_cot_sum))
    global_cot_sum_min()
    assert calls == {"slice": 262, "right": 0}
    right_triangle_min()
    assert calls == {"slice": 262, "right": 6}
    for k in SLICE_KS:
        report = minimize_slice(k)
        assert abs(report.numeric_min - slice_min_value(k)) <= 1e-13, k
    assert calls == {"slice": 262 + 578, "right": 6}


def test_right_family_minimum():
    min_sq, argmin = right_triangle_min()
    assert min_sq == 4.0
    assert argmin == math.pi / 4.0
    assert right_cot_sum(math.pi / 4.0) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("search, body, shifted, message", [
    (global_cot_sum_min, "_slice", lambda bare: lambda k, x: bare(k, x) + 1e-5,
     r"squared minimum 3\.0000\d+, expected 3"),
    (global_cot_sum_min, "_slice", lambda bare: lambda k, x: bare(k + 1e-4, x),
     r"k\* = 0\.577\d+, expected 1/sqrt\(3\)"),
    (right_triangle_min, "_right_cot_sum", lambda bare: lambda b: bare(b) + 1e-5,
     r"minimum 2\.0000\d+ strays from 2"),
    (right_triangle_min, "_right_cot_sum", lambda bare: lambda b: bare(b + 1e-4),
     r"argmin 0\.785\d+ strays from pi/4"),
    (global_cot_sum_min, "_slice", lambda bare: lambda k, x: bare(k, x) - 1e-5,
     r"squared minimum 2\.9999\d+, expected 3"),
    (right_triangle_min, "_right_cot_sum", lambda bare: lambda b: bare(b) - 1e-5,
     r"minimum 1\.9999\d+ strays from 2"),
], ids=["global-minimum", "global-k-star", "right-minimum", "right-argmin",
        "global-minimum-below", "right-minimum-below"])
def test_a_search_that_strays_from_its_closed_form_raises(monkeypatch, search, body, shifted,
                                                          message):
    # Each shift of the searched body moves the numeric minimum or argmin past
    # its check's tolerance but by less than 1e-3, so a check that is dropped
    # or loosened to 1e-3 lets the stray result through.
    monkeypatch.setattr(extremal, body, shifted(getattr(extremal, body)))
    with pytest.raises(RuntimeError, match=message):
        search()


def test_right_cot_sum_exceeds_two_off_center():
    for b in (0.3, 0.6, 1.0, 1.4):
        if abs(b - math.pi / 4.0) > 1e-3:
            assert right_cot_sum(b) > 2.0


def test_lattice_scan_small():
    best, best_b, best_g = cot_sum_lattice_min(n=400)
    assert best >= SQRT3 - 1e-9
    assert best == pytest.approx(SQRT3, abs=1e-4)
    assert best_b == pytest.approx(math.pi / 3.0, abs=0.01)
    assert best_g == pytest.approx(math.pi / 3.0, abs=0.01)


def test_lattice_minimum_is_the_lattice_point_nearest_pi_over_3():
    # At n = 2000 the minimum lies in the third chunk of rows, so B is read
    # from its row within the chunk and Gamma from its column.
    grid = np.linspace(LATTICE_MARGIN, math.pi - LATTICE_MARGIN, 2000)
    nearest = float(grid[np.argmin(np.abs(grid - math.pi / 3.0))])
    assert nearest == 1.046707057173988
    _, best_b, best_g = cot_sum_lattice_min(2000)
    assert best_b == best_g == nearest


def test_search_interval_is_inside_open_quadrant():
    assert 0.0 < SEARCH_LO < SEARCH_HI < math.pi / 2.0


# ---------------------------------------------------------------------------
# the bound holds over random triangles, with equality only near equilateral
# ---------------------------------------------------------------------------

def test_cot_sum_bound_over_corpus():
    assert run_sweep(2000, [2203, 1]).min_cot_sum >= SQRT3 - 1e-12
    corpus = sample_corpus(2000, seed=[2203, 1])
    near = identity_chain(_chain_inputs(corpus), {}) < SQRT3 + 1e-3
    if near.any():
        ang_b = corpus.ang_b[near]
        ang_g = corpus.ang_g[near]
        third = math.pi / 3.0
        assert np.max(np.abs(ang_b - third)) < 0.06
        assert np.max(np.abs(ang_g - third)) < 0.06
