"""Minima of the cotangent sum: closed forms against numeric searches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perptri.extremal import (
    SEARCH_HI,
    SEARCH_LO,
    cot_sum_lattice_min,
    cot_sum_slice,
    cot_sum_slice_deriv,
    global_cot_sum_min,
    golden_section_min,
    minimize_slice,
    right_cot_sum,
    right_triangle_min,
    slice_argmin,
    slice_min_value,
)
from perptri.geom import MATH, cot
from perptri.sampling import sample_corpus
from perptri.sweep import evaluate_corpus

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# golden section on a known function
# ---------------------------------------------------------------------------

def test_golden_section_on_parabola():
    # argmin of a flat quadratic bottom resolves to about sqrt(eps) only;
    # the minimum value itself is much sharper.
    x, fx = golden_section_min(lambda x: (x - 2.0) ** 2 + 1.0, 0.0, 5.0)
    assert x == pytest.approx(2.0, abs=1e-7)
    assert fx == pytest.approx(1.0, abs=1e-15)


def test_golden_section_respects_bracket():
    # minimum of an increasing function is at the left edge
    x, _ = golden_section_min(math.exp, 1.0, 3.0)
    assert x == pytest.approx(1.0, abs=1e-8)


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
    for k in (0.01, 0.5, 1.0, 10.0, 100.0):
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
    full = cot(MATH, math.pi - ang_b - ang_g) + cot(MATH, ang_b) + cot(MATH, ang_g)
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

@pytest.mark.parametrize("bad_k", [0.0, -1.0, math.nan, math.inf])
def test_bad_k_raises(bad_k):
    with pytest.raises(ValueError):
        slice_min_value(bad_k)
    with pytest.raises(ValueError):
        slice_argmin(bad_k)


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

def test_minimize_slice_agreement_over_grid():
    for k in np.logspace(-2, 2, 9):
        report = minimize_slice(float(k))
        assert report.agreement_err <= 1e-9
        assert abs(report.numeric_argmin - report.argmin) <= 1e-6


def test_global_minimum_is_sqrt3_at_equilateral():
    total, ang_b, ang_g = global_cot_sum_min()
    assert total == SQRT3
    assert ang_b == math.pi / 3.0
    assert ang_g == math.pi / 3.0


def test_right_family_minimum():
    min_sq, argmin = right_triangle_min()
    assert min_sq == 4.0
    assert argmin == math.pi / 4.0
    assert right_cot_sum(math.pi / 4.0) == pytest.approx(2.0, abs=1e-15)


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


def test_search_interval_is_inside_open_quadrant():
    assert 0.0 < SEARCH_LO < SEARCH_HI < math.pi / 2.0


# ---------------------------------------------------------------------------
# the bound holds over random triangles, with equality only near equilateral
# ---------------------------------------------------------------------------

def test_cot_sum_bound_over_corpus():
    result = evaluate_corpus(sample_corpus(2000, seed=[2203, 1]))
    assert result.min_cot_sum >= SQRT3 - 1e-12
    near = result.cot_sum < SQRT3 + 1e-3
    if near.any():
        ang_b = result.corpus.ang_b[near]
        ang_g = result.corpus.ang_g[near]
        third = math.pi / 3.0
        assert np.max(np.abs(ang_b - third)) < 0.06
        assert np.max(np.abs(ang_g - third)) < 0.06
