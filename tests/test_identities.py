"""Area routes, the cotangent, and the angle-form cross-checks.

The routes live in `ratio.identity_chain` (its five named areas and its
residuals) and the cotangent in `geom.cot`; every other module shares them.
"""

import math

import numpy as np
import pytest

from perptri.cli import triangle_from_spec
from perptri.errors import AngleSumError, NotATriangleError
from perptri.geom import MATH, RIGHT_ANGLE_BAND, Point2, Triangle, cot, metrics
from perptri.ratio import identity_chain, identity_report
from perptri.sampling import sample_corpus

SQRT3 = math.sqrt(3.0)


def chain(t: Triangle):
    return identity_chain(t.a.x, t.a.y, t.b.x, t.b.y, t.g.x, t.g.y)


class TestCot:
    def test_quarter_pi(self):
        assert cot(MATH, math.pi / 4.0) == pytest.approx(1.0, abs=1e-15)

    def test_right_angle_is_exactly_zero(self):
        assert cot(MATH, math.pi / 2.0) == 0.0

    def test_band_absorbs_roundoff_neighbours(self):
        assert cot(MATH, math.pi / 2.0 + 5e-13) == 0.0
        assert cot(MATH, math.pi / 2.0 - 5e-13) == 0.0
        # just outside the band the true (tiny) value comes back
        assert cot(MATH, math.pi / 2.0 - 1e-9) == pytest.approx(1e-9, rel=1e-5)
        assert RIGHT_ANGLE_BAND == 1e-12

    def test_obtuse_branch_is_negative(self):
        assert cot(MATH, 3.0 * math.pi / 4.0) == pytest.approx(-1.0, abs=1e-15)
        assert cot(MATH, 2.0 * math.pi / 3.0) == pytest.approx(-1.0 / SQRT3, abs=1e-15)

    def test_sixty_degrees(self):
        assert cot(MATH, math.pi / 3.0) == pytest.approx(1.0 / SQRT3, abs=1e-15)


class TestHeron:
    """Heron's route, and the strict triangle inequality the sides form needs."""

    def test_345(self, t345):
        assert chain(t345).areas["heron"] == 6.0

    def test_equilateral(self, equilateral):
        assert chain(equilateral).areas["heron"] == pytest.approx(SQRT3 / 4.0, abs=1e-16)

    def test_degenerate_sides_raise(self):
        with pytest.raises(NotATriangleError):
            triangle_from_spec({"sides": {"alpha": 1.0, "beta": 1.0, "gamma": 2.0}})

    def test_violated_inequality_raises(self):
        with pytest.raises(NotATriangleError):
            triangle_from_spec({"sides": {"alpha": 1.0, "beta": 1.0, "gamma": 3.0}})


def test_sixteen_area_squared_345(t345):
    # Integer squared sides make the polynomial exact: 16 E^2 = 576, E = 6.
    assert chain(t345).areas["sixteen_sq_poly"] == 6.0


def test_sixteen_area_route_clamps_negative_rounding():
    # On needles the polynomial can round below zero; the route reads 0.0
    # there, not NaN.  Their zero angles make other routes inf or NaN.
    x = np.linspace(0.01, 0.99, 2000)
    zeros = np.zeros_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        needles = identity_chain(zeros, zeros, zeros + 1.0, zeros, x, zeros + 1e-9)
    poly = needles.areas["sixteen_sq_poly"]
    assert not np.isnan(poly).any()
    assert (poly == 0.0).any()


def test_cot_half_angles_345(t345):
    # s = 6, so the radicals collapse to the integers 1, 3, 2, which the
    # half-angle cotangents must match.
    assert identity_report(t345).residuals["half_angle_cots"] <= 5e-16


def test_cot_half_angles_reject_bad_metrics():
    # A valid needle whose s - gamma rounds to 0: no radical to take.
    t = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0),
                 Point2(0.40084707137978337, 1.2010387776921146e-08))
    with pytest.raises(NotATriangleError):
        identity_report(t)


class TestCotSum:
    def test_equilateral(self, equilateral):
        assert chain(equilateral).cot_sum == pytest.approx(SQRT3, abs=1e-15)

    def test_right_345(self, t345):
        assert chain(t345).cot_sum == pytest.approx(25.0 / 12.0, abs=1e-14)

    def test_obtuse(self, obtuse_iso):
        assert chain(obtuse_iso).cot_sum == pytest.approx(5.0 / SQRT3, abs=1e-14)

    def test_out_of_range_angle_raises(self):
        # A = 2e-7 deg: the law of cosines rounds cos A to 1, so A = 0.0.
        t = triangle_from_spec(
            {"angles": {"B_deg": 89.9999999, "Gamma_deg": 89.9999999, "scale": 1}}
        )
        with pytest.raises(AngleSumError):
            chain(t)


def test_area_sine_345(t345):
    assert chain(t345).areas["sine_formula"] == 6.0


def test_area_from_cots_345(t345):
    # (25 + 9 + 16) / (4 * 25/12) = 6
    assert chain(t345).areas["cot_formula"] == pytest.approx(6.0, rel=1e-13)


def test_law_of_cosines_in_cot_form_over_corpus():
    # alpha^2 = beta^2 + gamma^2 - 4 E cot A, the step that rewrites the Law
    # of Cosines through the area; checked over a seeded corpus.
    corpus = sample_corpus(200, seed=[1105, 4])
    for t in corpus.triangles():
        m = metrics(t)
        a2 = m.alpha**2
        predicted = m.beta**2 + m.gamma**2 - 4.0 * m.area * cot(MATH, m.ang_a)
        scale = m.alpha**2 + m.beta**2 + m.gamma**2
        assert abs(a2 - predicted) / (1.0 + scale) < 1e-10
