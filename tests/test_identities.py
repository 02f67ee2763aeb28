"""Area formulas, cotangent helpers, and the angle-form cross-checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perptri.errors import AngleSumError, NotATriangleError
from perptri.geom import metrics
from perptri.identities import (
    RIGHT_ANGLE_BAND,
    area_from_cots,
    area_sine,
    cot,
    cot_half_angles,
    cot_sum,
    cot_sum_two_angles,
    heron_area,
    sixteen_area_squared,
)
from perptri.sampling import sample_corpus

SQRT3 = math.sqrt(3.0)


class TestCot:
    def test_quarter_pi(self):
        assert cot(math.pi / 4.0) == pytest.approx(1.0, abs=1e-15)

    def test_right_angle_is_exactly_zero(self):
        assert cot(math.pi / 2.0) == 0.0

    def test_band_absorbs_roundoff_neighbours(self):
        assert cot(math.pi / 2.0 + 5e-13) == 0.0
        assert cot(math.pi / 2.0 - 5e-13) == 0.0
        # just outside the band the true (tiny) value comes back
        assert cot(math.pi / 2.0 - 1e-9) == pytest.approx(1e-9, rel=1e-5)
        assert RIGHT_ANGLE_BAND == 1e-12

    def test_obtuse_branch_is_negative(self):
        assert cot(3.0 * math.pi / 4.0) == pytest.approx(-1.0, abs=1e-15)
        assert cot(2.0 * math.pi / 3.0) == pytest.approx(-1.0 / SQRT3, abs=1e-15)

    def test_sixty_degrees(self):
        assert cot(math.pi / 3.0) == pytest.approx(1.0 / SQRT3, abs=1e-15)


class TestHeron:
    def test_345(self):
        assert heron_area(3.0, 4.0, 5.0) == 6.0

    def test_equilateral(self):
        assert heron_area(1.0, 1.0, 1.0) == pytest.approx(SQRT3 / 4.0, abs=1e-16)

    def test_degenerate_sides_raise(self):
        with pytest.raises(NotATriangleError):
            heron_area(1.0, 1.0, 2.0)

    def test_violated_inequality_raises(self):
        with pytest.raises(NotATriangleError):
            heron_area(1.0, 1.0, 3.0)


def test_sixteen_area_squared_345():
    # Integer inputs make this polynomial exact in floating point.
    assert sixteen_area_squared(3.0, 4.0, 5.0) == 576.0


def test_sixteen_area_squared_negative_for_bad_sides():
    assert sixteen_area_squared(1.0, 1.0, 3.0) < 0.0


def test_cot_half_angles_345(t345):
    # s = 6, so the radicals collapse to the integers 1, 3, 2.
    ca, cb, cg = cot_half_angles(metrics(t345))
    assert ca == pytest.approx(1.0, abs=1e-15)
    assert cb == pytest.approx(3.0, abs=1e-14)
    assert cg == pytest.approx(2.0, abs=1e-14)


def test_cot_half_angles_reject_bad_metrics(t345):
    m = metrics(t345)
    broken = type(m)(1.0, 1.0, 3.0, m.ang_a, m.ang_b, m.ang_g, 2.5, m.area)
    with pytest.raises(NotATriangleError):
        cot_half_angles(broken)


class TestCotSum:
    def test_equilateral(self):
        assert cot_sum(math.pi / 3, math.pi / 3, math.pi / 3) == pytest.approx(
            SQRT3, abs=1e-15
        )

    def test_right_345(self):
        total = cot_sum(math.pi / 2, math.atan2(3.0, 4.0), math.atan2(4.0, 3.0))
        assert total == pytest.approx(25.0 / 12.0, abs=1e-14)

    def test_obtuse(self):
        total = cot_sum(2.0 * math.pi / 3.0, math.pi / 6.0, math.pi / 6.0)
        assert total == pytest.approx(5.0 / SQRT3, abs=1e-14)

    def test_bad_sum_raises(self):
        with pytest.raises(AngleSumError):
            cot_sum(math.pi / 2, math.pi / 2, math.pi / 2)

    def test_out_of_range_angle_raises(self):
        with pytest.raises(AngleSumError):
            cot_sum(-0.1, math.pi / 2, math.pi / 2 + 0.1)


@given(
    ang_b=st.floats(min_value=0.05, max_value=1.5),
    ang_g=st.floats(min_value=0.05, max_value=1.5),
)
@settings(max_examples=80, deadline=None)
def test_two_angle_form_matches_three_angle_form(ang_b, ang_g):
    # Both base angles acute: the two-cotangent rewrite is claimed exact there.
    full = cot_sum(math.pi - ang_b - ang_g, ang_b, ang_g)
    short = cot_sum_two_angles(ang_b, ang_g)
    assert short == pytest.approx(full, rel=1e-11, abs=1e-11)


def test_area_sine_345():
    assert area_sine(3.0, 4.0, math.pi / 2.0) == 6.0


def test_area_from_cots_345(t345):
    # (25 + 9 + 16) / (4 * 25/12) = 6
    assert area_from_cots(metrics(t345)) == pytest.approx(6.0, rel=1e-13)


def test_law_of_cosines_in_cot_form_over_corpus():
    # alpha^2 = beta^2 + gamma^2 - 4 E cot A, the step that rewrites the Law
    # of Cosines through the area; checked over a seeded corpus.
    corpus = sample_corpus(200, seed=[1105, 4])
    for t in corpus.triangles():
        m = metrics(t)
        a2 = m.alpha**2
        predicted = m.beta**2 + m.gamma**2 - 4.0 * m.area * cot(m.ang_a)
        scale = m.alpha**2 + m.beta**2 + m.gamma**2
        assert abs(a2 - predicted) / (1.0 + scale) < 1e-10
