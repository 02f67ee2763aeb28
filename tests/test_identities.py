"""Area routes, the cotangent, and the angle-form cross-checks.

The routes live in `ratio.area_routes`, which `perptri metrics` calls and
whose two bodies `ratio.identity_chain` calls, and the cotangents in
`geom.angle_trig`; every other module shares them.
"""

import math
import sys

import numpy as np
import pytest

from perptri.cli import triangle_from_spec
from perptri.construction import construct
from perptri.geom import (
    MATH,
    NUMPY,
    GeometryError,
    Point2,
    Triangle,
    anchored_metrics,
    angle_trig,
    derived_triangle,
    frame,
    in_units,
    metrics,
)
from perptri.ratio import (
    area_routes,
    identity_chain,
    identity_report,
    judged_bound,
)
from perptri.sampling import sample_corpus

SQRT3 = math.sqrt(3.0)


def chain_cot_sum(t: Triangle) -> float:
    """The cot sum identity_chain returns for t."""
    return identity_chain([derived_triangle(*t.frame[1:], 0.0, 1.0)[1], t.frame_metrics], {})


def routes_of(ops, m) -> dict:
    """The five area routes of frame metrics m, floats (ops = MATH) or arrays (NUMPY)."""
    return area_routes(ops, m)


def areas(t: Triangle) -> dict:
    """The five area routes of t, in the input's units."""
    return {name: in_units(value, 2 * t.frame.exp, name)
            for name, value in routes_of(MATH, t.frame_metrics).items()}


class TestCot:
    def test_right_angle_is_exactly_zero(self):
        # There is no right-angle branch: at the binary64 pi/2 cot is cos/sin,
        # the cotangent of the angle as rounded.  That value is exactly the
        # distance from the rounded angle up to the true pi/2 (cot(pi/2 - d)
        # = tan d = d to far below an ulp), so the true right angle's
        # cotangent is exactly 0 and all cot returns is the angle's rounding.
        from decimal import Decimal

        half_pi = math.pi / 2.0
        true_half_pi = Decimal("1.57079632679489661923132169163975144209858469968755")
        offset = float(true_half_pi - Decimal(half_pi))
        assert angle_trig(MATH, half_pi)[0] == math.cos(half_pi) / math.sin(half_pi)
        assert angle_trig(MATH, half_pi)[0] == offset
        assert 0.0 < offset < 1e-16

    def test_neighbours_of_a_right_angle_are_cos_over_sin(self):
        # One ulp either side of pi/2, 5e-13 off and 1e-9 off, cot is cos/sin
        # bit for bit and of the size of the offset, with the cotangent's sign
        # (negative past pi/2).
        half_pi = math.pi / 2.0
        xs = [math.nextafter(half_pi, 0.0), math.nextafter(half_pi, 4.0),
              half_pi - 5e-13, half_pi + 5e-13, half_pi - 1e-9]
        assert [angle_trig(MATH, x)[0] for x in xs] == [math.cos(x) / math.sin(x) for x in xs]
        assert angle_trig(MATH, xs[0])[0] > 0.0 > angle_trig(MATH, xs[1])[0]
        for x in xs[2:]:
            assert angle_trig(MATH, x)[0] == pytest.approx(half_pi - x, rel=1e-3)

    def test_near_a_right_angle_arrays_match_floats(self):
        # On arrays cot is numpy's cos/sin, equal bit for bit to math's on
        # floats; within 1e-12 of pi/2 it is nonzero and about |x - pi/2|.
        half_pi = math.pi / 2.0
        xs = [half_pi + 5e-13, half_pi - 5e-13, half_pi + 1e-15, half_pi, 1.0]
        arr = np.array(xs)
        got = angle_trig(NUMPY, arr)[0]
        assert got.tolist() == (np.cos(arr) / np.sin(arr)).tolist()
        assert got.tolist() == [angle_trig(MATH, x)[0] for x in xs]
        assert (got[:3] != 0.0).all()
        assert np.abs(got[:2]) == pytest.approx(np.abs(arr[:2] - half_pi), rel=1e-3)

    def test_half_angle_cot_agrees_with_the_half_angles_quotient(self):
        # (1 + cos x) / sin x against cos(x/2) / sin(x/2), x/2 exact, relative
        # to 1 + |cot(x/2)|: within 2 ulp where pi - x >= 1.  Nearer pi,
        # 1 + cos x cancels and the error grows as eps / (pi - x); a triangle
        # with an angle x has pi - x >= 2 theta, where its bound is
        # C eps / theta**2.
        half_pi = 0.5 * math.pi
        xs = np.concatenate([
            np.linspace(1e-7, math.pi - 1e-7, 20001),
            np.geomspace(1e-7, 1.0, 2001),
            math.pi - np.geomspace(1e-7, 1.0, 2001),
            half_pi + np.linspace(-1e-6, 1e-6, 2001),
            [math.nextafter(half_pi, 0.0), half_pi, math.nextafter(half_pi, 4.0)],
        ])
        quotient = np.cos(0.5 * xs) / np.sin(0.5 * xs)
        allowed = 2.0 * sys.float_info.epsilon * (1.0 + np.abs(quotient))
        allowed /= np.minimum(1.0, math.pi - xs)
        half_cot = angle_trig(NUMPY, xs)[1]
        assert (np.abs(half_cot - quotient) <= allowed).all()
        for i in range(0, len(xs), 97):
            x = float(xs[i])
            got = angle_trig(MATH, x)[1]
            assert abs(got - math.cos(0.5 * x) / math.sin(0.5 * x)) <= allowed[i]


def test_areas_345(t345):
    # Integer squared sides make Heron and the polynomial exact: 16 E^2 = 576,
    # E = 6; sin A = 1; and (25 + 9 + 16) / (4 * 25/12) = 6 by cotangents.
    got = areas(t345)
    assert (got["heron"], got["sixteen_sq_poly"], got["sine_formula"]) == (6.0, 6.0, 6.0)
    assert got["cot_formula"] == pytest.approx(6.0, rel=1e-13)


class TestHeron:
    """Heron's route, and the strict triangle inequality the sides form needs."""

    def test_equilateral(self, equilateral):
        assert areas(equilateral)["heron"] == pytest.approx(SQRT3 / 4.0, abs=1e-16)

    def test_degenerate_sides_raise(self):
        with pytest.raises(GeometryError, match=r"^sides \(1.0, 1.0, 2.0\) violate the strict"):
            triangle_from_spec({"sides": {"alpha": 1.0, "beta": 1.0, "gamma": 2.0}})

    def test_violated_inequality_raises(self):
        with pytest.raises(GeometryError, match=r"^sides \(1.0, 1.0, 3.0\) violate the strict"):
            triangle_from_spec({"sides": {"alpha": 1.0, "beta": 1.0, "gamma": 3.0}})


def test_sixteen_area_route_clamps_negative_rounding():
    # On needles the polynomial can round below zero; the route reads 0.0
    # there, not NaN.  Their zero angles make other routes inf or NaN.
    x = np.linspace(0.01, 0.99, 2000)
    _, bx, by, gx, gy = frame(NUMPY, 0.0, 0.0, 1.0, 0.0, x, 1e-9)
    with np.errstate(divide="ignore", invalid="ignore"):
        poly = routes_of(NUMPY, anchored_metrics(NUMPY, bx, by, gx, gy))["sixteen_sq_poly"]
    assert not np.isnan(poly).any()
    assert (poly == 0.0).any()


def refusals(t: Triangle) -> set:
    """The messages with which judged_bound (which `perptri metrics` runs
    first), identity_report and construct refuse t."""
    messages = set()
    for refuse in (lambda t: judged_bound(t.frame_metrics), identity_report, construct):
        with pytest.raises(GeometryError, match="^smallest angle .* reaches 1$") as info:
            refuse(t)
        messages.add(str(info.value))
    return messages


def test_needle_is_refused_by_the_bound_before_the_radicands():
    # A valid needle whose s - gamma rounds to 0: the chain has no radical to
    # take, but judged_bound refuses it first, with one message for the
    # report, the construction and the metrics alike.
    x, h = 0.40084707137978337, 1.2010387776921146e-08
    t = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(x, h))
    m = t.frame_metrics
    assert m.s - m.gamma == 0.0
    assert m.ang_b == math.atan2(h, 1.0 - x) == 2.004561307007169e-08
    assert refusals(t) == {"smallest angle 2.004561307007169e-08 rad is too thin to verify "
                           "in binary64: the bound 64 eps/theta^2 = 35.4 reaches 1"}


class TestCotSum:
    def test_equilateral(self, equilateral):
        assert chain_cot_sum(equilateral) == pytest.approx(SQRT3, abs=1e-15)

    def test_right_345(self, t345):
        assert chain_cot_sum(t345) == pytest.approx(25.0 / 12.0, abs=1e-14)

    def test_obtuse(self, obtuse_iso):
        assert chain_cot_sum(obtuse_iso) == pytest.approx(5.0 / SQRT3, abs=1e-14)


def test_law_of_cosines_in_cot_form_over_corpus():
    # alpha^2 = beta^2 + gamma^2 - 4 E cot A, the step that rewrites the Law
    # of Cosines through the area; checked over a seeded corpus.
    corpus = sample_corpus(200, seed=[1105, 4])
    for i in range(corpus.ang_b.size):
        m = metrics(corpus.triangle(i))
        a2 = m.alpha**2
        predicted = m.beta**2 + m.gamma**2 - 4.0 * m.area * angle_trig(MATH, m.ang_a)[0]
        scale = m.alpha**2 + m.beta**2 + m.gamma**2
        assert abs(a2 - predicted) / (1.0 + scale) < 1e-10
