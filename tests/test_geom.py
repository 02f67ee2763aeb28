"""Geometry primitives: points, the rotated-line step, triangle metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perptri.errors import DegenerateTriangleError, GeometryError
from perptri.geom import (
    MATH,
    Point2,
    Triangle,
    anchored_metrics,
    clamp_unit,
    cross,
    derived_vertices,
    metrics,
    signed_area,
)
from perptri.ratio import identity_chain

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# points and basic area
# ---------------------------------------------------------------------------

def test_point_rejects_non_finite():
    with pytest.raises(GeometryError):
        Point2(math.nan, 0.0)
    with pytest.raises(GeometryError):
        Point2(0.0, math.inf)


def test_point_arithmetic_and_distance():
    p = Point2(3.0, 4.0)
    q = Point2(0.0, 0.0)
    assert p.dist(q) == 5.0
    assert (p - q) == Point2(3.0, 4.0)
    assert (p + q) == p


def test_signed_area_orientation():
    a, b, g = Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(0.0, 3.0)
    assert signed_area(a, b, g) == 6.0
    assert signed_area(a, g, b) == -6.0
    assert cross(a, b, g) == 12.0


def test_clamp_unit():
    assert clamp_unit(1.0 + 1e-16) == 1.0
    assert clamp_unit(-1.5) == -1.0
    assert clamp_unit(0.25) == 0.25


# ---------------------------------------------------------------------------
# the rotated-line step
# ---------------------------------------------------------------------------

def test_derived_vertices_at_phi_90_345():
    # The perpendiculars to AB at B (x = 4), to A-Gamma at A (y = 0) and to
    # B-Gamma at Gamma (4x - 3y = -9) meet in A' = (4, 25/3), B' = (-9/4, 0)
    # and Gamma' = B = (4, 0).
    ap, bp, gp = derived_vertices(math.hypot, 4.0, 0.0, 0.0, 3.0, 0.0, 1.0)
    assert ap == pytest.approx((4.0, 25.0 / 3.0), abs=1e-14)
    assert bp == pytest.approx((-2.25, 0.0), abs=1e-14)
    assert gp == pytest.approx((4.0, 0.0), abs=1e-14)


def test_derived_vertices_arrays_match_floats():
    # One routine serves one triangle's floats and a corpus's arrays.
    rng = np.random.default_rng(3)
    bx, by, gx, gy = rng.uniform(-5.0, 5.0, (4, 200))
    for phi in (math.pi / 6, 1.0, 0.5 * math.pi):
        c, s = math.cos(phi), math.sin(phi)
        arrays = derived_vertices(np.hypot, bx, by, gx, gy, c, s)
        for i in range(200):
            floats = derived_vertices(math.hypot, bx[i], by[i], gx[i], gy[i], c, s)
            for (x, y), (xs, ys) in zip(floats, arrays):
                assert (x, y) == pytest.approx((xs[i], ys[i]), rel=1e-15, abs=1e-13)


# ---------------------------------------------------------------------------
# triangles
# ---------------------------------------------------------------------------

def test_collinear_vertices_rejected():
    with pytest.raises(DegenerateTriangleError):
        Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(2.0, 0.0))


def test_sliver_below_floor_rejected():
    # Height 1e-10 over a unit base sits below the degeneracy floor.
    with pytest.raises(DegenerateTriangleError):
        Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, 1e-10))


def test_clockwise_input_is_relabeled():
    t = Triangle(Point2(0.0, 0.0), Point2(0.0, 3.0), Point2(4.0, 0.0))
    assert t.b == Point2(4.0, 0.0)
    assert t.g == Point2(0.0, 3.0)
    assert cross(t.a, t.b, t.g) > 0.0


def test_counterclockwise_input_kept(t345):
    assert t345.b == Point2(4.0, 0.0)
    assert t345.g == Point2(0.0, 3.0)
    assert t345.vertices() == (t345.a, t345.b, t345.g)
    assert t345.longest_side() == 5.0


def test_metrics_345(t345):
    m = metrics(t345)
    assert (m.alpha, m.beta, m.gamma) == (5.0, 3.0, 4.0)
    assert m.ang_a == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert m.ang_b == pytest.approx(math.atan2(3.0, 4.0), abs=1e-15)
    assert m.ang_g == pytest.approx(math.atan2(4.0, 3.0), abs=1e-15)
    assert m.s == 6.0
    assert m.area == 6.0


def test_metrics_equilateral(equilateral):
    m = metrics(equilateral)
    for side in (m.alpha, m.beta, m.gamma):
        assert side == pytest.approx(1.0, abs=1e-15)
    for ang in (m.ang_a, m.ang_b, m.ang_g):
        assert ang == pytest.approx(math.pi / 3.0, abs=1e-14)
    assert m.area == pytest.approx(SQRT3 / 4.0, abs=1e-15)


def test_angle_at_matches_metrics(obtuse_iso):
    # Anchored at B, the routine sees A as its second vertex: the angle at a
    # vertex does not depend on which vertex the routine measures from.
    m = metrics(obtuse_iso)
    a, g = obtuse_iso.a - obtuse_iso.b, obtuse_iso.g - obtuse_iso.b
    from_b = anchored_metrics(MATH, a.x, a.y, g.x, g.y)
    assert from_b.ang_b == pytest.approx(m.ang_a, abs=1e-14)
    assert m.ang_a == pytest.approx(2.0 * math.pi / 3.0, abs=1e-14)


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

# Angles kept away from the degenerate rim so conditioning stays benign;
# the stress regimes get their own dedicated sweeps elsewhere.
angles = st.floats(min_value=0.2, max_value=2.2)
shifts = st.floats(min_value=-50.0, max_value=50.0)
rotations = st.floats(min_value=-math.pi, max_value=math.pi)
scales = st.floats(min_value=0.05, max_value=20.0)


def _triangle(ang_b: float, ang_g: float, base: float) -> Triangle:
    ang_a = math.pi - ang_b - ang_g
    beta = base * math.sin(ang_b) / math.sin(ang_g)
    return Triangle(
        Point2(0.0, 0.0),
        Point2(base, 0.0),
        Point2(beta * math.cos(ang_a), beta * math.sin(ang_a)),
    )


def _transformed(t: Triangle, theta: float, dx: float, dy: float, s: float) -> Triangle:
    c, sn = math.cos(theta), math.sin(theta)

    def move(p: Point2) -> Point2:
        return Point2(s * (c * p.x - sn * p.y) + dx, s * (sn * p.x + c * p.y) + dy)

    return Triangle(move(t.a), move(t.b), move(t.g))


@given(ang_b=angles, ang_g=angles, theta=rotations, dx=shifts, dy=shifts)
@settings(max_examples=60, deadline=None)
def test_metrics_invariant_under_rigid_motion(ang_b, ang_g, theta, dx, dy):
    if ang_b + ang_g > math.pi - 0.2:
        return
    t = _triangle(ang_b, ang_g, 2.0)
    moved = _transformed(t, theta, dx, dy, 1.0)
    m0, m1 = metrics(t), metrics(moved)
    assert m1.alpha == pytest.approx(m0.alpha, rel=1e-9)
    assert m1.beta == pytest.approx(m0.beta, rel=1e-9)
    assert m1.gamma == pytest.approx(m0.gamma, rel=1e-9)
    assert m1.ang_a == pytest.approx(m0.ang_a, abs=1e-9)
    assert m1.ang_b == pytest.approx(m0.ang_b, abs=1e-9)
    assert m1.ang_g == pytest.approx(m0.ang_g, abs=1e-9)
    assert m1.area == pytest.approx(m0.area, rel=1e-9)


@given(ang_b=angles, ang_g=angles, s=scales)
@settings(max_examples=60, deadline=None)
def test_metrics_scale_covariance(ang_b, ang_g, s):
    if ang_b + ang_g > math.pi - 0.2:
        return
    t = _triangle(ang_b, ang_g, 2.0)
    scaled = _transformed(t, 0.0, 0.0, 0.0, s)
    m0, m1 = metrics(t), metrics(scaled)
    assert m1.gamma == pytest.approx(s * m0.gamma, rel=1e-12)
    assert m1.area == pytest.approx(s * s * m0.area, rel=1e-10)
    assert m1.ang_a == pytest.approx(m0.ang_a, abs=1e-11)


@given(ang_b=angles, ang_g=angles)
@settings(max_examples=60, deadline=None)
def test_angle_sum_is_pi(ang_b, ang_g):
    if ang_b + ang_g > math.pi - 0.2:
        return
    m = metrics(_triangle(ang_b, ang_g, 1.0))
    assert m.ang_a + m.ang_b + m.ang_g == pytest.approx(math.pi, abs=1e-12)


@given(ang_b=angles, ang_g=angles, s=scales)
@settings(max_examples=60, deadline=None)
def test_heron_matches_shoelace(ang_b, ang_g, s):
    if ang_b + ang_g > math.pi - 0.2:
        return
    t = _triangle(ang_b, ang_g, s)
    areas = identity_chain(t.a.x, t.a.y, t.b.x, t.b.y, t.g.x, t.g.y).areas
    assert areas["heron"] == pytest.approx(areas["shoelace"], rel=1e-10)
