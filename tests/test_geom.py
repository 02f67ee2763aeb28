"""Geometry primitives: points, the rotated-line step, triangle metrics."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import perptri.geom as geom_mod
from perptri.construction import construct
from perptri.errors import GeometryError
from perptri.geom import (
    MATH,
    NUMPY,
    Point2,
    Triangle,
    anchored_metrics,
    angle_trig,
    derived_triangle,
    frame,
    metrics,
)
from perptri.ratio import area_routes, cot_sum, identity_report, judged_bound, side_squares

SQRT3 = math.sqrt(3.0)
EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# points and basic area
# ---------------------------------------------------------------------------

def test_point_rejects_non_finite():
    with pytest.raises(GeometryError):
        Point2(math.nan, 0.0)
    with pytest.raises(GeometryError):
        Point2(0.0, math.inf)


def test_point_distance():
    assert Point2(3.0, 4.0).dist(Point2(0.0, 0.0)) == 5.0


# ---------------------------------------------------------------------------
# the rotated-line step
# ---------------------------------------------------------------------------

def test_derived_vertices_at_phi_90_345():
    # The perpendiculars to AB at B (x = 4), to A-Gamma at A (y = 0) and to
    # B-Gamma at Gamma (4x - 3y = -9) meet in A' = (4, 25/3), B' = (-9/4, 0)
    # and Gamma' = B = (4, 0), which bound 6.25 * (25/3) / 2 = 625/24.  The
    # lines' coefficients are exact integers, so each result is the correctly
    # rounded value.
    (ap, bp, gp), area = derived_triangle(4.0, 0.0, 0.0, 3.0, 0.0, 1.0)
    assert (ap, bp, gp) == ((4.0, 25.0 / 3.0), (-2.25, 0.0), (4.0, 0.0))
    assert area == 625.0 / 24.0


def test_derived_vertices_at_phi_90_of_an_obtuse_integer_triangle():
    # B = (5, 0), Gamma = (-3, 4): A = acos(-3/5), cot A = -3/4 and
    # cot B = cot Gamma = 2.  The perpendiculars x = 5, 3x + 4y = 0 and
    # 8x - 4y = -40 meet in A' = (5, 20), B' = (-8, -6) and Gamma' = (5, 15/4),
    # which bound 845/8 = E (cot A + cot B + cot Gamma)^2 = 10 * 3.25^2.
    (ap, bp, gp), area = derived_triangle(5.0, 0.0, -3.0, 4.0, 0.0, 1.0)
    assert (ap, bp, gp) == ((5.0, 20.0), (-8.0, -6.0), (5.0, 3.75))
    assert area == 105.625


@given(xy=st.lists(st.integers(-2**20, 2**20), min_size=4, max_size=4),
       k=st.integers(-60, 60), which=st.integers(0, 2), phi=st.floats(0.1, 0.5 * math.pi))
@settings(max_examples=200, deadline=None)
def test_a_lines_scale_leaves_its_crossings_bit_identical(xy, k, which, phi):
    # The derived lines are not normalized: scaling one line's (a, b, c) by
    # 2**k, exactly, leaves both of its crossings the same bits (repr tells
    # -0.0 from 0.0).
    bx, by, gx, gy = (math.ldexp(v, -18) for v in xy)
    assume(bx * gy - by * gx != 0.0)
    c, s = math.cos(phi), math.sin(phi)
    lines = [geom_mod._rotated_line(c, s, bx, by, bx, by),
             geom_mod._rotated_line(c, s, gx, gy, gx - bx, gy - by),
             geom_mod._rotated_line(c, s, 0.0, 0.0, -gx, -gy)]
    scaled = list(lines)
    scaled[which] = tuple(math.ldexp(v, k) for v in lines[which])
    for i, j in ((0, 1), (1, 2), (2, 0)):
        want = geom_mod._crossing(lines[i], lines[j])
        assert repr(geom_mod._crossing(scaled[i], scaled[j])) == repr(want)


def test_derived_vertices_arrays_match_floats():
    # One routine serves one triangle's floats and a corpus's arrays.
    rng = np.random.default_rng(3)
    bx, by, gx, gy = rng.uniform(-5.0, 5.0, (4, 200))
    for phi in (math.pi / 6, 1.0, 0.5 * math.pi):
        c, s = math.cos(phi), math.sin(phi)
        arrays = derived_triangle(bx, by, gx, gy, c, s)[0]
        for i in range(200):
            floats = derived_triangle(bx[i], by[i], gx[i], gy[i], c, s)[0]
            for (x, y), (xs, ys) in zip(floats, arrays):
                assert (x, y) == pytest.approx((xs[i], ys[i]), rel=1e-15, abs=1e-13)


def test_perpendicular_lines_cross_where_the_rotated_lines_do(monkeypatch, t345, equilateral,
                                                              obtuse_iso):
    # At (cos phi, sin phi) = (0, 1) each line is _perpendicular_line, the
    # line _rotated_line(0.0, 1.0, ...) builds, negated, without its products
    # by 0 and 1: the vertices and the area keep their bits (== tells only
    # the sign of a zero apart), on floats and on arrays, in general position
    # and in the canonical layout with B on the x axis.
    rng = np.random.default_rng(5)
    xy = rng.uniform(-1.0, 1.0, (4, 10**5))
    xy[1, ::2] = 0.0
    fixtures = [t.frame[1:] for t in (t345, equilateral, obtuse_iso)]
    cases = [tuple(xy), *map(tuple, xy.T[:2000].tolist()), *fixtures,
             tuple(np.array(fixtures).T)]
    got = [derived_triangle(*case, 0.0, 1.0) for case in cases]
    monkeypatch.setattr(geom_mod, "_perpendicular_line", geom_mod._rotated_line)
    want = [derived_triangle(*case, 0.0, 1.0) for case in cases]
    for ((ap, bp, gp), area), ((want_ap, want_bp, want_gp), want_area) in zip(got, want):
        for value, wanted in zip((*ap, *bp, *gp, area), (*want_ap, *want_bp, *want_gp, want_area)):
            assert np.array_equal(value, wanted)


# ---------------------------------------------------------------------------
# triangles
# ---------------------------------------------------------------------------

THIN = r"^smallest angle \S+ rad is too thin to verify in binary64: .* reaches 1$"


def test_thin_sliver_is_kept_and_refused_on_the_bound():
    # Height 1e-10 over a unit base: a valid triangle, which Triangle keeps,
    # but theta = 4e-10 is too thin for binary64 to judge, so the bound
    # refuses it wherever an angle would be read.
    t = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, 1e-10))
    assert t.frame_metrics.area > 0.0
    for refuse in (lambda: judged_bound(t.frame_metrics), lambda: identity_report(t),
                   lambda: construct(t), lambda: construct(t, 0.25 * math.pi)):
        with pytest.raises(GeometryError, match=THIN):
            refuse()


def test_slivers_around_the_old_floor_are_kept_and_refused_on_the_bound():
    # Slivers around the retired floor of area 1e-9 longest**2 (height near
    # 2e-9 longest**2 over the base, a third of them within 64 ulps of that,
    # turned and moved up to 1e6 sizes or neither): none has a doubled area
    # of 0 in its frame, so Triangle keeps every one, and the bound refuses
    # every one as too thin.
    rng = random.Random(14)
    for _ in range(20000):
        size, x = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-0.5, 1.5)
        h = 2e-9 * max(1.0, x * x, (1.0 - x) ** 2)
        if rng.random() < 0.3:
            h *= 1.0 + rng.randint(-64, 64) * EPS
        else:
            h *= 10.0 ** rng.uniform(-0.05, 0.05)
        turn, offset, direction = 0.0, 0.0, 0.0
        if rng.random() < 0.7:
            turn, direction = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
            offset = size * 10.0 ** rng.uniform(0.0, 6.0)
        c, s = math.cos(turn), math.sin(turn)
        ox, oy = offset * math.cos(direction), offset * math.sin(direction)
        coords = [(ox + size * (c * px - s * py), oy + size * (s * px + c * py))
                  for px, py in ((0.0, 0.0), (1.0, 0.0), (x, h))]
        t = Triangle(*(Point2(*p) for p in coords))
        with pytest.raises(GeometryError, match=THIN):
            judged_bound(t.frame_metrics)


def test_acceptance_and_relabeling_do_not_depend_on_scale():
    shapes = [
        ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)),  # 3-4-5, counterclockwise
        ((0.0, 0.0), (0.0, 3.0), (4.0, 0.0)),  # its clockwise twin
        ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),  # collinear
        ((0.0, 0.0), (1.0, 0.0), (0.5, 1e-10)),  # a sliver too thin to judge
    ]

    def outcome(shape, k):
        a, b, g = (Point2(math.ldexp(x, k), math.ldexp(y, k)) for x, y in shape)
        try:
            t = Triangle(a, b, g)
        except GeometryError as exc:
            assert str(exc) == "vertices are collinear at the triangle's own scale"
            return "rejected"
        return "kept" if t.b == b else "swapped"

    expected = ["kept", "swapped", "rejected", "kept"]
    sliver = Triangle(*(Point2(*p) for p in shapes[3]))
    with pytest.raises(GeometryError, match=THIN) as info:
        identity_report(sliver)
    # The sliver's copy is the same triangle only where every coordinate
    # survives the scaling; below that its y coordinate, 1e-10 * 2**k, is
    # subnormal and rounds, and the bound reports that other triangle's theta.
    inexact = []
    for k in range(-1000, 1001):
        assert [outcome(shape, k) for shape in shapes] == expected, k
        coords = [v for p in shapes[3] for v in p]
        if any(math.ldexp(math.ldexp(v, k), -k) != v for v in coords):
            inexact.append(k)
            continue
        scaled = Triangle(*(Point2(math.ldexp(x, k), math.ldexp(y, k)) for x, y in shapes[3]))
        with pytest.raises(GeometryError, match=THIN) as scaled_info:
            identity_report(scaled)
        assert str(scaled_info.value) == str(info.value), k
    assert inexact == [k for k in range(-1000, 1001) if math.ldexp(1e-10, k) < sys.float_info.min]


def test_clockwise_input_is_relabeled():
    t = Triangle(Point2(0.0, 0.0), Point2(0.0, 3.0), Point2(4.0, 0.0))
    assert t.b == Point2(4.0, 0.0)
    assert t.g == Point2(0.0, 3.0)
    f = t.frame
    assert f.bx * f.gy - f.by * f.gx > 0.0


def test_counterclockwise_input_kept(t345):
    assert t345.b == Point2(4.0, 0.0)
    assert t345.g == Point2(0.0, 3.0)


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
    a, b, g = obtuse_iso.a, obtuse_iso.b, obtuse_iso.g
    _, ax, ay, gx, gy = frame(MATH, b.x, b.y, a.x, a.y, g.x, g.y)
    from_b = anchored_metrics(MATH, ax, ay, gx, gy)
    assert from_b.ang_b == pytest.approx(m.ang_a, abs=1e-14)
    assert m.ang_a == pytest.approx(2.0 * math.pi / 3.0, abs=1e-14)


def test_metrics_measure_a_flat_apex():
    # A = 2e-7 deg, measured as laid out, to the bit of the exact cross and
    # dot; not 0.  The bound, 1.2e3 here, refuses it.
    b = math.radians(89.9999999)
    t = _triangle(b, b, 1.0)
    m = anchored_metrics(MATH, *t.frame[1:])
    assert m.ang_a == 3.4906584289728926e-09
    assert (m.ang_a, m.ang_b, m.ang_g) == _exact_angles(*t.frame[1:])
    with pytest.raises(GeometryError, match=THIN):
        judged_bound(m)


def _exact_angles(bx, by, gx, gy):
    """The angles at A, B and Gamma of a frame, from its exact cross and dot.

    Each vertex's cross and dot are rational in the frame coordinates:
    computed as Fractions, they are rounded once each and passed to atan2.
    """
    b, g = (Fraction(bx), Fraction(by)), (Fraction(gx), Fraction(gy))
    u = (g[0] - b[0], g[1] - b[1])
    doubled = float(abs(b[0] * g[1] - b[1] * g[0]))
    return (math.atan2(doubled, float(b[0] * g[0] + b[1] * g[1])),
            math.atan2(doubled, float(-(b[0] * u[0] + b[1] * u[1]))),
            math.atan2(doubled, float(g[0] * u[0] + g[1] * u[1])))


def _accuracy_frames(rng, n):
    """Frames of n seeded triangles A = (0, 0), B = (1, 0), Gamma, in turn a
    needle at A (half of them with Gamma near B, so that alpha is short), A
    near pi, or general; each is turned, sized and moved up to 10**3 sizes."""
    for i in range(n):
        t = 10.0 ** rng.uniform(-9.0, -1.0)
        r = rng.uniform(0.2, 5.0)
        if i % 3 == 0:
            if rng.random() < 0.5:
                r = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -1.0)
            gamma = (r * math.cos(t), r * math.sin(t))
        elif i % 3 == 1:
            gamma = (-r * math.cos(t), r * math.sin(t))
        else:
            gamma = (rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.0))
        size, turn = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2.0 * math.pi)
        offset = size * 10.0 ** rng.uniform(-1.0, 3.0)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(turn), math.sin(turn)
        ox, oy = offset * math.cos(direction), offset * math.sin(direction)
        yield frame(MATH, *(v for px, py in ((0.0, 0.0), (1.0, 0.0), gamma)
                            for v in (ox + size * (c * px - s * py), oy + size * (s * px + c * py))))


def test_angles_are_accurate_to_a_few_eps_on_floats_and_arrays():
    # Each angle is atan2 of the cross and dot of the edges leaving its
    # vertex, so it is within a few eps of _exact_angles, whatever the shape.
    # Over these 20000 triangles the worst was 2 eps on both paths (one ulp
    # of pi).  The needles with alpha short are why each vertex takes its own
    # cross: the one at A was off by up to 2e7 eps at B or Gamma there.
    frames = [f[1:] for f in _accuracy_frames(random.Random(22), 20000)]
    arrays = anchored_metrics(NUMPY, *np.array(frames).T)
    for i, f in enumerate(frames):
        want = _exact_angles(*f)
        for got in (anchored_metrics(MATH, *f)[3:6], [a[i] for a in arrays[3:6]]):
            assert max(abs(x - w) for x, w in zip(got, want)) <= 8 * EPS, f


def test_cot_of_an_angle_of_zero_is_inf_on_arrays():
    assert angle_trig(MATH, 0.25 * math.pi)[0] == pytest.approx(1.0, abs=1e-15)
    # No scalar command takes the cotangent of 0: the bound refuses theta = 0
    # first.  Arrays carry inf there.
    with np.errstate(divide="ignore"):
        assert angle_trig(NUMPY, np.array([0.0]))[0][0] == math.inf


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
    m = _triangle(ang_b, ang_g, s).frame_metrics
    areas = area_routes(MATH, m, side_squares(m), cot_sum(MATH, m), math.sin(m.ang_a))
    assert areas["heron"] == pytest.approx(areas["shoelace"], rel=1e-10)
