"""The derived-triangle construction: frozen vertices, cases, similarity."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perptri.construction import construct, similarity_check
from perptri.errors import GeometryError
from perptri.geom import (
    AngleCase,
    Point2,
    Triangle,
    angle_cases,
    classify_angle,
    derived_triangle,
    metrics,
)
from perptri.ratio import identity_chain, identity_report
from perptri.sampling import triangle_from_angles

SQRT3 = math.sqrt(3.0)
HALF_PI = 0.5 * math.pi
EPS = sys.float_info.epsilon


def test_classify_angle():
    assert classify_angle(1.0) is AngleCase.ACUTE
    assert classify_angle(HALF_PI) is AngleCase.RIGHT
    assert classify_angle(HALF_PI + 1e-12) is AngleCase.RIGHT
    assert classify_angle(2.0) is AngleCase.OBTUSE


def test_angle_cases_arrays_match_classify_angle():
    angles = np.array([1.0, HALF_PI - 2e-9, HALF_PI - 1e-12, HALF_PI, HALF_PI + 1e-12, 2.0])
    masks = np.array(angle_cases(angles))
    assert (masks.sum(axis=0) == 1).all()
    for column, ang in zip(masks.T, angles):
        assert list(AngleCase)[int(np.argmax(column))] is classify_angle(float(ang))


def test_nan_angle_is_in_no_case():
    # A NaN angle is not counted by the sweep and has no scalar case either.
    assert not np.array(angle_cases(np.array([math.nan]))).any()
    with pytest.raises(GeometryError, match="^angle A nan falls in no case$"):
        classify_angle(math.nan)


def test_phi_out_of_range_raises(t345):
    for phi in (0.0, -0.3, HALF_PI + 1e-6, math.pi):
        with pytest.raises(GeometryError, match=r"^phi must lie in \(0, pi/2\], got "):
            construct(t345, phi)


# ---------------------------------------------------------------------------
# frozen constructions (exact values derived by hand for each case)
# ---------------------------------------------------------------------------

def test_right_case_345(t345):
    d = construct(t345)
    assert d.case is AngleCase.RIGHT
    assert d.ap.x == pytest.approx(4.0, abs=1e-12)
    assert d.ap.y == pytest.approx(25.0 / 3.0, abs=1e-12)
    assert d.bp.x == pytest.approx(-9.0 / 4.0, abs=1e-12)
    assert d.bp.y == pytest.approx(0.0, abs=1e-12)
    # Gamma' lands exactly on B when angle A is right
    assert d.gp.x == pytest.approx(4.0, abs=1e-12)
    assert d.gp.y == pytest.approx(0.0, abs=1e-12)
    assert d.area_derived == pytest.approx(625.0 / 24.0, rel=1e-13)
    assert d.ratio_geometric == pytest.approx(625.0 / 144.0, rel=1e-12)
    assert d.ratio_formula == pytest.approx(625.0 / 144.0, rel=1e-12)


def test_construct_at_phi_90_builds_the_exact_perpendiculars(t345):
    # math.cos(pi / 2) is 6.1e-17, which would lift B' and Gamma' of 3-4-5
    # off the x-axis by 1e-16: at 90 degrees construct builds the chain's lines.
    d = construct(t345, math.radians(90.0))
    assert (d.bp, d.gp) == (Point2(-2.25, 0.0), Point2(4.0, 0.0))
    rng = random.Random(90)
    for _ in range(2000):
        ang_b = rng.uniform(0.01, math.pi - 0.03)
        t = triangle_from_angles(ang_b, rng.uniform(0.01, math.pi - 0.02 - ang_b),
                                 10.0 ** rng.uniform(-3.0, 3.0))
        d = construct(t)
        frame = t.frame[1:]
        assert d.frame_area_derived == derived_triangle(*frame, 0.0, 1.0)[1]
        assert d.ratio_geometric == identity_chain([*frame, t.frame_metrics]).ratio_geometric


def test_acute_case_equilateral(equilateral):
    d = construct(equilateral)
    assert d.case is AngleCase.ACUTE
    assert d.ap.x == pytest.approx(1.0, abs=1e-13)
    assert d.ap.y == pytest.approx(2.0 * SQRT3 / 3.0, abs=1e-13)
    assert d.bp.x == pytest.approx(-0.5, abs=1e-13)
    assert d.bp.y == pytest.approx(SQRT3 / 6.0, abs=1e-13)
    assert d.gp.x == pytest.approx(1.0, abs=1e-13)
    assert d.gp.y == pytest.approx(-SQRT3 / 3.0, abs=1e-13)
    assert d.ratio_geometric == pytest.approx(3.0, rel=1e-12)
    assert d.ratio_formula == pytest.approx(3.0, rel=1e-12)


def test_obtuse_case_120_30_30(obtuse_iso):
    d = construct(obtuse_iso)
    assert d.case is AngleCase.OBTUSE
    assert d.ap.x == pytest.approx(1.0, abs=1e-12)
    assert d.ap.y == pytest.approx(2.0 * SQRT3, abs=1e-12)
    assert d.bp.x == pytest.approx(-1.5, abs=1e-12)
    assert d.bp.y == pytest.approx(-SQRT3 / 2.0, abs=1e-12)
    assert d.gp.x == pytest.approx(1.0, abs=1e-12)
    assert d.gp.y == pytest.approx(SQRT3 / 3.0, abs=1e-12)
    assert d.area_derived == pytest.approx(25.0 * SQRT3 / 12.0, rel=1e-12)
    assert d.ratio_geometric == pytest.approx(25.0 / 3.0, rel=1e-12)
    assert d.ratio_formula == pytest.approx(25.0 / 3.0, rel=1e-12)


def _rotated(dx: float, dy: float, phi: float) -> tuple[float, float]:
    return math.cos(phi) * dx - math.sin(phi) * dy, math.sin(phi) * dx + math.cos(phi) * dy


def _distance_to_perpendicular(p: Point2, anchor: Point2, start: Point2, end: Point2) -> float:
    # The perpendicular through `anchor` to the side from start to end has
    # unit normal (end - start) / |end - start|.
    sx, sy = end.x - start.x, end.y - start.y
    return abs((p.x - anchor.x) * sx + (p.y - anchor.y) * sy) / math.hypot(sx, sy)


def test_lines_pass_through_their_anchors(t345):
    # At the default phi = pi/2 each line is the perpendicular to a side
    # through its anchor; every derived vertex sits on both of its lines.
    d = construct(t345)
    scale = 5.0  # |B Gamma|, the longest side
    a, b, g = t345.a, t345.b, t345.g
    assert _distance_to_perpendicular(d.ap, b, a, b) < 1e-12 * scale
    assert _distance_to_perpendicular(d.ap, g, b, g) < 1e-12 * scale
    assert _distance_to_perpendicular(d.bp, g, b, g) < 1e-12 * scale
    assert _distance_to_perpendicular(d.bp, a, g, a) < 1e-12 * scale
    assert _distance_to_perpendicular(d.gp, a, g, a) < 1e-12 * scale
    assert _distance_to_perpendicular(d.gp, b, a, b) < 1e-12 * scale


def test_perpendicularity_at_phi_90(equilateral):
    # A' and Gamma' share the line anchored at B, which at phi = pi/2 is
    # perpendicular to AB.
    d = construct(equilateral)
    sx, sy = equilateral.b.x - equilateral.a.x, equilateral.b.y - equilateral.a.y
    dx, dy = d.gp.x - d.ap.x, d.gp.y - d.ap.y
    norm = math.hypot(dx, dy)
    assert abs(sx * dx + sy * dy) / norm < 1e-14


@pytest.mark.parametrize("phi", [math.pi / 6, math.pi / 4, math.pi / 3, 1.0, HALF_PI])
def test_derived_vertices_lie_on_their_rotated_lines(t345, equilateral, obtuse_iso, phi):
    # Each line runs through its anchor along a side turned by phi; at
    # phi = pi/2 that is the perpendicular to the side.
    for t in (t345, equilateral, obtuse_iso):
        d = construct(t, phi)
        m = metrics(t)
        bound = 1e-12 * max(m.alpha, m.beta, m.gamma) ** 2
        lines = (
            (t.b, _rotated(t.b.x - t.a.x, t.b.y - t.a.y, phi), (d.ap, d.gp)),
            (t.g, _rotated(t.g.x - t.b.x, t.g.y - t.b.y, phi), (d.ap, d.bp)),
            (t.a, _rotated(t.a.x - t.g.x, t.a.y - t.g.y, phi), (d.bp, d.gp)),
        )
        for anchor, (ux, uy), on_line in lines:
            for p in on_line:
                assert abs((p.x - anchor.x) * uy - (p.y - anchor.y) * ux) <= bound


@pytest.mark.parametrize("phi", [math.pi / 3, HALF_PI])
def test_construction_does_not_depend_on_position(phi):
    # Offsets are whole multiples of the base 4, so every shifted vertex is
    # exact and the shifted triangles have exactly the same shape.
    base = construct(Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 3.0)), phi)
    for k in (0.0, 1e6, 1e8, 1e12):
        dx, dy = 4.0 * k, -8.0 * k
        t = Triangle(Point2(dx, dy), Point2(dx + 4.0, dy), Point2(dx + 1.0, dy + 3.0))
        d = construct(t, phi)
        for name in ("ap_rel", "bp_rel", "gp_rel"):
            got, want = getattr(d, name), getattr(base, name)
            assert got.dist(want) <= 1e-12 * math.hypot(want.x, want.y)
        assert max(similarity_check(t, d)) < 1e-9


# ---------------------------------------------------------------------------
# similarity: angle A' = B, B' = Gamma, Gamma' = A for every phi
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi", [math.pi / 6, math.pi / 4, math.pi / 3, 0.45 * math.pi, HALF_PI])
def test_similarity_scalene(phi):
    t = Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 3.0))
    disc = similarity_check(t, construct(t, phi))
    assert max(disc) < 1e-9


@pytest.mark.parametrize("phi", [0.2, 1.0, HALF_PI])
def test_similarity_all_cases(t345, equilateral, obtuse_iso, phi):
    for t in (t345, equilateral, obtuse_iso):
        disc = similarity_check(t, construct(t, phi))
        assert max(disc) < 1e-9


def test_construct_refuses_a_sliver_too_thin_to_judge():
    # A sliver with angle A = atan2(h, x) = 1.3868791658574667e-08 rad: its
    # bound reaches 1, so construct refuses it with the line identity_report
    # gives, before any derived vertex is made.
    x, h = 0.5992623340540111, 8.311044459826255e-09
    t = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(x, h))
    with pytest.raises(GeometryError, match="^smallest angle .* reaches 1$") as report_info:
        identity_report(t)
    assert str(report_info.value) == (
        f"smallest angle {math.atan2(h, x)!r} rad is too thin to verify in binary64: "
        "the bound 64 eps/theta^2 = 73.9 reaches 1")
    for phi in (HALF_PI, 0.3):
        with pytest.raises(GeometryError, match="^smallest angle .* reaches 1$") as info:
            construct(t, phi)
        assert str(info.value) == str(report_info.value)


# ---------------------------------------------------------------------------
# Gamma' on B: exactly where A = pi - phi, the right case at phi = pi/2
# ---------------------------------------------------------------------------

def test_gamma_prime_on_b_exactly_where_a_is_pi_minus_phi():
    # The line through A runs along AB exactly when A = pi - phi.  phi is
    # log-uniform over [1e-5, pi/2]; B and Gamma share the remaining phi.  The
    # offset grows as phi shrinks: at most 3.25 eps/phi over 2 * 10**4 draws.
    rng = random.Random(2026)
    for phi in [HALF_PI] + [math.exp(rng.uniform(math.log(1e-5), math.log(HALF_PI)))
                            for _ in range(300)]:
        ang_b = phi * rng.uniform(0.05, 0.95)
        d = construct(triangle_from_angles(ang_b, phi - ang_b, 1.0), phi)
        assert d.gamma_prime_on_b
        assert d.gamma_prime_offset <= 8.0 * EPS / phi
        if phi >= 0.02:
            assert d.gamma_prime_offset <= 1e-13
        # A moved 1e-6 either way: Gamma' leaves B.
        for shift in (1e-6, -1e-6):
            if phi - ang_b - shift > 0.0:
                moved = triangle_from_angles(ang_b, phi - ang_b - shift, 1.0)
                assert not construct(moved, phi).gamma_prime_on_b


def test_gamma_prime_on_b_is_the_right_case_at_phi_90():
    # Near-right triangles, A within 1e-8 of pi/2, straddle CASE_BAND; the
    # coincidence note and the case are judged on the same band and agree.
    rng = random.Random(90)
    cases = set()
    for _ in range(500):
        ang_b = rng.uniform(0.05, HALF_PI - 0.05)
        d = construct(triangle_from_angles(ang_b, HALF_PI - ang_b - rng.uniform(-1e-8, 1e-8), 1.0))
        assert d.gamma_prime_on_b == (d.case is AngleCase.RIGHT)
        cases.add(d.case)
    assert cases == set(AngleCase)


def test_small_phi_keeps_ratio_near_one(equilateral):
    # As phi -> 0 the rotated lines slide back onto the sides and the derived
    # triangle collapses onto the source.
    d = construct(equilateral, 1e-4)
    assert d.ratio_geometric == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

@given(s=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_ratio_is_scale_invariant(s):
    base = Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 3.0))
    scaled = Triangle(
        Point2(0.0, 0.0), Point2(4.0 * s, 0.0), Point2(1.0 * s, 3.0 * s)
    )
    r0 = construct(base).ratio_geometric
    r1 = construct(scaled).ratio_geometric
    assert r1 == pytest.approx(r0, rel=1e-10)


def test_derived_area_scales_quadratically():
    base = Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 3.0))
    scaled = Triangle(Point2(0.0, 0.0), Point2(8.0, 0.0), Point2(2.0, 6.0))
    assert construct(scaled).area_derived == pytest.approx(
        4.0 * construct(base).area_derived, rel=1e-12
    )


def test_construction_records_inputs(t345):
    d = construct(t345, 1.0)
    assert d.source is t345
    assert d.phi == 1.0
    assert metrics(t345).area == pytest.approx(6.0)
