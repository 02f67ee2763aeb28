"""The identity chain behind the area ratio, and its reporting layer."""

import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perptri.ratio as ratio_mod
import perptri.geom as geom_mod
from perptri.construction import construct, similarity_check
from perptri.geom import MATH
from perptri.geom import GeometryError, Point2, Triangle
from perptri.ratio import (
    BOUND_CONSTANT,
    CHECK_ORDER,
    area_routes,
    cot_sum,
    identity_chain,
    identity_report,
    judged_bound,
    residual_bound,
    smallest_angle,
    within_bound,
)
from perptri.sampling import sample_corpus, triangle_from_angles

COT_TERMS = ("cot_term_a", "cot_term_g", "cot_term_b")
EPS = sys.float_info.epsilon


def residuals(t):
    return identity_report(t).residuals


def test_chain_reads_the_routes_of_area_routes_bit_for_bit(t345, equilateral, obtuse_iso,
                                                          monkeypatch):
    # One body of the five routes: the routes the chain makes are area_routes
    # of its metrics, and its area residuals are taken from them and from the
    # derived area, on floats and on a sampled chunk of arrays.
    made = []

    def recorded(real):
        def call(*args):
            made.append(real(*args))
            return made[-1]
        return call

    for name in ("_length_routes", "_square_routes"):
        monkeypatch.setattr(ratio_mod, name, recorded(getattr(ratio_mod, name)))

    def check(ops, bx, by, gx, gy, m):
        made.clear()
        area_derived = geom_mod.derived_triangle(bx, by, gx, gy, 0.0, 1.0)[1]
        residuals = {}
        csum = identity_chain([area_derived, m], residuals)
        (heron, sine), (poly, cot) = made
        routes = area_routes(ops, m)
        assert list(routes) == ["shoelace", "heron", "sixteen_sq_poly", "cot_formula",
                                "sine_formula"]
        largest = ops.max(*routes.values())
        ratio_formula = csum * csum
        expected = {
            "heron": heron, "sixteen_sq_poly": poly, "cot_formula": cot, "sine_formula": sine,
            "area_from_cots": abs(routes["cot_formula"] - m.area) / (1.0 + abs(m.area)),
            "area_agreement": (largest - ops.min(*routes.values())) / largest,
            "area_ratio": abs(area_derived / m.area - ratio_formula) / (1.0 + ratio_formula),
        }
        got = {**routes, **residuals}
        for name, value in expected.items():
            assert np.asarray(got[name]).tobytes() == np.asarray(value).tobytes(), name

    for t in (t345, equilateral, obtuse_iso):
        check(MATH, *t.frame[1:], t.frame_metrics)
    ops = geom_mod.NUMPY
    bx, gx, gy = sample_corpus(2**14, 3).vertex_arrays()
    _, bx, by, gx, gy = geom_mod.frame(ops, 0.0, 0.0, bx, 0.0, gx, gy)
    check(ops, bx, by, gx, gy, geom_mod.anchored_metrics(ops, bx, by, gx, gy))


def test_chain_assigns_each_residual_once_and_reports_list_them_in_check_order(t345):
    # The chain assigns every name of CHECK_ORDER exactly once, in the order
    # it makes them; identity_report lists them in CHECK_ORDER.
    class Recorder:
        def __init__(self):
            self.names = []

        def __setitem__(self, name, value):
            self.names.append(name)

    recorder = Recorder()
    area_derived = geom_mod.derived_triangle(*t345.frame[1:], 0.0, 1.0)[1]
    csum = identity_chain([area_derived, t345.frame_metrics], recorder)
    assert csum == cot_sum(MATH, t345.frame_metrics)
    assert sorted(recorder.names) == sorted(CHECK_ORDER)
    assert list(identity_report(t345).residuals) == list(CHECK_ORDER)


def test_bound_constant_is_a_power_of_two():
    mantissa, _ = math.frexp(BOUND_CONSTANT)
    assert mantissa == 0.5 and BOUND_CONSTANT >= 8.0
    assert residual_bound(1.0) == BOUND_CONSTANT * EPS
    # The bound reaches 1 at theta = sqrt(C eps), about 1.2e-7 rad at C = 64.
    threshold = math.sqrt(BOUND_CONSTANT * EPS)
    assert residual_bound(1.01 * threshold) < 1.0 <= residual_bound(0.99 * threshold)


def test_residual_bound_of_a_zero_angle_is_inf():
    # A float theta whose square is 0 (theta = 0, or its square underflows)
    # gives inf, as an array does, instead of raising ZeroDivisionError.
    import numpy as np

    assert residual_bound(0.0) == math.inf
    assert residual_bound(1e-170) == math.inf
    with np.errstate(divide="ignore"):
        got = residual_bound(np.array([0.0, 1e-170, 1.0]))
    assert got.tolist() == [math.inf, math.inf, BOUND_CONSTANT * EPS]


def test_within_bound_on_floats_and_arrays():
    import numpy as np

    bound = residual_bound(0.1)
    assert within_bound(bound, bound) is True
    assert within_bound(2.0 * bound, bound) is False
    assert within_bound(math.nan, bound) is False
    assert within_bound(0.0, math.nan) is False
    # Where the bound reaches 1, nothing is within it, not even a zero.
    assert within_bound(0.0, 1.0) is False
    got = within_bound(np.array([0.0, bound, 2.0 * bound, math.nan, 0.0]),
                       np.array([bound, bound, bound, bound, 1.0]))
    assert got.tolist() == [True, True, False, False, False]


# ---------------------------------------------------------------------------
# 3-4-5: every link of the chain has small integer values, so each residual
# is checkable against arithmetic done by hand:
#   16 E^2 = 576
#   8 E gamma^2 cot A = 0        = 2*16*(9 + 16 - 25)
#   8 E beta^2  cot G = 324      = 2*9*(25 + 9 - 16)
#   8 E alpha^2 cot B = 1600     = 2*25*(16 + 25 - 9)
# and the quadratic closes: 576 + (0 + 324 + 1600) - 50^2 = 0.
# ---------------------------------------------------------------------------

def test_cot_term_scaling_survives_large_right_triangles():
    # A near-degenerate right triangle at scale 100: both sides of the
    # cot-A identity cancel to roundoff of huge monomials.  The residual
    # must stay at noise level rather than reporting the cancellation.
    r = residuals(triangle_from_angles(1.56, 0.5 * math.pi - 1.56, 100.0))
    for key in COT_TERMS:
        assert r[key] < 1e-11


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8, 1e12])
def test_verdict_does_not_depend_on_position(offset):
    # The unit right isosceles triangle far from the origin: absolute line
    # offsets would lose the digits the area ratio needs (1.2e-8 at 1e8).
    t = Triangle(
        Point2(offset, offset), Point2(offset + 1.0, offset), Point2(offset, offset + 1.0)
    )
    report = identity_report(t)
    assert report.passed, report.first_failing
    assert report.case == "right"
    assert report.residuals["area_ratio"] < 1e-14


# ---------------------------------------------------------------------------
# report layer
# ---------------------------------------------------------------------------

def test_report_passes_on_canonical(t345, equilateral, obtuse_iso):
    for t, case in (
        (t345, "right"),
        (equilateral, "acute"),
        (obtuse_iso, "obtuse"),
    ):
        report = identity_report(t)
        assert report.passed
        assert report.first_failing is None
        assert report.case == case
        assert set(report.residuals) == set(CHECK_ORDER)
        m = t.frame_metrics
        assert report.smallest_angle == min(m.ang_a, m.ang_b, m.ang_g)
        assert report.bound == residual_bound(report.smallest_angle)
        assert report.bound < 1e-13
        assert all(report.within[name] for name in CHECK_ORDER)


def test_sliver_triangle_judged_by_the_bound():
    # Smallest angle 0.005 rad: the bound is C eps / 0.005**2, about 5.7e-10,
    # and every residual is within it.
    report = identity_report(triangle_from_angles(0.005, 1.0, 1.0))
    assert report.smallest_angle == pytest.approx(0.005, rel=1e-9)
    assert report.bound == BOUND_CONSTANT * (EPS / report.smallest_angle**2)
    assert report.passed


def test_near_right_triangle_far_from_the_origin_is_within_an_eighth_of_the_bound():
    # A right triangle moved about 3000 sizes from the origin: rounding the
    # vertices leaves angle A about 1e-13 off pi/2.  cot A is cos/sin of that
    # angle, so the residuals stay at roundoff, within C/8 eps / theta**2, the
    # margin C was set with.
    t = Triangle(Point2(305.5885421359101, 373.56722245306287),
                 Point2(305.5390084466886, 373.4530075935066),
                 Point2(305.6868396457121, 373.52459193790315))
    report = identity_report(t)
    theta = smallest_angle(MATH, t.frame_metrics)
    assert report.smallest_angle == theta
    assert 0.0 < abs(t.frame_metrics.ang_a - 0.5 * math.pi) < 1e-12
    assert max(report.residuals.values()) <= BOUND_CONSTANT / 8.0 * EPS / theta**2
    assert report.bound == residual_bound(theta)
    assert report.passed


def test_moved_right_triangles_are_within_an_eighth_of_the_bound():
    # 2000 right triangles of the sampler's right stratum, sizes 10**U(-2, 2),
    # turned by a random angle and moved 10**U(0, 8) sizes from the origin in
    # a random direction.  Rounding the moved vertices leaves angle A a few
    # ulps to about 1e-9 off pi/2; every residual stays within C/8 eps /
    # theta**2.
    import numpy as np

    n = 2000
    corpus = sample_corpus(n, seed=[5, 3], stratum="right")
    rng = np.random.default_rng([5, 4])
    turns = rng.uniform(0.0, 2.0 * math.pi, n)
    offsets = corpus.scale * 10.0 ** rng.uniform(0.0, 8.0, n)
    directions = rng.uniform(0.0, 2.0 * math.pi, n)
    worst = 0.0
    for i in range(n):
        t = corpus.triangle(i)
        c, s = math.cos(turns[i]), math.sin(turns[i])
        ox = float(offsets[i] * math.cos(directions[i]))
        oy = float(offsets[i] * math.sin(directions[i]))
        moved = Triangle(*(Point2(ox + c * p.x - s * p.y, oy + s * p.x + c * p.y)
                           for p in (t.a, t.b, t.g)))
        report = identity_report(moved)
        worst = max(worst, max(report.residuals.values()) * report.smallest_angle**2 / EPS)
    assert worst <= BOUND_CONSTANT / 8.0


@given(ang_b=st.floats(min_value=0.01, max_value=math.pi - 0.02),
       share=st.floats(min_value=0.0, max_value=1.0),
       log_size=st.floats(min_value=-3.0, max_value=3.0),
       turn=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       ox=st.floats(min_value=-1e12, max_value=1e12),
       oy=st.floats(min_value=-1e12, max_value=1e12))
@settings(max_examples=200, deadline=None)
def test_verdict_survives_any_rigid_motion(ang_b, share, log_size, turn, ox, oy):
    # Every angle at least 0.01 rad, size 10**U(-3, 3), any turn and any
    # offset up to 1e12 sizes in each coordinate: the moved triangle still
    # passes, every residual within C/8 eps / theta**2 of its own theta.
    ang_g = 0.01 + share * (math.pi - ang_b - 0.02)
    size = 10.0 ** log_size
    c, s = math.cos(turn), math.sin(turn)
    t = triangle_from_angles(ang_b, ang_g, size)
    moved = Triangle(*(Point2(size * ox + c * p.x - s * p.y, size * oy + s * p.x + c * p.y)
                       for p in (t.a, t.b, t.g)))
    report = identity_report(moved)
    assert report.passed
    assert max(report.residuals.values()) <= BOUND_CONSTANT / 8.0 * EPS / report.smallest_angle**2


def test_too_thin_triangle_raises_naming_theta_and_bound():
    # Gamma = 1e-6 deg, measured within an eps rad: the bound C eps / theta**2
    # is 46.7, past 1, so binary64 residuals confirm nothing and the report
    # refuses a verdict.
    t = triangle_from_angles(math.radians(60.0), math.radians(1e-6), 1.0)
    with pytest.raises(GeometryError, match="too thin") as info:
        identity_report(t)
    message = str(info.value)
    theta = float(re.match(r"smallest angle (\S+) rad", message).group(1))
    assert abs(theta - math.radians(1e-6)) <= sys.float_info.epsilon
    assert message.endswith("the bound 64 eps/theta^2 = 46.7 reaches 1")
    assert "\n" not in message


def test_accepted_needles_are_judged_or_refused_on_the_bound_alone():
    # Needles (0, 0), (1, 0), (x, h) with h = 10^U(-9, -6.5): the report judges
    # theta before the chain runs, so every needle a Triangle accepts gets a
    # verdict or the bound's refusal, never a division by a half-angle
    # radicand or by the sine of an angle of 0.
    rng = random.Random(2008)
    judged = refused = 0
    for _ in range(4000):
        gamma = Point2(rng.random(), 10.0 ** rng.uniform(-9.0, -6.5))
        try:
            t = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), gamma)
        except GeometryError as exc:
            assert str(exc) == "vertices are collinear at the triangle's own scale"
            continue
        try:
            identity_report(t)
        except GeometryError as exc:
            assert re.fullmatch(r"smallest angle \S+ rad is too thin .* reaches 1", str(exc))
            refused += 1
        else:
            judged += 1
    assert judged > 100 and refused > 1000


#: theta*, the smallest angle whose bound C eps / theta**2 is below 1.
THETA_STAR = math.sqrt(BOUND_CONSTANT * EPS)


def test_every_triangle_the_bound_accepts_runs_without_a_guard():
    # Triangles just past the bound, theta in [theta*, 2.5 theta*]: needles
    # (one small angle), flat ones (two) and mixed ones, at sizes 10**U(-3, 3),
    # most turned and half of those moved up to 1e8 sizes.  Where the bound
    # is below 1, (s - x) / s = tan(Y/2) tan(Z/2) >= theta**2 / 4 = 16 eps
    # and no angle is 0, so every command's arithmetic has no zero to divide
    # by: each triangle judged_bound accepts runs the report, construct at
    # 90 deg and at a random phi, the similarity check and the chain without
    # raising, and passes with every residual within C/8 eps / theta**2.
    rng = random.Random(15)
    judged = 0
    for _ in range(4000):
        theta = THETA_STAR * rng.uniform(1.0, 2.5)
        shape = rng.randrange(3)
        if shape == 0:  # needle
            other = rng.uniform(0.5 * math.pi - 0.1, 0.5 * math.pi)
        elif shape == 1:  # flat
            other = theta * 10.0 ** rng.uniform(0.0, 3.0)
        else:
            other = rng.uniform(theta, math.pi - 2.0 * theta)
        angles = [theta, other, math.pi - theta - other]
        rng.shuffle(angles)
        size = 10.0 ** rng.uniform(-3.0, 3.0)
        t = triangle_from_angles(angles[1], angles[2], size)
        if rng.random() < 0.7:
            turn, direction = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
            offset = size * 10.0 ** rng.uniform(0.0, 8.0) if rng.random() < 0.5 else 0.0
            c, s = math.cos(turn), math.sin(turn)
            t = Triangle(*(Point2(offset * math.cos(direction) + c * p.x - s * p.y,
                                  offset * math.sin(direction) + s * p.x + c * p.y)
                           for p in (t.a, t.b, t.g)))
        m = t.frame_metrics
        try:
            smallest, bound = judged_bound(m)
        except GeometryError as exc:
            assert re.fullmatch(r"smallest angle \S+ rad is too thin .* reaches 1", str(exc))
            continue
        judged += 1
        assert min(m.s - m.alpha, m.s - m.beta, m.s - m.gamma) >= 8.0 * EPS * m.s
        report = identity_report(t)
        assert report.passed, t
        assert max(report.residuals.values()) <= BOUND_CONSTANT / 8.0 * EPS / smallest**2, t
        for phi in (0.5 * math.pi, rng.uniform(1e-3, 0.5 * math.pi)):
            similarity_check(t, construct(t, phi))
    assert judged > 3900


def _with_residuals(monkeypatch, **values):
    real = ratio_mod.identity_chain

    def patched(inputs, residuals):
        csum = real(inputs, residuals)
        residuals.update(values)
        return csum

    monkeypatch.setattr(ratio_mod, "identity_chain", patched)


def test_first_failing_respects_check_order(t345, monkeypatch):
    # Two residuals far over the bound: the earlier one in CHECK_ORDER gets
    # blamed, and each line's verdict is in the report.
    _with_residuals(monkeypatch, chain_sum=0.5, area_ratio=0.5)
    report = identity_report(t345)
    assert not report.passed
    assert report.first_failing == "chain_sum"
    assert [name for name in CHECK_ORDER if not report.within[name]] == [
        "chain_sum", "area_ratio"]


def test_all_failing_blames_first_link(t345, monkeypatch):
    # A negative constant makes the bound negative: every residual is over it.
    monkeypatch.setattr(ratio_mod, "BOUND_CONSTANT", -1.0)
    report = identity_report(t345)
    assert not any(report.within.values())
    assert report.first_failing == CHECK_ORDER[0]


def test_nan_residual_fails_the_verdict(t345, monkeypatch):
    # A NaN is never within the bound: the verdict fails and blames it.
    _with_residuals(monkeypatch, chain_sum=math.nan)
    report = identity_report(t345)
    assert not report.passed
    assert report.first_failing == "chain_sum"


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_wrong_area_is_blamed_on_the_first_link_at_any_scale(scale, monkeypatch):
    # Measured in the frame, where the Triangle measures itself once, a
    # shoelace area 10 % too large breaks the increment identity whatever the
    # triangle's size.
    real = geom_mod.anchored_metrics

    def wrong_area(ops, *coords):
        return real(ops, *coords)._replace(area=1.1 * real(ops, *coords).area)

    monkeypatch.setattr(geom_mod, "anchored_metrics", wrong_area)
    t = Triangle(Point2(0.0, 0.0), Point2(4.0 * scale, 0.0), Point2(0.0, 3.0 * scale))
    assert identity_report(t).first_failing == "area_increment"


def test_report_is_frozen(t345):
    report = identity_report(t345)
    with pytest.raises(Exception):
        report.passed = False


# ---------------------------------------------------------------------------
# the bound holds wherever binary64 can judge: PASS or too thin, never FAIL
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    ang_b=st.floats(1e-6, math.pi - 2e-6),
    share=st.floats(0.0, 1.0),
    right=st.booleans(),
    turn=st.floats(0.0, 2.0 * math.pi),
    size_decade=st.floats(-3.0, 3.0),
    offset_decade=st.floats(-1.0, 8.0),
    offset_turn=st.floats(0.0, 2.0 * math.pi),
)
def test_valid_triangle_passes_or_is_too_thin(ang_b, share, right, turn, size_decade,
                                             offset_decade, offset_turn):
    # Gamma anywhere in [1e-6, pi - B - 1e-6], or pi/2 - B for a right angle
    # A: every angle is at least 1e-6 rad.  The triangle is rotated by turn
    # and moved up to 1e8 sizes away, which leaves some right angles A a few
    # ulps off pi/2.
    if right:
        ang_b = 1e-6 + share * (0.5 * math.pi - 2e-6)
        ang_g = 0.5 * math.pi - ang_b
    else:
        ang_g = 1e-6 + share * (math.pi - ang_b - 2e-6)
    size = 10.0**size_decade
    t = triangle_from_angles(ang_b, ang_g, size)
    c, s = math.cos(turn), math.sin(turn)
    offset = size * 10.0**offset_decade
    ox, oy = offset * math.cos(offset_turn), offset * math.sin(offset_turn)
    moved = Triangle(*(Point2(ox + c * p.x - s * p.y, oy + s * p.x + c * p.y)
                       for p in (t.a, t.b, t.g)))
    try:
        report = identity_report(moved)
    except GeometryError as exc:
        assert "too thin" in str(exc)
        return
    assert report.passed, (report.first_failing, report.smallest_angle)
