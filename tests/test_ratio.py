"""The identity chain behind the area ratio, and its reporting layer."""

import dataclasses
import math

import pytest

import perptri.ratio as ratio_mod
from perptri.construction import AngleCase
from perptri.geom import metrics
from perptri.geom import Point2, Triangle
from perptri.ratio import (
    CHECK_ORDER,
    STRESS_MIN_ANGLE,
    STRESS_TOLERANCE,
    STRICT_TOLERANCES,
    identity_report,
)
from perptri.sampling import triangle_from_angles

COT_TERMS = ("cot_term_a", "cot_term_g", "cot_term_b")


def residuals(t):
    return identity_report(t).residuals


def test_check_order_covers_all_tolerance_keys():
    assert set(CHECK_ORDER) == set(STRICT_TOLERANCES)


def test_tolerances_are_sane():
    assert all(0.0 < tol < 1.0 for tol in STRICT_TOLERANCES.values())
    assert STRESS_TOLERANCE == 1e-5
    assert 0.0 < STRESS_MIN_ANGLE < 0.1


# ---------------------------------------------------------------------------
# 3-4-5: every link of the chain has small integer values, so each residual
# is checkable against arithmetic done by hand:
#   16 E^2 = 576
#   8 E gamma^2 cot A = 0        = 2*16*(9 + 16 - 25)
#   8 E beta^2  cot G = 324      = 2*9*(25 + 9 - 16)
#   8 E alpha^2 cot B = 1600     = 2*25*(16 + 25 - 9)
# and the quadratic closes: 576 + (0 + 324 + 1600) - 50^2 = 0.
# ---------------------------------------------------------------------------

def test_345_chain_values_are_exact(t345):
    m = metrics(t345)
    assert 16.0 * m.area**2 == 576.0
    side_sum = (
        m.gamma**2 * math.cos(m.ang_a) / math.sin(m.ang_a)
        + m.beta**2 * math.cos(m.ang_g) / math.sin(m.ang_g)
        + m.alpha**2 * math.cos(m.ang_b) / math.sin(m.ang_b)
    )
    assert 8.0 * m.area * side_sum == pytest.approx(1924.0, rel=1e-13)
    assert 576.0 + 1924.0 - 50.0**2 == 0.0


def test_345_residuals_tiny(t345):
    r = residuals(t345)
    assert r["area_ratio"] < 1e-12
    assert r["area_increment"] < 1e-12
    assert r["area_quadratic"] < 1e-12
    assert r["chain_sum"] < 1e-12
    # cot A is an exact zero and so is the opposing polynomial: 25 = 9 + 16
    assert r["cot_term_a"] == 0.0
    assert r["cot_term_g"] < 1e-13
    assert r["cot_term_b"] < 1e-13


def test_squared_sum_expansion_exact_on_integers(t345):
    # -(50)^2 = -2*(144 + 400 + 225) - (81 + 256 + 625), exactly, in float
    assert residuals(t345)["squared_sum_expansion"] == 0.0


def test_residuals_tiny_on_all_cases(t345, equilateral, obtuse_iso):
    for t in (t345, equilateral, obtuse_iso):
        r = residuals(t)
        assert r["area_ratio"] < 1e-12
        assert r["chain_sum"] < 1e-12
        assert max(r[key] for key in COT_TERMS) < 1e-12


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
    assert report.case is AngleCase.RIGHT
    assert report.residuals["area_ratio"] < 1e-14


# ---------------------------------------------------------------------------
# report layer
# ---------------------------------------------------------------------------

def test_report_passes_on_canonical(t345, equilateral, obtuse_iso):
    for t, case in (
        (t345, AngleCase.RIGHT),
        (equilateral, AngleCase.ACUTE),
        (obtuse_iso, AngleCase.OBTUSE),
    ):
        report = identity_report(t)
        assert report.passed
        assert report.first_failing is None
        assert report.case is case
        assert not report.stress
        assert set(report.residuals) == set(CHECK_ORDER)
        assert report.tolerances == STRICT_TOLERANCES


def test_sliver_triangle_uses_stress_tier():
    t = triangle_from_angles(0.005, 1.0, 1.0)
    report = identity_report(t)
    assert report.stress
    assert report.tolerances == {name: STRESS_TOLERANCE for name in CHECK_ORDER}
    assert report.passed


def test_first_failing_respects_check_order(t345, monkeypatch):
    # Poison one strict tolerance: the matching identity gets blamed even
    # though later entries would also "fail" a zero threshold.
    poisoned = dict(STRICT_TOLERANCES)
    poisoned["chain_sum"] = -1.0
    poisoned["area_ratio"] = -1.0
    monkeypatch.setattr(ratio_mod, "STRICT_TOLERANCES", poisoned)
    report = identity_report(t345)
    assert not report.passed
    assert report.first_failing == "chain_sum"


def test_all_failing_blames_first_link(t345, monkeypatch):
    monkeypatch.setattr(
        ratio_mod, "STRICT_TOLERANCES", {name: -1.0 for name in CHECK_ORDER}
    )
    report = identity_report(t345)
    assert report.first_failing == CHECK_ORDER[0]


def test_nan_residual_fails_the_verdict(t345, monkeypatch):
    # A NaN is never within its tolerance: the verdict fails and blames it.
    real = ratio_mod.identity_chain

    def with_nan(*coords):
        chain = real(*coords)
        return dataclasses.replace(chain, residuals={**chain.residuals, "chain_sum": math.nan})

    monkeypatch.setattr(ratio_mod, "identity_chain", with_nan)
    report = identity_report(t345)
    assert not report.passed
    assert report.first_failing == "chain_sum"


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_wrong_area_is_blamed_on_the_first_link_at_any_scale(scale, monkeypatch):
    # Measured in the frame, a shoelace area 10 % too large breaks the
    # increment identity whatever the triangle's size.
    real = ratio_mod.anchored_metrics

    def wrong_area(ops, *coords):
        return dataclasses.replace(real(ops, *coords), area=1.1 * real(ops, *coords).area)

    monkeypatch.setattr(ratio_mod, "anchored_metrics", wrong_area)
    t = Triangle(Point2(0.0, 0.0), Point2(4.0 * scale, 0.0), Point2(0.0, 3.0 * scale))
    assert identity_report(t).first_failing == "area_increment"


def test_report_is_frozen(t345):
    report = identity_report(t345)
    with pytest.raises(Exception):
        report.passed = False
