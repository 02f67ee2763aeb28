"""Seeded triangle corpora: determinism, strata, floors, canonical layout."""

import math

import numpy as np
import pytest

from perptri import construction
from perptri.geom import Point2
from perptri.sampling import (
    DELTA_MAIN,
    DELTA_STRESS,
    SCALE_DECADES,
    STRATA,
    TriangleCorpus,
    concat_corpora,
    sample_corpus,
    triangle_from_angles,
)

HALF_PI = 0.5 * math.pi


def test_triangle_from_angles_layout():
    # Base angles 45/45 leave 90 degrees at A, so Gamma sits straight up.
    t = triangle_from_angles(math.pi / 4.0, math.pi / 4.0, 2.0)
    assert t.a == Point2(0.0, 0.0)
    assert t.b == Point2(2.0, 0.0)
    assert t.g.x == pytest.approx(0.0, abs=1e-14)
    assert t.g.y == pytest.approx(2.0, abs=1e-14)


def test_triangle_from_angles_equilateral():
    t = triangle_from_angles(math.pi / 3.0, math.pi / 3.0, 1.0)
    assert t.g.x == pytest.approx(0.5, abs=1e-14)
    assert t.g.y == pytest.approx(0.5 * math.sqrt(3.0), abs=1e-14)


@pytest.mark.parametrize(
    "ang_b, ang_g, scale",
    [
        (-0.1, 1.0, 1.0),
        (1.0, 0.0, 1.0),
        (2.0, 2.0, 1.0),          # angles leave no room for A
        (1.0, 1.0, 0.0),
        (1.0, 1.0, -3.0),
        (1.0, 1.0, math.inf),
    ],
)
def test_triangle_from_angles_rejects(ang_b, ang_g, scale):
    with pytest.raises(ValueError):
        triangle_from_angles(ang_b, ang_g, scale)


def test_same_seed_same_corpus():
    c1 = sample_corpus(100, seed=42)
    c2 = sample_corpus(100, seed=42)
    assert np.array_equal(c1.ang_b, c2.ang_b)
    assert np.array_equal(c1.ang_g, c2.ang_g)
    assert np.array_equal(c1.scale, c2.scale)


def test_different_seeds_differ():
    c1 = sample_corpus(100, seed=1)
    c2 = sample_corpus(100, seed=2)
    assert not np.array_equal(c1.ang_b, c2.ang_b)


def test_composite_seeds_are_distinct_streams():
    c1 = sample_corpus(50, seed=[7, 0])
    c2 = sample_corpus(50, seed=[7, 1])
    assert not np.array_equal(c1.ang_b, c2.ang_b)


def test_scale_stream_is_stratum_independent():
    # Scales are drawn before the angle stream, so switching stratum (which
    # may reject and redraw angles) never shifts them.
    scales = [sample_corpus(80, seed=11, stratum=s).scale for s in STRATA]
    for other in scales[1:]:
        assert np.array_equal(scales[0], other)


def test_scale_range():
    c = sample_corpus(500, seed=3)
    lo, hi = SCALE_DECADES
    assert float(c.scale.min()) >= 10.0**lo
    assert float(c.scale.max()) <= 10.0**hi


def test_angle_floor_main():
    c = sample_corpus(1000, seed=5)
    assert float(c.ang_b.min()) >= DELTA_MAIN
    assert float(c.ang_g.min()) >= DELTA_MAIN
    assert float(c.ang_a.min()) >= DELTA_MAIN - 1e-12


def test_angle_floor_stress():
    c = sample_corpus(1000, seed=5, delta=DELTA_STRESS)
    assert float(c.ang_b.min()) >= DELTA_STRESS
    assert float(np.min(c.ang_a)) >= DELTA_STRESS - 1e-12
    # the sliver floor reaches angles the default floor cannot
    assert float(np.min([c.ang_b.min(), c.ang_g.min(), c.ang_a.min()])) < DELTA_MAIN


def test_acute_stratum():
    c = sample_corpus(300, seed=9, stratum="acute")
    assert bool(np.all(c.ang_a < HALF_PI))


def test_obtuse_stratum():
    c = sample_corpus(300, seed=9, stratum="obtuse")
    assert bool(np.all(c.ang_a > HALF_PI))


@pytest.mark.parametrize("stratum", ["acute", "obtuse"])
def test_strata_follow_angle_cases(stratum, monkeypatch):
    # The strata select by construction.angle_cases, so a wider right band
    # (patched here) keeps both strata clear of it, as it would the sweep's
    # case counts.
    monkeypatch.setattr(construction, "CASE_BAND", 0.3)
    c = sample_corpus(300, seed=9, stratum=stratum)
    assert float(np.min(np.abs(c.ang_a - HALF_PI))) >= 0.3
    acute, right, obtuse = construction.angle_cases(c.ang_a)
    assert bool(np.all(acute if stratum == "acute" else obtuse))


def test_right_stratum():
    c = sample_corpus(300, seed=9, stratum="right")
    assert float(np.max(np.abs(c.ang_a - HALF_PI))) < 1e-12
    assert float(c.ang_b.min()) >= DELTA_MAIN
    assert float(c.ang_b.max()) <= HALF_PI - DELTA_MAIN


def test_unknown_stratum_raises():
    with pytest.raises(ValueError):
        sample_corpus(10, seed=0, stratum="equilateral")


def test_vertex_arrays_match_scalar_triangles():
    c = sample_corpus(25, seed=13)
    bx, gx, gy = c.vertex_arrays()
    for i in range(len(c)):
        t = c.triangle(i)
        assert t.a == Point2(0.0, 0.0)
        assert t.b.x == pytest.approx(float(bx[i]), rel=1e-15)
        assert t.g.x == pytest.approx(float(gx[i]), rel=1e-12, abs=1e-12)
        assert t.g.y == pytest.approx(float(gy[i]), rel=1e-12)
        assert t.g.y > 0.0  # canonical layout is always counterclockwise


def test_concat_corpora():
    c1 = sample_corpus(10, seed=1)
    c2 = sample_corpus(15, seed=2)
    merged = concat_corpora(c1, c2)
    assert len(merged) == 25
    assert np.array_equal(merged.ang_b[:10], c1.ang_b)
    assert np.array_equal(merged.scale[10:], c2.scale)


def test_empty_corpus():
    c = sample_corpus(0, seed=0)
    assert len(c) == 0
    assert isinstance(c, TriangleCorpus)


def test_simplex_coverage_spans_cases():
    # The raw simplex draw should produce both acute and obtuse A in any
    # reasonably sized sample.
    c = sample_corpus(500, seed=17)
    acute = int(np.count_nonzero(c.ang_a < HALF_PI))
    assert 0 < acute < 500
