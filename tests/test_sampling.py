"""Seeded triangle corpora: determinism, strata, floors, canonical layout, memory."""

import hashlib
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from perptri import geom
from perptri.errors import GeometryError
from perptri.geom import Point2
from perptri.sampling import (
    DELTA_MAIN,
    DELTA_STRESS,
    SCALE_DECADES,
    STRATA,
    TriangleCorpus,
    canonical_triangle,
    corpus_rows,
    sample_corpus,
    triangle_from_angles,
    triangle_from_sides,
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
    with pytest.raises(GeometryError):
        triangle_from_angles(ang_b, ang_g, scale)


def test_triangle_from_sides_lays_345_out_exactly():
    t = triangle_from_sides(5.0, 3.0, 4.0)
    assert (t.a, t.b, t.g) == (Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(0.0, 3.0))


def test_triangle_from_sides_fits_at_the_top_of_binary64():
    # Unheld, Gamma's y = beta sin A rounds to 1.0 in the frame and overflows
    # when put back at 2**1024.
    big = sys.float_info.max
    t = triangle_from_sides(big, big, 3.82299169072416e296)
    assert t.g.y == big


def thin_and_general_sides(rng: random.Random, n: int):
    """n seeded side triples, in turn a needle, a flat triangle and a general one.

    A needle's small side lies 1e-15 to 1e-1 of the others, a flat triangle's
    long side 1e-14 to 1e-1 short of the sum of the others; each side takes
    each role, and sizes span 10**+-100.  Only triples that keep the strict
    triangle inequality after scaling are given.
    """
    made = 0
    while made < n:
        kind = made % 3
        if kind == 0:
            small = 10.0 ** rng.uniform(-15.0, -1.0)
            sides = [small, 1.0, 1.0 + small * rng.uniform(-0.999, 0.999)]
        elif kind == 1:
            q, r = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
            sides = [(q + r) * (1.0 - 10.0 ** rng.uniform(-14.0, -1.0)), q, r]
        else:
            sides = [rng.uniform(0.01, 1.0) for _ in range(3)]
        rng.shuffle(sides)
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        sides = [side * scale for side in sides]
        if max(sides) < 0.5 * sum(sides):
            made += 1
            yield sides


def test_triangle_from_sides_keeps_thin_sides():
    # An acos of the law of cosines loses digits as 1/A near A = 0 or pi
    # (alpha = 1e-6 would come back 4.4e-5 off); the layout takes none.
    # Measured back, every side must be within 4 eps of the largest (the
    # worst seen is 1.98 eps).
    eps = 2.0 ** -52
    for sides in thin_and_general_sides(random.Random(20), 100_002):
        m = geom.metrics(triangle_from_sides(*sides))
        worst = max(abs(got - want) for got, want in zip((m.alpha, m.beta, m.gamma), sides))
        assert worst <= 4.0 * eps * max(sides), sides


def test_layout_below_the_normal_range_is_refused():
    # Largest coordinate 1e-310: rounded there, Gamma would move off its shape.
    for refuse in (lambda: triangle_from_angles(math.pi / 3.0, math.pi / 3.0, 1e-310),
                   lambda: canonical_triangle(1e-310, 5e-311, 8.66e-311)):
        with pytest.raises(GeometryError, match="^laid out, the triangle's largest coordinate "
                                                "1e-310 is below binary64's normal range"):
            refuse()
    corpus = TriangleCorpus(np.array([math.pi / 3.0]), np.array([math.pi / 3.0]),
                            np.array([1e-310]))
    with pytest.raises(GeometryError, match="^laid out"):
        corpus.triangle(0)
    # The largest coordinate decides: a subnormal Gamma of a normal-size
    # triangle, or a tiny base under a normal-size Gamma, is kept.
    assert canonical_triangle(1.0, 1e-310, 1e-310).g == Point2(1e-310, 1e-310)
    assert canonical_triangle(1e-310, 0.0, 1.0).b == Point2(1e-310, 0.0)


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
    # Scales are drawn before the angle stream, so switching stratum, which
    # changes how the angles are drawn, never shifts them.
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
    # The strata select by geom.angle_cases, so a wider right band (patched
    # here) keeps both strata clear of it, as it would the sweep's case
    # counts.
    monkeypatch.setattr(geom, "CASE_BAND", 0.3)
    c = sample_corpus(300, seed=9, stratum=stratum)
    assert float(np.min(np.abs(c.ang_a - HALF_PI))) >= 0.3
    acute, right, obtuse = geom.angle_cases(c.ang_a)
    assert bool(np.all(acute if stratum == "acute" else obtuse))


def ks_statistic(x, y) -> float:
    """The two-sample Kolmogorov-Smirnov statistic: the largest gap between two empirical CDFs."""
    x, y = np.sort(x), np.sort(y)
    points = np.concatenate([x, y])
    return float(np.max(np.abs(np.searchsorted(x, points, "right") / x.size
                               - np.searchsorted(y, points, "right") / y.size)))


@pytest.mark.parametrize("delta", [DELTA_MAIN, DELTA_STRESS], ids=["main", "stress"])
@pytest.mark.parametrize("stratum", ["acute", "obtuse"])
def test_strata_are_the_simplex_draw_restricted_to_their_case(stratum, delta):
    # Drawn directly, each stratum is uniform on its region of the simplex,
    # as the whole-simplex draw kept to the stratum's case is: B, Gamma and A
    # each pass a two-sample Kolmogorov-Smirnov test at alpha = 0.001.
    whole = sample_corpus(10**6, [23, 0], delta=delta)
    acute, _, obtuse = geom.angle_cases(whole.ang_a)
    kept = acute if stratum == "acute" else obtuse
    drawn = sample_corpus(10**5, [23, 1], stratum, delta=delta)
    for name in ("ang_b", "ang_g", "ang_a"):
        x, y = getattr(drawn, name), getattr(whole, name)[kept]
        limit = 1.95 * math.sqrt((x.size + y.size) / (x.size * y.size))
        assert ks_statistic(x, y) < limit, name


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


# sha256 of ang_b's bytes followed by ang_g's, first 16 hex digits.  The all
# and right corpora were recorded before the sampler drew in place, the acute
# and obtuse ones when those strata began to be drawn directly (the same
# distributions, new draws).  Any rewrite of the sampler (in place, chunked,
# threaded) must reproduce these corpora bit for bit.
CORPUS_DIGESTS = {
    ("all", DELTA_MAIN, 1, 7): "492b6ddf93f954c0",
    ("all", DELTA_MAIN, 1, (7, 3)): "1a90d9ad7963beb5",
    ("all", DELTA_MAIN, 2**14 + 3, 7): "ba591116ed69bbc2",
    ("all", DELTA_MAIN, 2**14 + 3, (7, 3)): "141e90c2817c6968",
    ("all", DELTA_MAIN, 10**5, 7): "963c005c3a96d30b",
    ("all", DELTA_MAIN, 10**5, (7, 3)): "1e4e0b4f8c26589e",
    ("all", DELTA_STRESS, 1, 7): "d8d4b2cb1c48cb35",
    ("all", DELTA_STRESS, 1, (7, 3)): "d8a1751feaf7bdbf",
    ("all", DELTA_STRESS, 2**14 + 3, 7): "1dcd033f65b78925",
    ("all", DELTA_STRESS, 2**14 + 3, (7, 3)): "291b29a91cd0da7c",
    ("all", DELTA_STRESS, 10**5, 7): "1deb414d069d2564",
    ("all", DELTA_STRESS, 10**5, (7, 3)): "f71398c14b0c2693",
    ("acute", DELTA_MAIN, 1, 7): "eda3d4fbbfd66e53",
    ("acute", DELTA_MAIN, 1, (7, 3)): "919e557254bafb0a",
    ("acute", DELTA_MAIN, 2**14 + 3, 7): "468c64b8b7d6655c",
    ("acute", DELTA_MAIN, 2**14 + 3, (7, 3)): "0d4d237cd74f5892",
    ("acute", DELTA_MAIN, 10**5, 7): "2143257346c7a172",
    ("acute", DELTA_MAIN, 10**5, (7, 3)): "ca42d849cde2a2b2",
    ("acute", DELTA_STRESS, 1, 7): "3788a675e2c2ce84",
    ("acute", DELTA_STRESS, 1, (7, 3)): "f287c45364266a03",
    ("acute", DELTA_STRESS, 2**14 + 3, 7): "a76c62766e5ab83c",
    ("acute", DELTA_STRESS, 2**14 + 3, (7, 3)): "ecfa77b458e5b685",
    ("acute", DELTA_STRESS, 10**5, 7): "3ac4b84351355a79",
    ("acute", DELTA_STRESS, 10**5, (7, 3)): "dacad3376980d833",
    ("right", DELTA_MAIN, 1, 7): "da57e13ecf3cfbcb",
    ("right", DELTA_MAIN, 1, (7, 3)): "242eee2e0a1c0556",
    ("right", DELTA_MAIN, 2**14 + 3, 7): "d378eda9247438c4",
    ("right", DELTA_MAIN, 2**14 + 3, (7, 3)): "b2d021b79c4e33a9",
    ("right", DELTA_MAIN, 10**5, 7): "1f7c5a50b353d22b",
    ("right", DELTA_MAIN, 10**5, (7, 3)): "c22af6c92a99c095",
    ("right", DELTA_STRESS, 1, 7): "052575bd649f9870",
    ("right", DELTA_STRESS, 1, (7, 3)): "e269bd2ba731cfe2",
    ("right", DELTA_STRESS, 2**14 + 3, 7): "d22f5e3694219599",
    ("right", DELTA_STRESS, 2**14 + 3, (7, 3)): "d57602e7ee013c21",
    ("right", DELTA_STRESS, 10**5, 7): "b0015915c99c7cb8",
    ("right", DELTA_STRESS, 10**5, (7, 3)): "3dcc5a43f2ef982e",
    ("obtuse", DELTA_MAIN, 1, 7): "0c0d06fbffd03666",
    ("obtuse", DELTA_MAIN, 1, (7, 3)): "ae466ee595bb0c48",
    ("obtuse", DELTA_MAIN, 2**14 + 3, 7): "67d87f3c996256e3",
    ("obtuse", DELTA_MAIN, 2**14 + 3, (7, 3)): "309a7dfe82640a06",
    ("obtuse", DELTA_MAIN, 10**5, 7): "42e84d1a0b32c22e",
    ("obtuse", DELTA_MAIN, 10**5, (7, 3)): "c999976b5864fc3e",
    ("obtuse", DELTA_STRESS, 1, 7): "6e30a7ce1a346b55",
    ("obtuse", DELTA_STRESS, 1, (7, 3)): "75ea6947b4013029",
    ("obtuse", DELTA_STRESS, 2**14 + 3, 7): "00d8913560683f41",
    ("obtuse", DELTA_STRESS, 2**14 + 3, (7, 3)): "8901223b7a5ecb95",
    ("obtuse", DELTA_STRESS, 10**5, 7): "3b1079677dc39fbd",
    ("obtuse", DELTA_STRESS, 10**5, (7, 3)): "7c4e6d2e982b1ac3",
}


@pytest.mark.parametrize(
    "stratum, delta, n, seed",
    CORPUS_DIGESTS,
    ids=[f"{s}-{'main' if d == DELTA_MAIN else 'stress'}-{n}-{seed}"
         for s, d, n, seed in CORPUS_DIGESTS],
)
def test_corpus_is_pinned(stratum, delta, n, seed):
    c = sample_corpus(n, seed, stratum, delta=delta)
    digest = hashlib.sha256(c.ang_b.tobytes() + c.ang_g.tobytes()).hexdigest()
    assert digest[:16] == CORPUS_DIGESTS[stratum, delta, n, seed]
    # The scale stream comes first, ten to the power of the draw.
    assert np.array_equal(c.scale, 10.0 ** np.random.default_rng(seed).uniform(-2, 2, n))


@pytest.mark.parametrize("stratum", STRATA)
@pytest.mark.parametrize("seed", [7, (7, 3)])
def test_rows_drawn_chunk_by_chunk_are_the_corpus(stratum, seed):
    # Chunks drawn on their own, last first, put together are the corpus bit
    # for bit, and leave the shared bit generator where it was.
    n = 1000
    bit_generator = np.random.default_rng(seed).bit_generator
    state = bit_generator.state
    cuts = [0, 1, 333, 334, 999, n]
    chunks = [corpus_rows(bit_generator, n, start, stop, stratum, DELTA_STRESS)
              for start, stop in reversed(list(zip(cuts, cuts[1:])))][::-1]
    assert bit_generator.state == state
    whole = sample_corpus(n, seed, stratum, delta=DELTA_STRESS)
    for field, parts in zip(whole, zip(*chunks)):
        assert np.array_equal(np.concatenate(parts), field)


def test_sampling_peak_memory():
    # With the fold and the shift in place, the sampler holds at its peak the
    # scale exponents, both angle arrays and the fold's sum and mask: 4.125
    # arrays of n floats (5.13 when they made copies).  The first call only
    # keeps numpy.random's lazy import out of the count.
    n = 10**5
    sample_corpus(1, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample_corpus(n, 0, "all")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * 8 * n
