"""The one frame every measurement is made in, and what it buys: scale invariance.

`geom.frame` puts B and Gamma relative to A and scales them by 2**-exp, which
is exact in binary64.  So a triangle and its exact 2**k-scaled copy share a
frame, and every dimensionless result -- residuals, verdicts, cases, ratios,
similarity discrepancies, the Gamma' offset -- is the same bit for bit.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perptri.cli import ParseError, triangle_from_spec
from perptri.construction import construct, similarity_check
from perptri.geom import (
    MATH,
    NUMPY,
    GeometryError,
    Point2,
    Triangle,
    frame,
    frame_exponent,
    in_units,
)
from perptri.ratio import identity_report

HALF_PI = 0.5 * math.pi


def test_frame_of_345():
    f = frame(MATH, 1.0, 1.0, 5.0, 1.0, 1.0, 4.0)
    assert f == (3, 0.5, 0.0, 0.0, 0.375)


def test_frame_arrays_match_floats():
    rng = np.random.default_rng(5)
    coords = 10.0 ** rng.uniform(-300, 300, (6, 50)) * rng.choice([-1.0, 1.0], (6, 50))
    arrays = frame(NUMPY, *coords)
    for i in range(50):
        assert frame(MATH, *coords[:, i]) == tuple(a[i] for a in arrays)


def test_frame_exponent_rule():
    assert frame_exponent(MATH, 0.5, -0.25) == 0
    assert frame_exponent(MATH, 1.0, 0.0) == 1
    assert frame_exponent(MATH, 3.0, 5.0, 4.0) == 3
    assert frame_exponent(MATH, 0.0, 0.0) == 0
    assert frame_exponent(MATH, 5e-324, 0.0) == -1073


def test_triangle_keeps_its_frame_through_relabeling():
    t = Triangle(Point2(1.0, 1.0), Point2(1.0, 4.0), Point2(5.0, 1.0))  # clockwise
    assert t.b == Point2(5.0, 1.0)
    assert t.frame == frame(MATH, t.a.x, t.a.y, t.b.x, t.b.y, t.g.x, t.g.y)


def test_vertices_too_far_apart_are_rejected():
    with pytest.raises(GeometryError, match="^vertices lie farther apart than binary64"):
        Triangle(Point2(-1e308, 0.0), Point2(1e308, 0.0), Point2(0.0, 1e308))


def test_in_units_is_exact_and_names_what_does_not_fit():
    assert in_units(0.75, 3, "side") == 6.0
    assert in_units(0.0, -2000, "side") == 0.0
    assert in_units(0.5, -1073, "side") == 5e-324  # subnormal, still fits
    with pytest.raises(GeometryError, match="^area does not fit"):
        in_units(0.75, 2000, "area")
    with pytest.raises(GeometryError, match="^area does not fit"):
        in_units(0.75, -2000, "area")
    with pytest.raises(GeometryError, match="^area does not fit"):
        in_units(0.75, -1073, "area")  # 1.5 * 2**-1074: subnormal, but not exact


# ---------------------------------------------------------------------------
# a triangle and its exact 2**k copy, in all three input forms
# ---------------------------------------------------------------------------

def message_form(exc: Exception) -> str:
    """exc's message with each word that holds a digit as #: the same for a 2**k copy."""
    return re.sub(r"\S*\d\S*", "#", str(exc))


def shape_results(t: Triangle, phi: float):
    """Every dimensionless result verify and construct give for t, or the error's form."""
    try:
        report = identity_report(t)
        results = [report.residuals, report.passed, report.first_failing, report.case]
        for angle in (HALF_PI, phi):
            d = construct(t, angle)
            results += [d.ratio_geometric, d.ratio_formula, d.gamma_prime_offset,
                        similarity_check(t, d)]
    except GeometryError as exc:
        return message_form(exc)
    return results


def is_exact_copy(x: float, scaled: float, k: int) -> bool:
    """Whether scaled is x * 2**k exactly, with nothing rounded away."""
    return math.ldexp(x, k) == scaled and math.ldexp(scaled, -k) == x


def check_scaled_copy(doc, scaled_doc, k: int, phi: float) -> None:
    try:
        t = triangle_from_spec(doc)
    except (GeometryError, ParseError) as exc:
        with pytest.raises(type(exc)) as scaled_info:
            triangle_from_spec(scaled_doc)
        assert message_form(scaled_info.value) == message_form(exc)
        return
    copy = triangle_from_spec(scaled_doc)
    # The sides and angles forms round a vertex coordinate that falls below
    # the normal range; such a copy is not exact, and only exact copies are
    # claimed to agree.  These are subnormal coordinates of triangles of
    # normal size (every size here is above 9e-305): a layout whose largest
    # coordinate is subnormal is refused, by `sampling.canonical_triangle`.
    assume(all(is_exact_copy(p.x, q.x, k) and is_exact_copy(p.y, q.y, k)
               for p, q in zip((t.a, t.b, t.g), (copy.a, copy.b, copy.g))))
    assert copy.frame == t.frame._replace(exp=t.frame.exp + k)
    assert shape_results(copy, phi) == shape_results(t, phi)


coords = st.floats(min_value=-1000.0, max_value=1000.0)
lengths = st.floats(min_value=1e-3, max_value=1e3)
exponents = st.integers(min_value=-1000, max_value=1000)
phis = st.floats(min_value=0.0, max_value=HALF_PI, exclude_min=True)


def exact(x: float, k: int) -> float:
    scaled = math.ldexp(x, k)
    assume(is_exact_copy(x, scaled, k))
    return scaled


@given(xy=st.lists(coords, min_size=6, max_size=6), k=exponents, phi=phis)
@settings(max_examples=150, deadline=None)
def test_vertices_form_is_scale_invariant(xy, k, phi):
    def doc(v):
        return {"vertices": {"A": v[0:2], "B": v[2:4], "Gamma": v[4:6]}}

    check_scaled_copy(doc(xy), doc([exact(x, k) for x in xy]), k, phi)


@given(sides=st.lists(lengths, min_size=3, max_size=3), k=exponents, phi=phis)
@settings(max_examples=150, deadline=None)
def test_sides_form_is_scale_invariant(sides, k, phi):
    def doc(s):
        return {"sides": dict(zip(("alpha", "beta", "gamma"), s))}

    check_scaled_copy(doc(sides), doc([exact(s, k) for s in sides]), k, phi)


@given(b_deg=st.floats(min_value=1.0, max_value=178.0),
       g_deg=st.floats(min_value=1.0, max_value=178.0),
       scale=lengths, k=exponents, phi=phis)
@settings(max_examples=150, deadline=None)
def test_angles_form_is_scale_invariant(b_deg, g_deg, scale, k, phi):
    def doc(s):
        return {"angles": {"B_deg": b_deg, "Gamma_deg": g_deg, "scale": s}}

    check_scaled_copy(doc(scale), doc(exact(scale, k)), k, phi)
