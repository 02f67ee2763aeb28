"""The derived triangle built from rotated side lines.

Through vertex B draw the line making angle +phi with side AB; through Gamma
the line at +phi to side B-Gamma; through A the line at +phi to side Gamma-A
(phi = pi/2 gives the three perpendiculars).  The lines pairwise intersect in
a triangle A'B'Gamma' similar to the original with the shifted correspondence

    angle A' = angle B,   angle B' = angle Gamma,   angle Gamma' = angle A,

and at phi = pi/2 the area ratio equals the squared cotangent sum of the
original triangle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import AngleSumError, PhiRangeError
from .geom import (
    MATH,
    Point2,
    Triangle,
    TriangleMetrics,
    anchored_metrics,
    cot,
    derived_vertices,
    signed_area,
)

#: Half-width of the angle-A band classified as right.  Classification feeds
#: rendering and reporting only, never arithmetic.
CASE_BAND = 1e-9

#: Gamma' counts as coinciding with B when their distance is at most this
#: fraction of the longest source side.  Like CASE_BAND, it feeds reporting only.
COINCIDENCE_BAND = 1e-9

#: MATH without the zero-angle guard, for measuring A'B'Gamma'.
_UNGUARDED = MATH._replace(require=lambda ok, error: None)


class AngleCase(enum.Enum):
    """Qualitative picture, determined by angle A."""

    ACUTE = "acute"      # derived triangle strictly contains the original
    RIGHT = "right"      # Gamma' lands exactly on B
    OBTUSE = "obtuse"    # partial overlap; cot A < 0 compensates in the ratio


def angle_cases(ang_a):
    """Masks (acute, right, obtuse) of angle A, a float or an array; NaN is in none."""
    off_right = abs(ang_a - 0.5 * math.pi)
    return (
        (ang_a < 0.5 * math.pi) & (off_right >= CASE_BAND),
        off_right < CASE_BAND,
        (ang_a > 0.5 * math.pi) & (off_right >= CASE_BAND),
    )


def classify_angle(ang_a: float) -> AngleCase:
    """The case of one angle A; a NaN angle, which has none, raises AngleSumError."""
    acute, right, obtuse = angle_cases(ang_a)
    if not (acute or right or obtuse):
        raise AngleSumError(f"angle A {ang_a!r} falls in no case")
    return AngleCase.RIGHT if right else AngleCase.ACUTE if acute else AngleCase.OBTUSE


@dataclass(frozen=True)
class DerivedConstruction:
    """The triangle bounded by three rotated side lines, and both ratio routes.

    metrics are the source's, measured from its vertex A.  ap_rel, bp_rel and
    gp_rel are A', B' and Gamma' relative to that vertex; every measurement
    reads them, so it depends on the triangle's shape, not its position.  ap,
    bp and gp are the same vertices in the source's coordinates, for output.

    ratio_geometric is derived area / source area, both measured by shoelace.
    ratio_formula is (cot A + cot B + cot Gamma)^2; the two are equal exactly
    when phi = pi/2.  For smaller phi only the similarity claim holds and
    ratio_geometric is reported without a closed form.
    """

    source: Triangle
    metrics: TriangleMetrics
    ap_rel: Point2
    bp_rel: Point2
    gp_rel: Point2
    phi: float
    case: AngleCase
    area_derived: float
    ratio_geometric: float
    ratio_formula: float

    @property
    def ap(self) -> Point2:
        return self.ap_rel + self.source.a

    @property
    def bp(self) -> Point2:
        return self.bp_rel + self.source.a

    @property
    def gp(self) -> Point2:
        return self.gp_rel + self.source.a

    @property
    def gamma_prime_on_b(self) -> bool:
        """Whether Gamma' coincides with B (within COINCIDENCE_BAND), as when A is right."""
        return self.gp_rel.dist(self.source.b - self.source.a) <= (
            COINCIDENCE_BAND * self.source.longest_side()
        )


def construct(t: Triangle, phi: float = 0.5 * math.pi) -> DerivedConstruction:
    """Build the derived triangle of t for a rotation angle phi in (0, pi/2].

    Vertex assignment: A' joins the lines anchored at B and Gamma, B' the
    lines at Gamma and A, Gamma' the lines at A and B.  That pairing is what
    puts angle B at A' (it sits between the lines rotated off AB and B-Gamma)
    and what collapses Gamma' onto B when angle A is right.
    """
    if not 0.0 < phi <= 0.5 * math.pi:
        raise PhiRangeError(f"phi must lie in (0, pi/2], got {phi!r}")
    b, g = t.b - t.a, t.g - t.a
    m = anchored_metrics(MATH, b.x, b.y, g.x, g.y)
    rel = derived_vertices(math.hypot, b.x, b.y, g.x, g.y, math.cos(phi), math.sin(phi))
    ap, bp, gp = (Point2(x, y) for x, y in rel)
    area_derived = abs(signed_area(ap, bp, gp))
    total = cot(MATH, m.ang_a) + cot(MATH, m.ang_b) + cot(MATH, m.ang_g)
    return DerivedConstruction(
        source=t,
        metrics=m,
        ap_rel=ap,
        bp_rel=bp,
        gp_rel=gp,
        phi=phi,
        case=classify_angle(m.ang_a),
        area_derived=area_derived,
        ratio_geometric=area_derived / m.area,
        ratio_formula=total * total,
    )


def similarity_check(t: Triangle, d: DerivedConstruction) -> tuple[float, float, float]:
    """Angle discrepancies (|A' - B|, |B' - Gamma|, |Gamma' - A|) in radians.

    All three are zero in exact arithmetic for every phi in (0, pi/2]; the
    construction only shifts which original angle shows up at which derived
    vertex.  A'B'Gamma' is measured by the metrics routine anchored at A' and
    compared with d.metrics, the metrics of t that construct measured.  A
    derived angle that rounds to 0 is a discrepancy to report, not an error.
    """
    ap, bp, gp = d.ap_rel, d.bp_rel, d.gp_rel
    derived = anchored_metrics(_UNGUARDED, bp.x - ap.x, bp.y - ap.y, gp.x - ap.x, gp.y - ap.y)
    m = d.metrics
    return (
        abs(derived.ang_a - m.ang_b),
        abs(derived.ang_b - m.ang_g),
        abs(derived.ang_g - m.ang_a),
    )
