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

from .errors import PhiRangeError
from .geom import (
    Line2,
    Point2,
    Triangle,
    angle_at,
    intersect,
    line_through_at_angle,
    metrics,
    signed_area,
)
from .identities import cot_sum

#: Half-width of the angle-A band classified as right.  Classification feeds
#: rendering and reporting only, never arithmetic.
CASE_BAND = 1e-9

#: Gamma' counts as coinciding with B when their distance is at most this
#: fraction of the longest source side.  Like CASE_BAND, it feeds reporting only.
COINCIDENCE_BAND = 1e-9


class AngleCase(enum.Enum):
    """Qualitative picture, determined by angle A."""

    ACUTE = "acute"      # derived triangle strictly contains the original
    RIGHT = "right"      # Gamma' lands exactly on B
    OBTUSE = "obtuse"    # partial overlap; cot A < 0 compensates in the ratio


def classify_angle(ang_a: float) -> AngleCase:
    if abs(ang_a - 0.5 * math.pi) < CASE_BAND:
        return AngleCase.RIGHT
    return AngleCase.ACUTE if ang_a < 0.5 * math.pi else AngleCase.OBTUSE


@dataclass(frozen=True)
class DerivedConstruction:
    """Three rotated side lines, the triangle they bound, and both ratio routes.

    ratio_geometric is derived area / source area, both measured by shoelace.
    ratio_formula is (cot A + cot B + cot Gamma)^2; the two are equal exactly
    when phi = pi/2.  For smaller phi only the similarity claim holds and
    ratio_geometric is reported without a closed form.
    """

    source: Triangle
    line_ab: Line2
    line_bg: Line2
    line_ga: Line2
    ap: Point2
    bp: Point2
    gp: Point2
    phi: float
    case: AngleCase
    area_derived: float
    ratio_geometric: float
    ratio_formula: float

    @property
    def gamma_prime_on_b(self) -> bool:
        """Whether Gamma' coincides with B (within COINCIDENCE_BAND), as when A is right."""
        b = self.source.b
        return math.hypot(self.gp.x - b.x, self.gp.y - b.y) <= (
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
    m = metrics(t)
    line_ab = line_through_at_angle(t.b, t.a, t.b, phi)
    line_bg = line_through_at_angle(t.g, t.b, t.g, phi)
    line_ga = line_through_at_angle(t.a, t.g, t.a, phi)
    ap = intersect(line_ab, line_bg)
    bp = intersect(line_bg, line_ga)
    gp = intersect(line_ga, line_ab)
    area_derived = abs(signed_area(ap, bp, gp))
    total = cot_sum(m.ang_a, m.ang_b, m.ang_g)
    return DerivedConstruction(
        source=t,
        line_ab=line_ab,
        line_bg=line_bg,
        line_ga=line_ga,
        ap=ap,
        bp=bp,
        gp=gp,
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
    vertex.
    """
    m = metrics(t)
    ang_ap = angle_at(d.ap, d.bp, d.gp)
    ang_bp = angle_at(d.bp, d.gp, d.ap)
    ang_gp = angle_at(d.gp, d.ap, d.bp)
    return (
        abs(ang_ap - m.ang_b),
        abs(ang_bp - m.ang_g),
        abs(ang_gp - m.ang_a),
    )
