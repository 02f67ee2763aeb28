"""The derived triangle built from rotated side lines.

Through vertex B draw the line making angle +phi with side AB; through Gamma
the line at +phi to side B-Gamma; through A the line at +phi to side Gamma-A
(phi = pi/2 gives the three perpendiculars).  The lines pairwise intersect in
a triangle A'B'Gamma' similar to the original with the shifted correspondence

    angle A' = angle B,   angle B' = angle Gamma,   angle Gamma' = angle A,

and at phi = pi/2 the area ratio equals the squared cotangent sum of the
original triangle.
Gamma' lands on B exactly when A = pi - phi, where the line through A runs
along AB; at phi = pi/2 that is the right case.  Both are judged on angle A.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .geom import (
    CASE_BAND,
    MATH,
    GeometryError,
    Point2,
    Triangle,
    anchored_metrics,
    classify_angle,
    derived_triangle,
    in_units,
)
from .ratio import cot_sum, judged_bound


class DerivedConstruction(namedtuple("DerivedConstruction", (
        "source ap_rel bp_rel gp_rel phi case frame_area_derived ratio_geometric "
        "ratio_formula"))):
    """The triangle bounded by three rotated side lines, and both ratio routes.

    Every measurement is made in the source's frame (`Triangle.frame`), so it
    depends on the triangle's shape, not its position or size: ap_rel,
    bp_rel and gp_rel are A', B' and Gamma' relative to A, and
    frame_area_derived is the derived area.  The source's own metrics are
    read from `source.frame_metrics`, never copied.  The properties
    area_derived, ap, bp and gp give the derived quantities in the source's
    units and coordinates, for output; they raise GeometryError when one
    does not fit binary64.

    ratio_geometric is derived area / source area, both measured by shoelace.
    ratio_formula is (cot A + cot B + cot Gamma)^2; the two are equal exactly
    when phi = pi/2.  For smaller phi only the similarity claim holds and
    ratio_geometric is reported without a closed form.
    """

    __slots__ = ()

    @property
    def area_derived(self) -> float:
        return in_units(self.frame_area_derived, 2 * self.source.frame.exp, "derived area")

    def _placed(self, p: Point2, name: str) -> Point2:
        """A frame point in the source's coordinates."""
        exp, a = self.source.frame.exp, self.source.a
        try:
            return Point2(math.ldexp(p.x, exp) + a.x, math.ldexp(p.y, exp) + a.y)
        except (OverflowError, GeometryError):
            raise GeometryError(f"{name} does not fit binary64 in the input's units") from None

    @property
    def ap(self) -> Point2:
        return self._placed(self.ap_rel, "A'")

    @property
    def bp(self) -> Point2:
        return self._placed(self.bp_rel, "B'")

    @property
    def gp(self) -> Point2:
        return self._placed(self.gp_rel, "Gamma'")

    @property
    def gamma_prime_offset(self) -> float:
        """|Gamma' B| over the longest source side; 0 in exact arithmetic when A = pi - phi."""
        f, m = self.source.frame, self.source.frame_metrics
        return self.gp_rel.dist(Point2(f.bx, f.by)) / max(m.alpha, m.beta, m.gamma)

    @property
    def gamma_prime_on_b(self) -> bool:
        """Whether Gamma' is on B: A = pi - phi within CASE_BAND (at pi/2, the right case)."""
        return abs(self.source.frame_metrics.ang_a - (math.pi - self.phi)) < CASE_BAND


def construct(t: Triangle, phi: float = 0.5 * math.pi) -> DerivedConstruction:
    """Build the derived triangle of t for a rotation angle phi in (0, pi/2].

    t's bound is judged first (`ratio.judged_bound`), as for the figure and
    `similarity_check`.  Vertex assignment: A' joins the lines anchored at B
    and Gamma, B' the lines at Gamma and A, Gamma' the lines at A and B.
    That pairing is what puts angle B at A' (it sits between the lines
    rotated off AB and B-Gamma) and what collapses Gamma' onto B when angle
    A is pi - phi.
    """
    judged_bound(t.frame_metrics)
    if not 0.0 < phi <= 0.5 * math.pi:
        raise GeometryError(f"phi must lie in (0, pi/2], got {phi!r}")
    _, bx, by, gx, gy = t.frame
    m = t.frame_metrics
    total = cot_sum(MATH, m)
    # At pi/2 the chain's exact perpendiculars: math.cos(pi / 2) is 6.1e-17, not 0.
    turn = (0.0, 1.0) if phi == 0.5 * math.pi else (math.cos(phi), math.sin(phi))
    rel, area_derived = derived_triangle(bx, by, gx, gy, *turn)
    ap, bp, gp = (Point2(x, y) for x, y in rel)
    return DerivedConstruction(
        source=t,
        ap_rel=ap,
        bp_rel=bp,
        gp_rel=gp,
        phi=phi,
        case=classify_angle(m.ang_a),
        frame_area_derived=area_derived,
        ratio_geometric=area_derived / m.area,
        ratio_formula=total * total,
    )


def similarity_check(t: Triangle, d: DerivedConstruction) -> tuple[float, float, float]:
    """Angle discrepancies (|A' - B|, |B' - Gamma|, |Gamma' - A|) in radians.

    All three are zero in exact arithmetic for every phi in (0, pi/2]; the
    construction only shifts which original angle shows up at which derived
    vertex.  d must be construct(t, phi) for some phi.  A'B'Gamma' is
    measured by the metrics routine anchored at A', in the source's frame,
    and compared with t.frame_metrics, measured when t was made.
    """
    ap, bp, gp = d.ap_rel, d.bp_rel, d.gp_rel
    derived = anchored_metrics(MATH, bp.x - ap.x, bp.y - ap.y, gp.x - ap.x, gp.y - ap.y)
    m = t.frame_metrics
    return (
        abs(derived.ang_a - m.ang_b),
        abs(derived.ang_b - m.ang_g),
        abs(derived.ang_g - m.ang_a),
    )
