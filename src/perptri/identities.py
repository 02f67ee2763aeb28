"""Triangle identities: area formulas, half-angle cotangents, cotangent sums.

Each function here is an independent route to a quantity some other route can
cross-check.  Four analytic area formulas are kept deliberately separate from
the geometric (shoelace) area so that agreement between them is evidence, not
tautology.
"""

from __future__ import annotations

import math

from .errors import AngleSumError, NotATriangleError
from .geom import TriangleMetrics

#: Angles within this band of pi/2 report a cotangent of exactly 0.0 (their
#: cosine would otherwise be roundoff noise of either sign).
RIGHT_ANGLE_BAND = 1e-12

#: Tolerated deviation of an angle triple from summing to pi.
ANGLE_SUM_TOL = 1e-9


def cot(x: float) -> float:
    """Cotangent as cos/sin, exactly zero within the right-angle band.

    cos/sin keeps the correct sign through the obtuse branch; 1/tan would
    blow up at pi/2 where the cotangent is merely zero.
    """
    if abs(x - 0.5 * math.pi) < RIGHT_ANGLE_BAND:
        return 0.0
    return math.cos(x) / math.sin(x)


def heron_area(alpha: float, beta: float, gamma: float) -> float:
    """Area from side lengths: sqrt(s (s-alpha) (s-beta) (s-gamma))."""
    s = 0.5 * (alpha + beta + gamma)
    fa, fb, fg = s - alpha, s - beta, s - gamma
    if s <= 0.0 or fa <= 0.0 or fb <= 0.0 or fg <= 0.0:
        raise NotATriangleError(
            f"sides ({alpha}, {beta}, {gamma}) violate the strict triangle inequality"
        )
    return math.sqrt(s * fa * fb * fg)


def sixteen_area_squared(alpha: float, beta: float, gamma: float) -> float:
    """16 * area^2 as a polynomial in the squared sides.

    2(a2 b2 + b2 g2 + g2 a2) - (a2^2 + b2^2 + g2^2); may be <= 0 for side
    triples that bound no triangle -- callers decide what that means.
    """
    a2, b2, g2 = alpha * alpha, beta * beta, gamma * gamma
    return 2.0 * (a2 * b2 + b2 * g2 + g2 * a2) - (a2 * a2 + b2 * b2 + g2 * g2)


def cot_half_angles(m: TriangleMetrics) -> tuple[float, float, float]:
    """Half-angle cotangents in radical form.

    cot(A/2) = sqrt(s (s - alpha) / ((s - beta)(s - gamma))), cyclically.
    Always positive: half-angles of a triangle lie in (0, pi/2).
    """
    fa, fb, fg = m.s - m.alpha, m.s - m.beta, m.s - m.gamma
    if fa <= 0.0 or fb <= 0.0 or fg <= 0.0:
        raise NotATriangleError("half-angle radicands require a strict triangle")
    return (
        math.sqrt(m.s * fa / (fb * fg)),
        math.sqrt(m.s * fb / (fa * fg)),
        math.sqrt(m.s * fg / (fa * fb)),
    )


def cot_sum(ang_a: float, ang_b: float, ang_g: float) -> float:
    """cot A + cot B + cot Gamma for the angles of a valid triangle.

    At most one term is negative (the obtuse angle, if any); the sum itself
    is always >= sqrt(3), with equality only for the equilateral triangle.
    """
    for ang in (ang_a, ang_b, ang_g):
        if not 0.0 < ang < math.pi:
            raise AngleSumError(f"angle {ang!r} outside (0, pi)")
    if abs((ang_a + ang_b + ang_g) - math.pi) > ANGLE_SUM_TOL:
        raise AngleSumError(
            f"angles sum to {ang_a + ang_b + ang_g!r}, not pi"
        )
    return cot(ang_a) + cot(ang_b) + cot(ang_g)


def cot_sum_two_angles(ang_b: float, ang_g: float) -> float:
    """The cotangent sum expressed through two base angles only.

    (cot^2 B + cot B cot G + cot^2 G + 1) / (cot B + cot G), which equals
    cot_sum(pi - B - G, B, G) whenever B and G are both acute.  This is the
    form whose slices (one cotangent held fixed) the extremal module
    minimizes.
    """
    cb, cg = cot(ang_b), cot(ang_g)
    return (cb * cb + cb * cg + cg * cg + 1.0) / (cb + cg)


def area_sine(beta: float, gamma: float, ang_a: float) -> float:
    """Area as half the product of two sides and the sine of their included angle."""
    return 0.5 * beta * gamma * math.sin(ang_a)


def area_from_cots(m: TriangleMetrics) -> float:
    """Area as (alpha^2 + beta^2 + gamma^2) / (4 (cot A + cot B + cot Gamma))."""
    total = cot_sum(m.ang_a, m.ang_b, m.ang_g)
    return (m.alpha**2 + m.beta**2 + m.gamma**2) / (4.0 * total)
