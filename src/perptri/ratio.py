"""The identity chain behind the area ratio: one kernel, residuals, tolerances.

The headline claim is

    E' / E = (cot A + cot B + cot Gamma)^2        (at phi = pi/2)

where E' is the derived-triangle area.  It rests on a small chain of
intermediate identities, each checkable on its own:

  * increment:    E' = E + (gamma^2 cot A + beta^2 cot Gamma + alpha^2 cot B)/2
  * quadratic:    16 E^2 + 8 E (gamma^2 cot A + beta^2 cot Gamma
                  + alpha^2 cot B) - (alpha^2+beta^2+gamma^2)^2 = 0
  * three cot-term identities such as 8 E gamma^2 cot A = 2 gamma^2
    (beta^2 + gamma^2 - alpha^2), which eliminate the cotangents
  * the polynomial expansion of -(alpha^2+beta^2+gamma^2)^2
  * a membership sum: adding the five component identities reproduces the
    quadratic one, which is how the closed form falls out.

Every residual is normalized as |lhs - rhs| / (1 + |rhs|) (or by the stated
dominant term).  The chain runs in the triangle's frame (`geom.frame`), where
the largest coordinate lies in [0.5, 1), so the "1" is of the triangle's own
size and every residual, hence every verdict, is the same for a triangle and
each of its 2**k-scaled copies, anywhere in binary64 range.  Checking every
link separately localizes a failure to the first broken one.

`identity_chain` is the one implementation of the chain.  It takes B and
Gamma in a frame anchored at vertex A, so that residuals depend on a
triangle's shape, not its position or size.  `identity_report` runs it on
one triangle's stored frame and `sweep.evaluate_corpus` on the frame arrays
of each chunk of a corpus, keeping only reductions of the per-triangle
arrays.  The input's type picks the elementary
functions: a float (a numpy float64 is one) takes `geom.MATH`, anything else,
in practice an array, takes `geom.NUMPY`.  Neither serves the other's input:
one triangle costs about 20 us through `math`, 100 us through numpy ufuncs on
floats and 210 us as a numpy batch of one (2-core Xeon, Python 3.11, numpy
2.4), where 2**14 triangles as arrays take about 11 ms.  Only `geom.NUMPY`
imports numpy, on its first access, so the chain of one triangle, as
`perptri verify` and `metrics` run it, never loads it.  The metrics and the cotangent
come from `geom`, which `construct` and `similarity_check` share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import geom
from .construction import AngleCase, classify_angle
from .errors import NotATriangleError
from .geom import (
    MATH,
    Triangle,
    TriangleMetrics,
    anchored_metrics,
    cot,
    derived_vertices,
)

if TYPE_CHECKING:
    import numpy as np

#: Strict (main-tier) tolerance per named residual, in the order in which
#: sub-identities are blamed when something fails: the chain links first, then
#: the aggregate forms they feed.  area_agreement, the relative spread of five
#: area routes, comes last at the bound acceptance check 4 pins.
STRICT_TOLERANCES: dict[str, float] = {
    "area_increment": 1e-9,
    "sixteen_area_sq": 1e-10,
    "cot_term_a": 1e-9,
    "cot_term_g": 1e-9,
    "cot_term_b": 1e-9,
    "squared_sum_expansion": 1e-12,
    "chain_sum": 1e-9,
    "area_quadratic": 1e-9,
    "half_angle_cots": 1e-9,
    "area_from_cots": 1e-9,
    "area_ratio": 1e-8,
    "area_agreement": 1e-8,
}

#: Every residual the chain produces, in blame order; reports and sweeps list
#: residuals in this order.
CHECK_ORDER: tuple[str, ...] = tuple(STRICT_TOLERANCES)

#: Relaxed tolerance applied uniformly to sliver triangles (see STRESS_MIN_ANGLE).
STRESS_TOLERANCE = 1e-5

#: Triangles whose smallest internal angle is below this (radians) are flagged
#: "stress": residuals are still reported but judged at the relaxed tier.
STRESS_MIN_ANGLE = 0.02


def _norm(lhs, rhs):
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _term_norm(vmax, lhs, rhs, w2, p2, q2, r2):
    """Residual of lhs = rhs = 2 w2 (p2 + q2 - r2), scaled by the dominant monomial.

    Both sides can cancel to roundoff of the monomials (exactly so near a
    right angle, where the cotangent zero-band zeroes the left side), so the
    honest scale is the largest term entering the identity, not the nearly
    zero difference.
    """
    dominant = vmax(abs(lhs), 2.0 * w2 * p2, 2.0 * w2 * q2, 2.0 * w2 * r2)
    return abs(lhs - rhs) / (1.0 + dominant)


@dataclass(frozen=True)
class IdentityChain:
    """The chain on one triangle (floats) or many (arrays); residuals in CHECK_ORDER.

    areas holds the five area routes by name: the shoelace reference, Heron,
    the squared-side polynomial, the cotangent formula and half the sine
    product.
    """

    metrics: TriangleMetrics
    areas: dict
    residuals: dict
    cot_sum: float | np.ndarray
    ratio_geometric: float | np.ndarray


def identity_chain(bx, by, gx, gy) -> IdentityChain:
    """The identity chain at phi = pi/2 for B and Gamma in a frame (`geom.frame`).

    The coordinates are four floats or four arrays; every result is in the
    frame's units.  A float triangle the chain cannot evaluate (a computed
    angle of 0, a half-angle radicand <= 0) raises a GeometryError before the
    division it would break; arrays carry inf or NaN for such triangles
    instead.
    """
    ops = MATH if isinstance(bx, float) else geom.NUMPY
    hypot, sin, sqrt, vmax, vmin = ops.hypot, ops.sin, ops.sqrt, ops.max, ops.min

    m = anchored_metrics(ops, bx, by, gx, gy)
    alpha, beta, gamma, ang_a, ang_b, ang_g, s, area = (
        m.alpha, m.beta, m.gamma, m.ang_a, m.ang_b, m.ang_g, m.s, m.area)
    a2, b2, g2 = alpha * alpha, beta * beta, gamma * gamma

    cot_a, cot_b, cot_g = cot(ops, ang_a), cot(ops, ang_b), cot(ops, ang_g)
    csum = cot_a + cot_b + cot_g

    # Geometric route: the perpendicular through B to AB, through Gamma to
    # B-Gamma and through A to Gamma-A, with (cos, sin) of pi/2 exact.
    (apx, apy), (bpx, bpy), (gpx, gpy) = derived_vertices(hypot, bx, by, gx, gy, 0.0, 1.0)
    area_derived = 0.5 * abs((bpx - apx) * (gpy - apy) - (bpy - apy) * (gpx - apx))
    ratio_geometric = area_derived / area
    ratio_formula = csum * csum

    cot_side_sum = g2 * cot_a + b2 * cot_g + a2 * cot_b
    sum_sq = a2 + b2 + g2
    pairs = a2 * b2 + b2 * g2 + g2 * a2
    quads = a2 * a2 + b2 * b2 + g2 * g2
    sixteen = 2.0 * pairs - quads

    term_a_rhs = 2.0 * g2 * (b2 + g2 - a2)
    term_g_rhs = 2.0 * b2 * (a2 + b2 - g2)
    term_b_rhs = 2.0 * a2 * (g2 + a2 - b2)

    quadratic_lhs = 16.0 * area * area + 8.0 * area * cot_side_sum - sum_sq * sum_sq
    chain_rhs = sixteen + term_a_rhs + term_g_rhs + term_b_rhs - 2.0 * pairs - quads

    fa, fb, fg = s - alpha, s - beta, s - gamma
    ops.require(vmin(fa, fb, fg) > 0.0,
            lambda: NotATriangleError("half-angle radicands require a strict triangle"))

    areas = {
        "shoelace": area,
        "heron": sqrt(s * fa * fb * fg),
        "sixteen_sq_poly": sqrt(vmax(sixteen, 0.0)) / 4.0,
        "cot_formula": sum_sq / (4.0 * csum),
        "sine_formula": 0.5 * beta * gamma * sin(ang_a),
    }
    largest_area = vmax(*areas.values())

    residuals = {
        "area_increment": _norm(area_derived, area + 0.5 * cot_side_sum),
        "sixteen_area_sq": _norm(sixteen, 16.0 * area * area),
        "cot_term_a": _term_norm(vmax, 8.0 * area * g2 * cot_a, term_a_rhs, g2, b2, g2, a2),
        "cot_term_g": _term_norm(vmax, 8.0 * area * b2 * cot_g, term_g_rhs, b2, a2, b2, g2),
        "cot_term_b": _term_norm(vmax, 8.0 * area * a2 * cot_b, term_b_rhs, a2, g2, a2, b2),
        "squared_sum_expansion": abs(-(sum_sq * sum_sq) - (-2.0 * pairs - quads))
        / (1.0 + sum_sq * sum_sq),
        "chain_sum": abs(quadratic_lhs - chain_rhs) / (sum_sq * sum_sq),
        "area_quadratic": abs(quadratic_lhs) / (sum_sq * sum_sq),
        "half_angle_cots": vmax(
            _norm(sqrt(s * fa / (fb * fg)), cot(ops, 0.5 * ang_a)),
            _norm(sqrt(s * fb / (fa * fg)), cot(ops, 0.5 * ang_b)),
            _norm(sqrt(s * fg / (fa * fb)), cot(ops, 0.5 * ang_g)),
        ),
        "area_from_cots": _norm(areas["cot_formula"], area),
        "area_ratio": abs(ratio_geometric - ratio_formula) / (1.0 + ratio_formula),
        "area_agreement": (largest_area - vmin(*areas.values())) / largest_area,
    }

    return IdentityChain(
        metrics=m,
        areas=areas,
        residuals=residuals,
        cot_sum=csum,
        ratio_geometric=ratio_geometric,
    )


@dataclass(frozen=True)
class VerifyReport:
    """One triangle's residuals against their tolerances.

    first_failing names the earliest entry of CHECK_ORDER whose residual is
    not within its tolerance (a NaN never is), or None when everything
    passes; that is the link of the identity chain to suspect first.
    frame_metrics are the triangle's metrics in its frame (`geom.metrics`
    gives them in the input's units).
    """

    frame_metrics: TriangleMetrics
    case: AngleCase
    stress: bool
    residuals: dict[str, float]
    tolerances: dict[str, float]
    passed: bool
    first_failing: str | None


def identity_report(t: Triangle) -> VerifyReport:
    """Evaluate every identity residual for one triangle and judge it.

    Sliver triangles (smallest angle below STRESS_MIN_ANGLE) are judged at
    the uniform relaxed tolerance and flagged stress=True, because their
    conditioning legitimately amplifies roundoff.
    """
    _, bx, by, gx, gy = t.frame
    chain = identity_chain(bx, by, gx, gy)
    m, residuals = chain.metrics, chain.residuals

    stress = min(m.ang_a, m.ang_b, m.ang_g) < STRESS_MIN_ANGLE
    if stress:
        tolerances = {name: STRESS_TOLERANCE for name in CHECK_ORDER}
    else:
        tolerances = dict(STRICT_TOLERANCES)

    first_failing = next(
        (name for name in CHECK_ORDER if not residuals[name] <= tolerances[name]), None
    )

    return VerifyReport(
        frame_metrics=m,
        case=classify_angle(m.ang_a),
        stress=stress,
        residuals=residuals,
        tolerances=tolerances,
        passed=first_failing is None,
        first_failing=first_failing,
    )

