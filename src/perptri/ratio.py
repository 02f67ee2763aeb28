"""The identity chain behind the area ratio: one kernel, its residuals, one bound.

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

Ten residuals are geometric evidence: each compares two routes (through the
derived triangle, the angles' cotangents, the sides or the five areas) that
a wrong geometry would set apart.  Two check only the binary64 arithmetic
of a polynomial identity, kept as steps of the paper's derivation:
`squared_sum_expansion` holds for any three squared sides, and `chain_sum`
equals `area_quadratic` up to a polynomial that is identically 0.

Every residual is judged against one bound taken from the triangle's
conditioning, C * eps / theta**2 (`residual_bound`), with eps = 2**-52,
theta the smallest angle and C = `BOUND_CONSTANT`, set from measured
residuals.  `smallest_angle` finds theta and `within_bound` is the one
predicate; `identity_report` and the sweep both call them.  `judged_bound`
is the one thinness rule of the scalar path: where the bound reaches 1
(theta below about 1.2e-7 rad) binary64 can confirm nothing, and it raises
GeometryError before any angle is read.

`identity_chain` is the one implementation of the chain, and `area_routes`
the one body of the five area routes, which the chain and `perptri metrics`
call.  The chain takes B and Gamma in a frame anchored at vertex A and the
metrics measured there, so that residuals depend on a triangle's shape, not
its position or size.  `identity_report` runs it on one triangle's stored
frame and metrics, and `sweep._reduce_chunk` on each chunk's frame arrays
and metrics, which it hands over in a list the chain empties, keeping only
reductions of the per-triangle arrays.  The input's type picks the
elementary functions: a float (a numpy float64 is one) takes `geom.MATH`,
anything else, in practice an array, takes `geom.NUMPY`.  Neither serves
the other's input: the chain on one triangle costs about 10 us through
`math`, 50 us through numpy ufuncs on floats and 150 us as a numpy batch of
one (2-core Xeon, Python 3.11, numpy 2.4), where 2**14 triangles as arrays
take about 7 ms, three tenths of it in the six cos and sin calls of
`geom.angle_trig`.  Only `geom.NUMPY` imports numpy, on its first access,
so `perptri verify` and `metrics`, which work on one triangle, never load
it.  The cotangents and the derived triangle come from `geom`, which
`construct` shares.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from . import geom
from .errors import GeometryError
from .geom import (
    MATH,
    Ops,
    Triangle,
    TriangleMetrics,
    angle_trig,
    classify_angle,
    derived_triangle,
)

#: Every residual the chain produces, in the order in which sub-identities are
#: blamed when something fails: the chain links first, then the aggregate forms
#: they feed.  area_agreement, the relative spread of five area routes, comes
#: last.  Reports and sweeps list residuals in this order.
CHECK_ORDER: tuple[str, ...] = (
    "area_increment",
    "sixteen_area_sq",
    "cot_term_a",
    "cot_term_g",
    "cot_term_b",
    "squared_sum_expansion",
    "chain_sum",
    "area_quadratic",
    "half_angle_cots",
    "area_from_cots",
    "area_ratio",
    "area_agreement",
)

#: C of the one bound C * eps / theta**2 that judges every residual: the least
#: power of two at least 8 times the largest measured residual / (eps /
#: theta**2).  It was set on angles taken by acos of the law of cosines, before
#: commit 45163bd: 5.97 over 10**7 sampled triangles, half at each of the
#: sampler's floors 0.01 and 1e-4 (arrays), and 5.5 over 7 * 10**5 triangles
#: rotated and moved up to 10**8 sizes away, many of them right, with angles
#: down to 1e-6 (floats); over 10**5 right triangles of the sampler's right
#: stratum, moved likewise, 4.75.  With today's atan2 angles, 2 * 10**5
#: triangles at each floor (seeds 46 and 47) reach 4.85 and 4.94.  C stays 64
#: until it is refitted on a new table.
BOUND_CONSTANT = 64.0


def smallest_angle(ops: Ops, m: TriangleMetrics):
    """theta, the smallest angle of one triangle's metrics (floats, ops = MATH) or many (arrays)."""
    return ops.min(m.ang_a, m.ang_b, m.ang_g)


def residual_bound(theta):
    """C * eps / theta**2: the most error a residual may carry.

    theta comes from `smallest_angle`, a float or an array.  The smaller
    theta, the worse the triangle is conditioned: its cotangents and side
    differences lose digits as 1/theta and the residuals, products of them, as
    1/theta**2 (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    ch. 1-3).  A float theta whose square is 0 gives inf, as an array does.
    """
    try:
        return BOUND_CONSTANT * sys.float_info.epsilon / (theta * theta)
    except ZeroDivisionError:
        return math.inf


def within_bound(residual, bound):
    """Whether residual <= bound < 1, for floats or arrays alike.

    A NaN residual or bound is never within.  Where the bound reaches 1
    binary64 can confirm nothing, so no residual is within it.
    """
    return (residual <= bound) & (bound < 1.0)


def _norm(lhs, rhs):
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _term_norm(vmax, lhs, two_w2, p2, q2, r2):
    """lhs = rhs = two_w2 (p2 + q2 - r2): the residual, scaled by the dominant monomial, and rhs.

    Both sides can cancel to roundoff of the monomials (near a right angle,
    where the cotangent is roundoff-sized), so the honest scale is the
    largest term entering the identity, not the nearly zero difference.
    """
    rhs = two_w2 * (p2 + q2 - r2)
    # The largest term, one product at a time, as vmax would take it of all four.
    dominant = vmax(vmax(vmax(abs(lhs), two_w2 * p2), two_w2 * q2), two_w2 * r2)
    return abs(lhs - rhs) / (1.0 + dominant), rhs


class IdentityChain(namedtuple("IdentityChain", "areas residuals cot_sum ratio_geometric")):
    """The chain on one triangle (floats) or many (arrays); residuals in CHECK_ORDER.

    areas holds the five area routes by name (`area_routes`): the shoelace
    reference, Heron, the squared-side polynomial, the cotangent formula and
    half the sine product.  cot_sum and ratio_geometric are floats or arrays,
    as the coordinates are.
    """

    __slots__ = ()


def cot_sum(ops: Ops, m: TriangleMetrics):
    """cot A + cot B + cot Gamma of metrics m, summed as the chain sums its three cotangents."""
    return angle_trig(ops, m.ang_a)[0] + angle_trig(ops, m.ang_b)[0] + angle_trig(ops, m.ang_g)[0]


def side_squares(m: TriangleMetrics) -> tuple:
    """(a2, b2, g2, sum_sq, pairs, quads, sixteen) of one triangle's metrics m or many.

    The squared sides, their sum, the sums of their pairwise products and of
    their squares, and 2 pairs - quads, the polynomial for 16 E**2: what the
    chain and `area_routes` read.  A plain tuple, as it is built on every
    `perptri verify`.
    """
    a2, b2, g2 = m.alpha * m.alpha, m.beta * m.beta, m.gamma * m.gamma
    pairs = a2 * b2 + b2 * g2 + g2 * a2
    quads = a2 * a2 + b2 * b2 + g2 * g2
    return a2, b2, g2, a2 + b2 + g2, pairs, quads, 2.0 * pairs - quads


def area_routes(ops: Ops, m: TriangleMetrics, sq: tuple, csum, sin_a) -> dict:
    """The five area routes of frame metrics m by name, for one triangle's floats or arrays.

    The shoelace reference (m.area), Heron's radical, the squared-side
    polynomial for 16 E**2 (read as 0 where it rounds below 0), the
    cotangent formula for the cot sum csum (`cot_sum`) and half the sine
    product for sin A (`geom.angle_trig`).  sq is `side_squares(m)` and ops
    is `geom.MATH` for floats, `geom.NUMPY` for arrays.  The chain passes the
    squares, cot sum and sine it holds, so a sweep's chunk computes each once.
    """
    alpha, beta, gamma, s = m.alpha, m.beta, m.gamma, m.s
    _, _, _, sum_sq, _, _, sixteen = sq
    return {
        "shoelace": m.area,
        "heron": ops.sqrt(s * (s - alpha) * (s - beta) * (s - gamma)),
        "sixteen_sq_poly": ops.sqrt(ops.max(sixteen, 0.0)) / 4.0,
        "cot_formula": sum_sq / (4.0 * csum),
        "sine_formula": 0.5 * beta * gamma * sin_a,
    }


def identity_chain(inputs: list) -> IdentityChain:
    """The identity chain at phi = pi/2 for B and Gamma in a frame (`geom.frame`).

    inputs is the list [bx, by, gx, gy, m]: four coordinates, floats or
    arrays, and m their `geom.anchored_metrics` (`Triangle.frame_metrics`).
    The chain takes them out and empties the list, so that a caller that
    keeps no other reference to them hands them over: each array then dies
    at its last use here, and a sweep's chunk never holds the frame, the
    metrics and the chain's intermediates at once.  Passed as arguments
    they could not be freed before the call returns, since Python 3.10
    keeps a call's arguments on the caller's stack until then.  Every
    result is in the frame's units.  It divides by sines and by each s - x,
    so it needs a triangle `judged_bound` accepts: a thinner one's floats
    may divide by zero, and its arrays carry inf or NaN.
    """
    bx, by, gx, gy, m = inputs
    inputs.clear()
    ops = MATH if isinstance(bx, float) else geom.NUMPY
    sqrt, vmax, vmin = ops.sqrt, ops.max, ops.min
    area = m.area

    # The geometric route first, so that the frame is freed before the
    # formula route builds its arrays; keeping only the area frees the
    # derived vertices.
    area_derived = derived_triangle(bx, by, gx, gy, 0.0, 1.0)[1]
    del bx, by, gx, gy
    ratio_geometric = area_derived / area

    cot_a, half_cot_a, sin_a = angle_trig(ops, m.ang_a)
    cot_b, half_cot_b = angle_trig(ops, m.ang_b)[:2]
    cot_g, half_cot_g = angle_trig(ops, m.ang_g)[:2]
    csum = cot_a + cot_b + cot_g

    # half_angle_cots is taken before the side squares, so that a chunk of
    # the sweep frees the half-angle cotangents and s - x before the other
    # links build theirs.
    s = m.s
    fa, fb, fg = s - m.alpha, s - m.beta, s - m.gamma
    half_angle_cots = vmax(
        _norm(sqrt(s * fa / (fb * fg)), half_cot_a),
        _norm(sqrt(s * fb / (fa * fg)), half_cot_b),
        _norm(sqrt(s * fg / (fa * fb)), half_cot_g),
    )
    del half_cot_a, half_cot_b, half_cot_g, fa, fb, fg, s

    sq = side_squares(m)
    a2, b2, g2, sum_sq, pairs, quads, sixteen = sq
    areas = area_routes(ops, m, sq, csum, sin_a)
    # The metrics' last use: the sides, s and the angles die with m.
    del m, sq, sin_a

    # Residuals in CHECK_ORDER.  Each intermediate is deleted at its last
    # use, so that a chunk of the sweep never holds them all at once.
    cot_side_sum = g2 * cot_a + b2 * cot_g + a2 * cot_b
    eight_area, sixteen_area_sq, sum_sq_sq = 8.0 * area, 16.0 * area * area, sum_sq * sum_sq
    del sum_sq
    residuals = {
        "area_increment": _norm(area_derived, area + 0.5 * cot_side_sum),
        "sixteen_area_sq": _norm(sixteen, sixteen_area_sq),
    }
    quadratic_lhs = sixteen_area_sq + eight_area * cot_side_sum - sum_sq_sq
    del area_derived, cot_side_sum, sixteen_area_sq
    # Each cot term's right side joins the chain's sum, and is deleted, as
    # soon as it is made, so that one of them is held at a time.
    residuals["cot_term_a"], term_rhs = _term_norm(vmax, eight_area * g2 * cot_a, 2.0 * g2,
                                                   b2, g2, a2)
    chain_rhs = sixteen + term_rhs
    del term_rhs, cot_a, sixteen
    residuals["cot_term_g"], term_rhs = _term_norm(vmax, eight_area * b2 * cot_g, 2.0 * b2,
                                                   a2, b2, g2)
    chain_rhs = chain_rhs + term_rhs
    del term_rhs, cot_g
    residuals["cot_term_b"], term_rhs = _term_norm(vmax, eight_area * a2 * cot_b, 2.0 * a2,
                                                   g2, a2, b2)
    chain_rhs = chain_rhs + term_rhs - 2.0 * pairs - quads
    del term_rhs, cot_b, eight_area, a2, b2, g2
    residuals["squared_sum_expansion"] = (abs(-sum_sq_sq - (-2.0 * pairs - quads))
                                          / (1.0 + sum_sq_sq))
    del pairs, quads
    residuals["chain_sum"] = abs(quadratic_lhs - chain_rhs) / sum_sq_sq
    del chain_rhs
    residuals["area_quadratic"] = abs(quadratic_lhs) / sum_sq_sq
    del quadratic_lhs, sum_sq_sq
    residuals["half_angle_cots"] = half_angle_cots
    residuals["area_from_cots"] = _norm(areas["cot_formula"], area)
    ratio_formula = csum * csum
    residuals["area_ratio"] = abs(ratio_geometric - ratio_formula) / (1.0 + ratio_formula)
    del ratio_formula
    largest_area = vmax(*areas.values())
    residuals["area_agreement"] = (largest_area - vmin(*areas.values())) / largest_area

    return IdentityChain(
        areas=areas,
        residuals=residuals,
        cot_sum=csum,
        ratio_geometric=ratio_geometric,
    )


class VerifyReport(namedtuple("VerifyReport", "case smallest_angle bound residuals within")):
    """One triangle's residuals, each judged against the one bound.

    case is the triangle's `geom.AngleCase`, smallest_angle is theta
    (`smallest_angle`) and bound is the residual_bound it gives; residuals
    maps each name of CHECK_ORDER to its value, and within tells for each
    whether it is within the bound (a NaN never is).  The triangle's own
    measurements stay on the triangle, as `Triangle.frame_metrics`.
    """

    __slots__ = ()

    @property
    def first_failing(self) -> str | None:
        """The earliest entry of CHECK_ORDER not within the bound, None if all are.

        That is the link of the identity chain to suspect first.
        """
        return next((name for name in CHECK_ORDER if not self.within[name]), None)

    @property
    def passed(self) -> bool:
        return self.first_failing is None


def judged_bound(m: TriangleMetrics) -> tuple[float, float]:
    """theta and its residual_bound for `Triangle.frame_metrics` m, if the bound is below 1.

    Else GeometryError names both: the triangle is too thin to
    judge.  Past it no angle is 0 and s - x >= s theta**2 / 4 >= 16 s eps.
    """
    theta = smallest_angle(MATH, m)
    bound = residual_bound(theta)
    if not bound < 1.0:
        raise GeometryError(
            f"smallest angle {theta!r} rad is too thin to verify in binary64: "
            f"the bound {BOUND_CONSTANT:g} eps/theta^2 = {bound:.3g} reaches 1"
        )
    return theta, bound


def identity_report(t: Triangle) -> VerifyReport:
    """Every identity residual of t, judged against its bound (`judged_bound`, first)."""
    m = t.frame_metrics
    theta, bound = judged_bound(m)
    residuals = identity_chain([*t.frame[1:], m]).residuals
    return VerifyReport(
        case=classify_angle(m.ang_a),
        smallest_angle=theta,
        bound=bound,
        residuals=residuals,
        within={name: within_bound(residuals[name], bound) for name in CHECK_ORDER},
    )
