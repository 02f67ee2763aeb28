"""Plane geometry primitives: points, triangles, metrics, angle cases, the rotated-line step.

Angles are radians everywhere in the library; degrees exist only at the CLI
boundary.  All arithmetic is plain binary64 floating point -- identities built
on these primitives are verified to tolerance, never symbolically.

Every measurement is made in one frame, which `frame` computes: B and Gamma
relative to A, scaled by the power of two 2**-exp that brings the largest
coordinate into [0.5, 1).  The scaling is exact in binary64, so crosses,
dots and squares of sides neither overflow nor underflow at any size, and
every dimensionless result (angles, cotangents, ratios, residuals, verdicts)
is the same, bit for bit, for a triangle and each of its 2**k-scaled copies.
`Triangle` computes its frame and measures its metrics there, once, and keeps
both for every scalar path to read.  Lengths measured in the frame are converted back to the
input's units, exactly, by `in_units` (lengths times 2**exp, areas times
2**(2 exp)) only where they are printed or returned.

`frame`, `anchored_metrics`, `angle_cases`, `angle_trig` and `derived_triangle`
take floats or numpy arrays; an `Ops` namespace, `MATH` or `NUMPY`, supplies
the elementary functions for either.  `NUMPY` is built, and numpy imported, on
its first access, so code that works on floats never loads numpy.  None of
them judges thinness: every scalar command judges `ratio.judged_bound` first.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple

from .errors import GeometryError

#: The elementary functions the float and array routines use beyond arithmetic
#: operators; max and min are n-ary and elementwise.
Ops = namedtuple("Ops", "hypot atan2 cos sin sqrt frexp ldexp max min")

MATH = Ops(math.hypot, math.atan2, math.cos, math.sin, math.sqrt, math.frexp, math.ldexp, max, min)


def __getattr__(name: str):
    """Build `NUMPY` on first access: numpy is imported only where arrays are made."""
    if name != "NUMPY":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    ops = Ops(np.hypot, np.arctan2, np.cos, np.sin, np.sqrt, np.frexp, np.ldexp,
              lambda *xs: functools.reduce(np.maximum, xs),
              lambda *xs: functools.reduce(np.minimum, xs))
    globals()["NUMPY"] = ops
    return ops


#: B and Gamma relative to A, times 2**-exp (see `frame`).
Frame = namedtuple("Frame", "exp bx by gx gy")


def frame_exponent(ops: Ops, *values):
    """The exp for which the largest |value| times 2**-exp lies in [0.5, 1); 0 for zeros."""
    return ops.frexp(ops.max(*map(abs, values)))[1]


def frame(ops: Ops, ax, ay, bx, by, gx, gy) -> Frame:
    """The frame of the triangle A, B, Gamma: B and Gamma relative to A, scaled by 2**-exp.

    The one place where A is subtracted and the scale is chosen.  Both steps
    are exact unless a difference overflows, so a triangle and its exact
    2**k-scaled copy have the same frame and exps that differ by k.
    """
    bx, by, gx, gy = bx - ax, by - ay, gx - ax, gy - ay
    exp = frame_exponent(ops, bx, by, gx, gy)
    ldexp = ops.ldexp
    return Frame(exp, ldexp(bx, -exp), ldexp(by, -exp), ldexp(gx, -exp), ldexp(gy, -exp))


def in_units(value: float, exp: int, name: str) -> float:
    """value * 2**exp, exactly: a frame length (exp) or area (2 exp) in the input's units.

    Raises GeometryError naming the quantity when the result overflows
    binary64 or is not exact: a non-zero value that underflows to 0, or one
    that loses bits in the subnormal range.
    """
    try:
        result = math.ldexp(value, exp)
    except OverflowError:
        result = math.inf
    if math.isinf(result) or math.ldexp(result, -exp) != value:
        raise GeometryError(f"{name} does not fit binary64 in the input's units")
    return result


def angle_trig(ops: Ops, x):
    """(cot x, cot(x/2), sin x) = (cos x / sin x, (1 + cos x) / sin x, sin x), x in (0, pi).

    x is a float (ops = MATH) or an array (ops = NUMPY).  One cos and one sin
    serve all three: the chain's cotangent, its half-angle cotangent (which
    it compares with the side route sqrt(s (s - a) / ((s - b)(s - c)))) and
    the sine formula's area.  At a computed right angle cot x is the
    cotangent of the angle as rounded, of the size of its roundoff, which the
    residuals carry like any other.  1 + cos x cancels as x nears pi, leaving
    cot(x/2) an absolute error of about eps / (pi - x); since pi - x >=
    2 theta, the bound C eps / theta**2 covers it.  The bound, inf at x = 0,
    keeps the scalar commands from dividing by sin 0; arrays carry inf there.
    """
    cos_x, sin_x = ops.cos(x), ops.sin(x)
    return cos_x / sin_x, (1.0 + cos_x) / sin_x, sin_x


class Point2:
    """A 2-D point with finite coordinates; equal to, and hashed as, another with the same x, y."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"non-finite point ({x!r}, {y!r})")
        self.x, self.y = x, y

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"Point2(x={self.x!r}, y={self.y!r})"

    def dist(self, other: Point2) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _rotated_line(cos_phi, sin_phi, px, py, dx, dy):
    """Line (a, b, c), a x + b y = c, through (px, py) along (dx, dy) turned by phi.

    (a, b) is the turned direction's normal, as long as the direction, not a
    unit vector: where two lines cross does not depend on their scale.
    """
    rx = cos_phi * dx - sin_phi * dy
    ry = sin_phi * dx + cos_phi * dy
    a, b = -ry, rx
    return a, b, a * px + b * py


def _perpendicular_line(cos_phi, sin_phi, px, py, dx, dy):
    """Line (dx, dy, dx px + dy py) through (px, py), perpendicular to (dx, dy).

    `_rotated_line` at (cos_phi, sin_phi) = (0, 1), whose arguments it takes
    and does not read, is (-dx, -dy, -(dx px + dy py)) up to the signs of
    zeros: this line negated, exactly, without the products by 0 and 1.
    Negating both lines of a crossing leaves every product in `_crossing` as
    it was, so the crossings keep their bits.
    """
    return dx, dy, dx * px + dy * py


def _crossing(l1, l2):
    """The point where two lines a x + b y = c cross."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    return (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det


def derived_triangle(bx, by, gx, gy, cos_phi, sin_phi):
    """A', B' and Gamma' relative to A, and the area they bound by the shoelace formula.

    B and Gamma are given relative to A.  The lines run through B along A->B,
    through Gamma along B->Gamma and through A along Gamma->A, each direction
    turned counterclockwise by phi, given as (cos_phi, sin_phi); at phi = pi/2
    they are the perpendiculars whatever the orientation.  A' joins the lines
    at B and Gamma, B' those at Gamma and A, Gamma' those at A and B.  Anchored
    at A, the line offsets are of the size of the triangle, not of its
    position.  The lines are not normalized (`_rotated_line`).  At
    (cos_phi, sin_phi) = (0, 1) each line is `_perpendicular_line`: its a and
    b are its side's direction, exactly, and only c and the crossings round.
    Coordinates are floats or numpy arrays; the line coefficients are freed
    before the area is taken.
    """
    line = _perpendicular_line if cos_phi == 0.0 and sin_phi == 1.0 else _rotated_line
    line_ab = line(cos_phi, sin_phi, bx, by, bx, by)
    line_bg = line(cos_phi, sin_phi, gx, gy, gx - bx, gy - by)
    line_ga = line(cos_phi, sin_phi, 0.0, 0.0, -gx, -gy)
    (apx, apy), (bpx, bpy), (gpx, gpy) = vertices = (
        _crossing(line_ab, line_bg), _crossing(line_bg, line_ga), _crossing(line_ga, line_ab))
    del line_ab, line_bg, line_ga
    return vertices, 0.5 * abs((bpx - apx) * (gpy - apy) - (bpy - apy) * (gpx - apx))


class Triangle:
    """Vertices A, B, Gamma of a non-degenerate triangle.

    Vertices are stored counterclockwise: clockwise input has b and g swapped
    on construction so every rotation sense downstream is uniform.  The swap
    relabels the triangle (beta <-> gamma, angle B <-> angle Gamma); every
    quantity verified by this package is symmetric under that relabeling.
    The triangle's frame is computed once and kept as `frame`; its metrics
    are measured there once and kept as `frame_metrics`, the one record of
    the triangle's measurements, which every path reads.  A doubled area
    of 0 and vertices whose differences overflow are rejected (`Point2`
    rejects a non-finite coordinate); thinness is `ratio.judged_bound`'s to
    judge.  Two triangles are equal, and hash alike, when their stored a, b
    and g are.
    """

    __slots__ = ("a", "b", "g", "frame", "frame_metrics")

    def __init__(self, a: Point2, b: Point2, g: Point2) -> None:
        f = frame(MATH, a.x, a.y, b.x, b.y, g.x, g.y)
        exp, bx, by, gx, gy = f
        if not math.isfinite(bx + by + gx + gy):
            raise GeometryError("vertices lie farther apart than binary64 can measure")
        doubled = bx * gy - by * gx
        # Checked before measuring: a doubled area of 0 has no triangle, and
        # its metrics would give angles of 0 and pi.
        if doubled == 0.0:
            raise GeometryError("vertices are collinear at the triangle's own scale")
        if doubled < 0.0:
            b, g = g, b
            f = Frame(exp, gx, gy, bx, by)
        self.a, self.b, self.g = a, b, g
        #: The triangle's frame (`frame`), in which every measurement is made.
        self.frame = f
        #: anchored_metrics of the frame, in the frame's units (`metrics` converts).
        self.frame_metrics = anchored_metrics(MATH, *f[1:])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.g) == (other.a, other.b, other.g)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.g))

    def __repr__(self) -> str:
        return f"Triangle(a={self.a!r}, b={self.b!r}, g={self.g!r})"


class TriangleMetrics(namedtuple("TriangleMetrics", "alpha beta gamma ang_a ang_b ang_g s area")):
    """Scalar summary of a triangle.

    alpha = |B Gamma|, beta = |Gamma A|, gamma = |A B|: each side faces the
    like-named angle.  s is the semi-perimeter (2s = alpha + beta + gamma) and
    area comes from the shoelace formula, which serves as the geometric
    reference value for every analytic area route.
    """

    __slots__ = ()

    def in_units(self, exp: int) -> TriangleMetrics:
        """These metrics, measured in a frame with exponent exp, in the input's units."""
        return TriangleMetrics(
            in_units(self.alpha, exp, "alpha"), in_units(self.beta, exp, "beta"),
            in_units(self.gamma, exp, "gamma"), self.ang_a, self.ang_b, self.ang_g,
            in_units(self.s, exp, "semi-perimeter"), in_units(self.area, 2 * exp, "area"))


def anchored_metrics(ops: Ops, bx, by, gx, gy) -> TriangleMetrics:
    """Metrics of the triangle A, B, Gamma from B and Gamma in a frame anchored at A.

    Sides by hypot, area by the shoelace formula, all in the frame's units.
    Each angle is atan2(|cross|, dot) of the two edges leaving its vertex
    (Kahan, "Miscalculating Area and Angles of a Needle-like Triangle",
    2014): within a few eps rad of the exact angle of these coordinates,
    near 0 and pi too.  Every cross is the doubled area, but each is taken
    from its own vertex's edges: the one at A alone is off by up to ~eps
    beta / alpha at B and Gamma where alpha is short.  The coordinates must
    be of about unit size, as `frame` makes them, so that no product
    overflows or underflows.  A pure measurement: thinness is
    `ratio.judged_bound`'s to judge.
    """
    ux, uy = gx - bx, gy - by
    alpha = ops.hypot(ux, uy)
    beta = ops.hypot(gx, gy)
    gamma = ops.hypot(bx, by)
    doubled = abs(bx * gy - by * gx)
    ang_a = ops.atan2(doubled, bx * gx + by * gy)
    ang_b = ops.atan2(abs(bx * uy - by * ux), -(bx * ux + by * uy))
    ang_g = ops.atan2(abs(gx * uy - gy * ux), gx * ux + gy * uy)
    s = 0.5 * (alpha + beta + gamma)
    return TriangleMetrics(alpha, beta, gamma, ang_a, ang_b, ang_g, s, 0.5 * doubled)


def metrics(t: Triangle) -> TriangleMetrics:
    """t's metrics, measured once in its frame (`Triangle.frame_metrics`), in the input's units."""
    return t.frame_metrics.in_units(t.frame.exp)


#: Half-width of the angle-A band classified as right, and of the band around
#: pi - phi where Gamma' is on B; for reporting only.  It absorbs input rounding:
#: a right triangle ~3000 sizes from the origin, rounded to binary64, has
#: A - pi/2 = -2.4e-13, where the bound C eps / theta^2 is 2.8e-14.
CASE_BAND = 1e-9


class AngleCase(enum.Enum):
    """Qualitative picture, determined by angle A."""

    ACUTE = "acute"      # derived triangle strictly contains the original
    RIGHT = "right"      # at phi = 90 deg, Gamma' lands exactly on B
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
    """The case of one angle A; a NaN angle, which has none, raises GeometryError."""
    acute, right, obtuse = angle_cases(ang_a)
    if not (acute or right or obtuse):
        raise GeometryError(f"angle A {ang_a!r} falls in no case")
    return AngleCase.RIGHT if right else AngleCase.ACUTE if acute else AngleCase.OBTUSE
