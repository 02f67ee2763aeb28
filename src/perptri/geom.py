"""Plane geometry primitives: points, triangles, metrics, the rotated-line step.

Angles are radians everywhere in the library; degrees exist only at the CLI
boundary.  All arithmetic is plain binary64 floating point -- identities built
on these primitives are verified to tolerance, never symbolically.

Every measurement is made in one frame, which `frame` computes: B and Gamma
relative to A, scaled by the power of two 2**-exp that brings the largest
coordinate into [0.5, 1).  The scaling is exact in binary64, so squares of
sides neither overflow nor underflow at any size, and every dimensionless
result (angles, cotangents, ratios, residuals, verdicts) is the same, bit for
bit, for a triangle and each of its 2**k-scaled copies.  `Triangle` computes
its frame once and keeps it.  Lengths measured in the frame are converted
back to the input's units, exactly, by `in_units` (lengths times 2**exp,
areas times 2**(2 exp)) only where they are printed or returned.

`frame`, `anchored_metrics`, `cot` and `derived_vertices` take floats or numpy
arrays; an `Ops` namespace, `MATH` or `NUMPY`, supplies the elementary
functions for either.  `NUMPY` is built, and numpy imported, on its first
access, so code that works on floats never loads numpy.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable

from .errors import AngleSumError, DegenerateTriangleError, GeometryError, UnitRangeError

#: A triangle is rejected as degenerate when its area falls below this factor
#: times the squared longest side (scale invariant: both sides are length^2).
DEGENERACY_FACTOR = 1e-9

#: Angles within this band of pi/2 have a cotangent of exactly 0.0 (their
#: cosine would otherwise be roundoff noise of either sign).
RIGHT_ANGLE_BAND = 1e-12


def clamp_unit(value: float) -> float:
    """Clamp into [-1, 1]; guards acos against roundoff just outside range.

    NaN passes through, as it does through np.clip.
    """
    return -1.0 if value < -1.0 else 1.0 if value > 1.0 else value


#: The elementary functions the float and array routines use beyond arithmetic
#: operators: acos clips into [-1, 1] first, max and min are n-ary and
#: elementwise, and require(ok, error) raises error() unless ok.
Ops = namedtuple("Ops", "hypot acos cos sin sqrt frexp ldexp where max min require")


def _require(ok: bool, error: Callable[[], Exception]) -> None:
    if not ok:
        raise error()


MATH = Ops(math.hypot, lambda c: math.acos(clamp_unit(c)), math.cos, math.sin, math.sqrt,
           math.frexp, math.ldexp, lambda cond, yes, no: yes if cond else no, max, min,
           _require)


def __getattr__(name: str):
    """Build `NUMPY` on first access: numpy is imported only where arrays are made."""
    if name != "NUMPY":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    # Arrays carry inf or NaN where one triangle would raise, as numpy does.
    ops = Ops(np.hypot, lambda c: np.arccos(np.clip(c, -1.0, 1.0)), np.cos, np.sin, np.sqrt,
              np.frexp, np.ldexp, np.where, lambda *xs: functools.reduce(np.maximum, xs),
              lambda *xs: functools.reduce(np.minimum, xs), lambda ok, error: None)
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

    Raises UnitRangeError naming the quantity when the result overflows
    binary64 or a non-zero value underflows to 0.
    """
    try:
        result = math.ldexp(value, exp)
    except OverflowError:
        result = math.inf
    if math.isinf(result) or (result == 0.0 and value != 0.0):
        raise UnitRangeError(f"{name} does not fit binary64 in the input's units")
    return result


def cot(ops: Ops, x):
    """Cotangent as cos/sin, exactly zero within RIGHT_ANGLE_BAND of pi/2.

    cos/sin keeps the correct sign through the obtuse branch; 1/tan would
    blow up at pi/2 where the cotangent is merely zero.
    """
    return ops.where(abs(x - 0.5 * math.pi) < RIGHT_ANGLE_BAND, 0.0, ops.cos(x) / ops.sin(x))


@dataclass(frozen=True)
class Point2:
    """A 2-D point with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite point ({self.x!r}, {self.y!r})")

    def __sub__(self, other: Point2) -> Point2:
        return Point2(self.x - other.x, self.y - other.y)

    def dist(self, other: Point2) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def cross(o: Point2, p: Point2, q: Point2) -> float:
    """Cross product (p - o) x (q - o); twice the signed area of (o, p, q).

    Positive iff o, p, q wind counterclockwise.
    """
    return (p.x - o.x) * (q.y - o.y) - (p.y - o.y) * (q.x - o.x)


def _rotated_line(hypot, cos_phi, sin_phi, px, py, dx, dy):
    """Line (a, b, c) through (px, py) along (dx, dy) turned by phi: unit normal (a, b)."""
    rx = cos_phi * dx - sin_phi * dy
    ry = sin_phi * dx + cos_phi * dy
    norm = hypot(rx, ry)
    a, b = -ry / norm, rx / norm
    return a, b, a * px + b * py


def _crossing(l1, l2):
    """The point where two lines in normal form cross."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    return (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det


def derived_vertices(hypot, bx, by, gx, gy, cos_phi, sin_phi):
    """A', B' and Gamma' relative to A, for B and Gamma given relative to A.

    The lines run through B along A->B, through Gamma along B->Gamma and
    through A along Gamma->A, each direction turned counterclockwise by phi,
    given as (cos_phi, sin_phi); at phi = pi/2 they are the perpendiculars
    whatever the orientation.  A' joins the lines at B and Gamma, B' those at
    Gamma and A, Gamma' those at A and B.  Anchored at A, the line offsets are
    of the size of the triangle, not of its position.  Coordinates are floats
    (hypot = math.hypot) or numpy arrays (hypot = np.hypot).
    """
    line_ab = _rotated_line(hypot, cos_phi, sin_phi, bx, by, bx, by)
    line_bg = _rotated_line(hypot, cos_phi, sin_phi, gx, gy, gx - bx, gy - by)
    line_ga = _rotated_line(hypot, cos_phi, sin_phi, 0.0, 0.0, -gx, -gy)
    return _crossing(line_ab, line_bg), _crossing(line_bg, line_ga), _crossing(line_ga, line_ab)


@dataclass(frozen=True)
class Triangle:
    """Vertices A, B, Gamma of a non-degenerate triangle.

    Vertices are stored counterclockwise: clockwise input has b and g swapped
    on construction so every rotation sense downstream is uniform.  The swap
    relabels the triangle (beta <-> gamma, angle B <-> angle Gamma); every
    quantity verified by this package is symmetric under that relabeling.
    The triangle's frame is computed once, judged for degeneracy and kept as
    `frame`; every measurement of the triangle reads it.
    """

    a: Point2
    b: Point2
    g: Point2
    #: The triangle's frame (`frame`), in which every measurement is made.
    frame: Frame = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        f = frame(MATH, self.a.x, self.a.y, self.b.x, self.b.y, self.g.x, self.g.y)
        exp, bx, by, gx, gy = f
        if not math.isfinite(bx + by + gx + gy):
            raise UnitRangeError("vertices lie farther apart than binary64 can measure")
        # In the frame the squares below neither underflow nor overflow,
        # whatever the triangle's size.
        doubled = bx * gy - by * gx
        longest_sq = max(bx * bx + by * by, (gx - bx) ** 2 + (gy - by) ** 2, gx * gx + gy * gy)
        # doubled == 0.0 also rejects three coincident vertices, where the
        # bound is 0 too.
        if doubled == 0.0 or abs(doubled) < 2.0 * DEGENERACY_FACTOR * longest_sq:
            raise DegenerateTriangleError(
                "vertices are collinear at the triangle's own scale"
            )
        if doubled < 0.0:
            b, g = self.b, self.g
            object.__setattr__(self, "b", g)
            object.__setattr__(self, "g", b)
            f = Frame(exp, gx, gy, bx, by)
        object.__setattr__(self, "frame", f)

    def vertices(self) -> tuple[Point2, Point2, Point2]:
        return self.a, self.b, self.g

    def longest_side(self) -> float:
        return max(self.a.dist(self.b), self.b.dist(self.g), self.g.dist(self.a))


@dataclass(frozen=True)
class TriangleMetrics:
    """Scalar summary of a triangle.

    alpha = |B Gamma|, beta = |Gamma A|, gamma = |A B|: each side faces the
    like-named angle.  s is the semi-perimeter (2s = alpha + beta + gamma) and
    area comes from the shoelace formula, which serves as the geometric
    reference value for every analytic area route.
    """

    alpha: float
    beta: float
    gamma: float
    ang_a: float
    ang_b: float
    ang_g: float
    s: float
    area: float

    def in_units(self, exp: int) -> TriangleMetrics:
        """These metrics, measured in a frame with exponent exp, in the input's units."""
        return TriangleMetrics(
            in_units(self.alpha, exp, "alpha"), in_units(self.beta, exp, "beta"),
            in_units(self.gamma, exp, "gamma"), self.ang_a, self.ang_b, self.ang_g,
            in_units(self.s, exp, "semi-perimeter"), in_units(self.area, 2 * exp, "area"))


def anchored_metrics(ops: Ops, bx, by, gx, gy) -> TriangleMetrics:
    """Metrics of the triangle A, B, Gamma from B and Gamma in a frame anchored at A.

    Sides by hypot, angles by the Law of Cosines (acos clipped), area by the
    shoelace formula, all in the frame's units.  The coordinates must be of
    about unit size, as `frame` makes them, so that no squared side overflows
    or underflows.  ops.require raises AngleSumError when a computed angle is
    0 (cos rounded to 1), before anything divides by its sine.
    """
    alpha = ops.hypot(gx - bx, gy - by)
    beta = ops.hypot(gx, gy)
    gamma = ops.hypot(bx, by)
    a2, b2, g2 = alpha * alpha, beta * beta, gamma * gamma
    ang_a = ops.acos((b2 + g2 - a2) / (2.0 * beta * gamma))
    ang_b = ops.acos((a2 + g2 - b2) / (2.0 * alpha * gamma))
    ang_g = ops.acos((a2 + b2 - g2) / (2.0 * alpha * beta))
    s = 0.5 * (alpha + beta + gamma)
    area = 0.5 * abs(bx * gy - by * gx)
    smallest = ops.min(ang_a, ang_b, ang_g)
    ops.require(smallest > 0.0, lambda: AngleSumError(f"angle {smallest!r} outside (0, pi)"))
    return TriangleMetrics(alpha, beta, gamma, ang_a, ang_b, ang_g, s, area)


def metrics(t: Triangle) -> TriangleMetrics:
    """anchored_metrics of t, measured in its frame, in the input's units."""
    exp, bx, by, gx, gy = t.frame
    return anchored_metrics(MATH, bx, by, gx, gy).in_units(exp)
