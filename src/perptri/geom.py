"""Plane geometry primitives: points, triangles, metrics, the rotated-line step.

Angles are radians everywhere in the library; degrees exist only at the CLI
boundary.  All arithmetic is plain binary64 floating point -- identities built
on these primitives are verified to tolerance, never symbolically.

`anchored_metrics`, `cot` and `derived_vertices` work on coordinates relative
to vertex A, given as floats or as numpy arrays; an `Ops` namespace, `MATH`
or `NUMPY`, supplies the elementary functions for either.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AngleSumError, DegenerateTriangleError, GeometryError

#: A triangle is rejected as degenerate when its area falls below this factor
#: times the squared longest side (scale invariant: both sides are length^2).
DEGENERACY_FACTOR = 1e-9

#: Angles within this band of pi/2 have a cotangent of exactly 0.0 (their
#: cosine would otherwise be roundoff noise of either sign).
RIGHT_ANGLE_BAND = 1e-12


def clamp_unit(value: float) -> float:
    """Clamp into [-1, 1]; guards acos against roundoff just outside range."""
    return max(-1.0, min(1.0, value))


#: The elementary functions the float and array routines use beyond arithmetic
#: operators: acos clips into [-1, 1] first, max and min are n-ary and
#: elementwise, and require(ok, error) raises error() unless ok.
Ops = namedtuple("Ops", "hypot acos cos sin sqrt where max min require")


def _require(ok: bool, error: Callable[[], Exception]) -> None:
    if not ok:
        raise error()


MATH = Ops(math.hypot, lambda c: math.acos(clamp_unit(c)), math.cos, math.sin, math.sqrt,
           lambda cond, yes, no: yes if cond else no, max, min, _require)

# Arrays carry inf or NaN where one triangle would raise, as numpy does.
NUMPY = Ops(np.hypot, lambda c: np.arccos(np.clip(c, -1.0, 1.0)), np.cos, np.sin, np.sqrt,
            np.where, lambda *xs: functools.reduce(np.maximum, xs),
            lambda *xs: functools.reduce(np.minimum, xs), lambda ok, error: None)


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

    def __add__(self, other: Point2) -> Point2:
        return Point2(self.x + other.x, self.y + other.y)

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
    """

    a: Point2
    b: Point2
    g: Point2

    def __post_init__(self) -> None:
        # B and Gamma relative to A, scaled by a power of two (exactly) so the
        # largest coordinate is about 1: the squares below neither underflow
        # nor overflow, whatever the triangle's size.
        bx, by = self.b.x - self.a.x, self.b.y - self.a.y
        gx, gy = self.g.x - self.a.x, self.g.y - self.a.y
        e = -math.frexp(max(abs(bx), abs(by), abs(gx), abs(gy)))[1]
        bx, by, gx, gy = math.ldexp(bx, e), math.ldexp(by, e), math.ldexp(gx, e), math.ldexp(gy, e)
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


def anchored_metrics(ops: Ops, bx, by, gx, gy) -> TriangleMetrics:
    """Metrics of the triangle A, B, Gamma from B and Gamma relative to A.

    Sides by hypot, angles by the Law of Cosines (acos clipped), area by the
    shoelace formula.  ops.require raises OverflowError when a squared side
    overflows, and AngleSumError when a computed angle is 0 (cos rounded to
    1), before anything divides by its sine.
    """
    alpha = ops.hypot(gx - bx, gy - by)
    beta = ops.hypot(gx, gy)
    gamma = ops.hypot(bx, by)
    a2, b2, g2 = alpha * alpha, beta * beta, gamma * gamma
    ops.require(a2 + b2 + g2 < math.inf, lambda: OverflowError("squared sides overflow binary64"))
    ang_a = ops.acos((b2 + g2 - a2) / (2.0 * beta * gamma))
    ang_b = ops.acos((a2 + g2 - b2) / (2.0 * alpha * gamma))
    ang_g = ops.acos((a2 + b2 - g2) / (2.0 * alpha * beta))
    s = 0.5 * (alpha + beta + gamma)
    area = 0.5 * abs(bx * gy - by * gx)
    smallest = ops.min(ang_a, ang_b, ang_g)
    ops.require(smallest > 0.0, lambda: AngleSumError(f"angle {smallest!r} outside (0, pi)"))
    return TriangleMetrics(alpha, beta, gamma, ang_a, ang_b, ang_g, s, area)


def metrics(t: Triangle) -> TriangleMetrics:
    """anchored_metrics of t, measured from its vertex A."""
    b, g = t.b - t.a, t.g - t.a
    return anchored_metrics(MATH, b.x, b.y, g.x, g.y)
