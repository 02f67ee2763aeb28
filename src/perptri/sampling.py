"""Seeded random triangle corpora.

Base angles (B, Gamma) are drawn uniformly from the open simplex
{B > delta, Gamma > delta, B + Gamma < pi - delta} and the overall size from
a log-uniform scale over four decades.  Triangles are laid out canonically --
A at the origin, B at (scale, 0), Gamma above the x-axis -- so a fixed seed
reproduces every corpus coordinate-for-coordinate.

Strata select by the classification of angle A (acute / right / obtuse),
the rule `geom.angle_cases` applies to every triangle; the "all"
stratum is the raw simplex draw.  Each stratum is drawn directly, uniform on
its own region of the simplex (Devroye, *Non-Uniform Random Variate
Generation*, 1986, ch. 11), so any chunk of any corpus is drawn on its own.
B or Gamma may themselves be obtuse inside the acute-A stratum -- that is
deliberate, the identities are claimed and checked for every labeling, not
just the convenient one.

Only the corpus code imports numpy, when it runs; `STRATA` and the scalar
layouts (`triangle_from_sides`, `triangle_from_angles`) serve without it.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from . import geom
from .geom import CASES, MATH, GeometryError, Ops, Point2, Triangle, frame_exponent

#: Default sliver floor (radians): no sampled angle sits closer than this to
#: 0, and A stays below pi minus this.  `perptri sweep` samples with it.
DELTA_MAIN = 0.01

#: Floor for sliver corpora.  Their residuals are judged by the same bound as
#: every triangle's, C eps / theta**2 (`ratio.residual_bound`): at
#: theta = 1e-4 it is about 1.4e-6.
DELTA_STRESS = 1e-4

#: Scale is 10**uniform(low, high): four decades centered on 1.
SCALE_DECADES = (-2.0, 2.0)

STRATA = ("all", *CASES)


def triangle_from_sides(alpha: float, beta: float, gamma: float) -> Triangle:
    """Triangle with |B Gamma| = alpha, |Gamma A| = beta, |AB| = gamma, A at the origin.

    No trigonometry: on the sides a, b, c scaled by 2**-exp, Gamma is at
    x = (b^2 + c^2 - a^2) / (2c), a^2 taken from the nearer of b^2 and c^2 by an
    exact difference, and y = 2E/c, E by Kahan's Heron; 3-4-5 lays out exactly.
    """
    exp = frame_exponent(MATH, alpha, beta, gamma)
    a, b, c = math.ldexp(alpha, -exp), math.ldexp(beta, -exp), math.ldexp(gamma, -exp)
    if not max(a, b, c) < 0.5 * (a + b + c):
        raise GeometryError(
            f"sides ({alpha}, {beta}, {gamma}) violate the strict triangle inequality")
    near, far = (b, c) if abs(b - a) <= abs(c - a) else (c, b)
    x = ((near - a) * (near + a) + far * far) / (2.0 * c)
    p, q, r = sorted((a, b, c), reverse=True)
    y = math.sqrt((p + (q + r)) * (r - (p - q)) * (r + (p - q)) * (p + (q - r))) / (2.0 * c)
    # x = b cos A and y = b sin A: held to b, neither rounds past binary64.
    x, y = max(-b, min(x, b)), min(y, b)
    return canonical_triangle(gamma, math.ldexp(x, exp), math.ldexp(y, exp))


def triangle_from_angles(ang_b: float, ang_g: float, scale: float) -> Triangle:
    """Triangle with base angles B, Gamma and |AB| = scale, A at the origin.

    The Gamma vertex sits at distance scale*sin(B)/sin(Gamma) from A along
    the ray at angle A above the x-axis (Law of Sines); the layout is always
    counterclockwise.
    """
    if not (0.0 < ang_b and 0.0 < ang_g and ang_b + ang_g < math.pi):
        raise GeometryError(
            f"base angles ({ang_b!r}, {ang_g!r}) do not leave room for angle A"
        )
    if not (math.isfinite(scale) and scale > 0.0):
        raise GeometryError(f"scale must be positive, got {scale!r}")
    return canonical_triangle(*_layout(MATH, ang_b, ang_g, scale))


def canonical_triangle(bx: float, gx: float, gy: float) -> Triangle:
    """The Triangle with A at the origin, B at (bx, 0) and Gamma at (gx, gy).

    The sides and angles layouts are in the input's units, where below the
    normal range rounding changes the shape, not just the position (an
    equilateral triangle of side 5e-324 lays out as a right one): a layout whose
    largest coordinate is below sys.float_info.min, or overflowed, is refused.
    """
    largest = max(abs(bx), abs(gx), abs(gy))
    if largest < sys.float_info.min:
        raise GeometryError(
            f"laid out, the triangle's largest coordinate {largest!r} is below "
            f"binary64's normal range, where rounding changes its shape")
    if not math.isfinite(largest):
        raise GeometryError("laid out in the input's units, the triangle does not fit binary64")
    return Triangle(Point2(0.0, 0.0), Point2(bx, 0.0), Point2(gx, gy))


def _layout(ops: Ops, ang_b, ang_g, scale):
    """(bx, gx, gy) by the Law of Sines: A at the origin, B at (bx, 0), Gamma at (gx, gy).

    Floats (ops = geom.MATH) or arrays (geom.NUMPY).
    """
    ang_a = math.pi - ang_b - ang_g
    beta = scale * ops.sin(ang_b) / ops.sin(ang_g)
    return scale, beta * ops.cos(ang_a), beta * ops.sin(ang_a)


class TriangleCorpus(namedtuple("TriangleCorpus", "ang_b ang_g scale")):
    """A vectorized batch of triangles: base angles plus scale (float64 arrays), canonical layout."""

    __slots__ = ()

    @property
    def ang_a(self):
        return math.pi - self.ang_b - self.ang_g

    def vertex_arrays(self) -> tuple:
        """(bx, gx, gy): A is at the origin, B at (bx, 0), Gamma at (gx, gy)."""
        return _layout(geom.NUMPY, self.ang_b, self.ang_g, self.scale)

    def triangle(self, i: int) -> Triangle:
        return triangle_from_angles(
            float(self.ang_b[i]), float(self.ang_g[i]), float(self.scale[i])
        )


def _fold(u, v, span: float, delta: float) -> tuple:
    """Draws u, v uniform on [0, span), folded into u + v <= span and shifted by delta.

    The fold and the shift are done in place, so they hold the fold's sum and
    mask besides the two arrays, not a copy of each.
    """
    import numpy as np

    over = u + v > span
    np.subtract(span, u, out=u, where=over)
    np.subtract(span, v, out=v, where=over)
    u += delta
    v += delta
    return u, v


def corpus_rows(
    bit_generator,
    n: int,
    start: int,
    stop: int,
    stratum: str = "all",
    delta: float = DELTA_MAIN,
) -> TriangleCorpus:
    """Rows [start, stop) of the n-triangle corpus drawn from bit_generator's stream.

    The corpus takes its scale exponents from the stream's draws 0..n-1, then
    B (or the first uniform of its angle pair) from n..2n-1 and the second
    from 2n..3n-1, so the scale stream never depends on the stratum.  Each
    chunk reaches its draws by PCG64's jump-ahead (`advance`) on a copy of the
    stream, so it is drawn on its own, bit for bit as in the whole corpus, and
    bit_generator is never advanced.  The acute and obtuse strata keep
    B + Gamma at least 2 `geom.CASE_BAND` (read at each call) from pi/2, so
    `geom.angle_cases` puts each of their rows in its case.
    """
    if n < 0:
        raise ValueError(f"n must be a non-negative number of triangles, got {n}")
    if stratum not in STRATA:
        raise ValueError(f"unknown stratum {stratum!r}; expected one of {STRATA}")
    if not 0 <= start <= stop <= n:
        raise ValueError(f"rows [{start}, {stop}) are not rows of a corpus of {n}")
    import numpy as np

    state = bit_generator.state
    stream = type(bit_generator)(0)

    def at(position: int):
        """A generator at the stream's draw number position."""
        stream.state = state
        stream.advance(position)
        return np.random.Generator(stream)

    size = stop - start
    margin = 2.0 * geom.CASE_BAND
    exponents = at(start).uniform(*SCALE_DECADES, size)
    if stratum == "right":
        ang_b = at(n + start).uniform(delta, 0.5 * math.pi - delta, size)
        ang_g = 0.5 * math.pi - ang_b
    elif stratum == "acute":
        # On this trapezoid of the simplex t = B + Gamma - 2 delta has density
        # proportional to t on [low, high): t by its inverse CDF, then B - delta
        # uniform on [0, t).
        low, high = 0.5 * math.pi + margin - 2.0 * delta, math.pi - 3.0 * delta
        ang_g = np.sqrt(low * low + (high * high - low * low) * at(n + start).random(size))
        ang_b = ang_g * at(2 * n + start).random(size)
        ang_g -= ang_b
        ang_b += delta
        ang_g += delta
    else:
        span = math.pi - 3.0 * delta if stratum == "all" else 0.5 * math.pi - margin - 2.0 * delta
        ang_b, ang_g = _fold(at(n + start).uniform(0.0, span, size),
                             at(2 * n + start).uniform(0.0, span, size), span, delta)
    # The scales are made last, into a new array, for glibc's sake: it raises
    # its mmap threshold to the largest mapped block freed.  Freed before the
    # angles are drawn, the exponents would send the fold's sum to the heap,
    # where it stays resident after it is freed (8 MiB at n = 10**6).
    return TriangleCorpus(ang_b=ang_b, ang_g=ang_g, scale=10.0 ** exponents)


def sample_corpus(
    n: int,
    seed,
    stratum: str = "all",
    delta: float = DELTA_MAIN,
) -> TriangleCorpus:
    """Draw n triangles, deterministic for a fixed (n, seed, stratum, delta).

    seed is anything numpy's default_rng accepts whose bit generator can jump
    ahead (an int, a sequence of ints for derived sub-corpora, a SeedSequence
    or None); a Generator passed in is not advanced.  The rows are those of
    `corpus_rows`.
    """
    import numpy as np

    return corpus_rows(np.random.default_rng(seed).bit_generator, n, 0, n, stratum, delta)
