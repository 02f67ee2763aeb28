"""Extremal values of the cotangent sum, hence of the derived-area ratio.

Write the sum through two acute base angles B, Gamma as
(cot^2 B + cot B cot Gamma + cot^2 Gamma + 1) / (cot B + cot Gamma) and
hold one cotangent fixed at k > 0.  The resulting one-variable slice

    g_k(x) = (cot^2 x + k cot x + k^2 + 1) / (cot x + k),   0 < x < pi/2,

has a unique interior minimum at cot x = sqrt(k^2 + 1) - k whose value is

    f(k) = 2 sqrt(k^2 + 1) - k.

Minimizing f over k then gives the global minimum sqrt(3) of the cotangent
sum (at the equilateral triangle), hence the minimum derived-area ratio 3.
Restricted to right triangles the sum collapses to 2 / sin(2B), with minimum
2 at B = pi/4, hence a minimum ratio of 4.

Closed forms are never returned unchecked: every public entry point first
confirms them against a derivative-free search, Brent's method.  Each search
stops once its bracket is sqrt(eps) wide: near a minimum the objective is
flat to second order, so below that width two probes differ by rounding
only and the search would choose on noise.

Arguments are checked once, at the public functions.  A search evaluates a
bare objective, with no checks per probe: the slice `_slice` or the right
family's `_right_cot_sum`.  `minimize_slice` checks k, through
`slice_argmin`, before it searches, the outer stage of `global_cot_sum_min`
probes only k in [1e-3, 1e2], and `brent_min` probes only x inside its
bracket [SEARCH_LO, SEARCH_HI], a subset of (0, pi/2).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from functools import partial

#: 1 - 1/phi = (3 - sqrt(5))/2, the share of the larger part of the bracket
#: that a golden-section step of Brent's method covers.
GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))

#: Search interval for slice minimization, slightly inset from (0, pi/2).
SEARCH_LO = 1e-4
SEARCH_HI = 0.5 * math.pi - 1e-4

#: Bracket width at which a search stops, and its iteration cap.  The
#: width is sqrt(eps) = 2**-26: f(m + h) - f(m) ~ f''(m) h**2 / 2 falls below
#: the rounding of f(m) once h is under about sqrt(eps), so narrower brackets
#: are chosen by rounding (Brent 1973, ch. 5; Numerical Recipes, sec. 10.3).
#: The rule is absolute: every minimizer searched here is of size about 1.
X_TOL = 2.0 ** -26
MAX_ITER = 200

#: The brute-force lattice spans (LATTICE_MARGIN, pi - LATTICE_MARGIN) in each
#: base angle and is scanned LATTICE_CHUNK rows at a time, so peak memory
#: stays modest.
LATTICE_MARGIN = 1e-4
LATTICE_CHUNK = 250


def brent_min(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi]; returns (argmin, f(argmin)).

    Brent's method (Brent 1973, ch. 5, procedure localmin; Numerical
    Recipes, sec. 10.3).  Each probe is the vertex of the parabola through
    the three best points so far, unless the parabola is not trusted: its
    step is not under half the step before last, or its vertex leaves the
    bracket.  A golden-section step into the larger part of the bracket
    replaces it then.  On a smooth minimum the parabolic steps converge
    superlinearly.  No probe lies closer than X_TOL/4 to the best point.
    One change to localmin: a probe that only ties the best point does not
    replace it.  Near the minimum a tie is rounding, and keeping the point
    lets the bracket close around it instead of walking along a flat bottom.

    The search stops when the best point lies within X_TOL/2 of both ends
    of the bracket, so the bracket is at most X_TOL = sqrt(eps) wide, or
    after MAX_ITER iterations.  It returns that best probe.  Every x that f
    sees lies in [lo, hi], so f need not check x: callers check their
    arguments once, before the search.
    """
    tol1 = 0.25 * X_TOL
    tol2 = 0.5 * X_TOL
    x = w = v = lo + GOLDEN * (hi - lo)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(MAX_ITER):
        if x - lo <= tol2 and hi - x <= tol2:
            break
        xm = 0.5 * (lo + hi)
        if -tol1 <= e <= tol1:
            e = (lo if x >= xm else hi) - x
            d = GOLDEN * e
        else:
            # The parabola through (v, fv), (w, fw), (x, fx) has its vertex at x + p/q.
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            e_last, e = e, d
            if abs(p) < abs(0.5 * q * e_last) and q * (lo - x) < p < q * (hi - x):
                d = p / q
                if x + d - lo < tol2 or hi - (x + d) < tol2:
                    d = tol1 if x < xm else -tol1
            else:
                e = (lo if x >= xm else hi) - x
                d = GOLDEN * e
        if d >= tol1 or d <= -tol1:
            u = x + d
        else:
            u = x + tol1 if d > 0.0 else x - tol1
        fu = f(u)
        if fu < fx:
            if u < x:
                hi = x
            else:
                lo = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _check_k(k: float) -> None:
    # The slice squares k, so k * k must be finite too.
    if not (k > 0.0 and math.isfinite(k * k)):
        raise ValueError(f"slice parameter k must be positive with a finite square, got {k!r}")


def _check_x(x: float) -> None:
    if not 0.0 < x < 0.5 * math.pi:
        raise ValueError(f"slice angle must lie in (0, pi/2), got {x!r}")


def slice_min_value(k: float) -> float:
    """Closed-form minimum of the fixed-k slice: 2 sqrt(k^2+1) - k.

    Tends to 2 as k -> 0+ (the degenerate right-angle end) and attains its
    own minimum sqrt(3) at k = 1/sqrt(3).  It is at least sqrt(k^2+1) >= 1,
    so it is positive.
    """
    _check_k(k)
    return 2.0 * math.hypot(k, 1.0) - k


def _slice(k: float, x: float) -> float:
    """The slice g_k(x), unchecked: the one body of the formula, which searches evaluate."""
    c = math.cos(x) / math.sin(x)
    return (c * c + k * c + k * k + 1.0) / (c + k)


def cot_sum_slice(k: float, x: float) -> float:
    """The cotangent sum with one base-angle cotangent held fixed at k."""
    _check_k(k)
    _check_x(x)
    return _slice(k, x)


def cot_sum_slice_deriv(k: float, x: float) -> float:
    """d/dx of the slice: -csc^2 x (cot^2 x + 2 k cot x - 1) / (cot x + k)^2.

    Negative below the critical angle, positive above it; the bracketed
    quadratic factors through cot x = -k +/- sqrt(k^2 + 1).
    """
    _check_k(k)
    _check_x(x)
    sin_x = math.sin(x)
    c = math.cos(x) / sin_x
    csc_sq = 1.0 / (sin_x * sin_x)
    return -csc_sq * (c * c + 2.0 * k * c - 1.0) / ((c + k) ** 2)


def slice_argmin(k: float) -> float:
    """Closed-form minimizer of the slice: arccot(sqrt(k^2+1) - k) = arctan(sqrt(k^2+1) + k).

    Always in (pi/4, pi/2): the arccot argument lies in (0, 1).  The arctan
    form adds where the arccot one would cancel, as k grows.
    """
    _check_k(k)
    return math.atan2(math.hypot(k, 1.0) + k, 1.0)


def _numeric_slice_min(k: float) -> tuple[float, float]:
    """Numeric (argmin, minimum) of the slice at a k already known to be valid."""
    return brent_min(partial(_slice, k), SEARCH_LO, SEARCH_HI)


class ExtremalReport(namedtuple(
        "ExtremalReport", "k argmin min_value numeric_argmin numeric_min agreement_err")):
    """Closed-form slice minimum next to its numeric confirmation."""

    __slots__ = ()


def minimize_slice(k: float) -> ExtremalReport:
    """Minimize the fixed-k slice both ways and report the pair.

    agreement_err is |min_value - numeric_min|; the argmin discrepancy is
    left in the report for callers to judge (a search resolves the argmin of
    a flat quadratic bottom to about sqrt(eps) only).
    """
    argmin = slice_argmin(k)
    numeric_argmin, numeric_min = _numeric_slice_min(k)
    min_value = slice_min_value(k)
    return ExtremalReport(
        k=k,
        argmin=argmin,
        min_value=min_value,
        numeric_argmin=numeric_argmin,
        numeric_min=numeric_min,
        agreement_err=abs(min_value - numeric_min),
    )


def global_cot_sum_min() -> tuple[float, float, float]:
    """Global minimum of the cotangent sum: (sqrt(3), pi/3, pi/3).

    Confirmed before returning by a two-stage numeric search: Brent's method
    over k composed with the numeric slice minimum (valid because the inner
    minimum is unique and the envelope is unimodal in k).  Raises
    RuntimeError if the numeric route strays from the closed form.
    """
    k_star, numeric_min = brent_min(
        lambda k: _numeric_slice_min(k)[1], 1e-3, 1e2
    )
    if abs(numeric_min * numeric_min - 3.0) > 1e-8:
        raise RuntimeError(
            f"two-stage search found squared minimum {numeric_min**2!r}, expected 3"
        )
    if abs(k_star - 1.0 / math.sqrt(3.0)) > 1e-6:
        raise RuntimeError(
            f"two-stage search found k* = {k_star!r}, expected 1/sqrt(3)"
        )
    return math.sqrt(3.0), math.pi / 3.0, math.pi / 3.0


def _right_cot_sum(ang_b: float) -> float:
    """2 / sin(2B), unchecked: the one body of the right family's sum, which searches evaluate."""
    return 2.0 / math.sin(2.0 * ang_b)


def right_cot_sum(ang_b: float) -> float:
    """Cotangent sum of a right triangle with base angle B: 2 / sin(2B)."""
    if not 0.0 < ang_b < 0.5 * math.pi:
        raise ValueError(f"base angle of a right triangle must be in (0, pi/2), got {ang_b!r}")
    return _right_cot_sum(ang_b)


def right_triangle_min() -> tuple[float, float]:
    """Minimum squared cotangent sum over right triangles: (4, pi/4).

    The sum is 2/sin(2B) >= 2 with equality at the right isosceles triangle;
    Brent's method over B confirms before the closed form is returned.
    """
    numeric_argmin, numeric_min = brent_min(_right_cot_sum, SEARCH_LO, SEARCH_HI)
    if abs(numeric_min - 2.0) > 1e-9:
        raise RuntimeError(
            f"numeric right-triangle minimum {numeric_min!r} strays from 2"
        )
    if abs(numeric_argmin - 0.25 * math.pi) > 1e-8:
        raise RuntimeError(
            f"numeric right-triangle argmin {numeric_argmin!r} strays from pi/4"
        )
    return 4.0, 0.25 * math.pi


def cot_sum_lattice_min(n: int) -> tuple[float, float, float]:
    """Brute-force minimum of the cotangent sum over an n x n angle lattice.

    Scans base angles (B, Gamma) on a regular open lattice of (LATTICE_MARGIN,
    pi - LATTICE_MARGIN), keeping pairs with B + Gamma < pi - LATTICE_MARGIN,
    and returns (min value, B, Gamma) at the lattice minimum.  This is the
    independent no-smaller-value oracle for the global minimum.  The only
    routine here on arrays, and so the only one that imports numpy.
    """
    import numpy as np

    grid = np.linspace(LATTICE_MARGIN, math.pi - LATTICE_MARGIN, n)
    best = math.inf
    best_b = best_g = math.nan
    cot_grid = np.cos(grid) / np.sin(grid)
    for start in range(0, n, LATTICE_CHUNK):
        rows = slice(start, start + LATTICE_CHUNK)
        ang_a = math.pi - grid[rows, None] - grid[None, :]
        valid = ang_a > LATTICE_MARGIN
        ang_a = np.where(valid, ang_a, 0.5 * math.pi)
        total = np.cos(ang_a) / np.sin(ang_a) + cot_grid[rows, None] + cot_grid[None, :]
        total = np.where(valid, total, math.inf)
        idx = np.unravel_index(np.argmin(total), total.shape)
        if total[idx] < best:
            best = float(total[idx])
            best_b = float(grid[start + idx[0]])
            best_g = float(grid[idx[1]])
    return best, best_b, best_g
