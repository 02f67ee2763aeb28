"""Extremal values of the cotangent sum, hence of the derived-area ratio.

Write the sum through two acute base angles B, Gamma as
(cot^2 B + cot B cot Gamma + cot^2 Gamma + 1) / (cot B + cot Gamma) and
hold one cotangent fixed at k > 0.  The resulting one-variable slice

    g_k(x) = (cot^2 x + k cot x + k^2 + 1) / (cot x + k),   0 < x < pi/2,

has a unique interior minimum at cot x = sqrt(k^2 + 1) - k whose value is

    f(k) = (2 k^2 - k sqrt(k^2 + 1) + 2) / sqrt(k^2 + 1).

Minimizing f over k then gives the global minimum sqrt(3) of the cotangent
sum (at the equilateral triangle), hence the minimum derived-area ratio 3.
Restricted to right triangles the sum collapses to 2 / sin(2B), with minimum
2 at B = pi/4, hence a minimum ratio of 4.

Closed forms are never returned unchecked: every public entry point first
confirms them against a derivative-free golden-section search.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

#: 1/phi, the golden-section interval reduction factor per iteration.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Search interval for slice minimization, slightly inset from (0, pi/2).
SEARCH_LO = 1e-4
SEARCH_HI = 0.5 * math.pi - 1e-4

#: Bracket width at which golden-section stops, and its iteration cap.
X_TOL = 1e-10
MAX_ITER = 200

#: The brute-force lattice spans (LATTICE_MARGIN, pi - LATTICE_MARGIN) in each
#: base angle and is scanned LATTICE_CHUNK rows at a time, so peak memory
#: stays modest.
LATTICE_MARGIN = 1e-4
LATTICE_CHUNK = 250


def golden_section_min(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi]; returns (argmin, f(argmin)).

    Classic two-probe golden-section: each iteration reuses one interior
    evaluation and shrinks the bracket by 1/phi until it is X_TOL wide (at
    most MAX_ITER iterations).
    """
    c = hi - INV_PHI * (hi - lo)
    d = lo + INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    iterations = 0
    while (hi - lo) > X_TOL and iterations < MAX_ITER:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INV_PHI * (hi - lo)
            fd = f(d)
        iterations += 1
    x = 0.5 * (lo + hi)
    return x, f(x)


def _check_k(k: float) -> None:
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"slice parameter k must be positive, got {k!r}")


def _check_x(x: float) -> None:
    if not 0.0 < x < 0.5 * math.pi:
        raise ValueError(f"slice angle must lie in (0, pi/2), got {x!r}")


def slice_min_value(k: float) -> float:
    """Closed-form minimum of the fixed-k slice: (2k^2 - k sqrt(k^2+1) + 2)/sqrt(k^2+1).

    Tends to 2 as k -> 0+ (the degenerate right-angle end) and attains its
    own minimum sqrt(3) at k = 1/sqrt(3).
    """
    _check_k(k)
    root = math.sqrt(k * k + 1.0)
    return (2.0 * k * k - k * root + 2.0) / root


def cot_sum_slice(k: float, x: float) -> float:
    """The cotangent sum with one base-angle cotangent held fixed at k."""
    _check_k(k)
    _check_x(x)
    c = math.cos(x) / math.sin(x)
    return (c * c + k * c + k * k + 1.0) / (c + k)


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
    """Closed-form minimizer of the slice: arccot(sqrt(k^2+1) - k).

    Always in (pi/4, pi/2): the arccot argument lies in (0, 1).  arccot is
    evaluated as atan2(1, .), continuous and positive on all of (0, pi).
    """
    _check_k(k)
    return math.atan2(1.0, math.sqrt(k * k + 1.0) - k)


@dataclass(frozen=True)
class ExtremalReport:
    """Closed-form slice minimum next to its golden-section confirmation."""

    k: float
    argmin: float
    min_value: float
    numeric_argmin: float
    numeric_min: float
    agreement_err: float

    def __post_init__(self) -> None:
        if not self.min_value > 0.0:
            raise ValueError("slice minima are positive by construction")


def minimize_slice(k: float) -> ExtremalReport:
    """Minimize the fixed-k slice both ways and report the pair.

    agreement_err is |min_value - numeric_min|; the argmin discrepancy is
    left in the report for callers to judge (golden-section resolves the
    argmin of a flat quadratic bottom to about sqrt(eps) only).
    """
    _check_k(k)
    numeric_argmin, numeric_min = golden_section_min(
        lambda x: cot_sum_slice(k, x), SEARCH_LO, SEARCH_HI
    )
    argmin = slice_argmin(k)
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

    Confirmed before returning by a two-stage numeric search: golden-section
    over k composed with the numeric slice minimum (valid because the inner
    minimum is unique and the envelope is unimodal in k).  Raises
    RuntimeError if the numeric route strays from the closed form.
    """
    k_star, numeric_min = golden_section_min(
        lambda k: minimize_slice(k).numeric_min, 1e-3, 1e2
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


def right_cot_sum(ang_b: float) -> float:
    """Cotangent sum of a right triangle with base angle B: 2 / sin(2B)."""
    if not 0.0 < ang_b < 0.5 * math.pi:
        raise ValueError(f"base angle of a right triangle must be in (0, pi/2), got {ang_b!r}")
    return 2.0 / math.sin(2.0 * ang_b)


def right_triangle_min() -> tuple[float, float]:
    """Minimum squared cotangent sum over right triangles: (4, pi/4).

    The sum is 2/sin(2B) >= 2 with equality at the right isosceles triangle;
    golden-section over B confirms before the closed form is returned.
    """
    numeric_argmin, numeric_min = golden_section_min(
        right_cot_sum, SEARCH_LO, SEARCH_HI
    )
    if abs(numeric_min - 2.0) > 1e-9:
        raise RuntimeError(
            f"numeric right-triangle minimum {numeric_min!r} strays from 2"
        )
    if abs(numeric_argmin - 0.25 * math.pi) > 1e-8:
        raise RuntimeError(
            f"numeric right-triangle argmin {numeric_argmin!r} strays from pi/4"
        )
    return 4.0, 0.25 * math.pi


def cot_sum_lattice_min(n: int = 2000) -> tuple[float, float, float]:
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
