"""Derived triangles from rotated side lines.

Rotate each side line of a triangle by an angle phi (pi/2 for the
perpendicular case) about a chosen vertex.  The three rotated lines bound a
derived triangle similar to the original, and at phi = pi/2 the area ratio
equals the squared cotangent sum (cot A + cot B + cot Gamma)^2 -- at least 3
for any triangle, at least 4 when a right angle is pinned at A.  This package
constructs the derived triangle, verifies the ratio identity and every
intermediate identity it rests on, and confirms the extremal values both in
closed form and numerically.

Only the sweep and the brute-force lattice work on arrays, and only they
import numpy: the sweep's names below are resolved on first access.
"""

from .construction import DerivedConstruction, construct, similarity_check
from .errors import GeometryError, ParseError
from .extremal import (
    ExtremalReport,
    cot_sum_lattice_min,
    cot_sum_slice,
    global_cot_sum_min,
    minimize_slice,
    right_cot_sum,
    right_triangle_min,
    slice_min_value,
)
from .geom import (
    AngleCase,
    Point2,
    Triangle,
    TriangleMetrics,
    classify_angle,
    metrics,
)
from .ratio import VerifyReport, identity_report
from .sampling import (
    DELTA_MAIN,
    DELTA_STRESS,
    TriangleCorpus,
    concat_corpora,
    sample_corpus,
    triangle_from_angles,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "AngleCase",
    "DELTA_MAIN",
    "DELTA_STRESS",
    "DerivedConstruction",
    "ExtremalReport",
    "GeometryError",
    "ParseError",
    "Point2",
    "SweepResult",
    "Triangle",
    "TriangleCorpus",
    "TriangleMetrics",
    "VerifyReport",
    "classify_angle",
    "concat_corpora",
    "construct",
    "cot_sum_lattice_min",
    "cot_sum_slice",
    "evaluate_corpus",
    "global_cot_sum_min",
    "identity_report",
    "metrics",
    "minimize_slice",
    "render_svg",
    "right_cot_sum",
    "right_triangle_min",
    "run_sweep",
    "sample_corpus",
    "similarity_check",
    "slice_min_value",
    "triangle_from_angles",
]


_SWEEP_NAMES = ("SweepResult", "evaluate_corpus", "run_sweep")


def __getattr__(name: str):
    """The sweep's names, imported (with numpy) on first access."""
    if name not in _SWEEP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sweep

    return getattr(sweep, name)
