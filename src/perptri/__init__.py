"""Derived triangles from rotated side lines.

Rotate each side line of a triangle by an angle phi (pi/2 for the
perpendicular case) about a chosen vertex.  The three rotated lines bound a
derived triangle similar to the original, and at phi = pi/2 the area ratio
equals the squared cotangent sum (cot A + cot B + cot Gamma)^2 -- at least 3
for any triangle, at least 4 when a right angle is pinned at A.  This package
constructs the derived triangle, verifies the ratio identity and every
intermediate identity it rests on, and confirms the extremal values both in
closed form and numerically.
"""

from .construction import (
    AngleCase,
    DerivedConstruction,
    classify_angle,
    construct,
    similarity_check,
)
from .errors import (
    AngleSumError,
    DegenerateTriangleError,
    GeometryError,
    NotATriangleError,
    ParseError,
    PhiRangeError,
)
from .extremal import (
    ExtremalReport,
    cot_sum_lattice_min,
    cot_sum_slice,
    cot_sum_slice_deriv,
    global_cot_sum_min,
    golden_section_min,
    minimize_slice,
    right_cot_sum,
    right_triangle_min,
    slice_argmin,
    slice_min_value,
)
from .geom import (
    Point2,
    Triangle,
    TriangleMetrics,
    metrics,
    signed_area,
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
from .svg import render_svg, svg_document
from .sweep import SweepResult, evaluate_corpus, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AngleCase",
    "AngleSumError",
    "DELTA_MAIN",
    "DELTA_STRESS",
    "DegenerateTriangleError",
    "DerivedConstruction",
    "ExtremalReport",
    "GeometryError",
    "NotATriangleError",
    "ParseError",
    "PhiRangeError",
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
    "cot_sum_slice_deriv",
    "evaluate_corpus",
    "global_cot_sum_min",
    "golden_section_min",
    "identity_report",
    "metrics",
    "minimize_slice",
    "render_svg",
    "right_cot_sum",
    "right_triangle_min",
    "run_sweep",
    "sample_corpus",
    "signed_area",
    "similarity_check",
    "slice_argmin",
    "slice_min_value",
    "svg_document",
    "triangle_from_angles",
]
