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
    ParallelLinesError,
    ParseError,
    PhiRangeError,
    ZeroDirectionError,
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
    Line2,
    Point2,
    Triangle,
    TriangleMetrics,
    angle_at,
    intersect,
    line_through_at_angle,
    metrics,
    signed_area,
)
from .identities import (
    area_from_cots,
    area_sine,
    cot,
    cot_double,
    cot_half_angles,
    cot_sum,
    cot_sum_two_angles,
    heron_area,
    sixteen_area_squared,
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
    "Line2",
    "NotATriangleError",
    "ParallelLinesError",
    "ParseError",
    "PhiRangeError",
    "Point2",
    "SweepResult",
    "Triangle",
    "TriangleCorpus",
    "TriangleMetrics",
    "VerifyReport",
    "ZeroDirectionError",
    "angle_at",
    "area_from_cots",
    "area_sine",
    "classify_angle",
    "concat_corpora",
    "construct",
    "cot",
    "cot_double",
    "cot_half_angles",
    "cot_sum",
    "cot_sum_lattice_min",
    "cot_sum_slice",
    "cot_sum_slice_deriv",
    "cot_sum_two_angles",
    "evaluate_corpus",
    "global_cot_sum_min",
    "golden_section_min",
    "heron_area",
    "identity_report",
    "intersect",
    "line_through_at_angle",
    "metrics",
    "minimize_slice",
    "render_svg",
    "right_cot_sum",
    "right_triangle_min",
    "run_sweep",
    "sample_corpus",
    "signed_area",
    "similarity_check",
    "sixteen_area_squared",
    "slice_argmin",
    "slice_min_value",
    "svg_document",
    "triangle_from_angles",
]
