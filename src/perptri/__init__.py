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
import numpy.  Importing the package imports none of its modules: each public
name, and each module as an attribute (`perptri.sweep`), is imported on its
first access (PEP 562), so a command pays only for the modules it runs.
"""

__version__ = "0.1.0"

#: Each module's public names.
_EXPORTS = {
    "construction": ("DerivedConstruction", "construct", "similarity_check"),
    "errors": ("GeometryError", "ParseError"),
    "extremal": ("ExtremalReport", "cot_sum_lattice_min", "cot_sum_slice", "global_cot_sum_min",
                 "minimize_slice", "right_cot_sum", "right_triangle_min", "slice_min_value"),
    "geom": ("AngleCase", "Point2", "Triangle", "TriangleMetrics", "classify_angle", "metrics"),
    "ratio": ("VerifyReport", "identity_report"),
    "sampling": ("DELTA_MAIN", "DELTA_STRESS", "TriangleCorpus", "concat_corpora",
                 "sample_corpus", "triangle_from_angles"),
    "svg": ("render_svg",),
    "sweep": ("SweepResult", "evaluate_corpus", "run_sweep"),
}
_MODULES = {*_EXPORTS, "cli"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A module, or a public name of one, imported on first access."""
    from importlib import import_module

    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later accesses skip this function
    return value
