"""Exception types raised by the geometry and identity layers.

Everything derives from ValueError so callers that do not care about the
fine-grained cause can catch one base class.  The CLI maps GeometryError and
ParseError to exit code 2 (bad input) with a single-line diagnostic; any
other exception, a plain ValueError included, is a defect of the package and
exits 3.
"""


class GeometryError(ValueError):
    """Base class for all domain errors raised by this package."""


class DegenerateTriangleError(GeometryError):
    """Vertices are collinear (or nearly so) at the scale of the triangle."""


class NotATriangleError(GeometryError):
    """Side lengths violate the strict triangle inequality."""


class AngleSumError(GeometryError):
    """An angle triple does not describe a triangle (range or sum violation)."""


class PhiRangeError(GeometryError):
    """Rotation angle outside the supported interval (0, pi/2]."""


class ParseError(ValueError):
    """Malformed or ambiguous triangle specification document."""
