"""The two exception types of bad input.

ParseError: the command line or the triangle specification is malformed.
GeometryError: binary64 cannot take this triangle or this value -- collinear
or too thin to judge, sides that violate the triangle inequality, angles that
leave no room for a triangle, a rotation angle outside (0, pi/2], or a length
or area that does not fit binary64.  Each message says which.

Both derive from ValueError.  The CLI maps both to exit code 2 with a
single-line diagnostic; any other exception, a plain ValueError included, is
a defect of the package and exits 3.
"""


class GeometryError(ValueError):
    """binary64 cannot take this triangle or this value; the message says why."""


class ParseError(ValueError):
    """A command-line mistake, or a malformed or ambiguous triangle specification."""
