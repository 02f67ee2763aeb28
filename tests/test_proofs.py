"""Each link of the identity chain, proven once, symbolically, as the package computes it.

The shipped kernel runs on sympy objects: `geom.anchored_metrics` measures
the general triangle A = (0, 0), B = (b, 0), Gamma = (p, q), with b, q > 0
and p real, `geom.derived_triangle` builds its derived triangle, and
`ratio.identity_chain` forms every residual of CHECK_ORDER from the two.
The chain takes `geom.NUMPY` for any input that is not a float, so `SYMPY`
stands in for it during the run.  sympy writes cos(atan2(y, x)) as
x / sqrt(x**2 + y**2) by itself, so each cotangent arrives as a function of
the coordinates.

A residual is proven 0 when its numerator reduces to 0 with its binary64
constants taken exactly and each absolute value read as its argument.  That reading
is sound: the chain takes absolute values of residual numerators, which are
0 exactly when their arguments are, of the cross b q > 0, and of the
derived triangle's signed doubled area, which `area_ratio` proves equal to
2 E (sum cot)**2 >= 0.  `half_angle_cots` compares square roots of
expressions in the sides with the half-angle cotangents, and is reduced
modulo the squares of the sides.

The same chain on free symbols for the metrics and the derived area shows
which links check arithmetic only: `squared_sum_expansion` holds for any
values, and `chain_sum` equals `area_quadratic`.
"""

from types import SimpleNamespace

import pytest
import sympy as sp

from perptri import geom
from perptri.geom import MATH, TriangleMetrics, anchored_metrics, angle_trig, derived_triangle
from perptri.ratio import CHECK_ORDER, identity_chain

#: `geom.Ops` on sympy objects.
SYMPY = MATH._replace(hypot=lambda x, y: sp.sqrt(x * x + y * y), atan2=sp.atan2, cos=sp.cos,
                      sin=sp.sin, sqrt=sp.sqrt, max=sp.Max, min=sp.Min)

#: The link whose residual compares square roots of the sides' expressions.
RADICAL = "half_angle_cots"

b, q = sp.symbols("b q", positive=True)
p = sp.Symbol("p", real=True)


def exact(expr):
    """expr with each absolute value read as its argument and its binary64 constants exact."""
    expr = expr.replace(sp.Abs, lambda x: x)
    return expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)})


def zero(expr, reduce=sp.cancel) -> bool:
    """Whether reduce takes the numerator of expr, read by `exact`, to 0."""
    return reduce(exact(sp.fraction(expr)[0])) == 0


def is_root(e) -> bool:
    """Whether e is a square root or its reciprocal."""
    return e.is_Pow and abs(e.exp) == sp.S.Half


def chain_of(area_derived, m) -> dict:
    """identity_chain's residuals of sympy metrics m and derived area, by name."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geom, "NUMPY", SYMPY, raising=False)
        residuals = {}
        identity_chain([area_derived, m], residuals)
        return residuals


@pytest.fixture(scope="module")
def general() -> SimpleNamespace:
    """The general triangle's metrics and its chain's residuals."""
    m = anchored_metrics(SYMPY, b, 0, p, q)
    return SimpleNamespace(m=m, residuals=chain_of(derived_triangle(b, 0, p, q, 0, 1)[1], m))


def test_every_link_holds_on_the_general_triangle(general):
    residuals = general.residuals
    # The five area routes reach one form, where Max and Min collapse, under simplify.
    held = {name: zero(residuals[name], sp.simplify if name == "area_agreement" else sp.cancel)
            for name in CHECK_ORDER if name != RADICAL}
    assert all(held.values()), held


def test_every_residual_is_proven_or_pending(general):
    # No link is pending: the chain forms exactly CHECK_ORDER, the test above
    # proves each residual but RADICAL, and RADICAL has its own proof below.
    assert sorted(general.residuals) == sorted(CHECK_ORDER)
    assert RADICAL in CHECK_ORDER


def test_half_angle_cots_holds_modulo_the_squared_sides(general):
    # Each term is |sqrt(X) - Y| / (1 + |Y|).  With the sides alpha and beta
    # off the axis as positive symbols, every other radical of the
    # coordinates factors into them (sqrt(b**2 (p**2 + q**2)) = b beta).  Y
    # is a half-angle cotangent, positive, so X = Y**2 modulo the sides'
    # squares proves sqrt(X) = Y.
    alpha, beta = sp.symbols("alpha beta", positive=True)
    squares = {alpha: sp.expand(general.m.alpha ** 2), beta: sp.expand(general.m.beta ** 2)}
    sides = {square: side for side, square in squares.items()}
    relations = [side ** 2 - square for side, square in squares.items()]

    def is_side(r) -> bool:
        return is_root(r) and sp.expand(r.base) in sides

    def as_sides(root):
        split = sp.sqrt(sp.factor(root.base)).replace(is_side, lambda r: sides[sp.expand(r.base)])
        return split ** (2 * root.exp)

    terms = general.residuals[RADICAL].args
    assert len(terms) == 3
    for term in terms:
        gap = exact(sp.fraction(term)[0]).replace(
            lambda e: is_root(e) and e.base.free_symbols <= {b, p, q}, as_sides)
        cot = -gap.xreplace({e: 0 for e in gap.atoms(sp.Pow) if is_root(e)})
        numerator = sp.numer(sp.together(sp.expand((gap + cot) ** 2 - cot * cot)))
        assert sp.reduced(sp.expand(numerator), relations, alpha, beta)[1] == 0, term


def test_derived_triangle_is_similar_at_every_phi(general):
    # The lines are turned by (c, s) = (cos phi, sin phi), taken as free
    # symbols: a line depends only on its direction, so the cotangents hold
    # for any (c, s) != 0 without c**2 + s**2 = 1.  B' and Gamma' are taken
    # relative to A' in lowest terms.  Each cotangent is read with |cross| as
    # cross: the signed cot sums then agree, and the original's is positive,
    # so the derived triangle's cross is positive too.
    c, s = sp.symbols("c s", real=True)
    (apx, apy), (bpx, bpy), (gpx, gpy) = derived_triangle(b, 0, p, q, c, s)[0]
    derived = anchored_metrics(SYMPY, *map(sp.cancel, (bpx - apx, bpy - apy, gpx - apx,
                                                       gpy - apy)))
    cot_a, cot_b, cot_g = (angle_trig(SYMPY, ang)[0] for ang in general.m[3:6])
    derived_cots = (angle_trig(SYMPY, ang)[0] for ang in derived[3:6])
    held = [zero(x - y) for x, y in zip(derived_cots, (cot_b, cot_g, cot_a))]
    assert all(held), held


def test_only_squared_sum_expansion_and_chain_sum_check_arithmetic_alone():
    m = TriangleMetrics(*sp.symbols("alpha beta gamma A B G s E", positive=True))
    residuals = chain_of(sp.Symbol("D", positive=True), m)
    assert {name for name, residual in residuals.items() if zero(residual)} == {
        "squared_sum_expansion"}
    assert zero(residuals["chain_sum"] - residuals["area_quadratic"])
