"""Each link of the identity chain, proven once, symbolically.

Every residual compares two expressions that must agree as rational
functions of the vertex coordinates.  Here they are reduced with sympy on
the general triangle A = (0, 0), B = (b, 0), Gamma = (p, q), with b, q > 0
and p real: the derived area comes from `geom.derived_triangle` itself, the
squared sides from `ratio.side_squares`, the cot terms' right sides from
`ratio._term_norm` and the cotangent route from `ratio._square_routes`, all
run on sympy objects as they are.  Each cotangent is dot / cross of the
edges leaving its vertex, and E = b q / 2.

The same links with free symbols for the squared sides, the cotangents and
the areas show which links check arithmetic only: `squared_sum_expansion`
holds for any three squared sides, and `chain_sum`'s right side is
identically 0, so it reads `area_quadratic`'s residual.

`half_angle_cots` and `area_agreement` compare routes through square roots
of the sides, which need the sides as symbols reduced modulo their squares;
they are PENDING until then.  A new residual joins CHECK_ORDER with a proof.
"""

from types import SimpleNamespace

import sympy as sp

from perptri.geom import MATH, derived_triangle
from perptri.ratio import CHECK_ORDER, _square_routes, _term_norm, side_squares

#: Residuals of CHECK_ORDER whose routes need radicals of the sides.
PENDING = {"half_angle_cots", "area_agreement"}

#: `geom.Ops` with sympy's sqrt and Max, for the routines that take one.
SYMPY = MATH._replace(sqrt=sp.sqrt, max=sp.Max)


def zero(expr) -> bool:
    """Whether expr, with its binary64 constants taken exactly, is identically 0."""
    expr = sp.sympify(expr)
    return sp.cancel(expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)})) == 0


def cot(ux, uy, vx, vy):
    """cot of the angle from edge u to edge v leaving a vertex counterclockwise: dot / cross."""
    return (ux * vx + uy * vy) / (ux * vy - uy * vx)


def general_triangle() -> SimpleNamespace:
    """The values the chain reads, of A = (0, 0), B = (b, 0), Gamma = (p, q)."""
    b, q = sp.symbols("b q", positive=True)
    p = sp.Symbol("p", real=True)
    # The shoelace area is 0.5 |x|; read as 0.5 x, it is proven equal to
    # E (sum cot)^2 >= 0 (area_ratio), so the absolute value changes nothing.
    derived = derived_triangle(b, 0.0, p, q, 0.0, 1.0)[1].replace(sp.Abs, lambda x: x)
    return SimpleNamespace(
        area=b * q / 2, derived=derived,
        sq=side_squares(sp.sqrt((p - b) ** 2 + q ** 2), sp.sqrt(p ** 2 + q ** 2), b),
        cot_a=cot(b, 0, p, q), cot_b=cot(p - b, q, -b, 0), cot_g=cot(-p, -q, b - p, -q))


def free_values() -> SimpleNamespace:
    """The same values as free symbols: squared sides, cotangents and both areas."""
    a2, b2, g2, area, derived = sp.symbols("a2 b2 g2 E D", positive=True)
    cot_a, cot_b, cot_g = sp.symbols("cot_a cot_b cot_g", real=True)
    return SimpleNamespace(area=area, derived=derived,
                           sq=side_squares(sp.sqrt(a2), sp.sqrt(b2), sp.sqrt(g2)),
                           cot_a=cot_a, cot_b=cot_b, cot_g=cot_g)


def links(v) -> dict:
    """Each proven residual of CHECK_ORDER as (lhs, rhs), of the values v, as the chain forms it."""
    a2, b2, g2, sum_sq, pairs, quads, sixteen = v.sq
    area, csum = v.area, v.cot_a + v.cot_b + v.cot_g
    cot_side_sum = g2 * v.cot_a + b2 * v.cot_g + a2 * v.cot_b
    quadratic_lhs = 16 * area * area + 8 * area * cot_side_sum - sum_sq * sum_sq
    # The triples identity_chain passes to _term_norm, with their left sides.
    terms = {
        "cot_term_a": (8 * area * g2 * v.cot_a, 2 * g2, b2, g2, a2),
        "cot_term_g": (8 * area * b2 * v.cot_g, 2 * b2, a2, b2, g2),
        "cot_term_b": (8 * area * a2 * v.cot_b, 2 * a2, g2, a2, b2),
    }
    terms = {name: (args[0], _term_norm(sp.Max, *args)[1]) for name, args in terms.items()}
    chain_rhs = sixteen + sum(rhs for _, rhs in terms.values()) - 2 * pairs - quads
    return {
        "area_increment": (v.derived, area + cot_side_sum / 2),
        "sixteen_area_sq": (sixteen, 16 * area * area),
        **terms,
        "squared_sum_expansion": (-sum_sq * sum_sq, -2 * pairs - quads),
        "chain_sum": (quadratic_lhs, chain_rhs),
        "area_quadratic": (quadratic_lhs, 0),
        "area_from_cots": (_square_routes(SYMPY, v.sq, csum)[1], area),
        "area_ratio": (v.derived / area, csum * csum),
    }


def test_every_link_holds_on_the_general_triangle():
    held = {name: zero(lhs - rhs) for name, (lhs, rhs) in links(general_triangle()).items()}
    assert all(held.values()), held


def test_only_squared_sum_expansion_and_chain_sum_check_arithmetic_alone():
    free = links(free_values())
    assert {name for name, (lhs, rhs) in free.items() if zero(lhs - rhs)} == {
        "squared_sum_expansion"}
    # chain_sum compares area_quadratic's left side with a polynomial that is 0
    # for any squared sides: its residual is area_quadratic's.
    assert zero(free["chain_sum"][1])


def test_every_residual_is_proven_or_pending():
    proven = set(links(free_values()))
    assert not proven & PENDING
    assert proven | PENDING == set(CHECK_ORDER)
