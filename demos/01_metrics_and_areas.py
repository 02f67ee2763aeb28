"""Five independent routes to a triangle's area, agreeing to machine precision.

The package never trusts a single formula: the shoelace value (pure
coordinate geometry) is cross-checked against Heron's radical, the
polynomial form of 16 E^2, the cotangent-sum formula, and the two-sides-
and-included-angle sine formula.  The identity chain computes all five and
returns them by name.
"""

import math

from perptri import Point2, Triangle
from perptri.ratio import identity_chain

TRIANGLES = {
    "right 3-4-5": Triangle(Point2(0, 0), Point2(4, 0), Point2(0, 3)),
    "equilateral": Triangle(Point2(0, 0), Point2(1, 0), Point2(0.5, math.sqrt(3) / 2)),
    "obtuse 120-30-30": Triangle(Point2(0, 0), Point2(1, 0), Point2(-0.5, math.sqrt(3) / 2)),
    "scalene": Triangle(Point2(-1.3, 0.4), Point2(5.1, -0.2), Point2(1.0, 3.7)),
}


def main() -> None:
    for name, t in TRIANGLES.items():
        chain = identity_chain(t.a.x, t.a.y, t.b.x, t.b.y, t.g.x, t.g.y)
        m, areas = chain.metrics, chain.areas
        print(f"{name}  (alpha={m.alpha:.6g}, beta={m.beta:.6g}, gamma={m.gamma:.6g})")
        for label, value in areas.items():
            print(f"    {label:<18} {value:.15g}")
        spread = max(areas.values()) - min(areas.values())
        print(f"    spread: {spread:.3e}")
        print()


if __name__ == "__main__":
    main()
