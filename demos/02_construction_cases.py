"""The derived triangle in its three qualitative cases.

Rotate each side line by +90 degrees about the next vertex (B, Gamma, A for
sides AB, B-Gamma, Gamma-A); the three rotated lines bound a triangle
A'B'Gamma' similar to the original, and its area exceeds the original by the
factor (cot A + cot B + cot Gamma)^2.  Watch what the case of angle A does:

  * acute  -- the derived triangle strictly contains the source,
  * right  -- Gamma' collapses exactly onto B (rotating by phi instead, it
              does so where A = pi - phi),
  * obtuse -- the two triangles only partially overlap, yet the ratio
              formula still holds because cot A < 0 compensates.
"""

import math

from perptri.construction import construct, similarity_check
from perptri.geom import Point2, Triangle

CASES = {
    "acute (equilateral)": Triangle(
        Point2(0, 0), Point2(1, 0), Point2(0.5, math.sqrt(3) / 2)
    ),
    "right (3-4-5)": Triangle(Point2(0, 0), Point2(4, 0), Point2(0, 3)),
    "obtuse (120-30-30)": Triangle(
        Point2(0, 0), Point2(1, 0), Point2(-0.5, math.sqrt(3) / 2)
    ),
}


def main() -> None:
    for name, t in CASES.items():
        d = construct(t)
        print(f"{name}: classified {d.case}")
        print(f"    A'     = ({d.ap.x:+.9f}, {d.ap.y:+.9f})")
        print(f"    B'     = ({d.bp.x:+.9f}, {d.bp.y:+.9f})")
        print(f"    Gamma' = ({d.gp.x:+.9f}, {d.gp.y:+.9f})")
        if d.gamma_prime_on_b:
            print("    note: Gamma' coincides with vertex B")
        print(f"    area ratio, measured:  {d.ratio_geometric:.12f}")
        print(f"    area ratio, (sum cot)^2: {d.ratio_formula:.12f}")
        disc = similarity_check(t, d)
        print(f"    similarity discrepancy: {max(disc):.3e} rad")
        print()

    # The similarity claim is not tied to 90 degrees; the ratio formula is.
    t = CASES["right (3-4-5)"]
    print("same construction at partial rotation angles:")
    for deg in (15, 30, 45, 60, 75, 90):
        d = construct(t, math.radians(deg))
        disc = max(similarity_check(t, d))
        print(
            f"    phi = {deg:2d} deg: measured ratio {d.ratio_geometric:9.5f}, "
            f"similarity discrepancy {disc:.2e} rad"
        )


if __name__ == "__main__":
    main()
