"""Where the area ratio is smallest.

Fix one base-angle cotangent at k and minimize the cotangent sum along the
remaining free angle: the slice minimum f(k) = 2 sqrt(k^2+1) - k (in its
equivalent radical form) bottoms out at k = 1/sqrt(3), giving the global
minimum sqrt(3) -- the equilateral triangle, ratio 3.  Right triangles are
pinned to 2/sin(2B), minimum 2 at B = 45 degrees, ratio 4.  Every closed
form is confirmed by a numeric search (Brent's method) and a brute-force
lattice.
"""

import math

import numpy as np

from perptri.extremal import (
    cot_sum_lattice_min,
    global_cot_sum_min,
    minimize_slice,
    right_cot_sum,
    right_triangle_min,
)


def main() -> None:
    print("slice minima (closed form vs Brent's method):")
    print(f"    {'k':>10} {'argmin':>12} {'numeric':>12} {'min value':>12} {'err':>9}")
    for k in np.logspace(-1.5, 1.5, 7):
        r = minimize_slice(float(k))
        print(
            f"    {r.k:10.4f} {r.argmin:12.8f} {r.numeric_argmin:12.8f} "
            f"{r.min_value:12.9f} {r.agreement_err:9.1e}"
        )

    total, ang_b, ang_g = global_cot_sum_min()
    print()
    print(f"global minimum: cot sum {total:.12f} = sqrt(3) "
          f"at B = Gamma = {math.degrees(ang_b):.1f} deg")
    print(f"    minimum area ratio: {total * total:.12f}")

    lattice_min, lb, lg = cot_sum_lattice_min(n=1200)
    print(f"    lattice corroboration (1200 x 1200): min {lattice_min:.9f} "
          f"at B = {math.degrees(lb):.2f} deg, Gamma = {math.degrees(lg):.2f} deg")

    min_sq, argmin = right_triangle_min()
    print()
    print(f"right-triangle family: cot sum = 2/sin(2B)")
    for deg in (20, 30, 45, 60, 70):
        print(f"    B = {deg:2d} deg: {right_cot_sum(math.radians(deg)):.6f}")
    print(f"    minimum ratio {min_sq:.1f} at B = {math.degrees(argmin):.1f} deg "
          "(the right isosceles triangle)")


if __name__ == "__main__":
    main()
