"""Vectorized identity sweeps over seeded random corpora.

A hundred thousand triangles -- acute, right, and obtuse A, sizes spanning
four decades -- are constructed geometrically (real line intersections,
shoelace areas) and every identity residual is taken.  The point of the
exercise: worst-case residuals sit at roundoff level, not merely below some
generous tolerance.  Every triangle is judged against the one bound
C eps / theta**2 of its smallest angle theta.
"""

import time

from perptri.sweep import run_sweep


def summarize(title: str, result, elapsed: float) -> None:
    print(f"{title}: {result.n} triangles in {elapsed:.2f} s")
    counts = result.case_counts
    print(f"    cases: acute {counts['acute']}, right {counts['right']}, "
          f"obtuse {counts['obtuse']}")
    print(f"    over the bound C eps/theta^2: {result.over_bound}")
    print("    worst residuals:")
    for key, value in sorted(result.max_residuals.items(), key=lambda kv: -kv[1]):
        print(f"        {key:<22} {value:.3e}")
    ang_b, ang_g, _ = result.argmin_row
    print(f"    smallest cot sum {result.min_cot_sum:.8f} "
          f"(equilateral would be 1.73205081) at "
          f"B = {ang_b:.5f} rad, Gamma = {ang_g:.5f} rad")
    print()


def main() -> None:
    # An exactly-right angle A has probability zero under the simplex draw,
    # so the right stratum gets its own dedicated batch.
    for i, (stratum, n) in enumerate((("all", 60_000), ("right", 20_000), ("obtuse", 20_000))):
        start = time.perf_counter()
        result = run_sweep(n, [7, i], stratum)
        summarize(f"{stratum} stratum, angles from 0.01 rad", result, time.perf_counter() - start)


if __name__ == "__main__":
    main()
