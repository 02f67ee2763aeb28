"""Vectorized identity sweeps over seeded random corpora.

A hundred thousand triangles -- acute, right, and obtuse A, sizes spanning
four decades -- are constructed geometrically (real line intersections,
shoelace areas) and every identity residual is taken.  The point of the
exercise: worst-case residuals sit at roundoff level, not merely below some
generous tolerance.  Every triangle is judged against the one bound
C eps / theta**2 of its smallest angle theta.  A second sweep pushes
into sliver territory (angles down to 1e-4 rad) where conditioning honestly
degrades, and the bound grows with it.
"""

import time

from perptri.sampling import DELTA_STRESS, concat_corpora, sample_corpus
from perptri.sweep import evaluate_corpus


def summarize(title: str, result, elapsed: float) -> None:
    print(f"{title}: {len(result)} triangles in {elapsed:.2f} s")
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
    start = time.perf_counter()
    corpus = concat_corpora(
        sample_corpus(60_000, seed=[7, 0], stratum="all"),
        sample_corpus(20_000, seed=[7, 1], stratum="right"),
        sample_corpus(20_000, seed=[7, 2], stratum="obtuse"),
    )
    summarize("angles from 0.01 rad", evaluate_corpus(corpus), time.perf_counter() - start)

    start = time.perf_counter()
    slivers = evaluate_corpus(sample_corpus(20_000, seed=7, delta=DELTA_STRESS))
    summarize("sliver angles, from 1e-4 rad", slivers, time.perf_counter() - start)


if __name__ == "__main__":
    main()
