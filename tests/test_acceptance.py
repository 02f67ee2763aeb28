"""Acceptance gate: the nine headline guarantees, each printed PASS or FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every tolerance here is pinned; the shared corpus is 10^5 seeded triangles
in four parts, the whole simplex and one part per angle-A stratum, each swept
by `run_sweep` and their reductions combined as those of the whole corpus.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from perptri.construction import construct, similarity_check
from perptri.extremal import (
    cot_sum_lattice_min,
    cot_sum_slice,
    cot_sum_slice_deriv,
    global_cot_sum_min,
    minimize_slice,
    right_triangle_min,
    slice_min_value,
)
from perptri.geom import MATH, angle_trig
from perptri.sampling import sample_corpus
from perptri.sweep import SweepResult, run_sweep

SEED = 20240817
SQRT3 = math.sqrt(3.0)
HALF_PI = 0.5 * math.pi


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail and not ok else ""))


#: The parts of the shared corpus: stratum -> (size, seed).
PARTS = {
    "all": (40_000, [SEED, 0]),
    "acute": (20_000, [SEED, 1]),
    "right": (20_000, [SEED, 2]),
    "obtuse": (20_000, [SEED, 3]),
}


@pytest.fixture(scope="module")
def swept():
    """Each part's sweep by stratum, and the wall-clock time of all four."""
    start = time.perf_counter()
    parts = {stratum: run_sweep(n, seed, stratum) for stratum, (n, seed) in PARTS.items()}
    return parts, time.perf_counter() - start


@pytest.fixture(scope="module")
def timed_sweep(swept):
    """The parts' reductions combined as the full 10^5 corpus's, and the wall-clock time.

    np.max propagates a NaN wherever it stands; Python's max drops one that
    does not come first.
    """
    parts, elapsed = swept
    results = list(parts.values())
    result = SweepResult(
        n=sum(map(len, results)),
        case_counts={case: sum(r.case_counts[case] for r in results)
                     for case in results[0].case_counts},
        max_residuals={key: float(np.max([r.max_residuals[key] for r in results]))
                       for key in results[0].max_residuals},
    )
    return result, elapsed


def test_acceptance_1_ratio_identity(timed_sweep):
    result, elapsed = timed_sweep
    worst = result.max_residuals["area_ratio"]
    counts = result.case_counts
    ok = (
        len(result) == 100_000
        and worst <= 1e-8
        and elapsed <= 10.0
        and all(counts[case] > 0 for case in ("acute", "right", "obtuse"))
    )
    detail = f"max residual {worst:.3e}, {elapsed:.2f}s, cases {counts}"
    _verdict(1, "ratio identity on 1e5-triangle corpus", ok, detail)
    assert ok, detail


def test_acceptance_2_global_minimum_three():
    total, ang_b, ang_g = global_cot_sum_min()
    lattice_min, lat_b, lat_g = cot_sum_lattice_min(n=2000)
    ok = (
        abs(total * total - 3.0) <= 1e-8
        and abs(ang_b - math.pi / 3.0) <= 1e-6
        and abs(ang_g - math.pi / 3.0) <= 1e-6
        and lattice_min >= SQRT3 - 1e-6
    )
    detail = (
        f"min^2 {total * total:.12f}, lattice min {lattice_min:.9f} "
        f"at ({lat_b:.6f}, {lat_g:.6f})"
    )
    _verdict(2, "global minimum ratio 3 at equilateral", ok, detail)
    assert ok, detail


def test_acceptance_3_right_triangle_minimum_four():
    min_sq, argmin = right_triangle_min()
    grid = (np.arange(10_000) + 0.5) / 10_000 * HALF_PI
    worst = 0.0
    for b in grid:
        b = float(b)
        lhs = sum(angle_trig(MATH, x)[0] for x in (HALF_PI, b, HALF_PI - b))
        rhs = 2.0 / math.sin(2.0 * b)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    ok = (
        abs(min_sq - 4.0) <= 1e-10
        and abs(argmin - math.pi / 4.0) <= 1e-8
        and worst <= 1e-10
    )
    detail = f"min {min_sq}, argmin {argmin}, max 2/sin2B residual {worst:.3e}"
    _verdict(3, "right-triangle minimum ratio 4 at B=45 deg", ok, detail)
    assert ok, detail


def test_acceptance_4_area_four_way_agreement(timed_sweep):
    result, _ = timed_sweep
    worst = result.max_residuals["area_agreement"]
    ok = worst <= 1e-8
    detail = f"max five-way relative spread {worst:.3e}"
    _verdict(4, "area formulas agree over corpus", ok, detail)
    assert ok, detail


def test_acceptance_5_identity_chain(timed_sweep):
    result, _ = timed_sweep
    keys = (
        "area_increment",
        "area_quadratic",
        "cot_term_a",
        "cot_term_g",
        "cot_term_b",
        "chain_sum",
    )
    worst = {key: result.max_residuals[key] for key in keys}
    ok = all(value <= 1e-9 for value in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _verdict(5, "identity chain residuals <= 1e-9", ok, detail)
    assert ok, detail


def test_acceptance_6_slice_closed_forms():
    ok = True
    detail = ""
    for k in np.logspace(-2.0, 2.0, 41):
        k = float(k)
        report = minimize_slice(k)
        closed_value = slice_min_value(k)
        value_via_slice = cot_sum_slice(k, report.argmin)
        checks = [
            abs(report.numeric_argmin - report.argmin) <= 1e-6,
            abs(report.numeric_min - report.min_value) <= 1e-9,
            abs(value_via_slice - closed_value) <= 1e-10 * closed_value,
        ]
        for x in (0.5, 0.8, 1.2):
            h = 1e-6
            fd = (cot_sum_slice(k, x + h) - cot_sum_slice(k, x - h)) / (2.0 * h)
            exact = cot_sum_slice_deriv(k, x)
            checks.append(abs(fd - exact) <= 1e-5 * abs(exact))
        if not all(checks):
            ok = False
            detail = f"k={k}: {checks}"
            break
    _verdict(6, "slice closed forms vs numeric search", ok, detail)
    assert ok, detail


def test_acceptance_7_similarity_for_all_phi():
    corpus = sample_corpus(10_000, seed=[SEED, 7])
    rng = np.random.default_rng([SEED, 77])
    phis = (1.0 - rng.uniform(0.0, 1.0, 10_000)) * HALF_PI  # in (0, pi/2]
    worst = 0.0
    for i in range(len(corpus)):
        t = corpus.triangle(i)
        disc = similarity_check(t, construct(t, float(phis[i])))
        worst = max(worst, max(disc))
    ok = worst <= 1e-7
    detail = f"max angle discrepancy {worst:.3e} rad"
    _verdict(7, "similarity holds for every phi", ok, detail)
    assert ok, detail


def test_acceptance_8_figure_cases(swept):
    n, seed = PARTS["right"]
    right = sample_corpus(n, seed, "right")
    obtuse = swept[0]["obtuse"]
    offset = max(construct(right.triangle(i)).gamma_prime_offset for i in range(len(right)))
    obtuse_worst = obtuse.max_residuals["area_ratio"]
    ok = offset <= 1e-9 and obtuse_worst <= 1e-8
    detail = f"right-case offset {offset:.3e}, obtuse ratio residual {obtuse_worst:.3e}"
    _verdict(8, "Gamma'=B when right; obtuse case still exact", ok, detail)
    assert ok, detail


def test_acceptance_9_cli_determinism():
    cmd = [sys.executable, "-m", "perptri", "sweep", "--n", "1000", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    detail = f"return codes {first.returncode}/{second.returncode}"
    _verdict(9, "sweep CLI output byte-identical across runs", ok, detail)
    assert ok, detail
