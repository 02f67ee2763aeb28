"""Acceptance gate: the nine headline guarantees, each printed PASS or FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every tolerance here is pinned; the shared corpus is 10^5 seeded triangles
spanning all three angle-A strata plus dedicated per-stratum batches.
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
from perptri.geom import MATH, cot
from perptri.sampling import concat_corpora, sample_corpus
from perptri.sweep import evaluate_corpus

SEED = 20240817
SQRT3 = math.sqrt(3.0)
HALF_PI = 0.5 * math.pi


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail and not ok else ""))


@pytest.fixture(scope="module")
def parts():
    return {
        "all": sample_corpus(40_000, seed=[SEED, 0], stratum="all"),
        "acute": sample_corpus(20_000, seed=[SEED, 1], stratum="acute"),
        "right": sample_corpus(20_000, seed=[SEED, 2], stratum="right"),
        "obtuse": sample_corpus(20_000, seed=[SEED, 3], stratum="obtuse"),
    }


@pytest.fixture(scope="module")
def timed_sweep(parts):
    """Evaluate the full 10^5 corpus, keeping the wall-clock time."""
    start = time.perf_counter()
    corpus = concat_corpora(*parts.values())
    result = evaluate_corpus(corpus)
    elapsed = time.perf_counter() - start
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
        lhs = cot(MATH, HALF_PI) + cot(MATH, b) + cot(MATH, HALF_PI - b)
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


def test_acceptance_8_figure_cases(parts):
    right = evaluate_corpus(parts["right"])
    obtuse = evaluate_corpus(parts["obtuse"])
    offset = float(right.gamma_prime_offset.max())
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
