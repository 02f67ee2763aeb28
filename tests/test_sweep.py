"""Vectorized sweeps: the shared identity chain on arrays, and its reductions.

`evaluate_corpus` and `identity_report` run the same kernel, on arrays and on
one triangle's floats; the bridge tests below pin the two entries together,
and hold the sweep's cot sum, ratio and Gamma' offset against the independent
routes (the cot sum of the corpus's sampled angles, `construction.construct`).
The chunked, threaded `run_sweep` is in turn pinned to the one-shot reduction
of `evaluate_corpus` over the whole corpus, exactly.
"""

import math

import numpy as np
import pytest

from perptri.construction import construct
from perptri.geom import MATH, cot
from perptri.ratio import CHECK_ORDER, STRICT_TOLERANCES, identity_report
from perptri import sweep
from perptri.sampling import STRATA, TriangleCorpus, concat_corpora, sample_corpus
from perptri.sweep import CHUNK, evaluate_corpus, run_sweep

BRIDGE_ABS = 1e-13


@pytest.fixture(scope="module")
def bridge_corpus():
    return concat_corpora(
        sample_corpus(150, seed=[11, 0]),
        sample_corpus(80, seed=[11, 1], stratum="right"),
        sample_corpus(80, seed=[11, 2], stratum="obtuse"),
    )


@pytest.fixture(scope="module")
def bridge_result(bridge_corpus):
    return evaluate_corpus(bridge_corpus)


def test_residual_keys_complete(bridge_result):
    assert set(bridge_result.residuals) == set(CHECK_ORDER)


def test_bridge_residuals_match_scalar(bridge_corpus, bridge_result):
    for i in range(len(bridge_corpus)):
        report = identity_report(bridge_corpus.triangle(i))
        for key in CHECK_ORDER:
            scalar = report.residuals[key]
            vector = float(bridge_result.residuals[key][i])
            assert abs(scalar - vector) < BRIDGE_ABS, (i, key)


def test_bridge_values_match_scalar(bridge_corpus, bridge_result):
    for i in range(len(bridge_corpus)):
        t = bridge_corpus.triangle(i)
        d = construct(t)
        ang_b, ang_g = float(bridge_corpus.ang_b[i]), float(bridge_corpus.ang_g[i])
        total = cot(MATH, math.pi - ang_b - ang_g) + cot(MATH, ang_b) + cot(MATH, ang_g)
        assert float(bridge_result.cot_sum[i]) == pytest.approx(total, rel=1e-12)
        assert float(bridge_result.ratio_geometric[i]) == pytest.approx(
            d.ratio_geometric, rel=1e-12
        )
        offset = math.hypot(d.gp.x - t.b.x, d.gp.y - t.b.y) / t.longest_side()
        assert abs(float(bridge_result.gamma_prime_offset[i]) - offset) < 1e-12


def test_bridge_case_counts_match_scalar(bridge_corpus, bridge_result):
    counts = {"acute": 0, "right": 0, "obtuse": 0}
    for i in range(len(bridge_corpus)):
        counts[identity_report(bridge_corpus.triangle(i)).case.value] += 1
    assert bridge_result.case_counts == counts


# ---------------------------------------------------------------------------
# sweep behaviour
# ---------------------------------------------------------------------------

def test_sweep_is_deterministic():
    r1 = evaluate_corpus(sample_corpus(200, seed=3))
    r2 = evaluate_corpus(sample_corpus(200, seed=3))
    assert r1.max_residuals == r2.max_residuals
    for key in CHECK_ORDER:
        assert np.array_equal(r1.residuals[key], r2.residuals[key])
    assert np.array_equal(r1.cot_sum, r2.cot_sum)
    assert run_sweep(200, seed=3) == run_sweep(200, seed=3)


def _same(chunked: float, reference: float) -> bool:
    return chunked == reference or (math.isnan(chunked) and math.isnan(reference))


def _assert_one_shot_reductions(summary, corpus):
    """The chunked summary equals the reductions of evaluate_corpus(corpus), exactly."""
    reference = evaluate_corpus(corpus)
    assert len(summary) == len(corpus)
    assert summary.case_counts == reference.case_counts
    assert summary.argmin_index == reference.argmin_index
    assert _same(summary.min_cot_sum, reference.min_cot_sum)
    assert summary.max_residuals.keys() == reference.max_residuals.keys()
    for key, value in reference.max_residuals.items():
        assert _same(summary.max_residuals[key], value), key


@pytest.mark.parametrize("stratum", STRATA)
@pytest.mark.parametrize("n", [0, 1, CHUNK, 3 * CHUNK + 17])
def test_chunked_sweep_equals_one_shot_reduction(n, stratum):
    seed = [41, n]
    _assert_one_shot_reductions(run_sweep(n, seed, stratum), sample_corpus(n, seed, stratum))


def _sweep_of(monkeypatch, corpus):
    """run_sweep over a given corpus instead of a sampled one."""
    monkeypatch.setattr(sweep, "sample_corpus", lambda n, seed, stratum, delta: corpus)
    summary = run_sweep(len(corpus), seed=0)
    _assert_one_shot_reductions(summary, corpus)
    return summary


def test_chunk_merge_keeps_first_of_ties(monkeypatch):
    # Every chunk repeats the first, so every extreme ties across chunks and
    # the earliest index must win, as np.argmin's does.
    base = sample_corpus(CHUNK, seed=43)
    summary = _sweep_of(monkeypatch, concat_corpora(base, base, base))
    assert summary.argmin_index < CHUNK


def test_chunk_merge_propagates_nan(monkeypatch):
    corpus = sample_corpus(3 * CHUNK + 9, seed=44)
    scale = corpus.scale.copy()
    scale[2 * CHUNK + 5] = math.nan
    summary = _sweep_of(
        monkeypatch, TriangleCorpus(ang_b=corpus.ang_b, ang_g=corpus.ang_g, scale=scale)
    )
    assert summary.argmin_index == 2 * CHUNK + 5
    assert all(math.isnan(value) for value in summary.max_residuals.values())


def test_sweep_residuals_within_tolerances(bridge_result):
    for key, tol in STRICT_TOLERANCES.items():
        assert bridge_result.max_residuals[key] <= tol, key


def test_min_cot_sum_and_argmin(bridge_result):
    idx = bridge_result.argmin_index
    assert idx is not None
    assert float(bridge_result.cot_sum[idx]) == bridge_result.min_cot_sum
    assert bridge_result.min_cot_sum >= math.sqrt(3.0) - 1e-12


def test_right_stratum_gamma_prime_collapse():
    result = evaluate_corpus(sample_corpus(500, seed=29, stratum="right"))
    assert result.case_counts == {"acute": 0, "right": 500, "obtuse": 0}
    assert float(result.gamma_prime_offset.max()) < 1e-12


def test_obtuse_stratum_ratio_holds():
    result = run_sweep(500, seed=31, stratum="obtuse")
    assert result.case_counts["obtuse"] == 500
    assert result.max_residuals["area_ratio"] <= 1e-8


def test_empty_sweep():
    result = evaluate_corpus(sample_corpus(0, seed=0))
    assert len(result) == 0
    assert result.argmin_index is None
    assert math.isnan(result.min_cot_sum)
    assert result.case_counts == {"acute": 0, "right": 0, "obtuse": 0}
    assert all(v.size == 0 for v in result.residuals.values())


def test_ratio_geometric_at_least_three(bridge_result):
    # E'/E = (cot sum)^2 >= 3 everywhere; the sweep's geometric route must
    # land above the bound up to roundoff.
    assert float(bridge_result.ratio_geometric.min()) >= 3.0 - 1e-9
