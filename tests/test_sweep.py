"""Vectorized sweeps: the shared identity chain on arrays, and its reductions.

`identity_chain` on a corpus's arrays and `identity_report` run the same
kernel, on arrays and on one triangle's floats; the bridge tests below pin
the two entries together, and hold the per-triangle cot sum and the derived
area the sweep takes against the independent routes (the cot sum of the
corpus's sampled angles, `construction.construct`).  The chunked, threaded
sweep `run_sweep` is in turn pinned to np.max / np.argmin / np.count_nonzero
of that chain over the whole corpus, exactly; where a test needs a corpus no
seed draws, its reducer `_reduce_chunks` sweeps the slices of a held one.
"""

import inspect
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from perptri.construction import construct
import perptri.geom as geom_mod
from perptri.geom import CASES, MATH, NUMPY, angle_cases, angle_trig
import perptri.ratio as ratio_mod
import perptri.sampling as sampling_mod
import perptri.sweep as sweep_mod
from perptri.ratio import (
    CHECK_ORDER,
    identity_chain,
    identity_report,
    residual_bound,
    smallest_angle,
    within_bound,
)
from perptri.sampling import STRATA, TriangleCorpus, corpus_rows, sample_corpus
from perptri.sweep import CHUNK, _chain_inputs, _reduce_chunk, run_sweep

BRIDGE_ABS = 1e-13


def chain_of(corpus):
    """identity_chain over a whole corpus at once: its residuals by name, cot sum and metrics."""
    inputs = _chain_inputs(corpus)
    m = inputs[1]
    residuals = {}
    return residuals, identity_chain(inputs, residuals), m


def held_sweep(corpus):
    """The sweep of a held corpus, one no seed draws: the reducer over its slices."""
    return sweep_mod._reduce_chunks(
        corpus.ang_b.size, lambda start, stop: TriangleCorpus(*(field[start:stop] for field in corpus)))


def bound_of(m):
    return residual_bound(smallest_angle(NUMPY, m))


@pytest.fixture(scope="module")
def bridge_corpus():
    return TriangleCorpus(*map(np.concatenate, zip(
        sample_corpus(150, seed=[11, 0]),
        sample_corpus(80, seed=[11, 1], stratum="right"),
        sample_corpus(80, seed=[11, 2], stratum="obtuse"),
    )))


@pytest.fixture(scope="module")
def bridge_chain(bridge_corpus):
    """The bridge corpus's residuals by name and its cot sums."""
    return chain_of(bridge_corpus)[:2]


@pytest.fixture(scope="module")
def bridge_result(bridge_corpus):
    return held_sweep(bridge_corpus)


def test_residual_keys_complete(bridge_chain, bridge_result):
    assert set(bridge_chain[0]) == set(CHECK_ORDER)
    assert list(bridge_result.max_residuals) == list(CHECK_ORDER)


def test_bridge_residuals_match_scalar(bridge_corpus, bridge_chain):
    residuals = bridge_chain[0]
    for i in range(bridge_corpus.ang_b.size):
        report = identity_report(bridge_corpus.triangle(i))
        for key in CHECK_ORDER:
            scalar = report.residuals[key]
            vector = float(residuals[key][i])
            assert abs(scalar - vector) < BRIDGE_ABS, (i, key)


def test_bridge_values_match_scalar(bridge_corpus, bridge_chain):
    area_derived, m = _chain_inputs(bridge_corpus)
    ratio_geometric = area_derived / m.area
    for i in range(bridge_corpus.ang_b.size):
        d = construct(bridge_corpus.triangle(i))
        ang_b, ang_g = float(bridge_corpus.ang_b[i]), float(bridge_corpus.ang_g[i])
        total = sum(angle_trig(MATH, x)[0] for x in (math.pi - ang_b - ang_g, ang_b, ang_g))
        assert float(bridge_chain[1][i]) == pytest.approx(total, rel=1e-12)
        assert float(ratio_geometric[i]) == pytest.approx(d.ratio_geometric, rel=1e-12)


def test_bridge_case_counts_match_scalar(bridge_corpus, bridge_chain, bridge_result):
    counts = {"acute": 0, "right": 0, "obtuse": 0}
    for i in range(bridge_corpus.ang_b.size):
        counts[identity_report(bridge_corpus.triangle(i)).case] += 1
    masks = angle_cases(chain_of(bridge_corpus)[2].ang_a)
    assert [int(np.count_nonzero(mask)) for mask in masks] == list(counts.values())
    assert bridge_result.case_counts == counts


# ---------------------------------------------------------------------------
# sweep behaviour
# ---------------------------------------------------------------------------

def _same(chunked: float, reference: float) -> bool:
    return chunked == reference or (math.isnan(chunked) and math.isnan(reference))


def _assert_whole_corpus_reductions(result, corpus):
    """The chunked result equals numpy's reductions of the chain over the whole corpus."""
    residuals, cot_sum, m = chain_of(corpus)
    assert result.n == corpus.ang_b.size
    masks = angle_cases(m.ang_a)
    assert list(result.case_counts.values()) == [int(np.count_nonzero(m)) for m in masks]
    assert list(result.max_residuals) == list(CHECK_ORDER)
    bound = bound_of(m)
    within = [within_bound(residuals[key], bound) for key in CHECK_ORDER]
    all_within = np.logical_and.reduce(within)
    assert result.over_bound == corpus.ang_b.size - int(np.count_nonzero(all_within))
    if not corpus.ang_b.size:
        assert list(result.case_counts) == list(CASES)
        assert result.argmin_index is None
        assert result.argmin_row is None
        assert math.isnan(result.min_cot_sum)
        assert all(math.isnan(value) for value in result.max_residuals.values())
        return
    assert result.argmin_index == int(np.argmin(cot_sum))
    row = (float(field[result.argmin_index]) for field in corpus)
    assert all(map(_same, result.argmin_row, row))
    assert _same(result.min_cot_sum, float(np.min(cot_sum)))
    for key in CHECK_ORDER:
        assert _same(result.max_residuals[key], float(np.max(residuals[key]))), key


@pytest.mark.parametrize("stratum", STRATA)
@pytest.mark.parametrize("n", [0, 1, CHUNK, 3 * CHUNK + 17])
def test_chunked_sweep_equals_one_shot_reduction(n, stratum):
    for seed in ([41, n], 41 + n):
        result = run_sweep(n, seed, stratum)
        corpus = sample_corpus(n, seed, stratum)
        _assert_whole_corpus_reductions(result, corpus)


def test_chunk_merge_keeps_first_of_ties():
    # Every chunk repeats the first, so every extreme ties across chunks and
    # the earliest index must win, as np.argmin's does.
    base = sample_corpus(CHUNK, seed=43)
    corpus = TriangleCorpus(*(np.tile(field, 3) for field in base))
    result = held_sweep(corpus)
    _assert_whole_corpus_reductions(result, corpus)
    assert result.argmin_index < CHUNK


def test_chunk_merge_propagates_nan():
    corpus = sample_corpus(3 * CHUNK + 9, seed=44)
    scale = corpus.scale.copy()
    scale[2 * CHUNK + 5] = math.nan
    corpus = corpus._replace(scale=scale)
    result = held_sweep(corpus)
    _assert_whole_corpus_reductions(result, corpus)
    assert result.argmin_index == 2 * CHUNK + 5
    assert all(math.isnan(value) for value in result.max_residuals.values())
    assert result.over_bound == 1  # a NaN is never within the bound


def test_sweep_residuals_within_bound(bridge_result):
    assert bridge_result.over_bound == 0


def test_sweep_counts_residuals_over_the_bound(monkeypatch):
    # A negative constant puts every triangle over the bound.
    monkeypatch.setattr(ratio_mod, "BOUND_CONSTANT", -1.0)
    assert run_sweep(CHUNK + 7, 45).over_bound == CHUNK + 7


@pytest.mark.parametrize("delta, seed, stratum", [
    pytest.param(0.01, 46, "all", id="0.01-46"),
    pytest.param(1e-4, 47, "all", id="0.0001-47"),
    pytest.param(1e-4, 48, "obtuse", id="0.0001-48-obtuse"),
    pytest.param(1e-4, 49, "right", id="0.0001-49-right"),
])
def test_bound_keeps_an_eightfold_margin(delta, seed, stratum):
    # Over 10**5 triangles at either sampler floor, every residual stays
    # within an eighth of the bound; BOUND_CONSTANT was set with that margin.
    # The obtuse stratum holds angles near pi, where 1 + cos x in the
    # half-angle cotangent (1 + cos x) / sin x cancels.
    residuals, _, m = chain_of(sample_corpus(10**5, seed=seed, stratum=stratum, delta=delta))
    eighth = bound_of(m) / 8
    assert max(float(np.max(residuals[key] / eighth)) for key in CHECK_ORDER) <= 1.0


def test_min_cot_sum_and_argmin(bridge_chain, bridge_result):
    idx = bridge_result.argmin_index
    assert idx is not None
    assert float(bridge_chain[1][idx]) == bridge_result.min_cot_sum
    assert bridge_result.min_cot_sum >= math.sqrt(3.0) - 1e-12


def test_right_stratum_gamma_prime_collapse():
    assert run_sweep(500, 29, "right").case_counts == {"acute": 0, "right": 500, "obtuse": 0}
    corpus = sample_corpus(500, seed=29, stratum="right")
    assert max(construct(corpus.triangle(i)).gamma_prime_offset for i in range(500)) < 1e-12


def test_ratio_geometric_at_least_three(bridge_corpus):
    # E'/E = (cot sum)^2 >= 3 everywhere; the geometric route the sweep takes
    # must land above the bound up to roundoff.
    area_derived, m = _chain_inputs(bridge_corpus)
    assert float((area_derived / m.area).min()) >= 3.0 - 1e-9


#: The most memory tracemalloc may count for one chunk, which each worker thread
#: holds: 2.75 MiB measured (2-core Xeon, numpy 2.4), and a quarter MiB more.
CHUNK_PEAK = 3.0 * 2**20


def traced_peak(run):
    """The most memory run() holds at once beyond what it started with, under tracemalloc.

    A first call only keeps lazy set-up out of the count.
    """
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_chunk_peak_memory():
    # One chunk of a held corpus: the frame dies once the derived area and
    # the metrics are taken, each residual once reduced, and every other
    # intermediate of identity_chain at its last use.
    corpus = sample_corpus(CHUNK, 0)
    assert traced_peak(lambda: _reduce_chunk(lambda start, stop: corpus, CHUNK, 0)) <= CHUNK_PEAK


def drawn_chunk():
    """A worker's chunk of the streamed sweep: its rows drawn, then reduced."""
    rows_at = partial(corpus_rows, np.random.default_rng(0).bit_generator, 10**6)
    return lambda: sweep_mod._reduce_chunk(rows_at, 10**6, 0)


def test_drawn_chunk_peak_memory():
    # _reduce_chunk draws the rows itself and frees them once the triangles
    # are laid out, so a drawn chunk peaks no higher than a held one.
    assert traced_peak(drawn_chunk()) <= CHUNK_PEAK


def test_chunk_peak_does_not_rest_on_argument_stealing(monkeypatch):
    # Python 3.10 keeps a call's arguments alive on the caller's stack until
    # the call returns; 3.11 hands them to the callee.  With every package
    # function wrapped in one that holds its arguments until it returns, as
    # 3.10 does, the drawn chunk peaks no higher.
    def held(fn):
        def call(*args, **kwargs):
            return fn(*args, **kwargs)
        return call

    for module in (sweep_mod, ratio_mod, geom_mod, sampling_mod):
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__.startswith("perptri."):
                monkeypatch.setattr(module, name, held(value))
    assert traced_peak(drawn_chunk()) <= CHUNK_PEAK


def test_streamed_sweep_never_holds_the_corpus(monkeypatch):
    # Each worker draws its own chunk, so two workers hold at most two
    # chunks' arrays at any n (12.5 MiB while the chain kept each chunk's
    # rows, frame and metrics), never the corpus's 24 bytes per triangle (33
    # while it was drawn whole, 24 MiB and 33 MiB here).
    monkeypatch.setattr(sweep_mod, "_usable_cpus", lambda: 2)
    assert traced_peak(lambda: run_sweep(64 * CHUNK, 0)) <= 2 * CHUNK_PEAK


def test_sweep_memory_is_flat_in_n(monkeypatch):
    # At most two chunks per worker are in flight and each reduction is
    # combined as it is reached, so a sweep of 4000 one-triangle chunks peaks
    # no higher than one of 1000 (3.3 MiB higher while every chunk's future
    # and result were held).  The first call only keeps lazy set-up out of
    # the count.
    def reduce_chunk(rows_at, n, start):
        return [1, 0, 0], [0.0] * len(CHECK_ORDER), 1.0, start, 0

    def peak(n):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sweep_mod._reduce_chunks(n, lambda start, stop: ((1.0,),) * 3)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(sweep_mod, "CHUNK", 1)
    monkeypatch.setattr(sweep_mod, "_reduce_chunk", reduce_chunk)
    peak(1000)
    assert peak(4000) <= peak(1000) + 2**14
