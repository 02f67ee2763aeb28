"""Vectorized residual sweeps over seeded corpora (the phi = pi/2 identity).

`evaluate_corpus` runs `ratio.identity_chain`, the kernel `perptri verify`
also runs, in fixed chunks of `CHUNK` (2**14) triangles on one thread per CPU
the process may use.  Each chunk's vertex arrays go through `geom.frame` and
are measured there once (`geom.anchored_metrics`), as each scalar `Triangle`
is, for the chain, the case counts and the bound to read.  Each chunk is
reduced as it finishes -- case counts, the largest residuals, the number of
triangles with a residual over the bound `perptri verify` judges by
(`ratio.within_bound`), the smallest cot sum and where it lies -- and the
chunk reductions are combined in chunk order, so the result equals
np.count_nonzero / np.max / np.argmin over the whole corpus exactly.  Its
memory is the corpus (24 bytes per triangle) plus one chunk's arrays per
thread, about 6 MiB whatever the corpus size; about 10 ms per chunk on each
of two cores (2-core Xeon, numpy 2.4), 7 of them in the chain.

`run_sweep` samples a corpus and evaluates it.  The per-triangle arrays a
chunk produces are not kept; `identity_chain` gives them for any corpus.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .geom import NUMPY, AngleCase, anchored_metrics, angle_cases, frame
from .ratio import CHECK_ORDER, identity_chain, residual_bound, smallest_angle, within_bound
from .sampling import TriangleCorpus, sample_corpus

#: Triangles per chunk of `evaluate_corpus`.  Timed at n = 10**6 on two cores,
#: 2**12 and 2**13 pay per-call overhead and 2**15 and up run slower again;
#: a chunk's arrays peak near 6 MiB (about 0.4 KiB per triangle).
CHUNK = 2**14


class SweepResult:
    """What a sweep reports: its corpus and the reductions over every triangle.

    max_residuals and min_cot_sum are NaN when any triangle's value is (and
    for an empty corpus); argmin_index is the first index holding
    min_cot_sum, None for an empty corpus.  over_bound counts the triangles
    with a residual not within the bound (`ratio.within_bound`; a NaN never
    is).  Equality compares the reductions, not the corpus.  The fields are
    instance attributes, not class attributes (tuple getters or slots): the
    traced benchmark run (perfbench/spans.py) wraps as a property any of
    max_residuals, min_cot_sum and argmin_index it finds in the class.
    """

    def __init__(self, corpus: TriangleCorpus, case_counts: dict, max_residuals: dict,
                 min_cot_sum: float, argmin_index: int | None, over_bound: int) -> None:
        self.corpus = corpus
        self.case_counts = case_counts
        self.max_residuals = max_residuals
        self.min_cot_sum = min_cot_sum
        self.argmin_index = argmin_index
        self.over_bound = over_bound

    def _reductions(self) -> tuple:
        return (self.case_counts, self.max_residuals, self.min_cot_sum, self.argmin_index,
                self.over_bound)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._reductions() == other._reductions()

    def __len__(self) -> int:
        return len(self.corpus)


def _reduce_chunk(corpus: TriangleCorpus, start: int):
    """Evaluate corpus[start:start + CHUNK] and keep only its reductions.

    Workers read a slice of the shared corpus and return a fresh tuple
    (case counts, max residuals, min cot sum, its corpus index, the count of
    triangles over the bound); they share no mutable state, so no lock is
    needed.  In the canonical layout A is the origin and B lies on the x axis.
    """
    stop = start + CHUNK
    bx, gx, gy = TriangleCorpus(
        ang_b=corpus.ang_b[start:stop],
        ang_g=corpus.ang_g[start:stop],
        scale=corpus.scale[start:stop],
    ).vertex_arrays()
    _, bx, by, gx, gy = frame(NUMPY, 0.0, 0.0, bx, 0.0, gx, gy)
    m = anchored_metrics(NUMPY, bx, by, gx, gy)
    chain = identity_chain(bx, by, gx, gy, m)
    counts = [int(np.count_nonzero(mask)) for mask in angle_cases(m.ang_a)]
    maxima = [float(np.max(chain.residuals[key])) for key in CHECK_ORDER]
    argmin = int(np.argmin(chain.cot_sum))
    # Any residual is over the bound exactly when their NaN-propagating
    # maximum is.
    worst = NUMPY.max(*(chain.residuals[key] for key in CHECK_ORDER))
    within = within_bound(worst, residual_bound(smallest_angle(NUMPY, m)))
    over = worst.size - int(np.count_nonzero(within))
    return counts, maxima, float(chain.cot_sum[argmin]), start + argmin, over


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def evaluate_corpus(corpus: TriangleCorpus) -> SweepResult:
    """Run the identity chain over every triangle of the corpus and reduce it.

    Chunks run on a thread pool (numpy releases the interpreter lock inside
    its loops) and their reductions are combined here in chunk order: a NaN
    propagates and the first occurrence wins a tie, as in np.max and
    np.argmin over the whole corpus.
    """
    if not len(corpus):
        return SweepResult(corpus, {case.value: 0 for case in AngleCase},
                           dict.fromkeys(CHECK_ORDER, math.nan), math.nan, None, 0)
    starts = range(0, len(corpus), CHUNK)
    pool = ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(starts)))
    try:
        counts, maxima, minima, argmins, overs = zip(
            *pool.map(partial(_reduce_chunk, corpus), starts))
    finally:
        # After an interrupt or a failed chunk, the chunks not yet started are dropped.
        pool.shutdown(cancel_futures=True)
    # np.argmin over the chunk minima picks the first chunk holding the
    # corpus minimum (or its first NaN), and that chunk's own argmin is then
    # the corpus's first occurrence; np.max of the chunk maxima is exact.
    best = int(np.argmin(minima))
    return SweepResult(
        corpus=corpus,
        case_counts=dict(zip((case.value for case in AngleCase), np.sum(counts, axis=0).tolist())),
        max_residuals=dict(zip(CHECK_ORDER, np.max(maxima, axis=0).tolist())),
        min_cot_sum=minima[best],
        argmin_index=argmins[best],
        over_bound=sum(overs),
    )


def run_sweep(n: int, seed, stratum: str = "all") -> SweepResult:
    """Sample a corpus and evaluate it; deterministic for fixed arguments."""
    return evaluate_corpus(sample_corpus(n, seed, stratum=stratum))
