"""Vectorized residual sweeps over seeded corpora (the phi = pi/2 identity).

`run_sweep` and `evaluate_corpus` run `ratio.identity_chain`, the kernel
`perptri verify` also runs, in fixed chunks of `CHUNK` (2**14) triangles on
one thread per CPU the process may use.  Each chunk's vertex arrays go through
`geom.frame` and are measured there once (`geom.anchored_metrics`), as each
scalar `Triangle` is, for the chain, the case counts and the bound to read.
Each chunk is reduced as it finishes -- case counts, the largest residuals,
the number of triangles with a residual over the bound `perptri verify`
judges by (`ratio.within_bound`), the smallest cot sum, where it lies and its
triangle -- and the chunk reductions are combined in chunk order, so the
result equals np.count_nonzero / np.max / np.argmin over the whole corpus
exactly.  About 10 ms per chunk on each of two cores (2-core Xeon, numpy 2.4),
7 of them in the chain.

Two producers feed the one reducer.  `run_sweep` streams the "all" and
"right" strata: each worker draws its own chunk of the seeded corpus
(`sampling.corpus_rows`), so no corpus is held, and a sweep needs about 6 MiB
of chunk arrays per thread whatever its size: on two cores `perptri sweep`
peaks at 48.5 MiB at n = 10**6 and 49.9 MiB at n = 10**7, 28.6 of them the
interpreter and numpy (70.7 and 349.7 MiB when the corpus was held).  The acute
and obtuse strata re-draw after the whole first pass, so they are sampled
whole and `evaluate_corpus` slices that corpus (24 bytes per triangle held,
46 while it is drawn).  The per-triangle arrays a chunk produces are not
kept; `identity_chain` gives them for any corpus.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .geom import NUMPY, AngleCase, anchored_metrics, angle_cases, frame
from .ratio import CHECK_ORDER, identity_chain, residual_bound, smallest_angle, within_bound
from .sampling import CHUNKED_STRATA, TriangleCorpus, corpus_rows, sample_corpus

#: Triangles per chunk.  Timed at n = 10**6 on two cores, 2**12 and 2**13 pay
#: per-call overhead and 2**15 and up run slower again; a chunk's arrays peak
#: near 6 MiB (about 0.4 KiB per triangle).
CHUNK = 2**14


class SweepResult:
    """What a sweep reports: its size and the reductions over every triangle.

    max_residuals and min_cot_sum are NaN when any triangle's value is (and
    for an empty corpus); argmin_index is the first index holding
    min_cot_sum and argmin_row that triangle's (ang_b, ang_g, scale) as
    floats, both None for an empty corpus.  over_bound counts the triangles
    with a residual not within the bound (`ratio.within_bound`; a NaN never
    is).  The corpus is not kept: a streamed sweep never holds it, so a
    result is a few hundred bytes at any n.  Equality compares the
    reductions.  The fields are instance attributes, not class attributes
    (tuple getters or slots): the traced benchmark run (perfbench/spans.py)
    wraps as a property any of max_residuals, min_cot_sum and argmin_index it
    finds in the class.
    """

    def __init__(self, n: int, case_counts: dict, max_residuals: dict, min_cot_sum: float,
                 argmin_index: int | None, argmin_row: tuple | None, over_bound: int) -> None:
        self.n = n
        self.case_counts = case_counts
        self.max_residuals = max_residuals
        self.min_cot_sum = min_cot_sum
        self.argmin_index = argmin_index
        self.argmin_row = argmin_row
        self.over_bound = over_bound

    def _reductions(self) -> tuple:
        return (self.n, self.case_counts, self.max_residuals, self.min_cot_sum,
                self.argmin_index, self.argmin_row, self.over_bound)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._reductions() == other._reductions()

    def __len__(self) -> int:
        return self.n


def _reduce_chunk(chunk: TriangleCorpus, start: int):
    """Evaluate one chunk, the corpus's rows from start on, and keep only its reductions.

    Workers return a fresh tuple (case counts, max residuals, min cot sum, its
    corpus index and row, the count of triangles over the bound); they share
    no mutable state, so no lock is needed.  In the canonical layout A is the
    origin and B lies on the x axis.
    """
    bx, gx, gy = chunk.vertex_arrays()
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
    row = tuple(float(field[argmin]) for field in chunk)
    return counts, maxima, float(chain.cot_sum[argmin]), start + argmin, row, over


def _sliced_chunk(corpus: TriangleCorpus, start: int):
    """`_reduce_chunk` on corpus[start:start + CHUNK], a view of the shared corpus."""
    stop = start + CHUNK
    return _reduce_chunk(TriangleCorpus(*(field[start:stop] for field in corpus)), start)


def _drawn_chunk(bit_generator, n: int, stratum: str, start: int):
    """`_reduce_chunk` on rows [start, start + CHUNK) of the seeded corpus, drawn here."""
    return _reduce_chunk(
        corpus_rows(bit_generator, n, start, min(start + CHUNK, n), stratum), start)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _reduce_chunks(n: int, reduce_at) -> SweepResult:
    """Run reduce_at(start) for every chunk of an n-triangle corpus and combine the reductions.

    Chunks run on a thread pool (numpy releases the interpreter lock inside
    its loops) and their reductions are combined here in chunk order: a NaN
    propagates and the first occurrence wins a tie, as in np.max and
    np.argmin over the whole corpus.
    """
    if not n:
        return SweepResult(0, {case.value: 0 for case in AngleCase},
                           dict.fromkeys(CHECK_ORDER, math.nan), math.nan, None, None, 0)
    # For glibc's sake, one 4 MiB block, mapped since it is above the mmap
    # threshold, is freed before the pool starts, never touched, so it adds
    # no RSS: glibc then raises its mmap threshold to the block and its trim
    # threshold to twice it, above a worker's ~6 MiB of chunk arrays.
    # Without it a streamed sweep frees no corpus-sized block, and each
    # worker's arena hands its chunk arrays back after every chunk and faults
    # them in again on the next: `perptri sweep` took 105k minor faults
    # against 8.4k at n = 10**6, and 24.8k against 8.4k at n = 2 * 10**5
    # (two cores).
    np.empty(4 * 2**20, np.uint8)
    starts = range(0, n, CHUNK)
    pool = ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(starts)))
    try:
        counts, maxima, minima, argmins, rows, overs = zip(*pool.map(reduce_at, starts))
    finally:
        # After an interrupt or a failed chunk, the chunks not yet started are dropped.
        pool.shutdown(cancel_futures=True)
    # np.argmin over the chunk minima picks the first chunk holding the
    # corpus minimum (or its first NaN), and that chunk's own argmin is then
    # the corpus's first occurrence; np.max of the chunk maxima is exact.
    best = int(np.argmin(minima))
    return SweepResult(
        n=n,
        case_counts=dict(zip((case.value for case in AngleCase), np.sum(counts, axis=0).tolist())),
        max_residuals=dict(zip(CHECK_ORDER, np.max(maxima, axis=0).tolist())),
        min_cot_sum=minima[best],
        argmin_index=argmins[best],
        argmin_row=rows[best],
        over_bound=sum(overs),
    )


def evaluate_corpus(corpus: TriangleCorpus) -> SweepResult:
    """Run the identity chain over every triangle of a held corpus and reduce it."""
    return _reduce_chunks(len(corpus), partial(_sliced_chunk, corpus))


def run_sweep(n: int, seed, stratum: str = "all") -> SweepResult:
    """Sweep the n-triangle corpus `sample_corpus(n, seed, stratum)` draws.

    Deterministic for fixed arguments.  The "all" and "right" strata are
    streamed, each chunk drawn by the worker that reduces it from one bit
    generator made here (so seed=None, too, gives one corpus); the others,
    and a negative n, which `sample_corpus` refuses, go through
    `evaluate_corpus`.
    """
    if n < 0 or stratum not in CHUNKED_STRATA:
        return evaluate_corpus(sample_corpus(n, seed, stratum=stratum))
    bit_generator = np.random.default_rng(seed).bit_generator
    return _reduce_chunks(n, partial(_drawn_chunk, bit_generator, n, stratum))
