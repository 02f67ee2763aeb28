"""Vectorized residual sweeps over seeded corpora (the phi = pi/2 identity).

`run_sweep` runs `ratio.identity_chain`, the kernel `perptri verify` also
runs, in fixed chunks of `CHUNK` (2**14) triangles on one thread per CPU the
process may use.  Each chunk's vertex arrays go through `geom.frame` and are
measured there once (`geom.anchored_metrics`, in `_chain_inputs`), as each
scalar `Triangle` is, for the chain, the case counts and the bound to read.
Each chunk is reduced as it finishes -- case counts, the largest residuals,
the number of triangles with a residual over the bound `perptri verify`
judges by (`ratio.within_bound`), the smallest cot sum, where it lies and its
triangle -- and the chunk reductions are combined in chunk order, so the
result equals np.count_nonzero / np.max / np.argmin over the whole corpus
exactly.  About 10 ms per chunk on each of two cores (2-core Xeon, numpy 2.4),
7 of them in the chain.

`run_sweep` streams every stratum: each worker draws its own chunk of the
seeded corpus (`sampling.corpus_rows`), and at most two chunks per worker are
in flight, so neither the corpus nor a list of every chunk's result is held.
Each array of a chunk dies at its last use, in `_chain_inputs`,
`identity_chain` and `geom.derived_triangle`: the derived area is taken
before the metrics are measured, and each residual is reduced as soon as
the chain makes it, so a sweep needs under 3 MiB of chunk arrays per thread
whatever its size and stratum: on two cores `perptri sweep` peaks at 41.2
to 41.4 MiB in every stratum at n = 10**6 and 10**7, 34.8 of them the
interpreter, numpy and the package (its peak at n = 0).  The per-triangle
arrays a chunk produces are not kept; `identity_chain` of `_chain_inputs`
gives them for any corpus.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial, reduce
from types import SimpleNamespace

import numpy as np

from .geom import CASES, NUMPY, anchored_metrics, angle_cases, derived_triangle, frame
from .ratio import CHECK_ORDER, identity_chain, residual_bound, smallest_angle, within_bound
from .sampling import corpus_rows

#: Triangles per chunk.  Timed at n = 10**6 on two cores, 2**12 and 2**13 pay
#: per-call overhead and 2**15 and up run slower again; a chunk's arrays peak
#: near 2.75 MiB (about 0.17 KiB per triangle).
CHUNK = 2**14


class SweepResult(SimpleNamespace):
    """What a sweep reports: its size n, case_counts by angle case, and the reductions.

    max_residuals and min_cot_sum are NaN when any triangle's value is (and
    for an empty corpus); argmin_index is the first index holding
    min_cot_sum and argmin_row that triangle's (ang_b, ang_g, scale) as
    floats, both None for an empty corpus.  The row is got again from the
    index after the last chunk, so no chunk keeps one.  over_bound counts
    the triangles with a residual not within the bound (`ratio.within_bound`;
    a NaN never is).  The corpus is not kept: a sweep never holds it, so a
    result is a few hundred bytes at any n.  Equality compares every field.
    The fields are instance attributes, not class attributes (tuple getters
    or slots): the traced benchmark run (perfbench/spans.py) wraps as a
    property any of max_residuals, min_cot_sum and argmin_index it finds in
    the class.
    """


class _ChunkMaxima:
    """Where `identity_chain` assigns a chunk's residuals: each is reduced as it is made.

    maxima[name] is the residual's np.max and worst the elementwise
    np.maximum of every residual assigned so far.  Both propagate a NaN, so
    a triangle has a residual over the bound exactly when its worst is over
    it.  No residual is kept, so a chunk holds one at a time.
    """

    __slots__ = ("maxima", "worst")

    def __init__(self) -> None:
        self.maxima = {}
        self.worst = None

    def __setitem__(self, name: str, residual) -> None:
        self.maxima[name] = float(np.max(residual))
        if self.worst is None:
            self.worst = residual.copy()
        else:
            np.maximum(self.worst, residual, out=self.worst)


def _chain_inputs(rows) -> list:
    """[area_derived, m] of rows (a `TriangleCorpus`): the list `identity_chain` empties.

    The rows are laid out in the canonical frame, where A is the origin and
    B lies on the x axis, so by stays the float 0.0 (`geom.frame`).  The
    derived area is taken from the frame before the metrics are measured,
    so that the frame dies before the chain starts.
    """
    bx, gx, gy = rows.vertex_arrays()
    bx, by, gx, gy = frame(NUMPY, 0.0, 0.0, bx, 0.0, gx, gy)[1:]
    area_derived = derived_triangle(bx, by, gx, gy, 0.0, 1.0)[1]
    return [area_derived, anchored_metrics(NUMPY, bx, by, gx, gy)]


def _reduce_chunk(rows_at, n: int, start: int):
    """Evaluate the chunk of an n-triangle corpus from start on, and keep only its reductions.

    rows_at(start, stop) gives the corpus's rows [start, stop) as a
    `TriangleCorpus`.  The rows are got here and die once laid out and
    measured (`_chain_inputs`), and the derived area and metrics go on to
    `identity_chain` in a list it empties, so that each array of the chunk
    dies at its last use whatever the Python version (3.10 keeps a call's
    arguments alive until it returns).  The chain assigns each residual to a
    `_ChunkMaxima` as soon as it is made.  Workers return a fresh tuple
    (case counts, max residuals, min cot sum, its corpus index, the count of
    triangles over the bound); they share no mutable state, so no lock is
    needed.
    """
    inputs = _chain_inputs(rows_at(start, min(start + CHUNK, n)))
    counts = [int(np.count_nonzero(mask)) for mask in angle_cases(inputs[1].ang_a)]
    bound = residual_bound(smallest_angle(NUMPY, inputs[1]))
    reduction = _ChunkMaxima()
    cot_sum = identity_chain(inputs, reduction)
    argmin = int(np.argmin(cot_sum))
    worst = reduction.worst
    over = worst.size - int(np.count_nonzero(within_bound(worst, bound)))
    maxima = [reduction.maxima[key] for key in CHECK_ORDER]
    return counts, maxima, float(cot_sum[argmin]), start + argmin, over


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _combine(earlier: tuple, later: tuple) -> tuple:
    """The reductions of two runs of rows, earlier before later, as one.

    A NaN propagates and the first occurrence wins a tie, as in np.max and
    np.argmin over the whole corpus.
    """
    counts, maxima, minimum, index, over = earlier
    later_counts, later_maxima, later_minimum, later_index, later_over = later
    if not math.isnan(minimum) and (math.isnan(later_minimum) or later_minimum < minimum):
        minimum, index = later_minimum, later_index
    return ([a + b for a, b in zip(counts, later_counts)],
            [b if math.isnan(b) or b > a else a for a, b in zip(maxima, later_maxima)],
            minimum, index, over + later_over)


def _reduce_chunks(n: int, rows_at) -> SweepResult:
    """Reduce every chunk of an n-triangle corpus and combine the reductions.

    rows_at(start, stop) gives the corpus's rows [start, stop) as a
    `TriangleCorpus`.  Chunks run on a thread pool (numpy releases the
    interpreter lock inside its loops), each getting its own rows
    (`_reduce_chunk`), at most two per worker submitted and not yet
    combined, and their reductions are combined here in chunk order
    (`_combine`), so the memory a sweep holds does not grow with n.  The
    argmin's row is got once, after the last chunk, so no worker keeps a
    row.
    """
    if not n:
        return SweepResult(n=0, case_counts=dict.fromkeys(CASES, 0),
                           max_residuals=dict.fromkeys(CHECK_ORDER, math.nan),
                           min_cot_sum=math.nan, argmin_index=None, argmin_row=None,
                           over_bound=0)
    # For glibc's sake, one 4 MiB block, mapped since it is above the mmap
    # threshold, is freed before the pool starts, never touched, so it adds
    # no RSS: glibc then raises its mmap threshold to the block and its trim
    # threshold to twice it, above a worker's ~3 MiB of chunk arrays.
    # Without it a streamed sweep frees no corpus-sized block, and each
    # worker's arena hands its chunk arrays back after every chunk and faults
    # them in again on the next: `perptri sweep` took 105k minor faults
    # against 8.4k at n = 10**6, and 24.8k against 8.4k at n = 2 * 10**5
    # (two cores).
    np.empty(4 * 2**20, np.uint8)
    workers = min(_usable_cpus(), -(-n // CHUNK))
    pool = ThreadPoolExecutor(max_workers=workers)

    def in_chunk_order():
        pending = deque()
        for start in range(0, n, CHUNK):
            pending.append(pool.submit(_reduce_chunk, rows_at, n, start))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        counts, maxima, minimum, index, over = reduce(_combine, in_chunk_order())
    finally:
        # After an interrupt or a failed chunk, the chunks not yet started are dropped.
        pool.shutdown(cancel_futures=True)
    row = tuple(float(field[0]) for field in rows_at(index, index + 1))
    return SweepResult(n=n, case_counts=dict(zip(CASES, counts)),
                       max_residuals=dict(zip(CHECK_ORDER, maxima)), min_cot_sum=minimum,
                       argmin_index=index, argmin_row=row, over_bound=over)


def run_sweep(n: int, seed, stratum: str = "all") -> SweepResult:
    """Sweep the n-triangle corpus `sampling.sample_corpus(n, seed, stratum)` draws.

    Deterministic for fixed arguments.  Each chunk is drawn by the worker that
    reduces it, and the argmin's row once more at the end, from one bit
    generator made here (so seed=None, too, gives one corpus).  n and the
    stratum are checked before any chunk starts, by `corpus_rows` on no rows.
    """
    rows_at = partial(corpus_rows, np.random.default_rng(seed).bit_generator, n,
                      stratum=stratum)
    rows_at(0, 0)
    return _reduce_chunks(n, rows_at)
