"""Vectorized residual sweeps over seeded corpora (the phi = pi/2 identity).

`evaluate_corpus` runs `ratio.identity_chain`, the kernel `perptri verify`
also runs, on a corpus's vertex arrays and counts cases.  Arrays pick the
kernel's numpy entry (about 11 ms per 2**14 triangles on two cores) and one
triangle's floats its `math` entry (about 20 us); in both, the geometric and
the formula routes to E'/E stay independent.

`run_sweep` samples a corpus once and streams it through that kernel in
fixed chunks of `CHUNK` (2**14) triangles, one thread per CPU the process may
use, reducing each chunk as it finishes.  Its memory is the corpus (24 bytes
per triangle) plus a bounded amount per thread, whatever the corpus size, and
its summary equals the one-shot reduction of the whole corpus exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .construction import AngleCase, angle_cases
from .ratio import CHECK_ORDER, identity_chain
from .sampling import DELTA_MAIN, TriangleCorpus, sample_corpus

#: Triangles per chunk of `run_sweep`.  Timed at n = 10**6 on two cores,
#: 2**12 and 2**13 pay per-call overhead and 2**15 and up run slower again;
#: a chunk's temporaries peak near 9.5 MiB (about 0.6 KiB per triangle).
CHUNK = 2**14


@dataclass(frozen=True)
class SweepResult:
    """Per-triangle arrays plus the summary a sweep reports."""

    corpus: TriangleCorpus
    residuals: dict[str, np.ndarray]
    cot_sum: np.ndarray
    ratio_geometric: np.ndarray
    gamma_prime_offset: np.ndarray
    case_counts: dict[str, int]

    def __len__(self) -> int:
        return len(self.corpus)

    @property
    def max_residuals(self) -> dict[str, float]:
        return {
            key: float(np.max(values)) if values.size else math.nan
            for key, values in self.residuals.items()
        }

    @property
    def min_cot_sum(self) -> float:
        return float(np.min(self.cot_sum)) if self.cot_sum.size else math.nan

    @property
    def argmin_index(self) -> int | None:
        if not self.cot_sum.size:
            return None
        return int(np.argmin(self.cot_sum))


def evaluate_corpus(corpus: TriangleCorpus) -> SweepResult:
    """Run the identity chain over every triangle of the corpus and count cases.

    A and the y of B are zero arrays in the canonical layout.
    """
    bx, gx, gy = corpus.vertex_arrays()
    zeros = np.zeros(len(corpus))
    chain = identity_chain(zeros, zeros, bx, zeros, gx, gy)

    case_counts = {
        case.value: int(np.count_nonzero(mask))
        for case, mask in zip(AngleCase, angle_cases(chain.metrics.ang_a))
    }

    return SweepResult(
        corpus=corpus,
        residuals=chain.residuals,
        cot_sum=chain.cot_sum,
        ratio_geometric=chain.ratio_geometric,
        gamma_prime_offset=chain.gamma_prime_offset,
        case_counts=case_counts,
    )


@dataclass(frozen=True)
class SweepSummary:
    """What a sweep reports: its corpus and the reductions over every triangle.

    The reductions equal those of `evaluate_corpus` on the whole corpus
    (`SweepResult`'s properties of the same names); equality compares them,
    not the corpus.
    """

    corpus: TriangleCorpus = field(compare=False)
    case_counts: dict[str, int]
    max_residuals: dict[str, float]
    min_cot_sum: float
    argmin_index: int | None

    def __len__(self) -> int:
        return len(self.corpus)


def _reduce_chunk(corpus: TriangleCorpus, start: int):
    """Evaluate corpus[start:start + CHUNK] and keep only its reductions.

    Workers read a slice of the shared corpus and return a fresh tuple
    (max residuals, case counts, min cot sum, its corpus index); they share
    no mutable state, so no lock is needed.
    """
    stop = start + CHUNK
    part = evaluate_corpus(
        TriangleCorpus(
            ang_b=corpus.ang_b[start:stop],
            ang_g=corpus.ang_g[start:stop],
            scale=corpus.scale[start:stop],
        )
    )
    return part.max_residuals, part.case_counts, part.min_cot_sum, start + part.argmin_index


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_sweep(
    n: int,
    seed,
    stratum: str = "all",
    delta: float = DELTA_MAIN,
) -> SweepSummary:
    """Sample a corpus and reduce it chunk by chunk; deterministic for fixed arguments.

    Chunks run on a thread pool (numpy releases the interpreter lock inside
    its loops) and their reductions are combined here in chunk order, so the
    summary equals the np.max / np.argmin reductions of `evaluate_corpus` on
    the whole corpus: a NaN propagates and the first occurrence wins a tie.
    """
    # Imported here so that importing the package (and the CLI) stays cheap.
    from concurrent.futures import ThreadPoolExecutor

    corpus = sample_corpus(n, seed, stratum=stratum, delta=delta)
    starts = range(0, len(corpus), CHUNK)
    with ThreadPoolExecutor(max_workers=max(1, min(_usable_cpus(), len(starts)))) as pool:
        parts = list(pool.map(partial(_reduce_chunk, corpus), starts))
    if not parts:
        empty = evaluate_corpus(corpus)
        return SweepSummary(
            corpus, empty.case_counts, empty.max_residuals, empty.min_cot_sum, empty.argmin_index
        )
    maxima, counts, minima, argmins = zip(*parts)
    # np.argmin over the chunk minima picks the first chunk holding the
    # corpus minimum (or its first NaN), and that chunk's own argmin is then
    # the corpus's first occurrence; np.max of the chunk maxima is exact.
    best = int(np.argmin(minima))
    return SweepSummary(
        corpus=corpus,
        case_counts={key: sum(c[key] for c in counts) for key in counts[0]},
        max_residuals={key: float(np.max([m[key] for m in maxima])) for key in CHECK_ORDER},
        min_cot_sum=minima[best],
        argmin_index=argmins[best],
    )
