"""Vectorized residual sweeps over seeded corpora (the phi = pi/2 identity).

`evaluate_corpus` is the array kernel: it mirrors the scalar
construction/ratio path with array arithmetic -- identical formulas,
identical normalizations -- and returns per-triangle arrays.  A test pins the
two paths together on a shared sample; neither is ever a stand-in for the
other's oracle: the geometric route (line intersections + shoelace) and the
formula route (squared cotangent sum) stay independent in both.

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

from .construction import CASE_BAND
from .identities import RIGHT_ANGLE_BAND
from .sampling import DELTA_MAIN, TriangleCorpus, sample_corpus

#: Triangles per chunk of `run_sweep`.  Timed at n = 10**6 on two cores,
#: 2**12 and 2**13 pay per-call overhead and 2**15 and up run slower again;
#: a chunk's temporaries peak near 9.5 MiB (about 0.6 KiB per triangle).
CHUNK = 2**14

#: Residual keys produced per triangle, in reporting order.
RESIDUAL_KEYS: tuple[str, ...] = (
    "area_increment",
    "sixteen_area_sq",
    "cot_term_a",
    "cot_term_g",
    "cot_term_b",
    "squared_sum_expansion",
    "chain_sum",
    "area_quadratic",
    "half_angle_cots",
    "area_from_cots",
    "area_ratio",
    "area_agreement",
)


def _cot(ang: np.ndarray) -> np.ndarray:
    """Array cotangent with the same exact-zero band as the scalar version."""
    raw = np.cos(ang) / np.sin(ang)
    return np.where(np.abs(ang - 0.5 * math.pi) < RIGHT_ANGLE_BAND, 0.0, raw)


def _line(px, py, ux, uy):
    """Normal form (a, b, c) of the line through (px, py) with direction (ux, uy)."""
    norm = np.hypot(ux, uy)
    a = -uy / norm
    b = ux / norm
    return a, b, a * px + b * py


def _meet(l1, l2):
    """Intersection of two lines in normal form (same formula as geom.intersect)."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    return (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det


def _norm(lhs, rhs):
    return np.abs(lhs - rhs) / (1.0 + np.abs(rhs))


def _term_norm(lhs, w2, p2, q2, r2):
    # Same dominant-monomial scaling as the scalar cot-term residuals: near a
    # right angle both sides cancel to roundoff of the monomials, so the
    # nearly-zero rhs is the wrong yardstick.
    rhs = 2.0 * w2 * (p2 + q2 - r2)
    dominant = np.maximum.reduce(
        [np.abs(lhs), 2.0 * w2 * p2, 2.0 * w2 * q2, 2.0 * w2 * r2]
    )
    return np.abs(lhs - rhs) / (1.0 + dominant)


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
    """Construct every derived triangle and evaluate every identity residual.

    The derived area always comes from actual line intersections and the
    shoelace formula -- never from the identity being tested.
    """
    n = len(corpus)
    if n == 0:
        empty = np.empty(0)
        return SweepResult(
            corpus=corpus,
            residuals={key: empty for key in RESIDUAL_KEYS},
            cot_sum=empty,
            ratio_geometric=empty,
            gamma_prime_offset=empty,
            case_counts={"acute": 0, "right": 0, "obtuse": 0},
        )

    bx, gx, gy = corpus.vertex_arrays()
    zeros = np.zeros(n)

    alpha = np.hypot(gx - bx, gy)
    beta = np.hypot(gx, gy)
    gamma = bx
    a2, b2, g2 = alpha * alpha, beta * beta, gamma * gamma

    ang_a = np.arccos(np.clip((b2 + g2 - a2) / (2.0 * beta * gamma), -1.0, 1.0))
    ang_b = np.arccos(np.clip((a2 + g2 - b2) / (2.0 * alpha * gamma), -1.0, 1.0))
    ang_g = np.arccos(np.clip((a2 + b2 - g2) / (2.0 * alpha * beta), -1.0, 1.0))
    area = 0.5 * np.abs(bx * gy)

    cot_a, cot_b, cot_g = _cot(ang_a), _cot(ang_b), _cot(ang_g)
    csum = cot_a + cot_b + cot_g

    # The three construction lines for phi = pi/2: side direction rotated +90.
    line_ab = _line(bx, zeros, zeros, bx)          # side A->B is (bx, 0)
    line_bg = _line(gx, gy, -gy, gx - bx)          # side B->Gamma
    line_ga = _line(zeros, zeros, gy, -gx)         # side Gamma->A is (-gx, -gy)

    apx, apy = _meet(line_ab, line_bg)
    bpx, bpy = _meet(line_bg, line_ga)
    gpx, gpy = _meet(line_ga, line_ab)

    area_derived = 0.5 * np.abs(
        (bpx - apx) * (gpy - apy) - (bpy - apy) * (gpx - apx)
    )
    ratio_geometric = area_derived / area
    ratio_formula = csum * csum

    cot_side_sum = g2 * cot_a + b2 * cot_g + a2 * cot_b
    sum_sq = a2 + b2 + g2
    pairs = a2 * b2 + b2 * g2 + g2 * a2
    quads = a2 * a2 + b2 * b2 + g2 * g2
    sixteen = 2.0 * pairs - quads

    term_a_rhs = 2.0 * g2 * (b2 + g2 - a2)
    term_g_rhs = 2.0 * b2 * (a2 + b2 - g2)
    term_b_rhs = 2.0 * a2 * (g2 + a2 - b2)

    quadratic_lhs = 16.0 * area * area + 8.0 * area * cot_side_sum - sum_sq * sum_sq
    chain_rhs = sixteen + term_a_rhs + term_g_rhs + term_b_rhs - 2.0 * pairs - quads

    s = 0.5 * (alpha + beta + gamma)
    fa, fb, fg = s - alpha, s - beta, s - gamma
    radical = (
        np.sqrt(s * fa / (fb * fg)),
        np.sqrt(s * fb / (fa * fg)),
        np.sqrt(s * fg / (fa * fb)),
    )
    direct = (_cot(0.5 * ang_a), _cot(0.5 * ang_b), _cot(0.5 * ang_g))
    half_angle = np.maximum.reduce([_norm(r, c) for r, c in zip(radical, direct)])

    areas = np.stack(
        [
            np.sqrt(s * fa * fb * fg),
            np.sqrt(np.maximum(sixteen, 0.0)) / 4.0,
            sum_sq / (4.0 * csum),
            0.5 * beta * gamma * np.sin(ang_a),
            area,
        ]
    )
    area_spread = (areas.max(axis=0) - areas.min(axis=0)) / areas.max(axis=0)

    residuals = {
        "area_increment": _norm(area_derived, area + 0.5 * cot_side_sum),
        "sixteen_area_sq": _norm(sixteen, 16.0 * area * area),
        "cot_term_a": _term_norm(8.0 * area * g2 * cot_a, g2, b2, g2, a2),
        "cot_term_g": _term_norm(8.0 * area * b2 * cot_g, b2, a2, b2, g2),
        "cot_term_b": _term_norm(8.0 * area * a2 * cot_b, a2, g2, a2, b2),
        "squared_sum_expansion": np.abs(-(sum_sq * sum_sq) - (-2.0 * pairs - quads))
        / (1.0 + sum_sq * sum_sq),
        "chain_sum": np.abs(quadratic_lhs - chain_rhs) / (sum_sq * sum_sq),
        "area_quadratic": np.abs(quadratic_lhs) / (sum_sq * sum_sq),
        "half_angle_cots": half_angle,
        "area_from_cots": _norm(sum_sq / (4.0 * csum), area),
        "area_ratio": np.abs(ratio_geometric - ratio_formula) / (1.0 + ratio_formula),
        "area_agreement": area_spread,
    }

    longest = np.maximum.reduce([alpha, beta, gamma])
    gamma_prime_offset = np.hypot(gpx - bx, gpy) / longest

    near_right = np.abs(ang_a - 0.5 * math.pi) < CASE_BAND
    case_counts = {
        "acute": int(np.count_nonzero(~near_right & (ang_a < 0.5 * math.pi))),
        "right": int(np.count_nonzero(near_right)),
        "obtuse": int(np.count_nonzero(~near_right & (ang_a > 0.5 * math.pi))),
    }

    return SweepResult(
        corpus=corpus,
        residuals=residuals,
        cot_sum=csum,
        ratio_geometric=ratio_geometric,
        gamma_prime_offset=gamma_prime_offset,
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
        max_residuals={key: float(np.max([m[key] for m in maxima])) for key in RESIDUAL_KEYS},
        min_cot_sum=minima[best],
        argmin_index=argmins[best],
    )
