"""Per-layer spans for the traced run.

The wrappers live here, not in the package: `installed(tracer)` rebinds
public functions of perptri as the calling module sees them (for example
`perptri.ratio.metrics`, which is the `geom.metrics` that `ratio` calls) and
restores the originals on exit.  Each span records its duration and its self
time (duration minus the child spans it contains), keyed by the outermost
span that is open, so a call is attributed to the benchmark operation that
caused it.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc

NS_PER_UNIT = {"s": 1e9, "ms": 1e6, "us": 1e3}
BYTES_PER_MIB = 2.0**20

# Roots are the benchmark's own operation spans (workloads.py opens them).
ROOT_SWEEP = "cli.sweep"
ROOT_VERIFY = "op.verify"
ROOT_SIMILARITY = "op.similarity"
ROOT_MINIMIZE = "op.minimize"
ROOT_LATTICE = "op.lattice"

#: Per-layer metric -> (unit, root, span, statistic, what it should move).
#: Statistics: "total", "self" and "calls" are per root operation,
#: "per_call" is per call of the span, "peak" is the largest tracemalloc peak.
#: The end-to-end metrics named in the last field are those of BENCHMARK.json.
PER_LAYER = {
    "sampling.sample_corpus_s": ("s", ROOT_SWEEP, "sampling.sample_corpus", "total",
                                 "cli_p10_ms, call_p10_us on sweep_bulk"),
    "sampling.vertex_arrays_s": ("s", ROOT_SWEEP, "sampling.vertex_arrays", "total",
                                 "cli_p10_ms, call_p10_us on sweep_bulk"),
    "sweep.reduce_s": ("s", ROOT_SWEEP, "sweep.reduce", "total",
                       "cli_p10_ms, call_p10_us on sweep_bulk"),
    "sweep.evaluate_corpus_self_s": ("s", ROOT_SWEEP, "sweep.evaluate_corpus", "self",
                                     "cli_p10_ms, call_p10_us on sweep_bulk"),
    "sweep.evaluate_corpus_peak_mb": ("MiB", ROOT_SWEEP, "sweep.evaluate_corpus", "peak",
                                      "cli_peak_rss_mb on sweep_bulk"),
    "cli.sweep_self_s": ("s", ROOT_SWEEP, ROOT_SWEEP, "self",
                         "cli_p10_ms, call_p10_us on sweep_bulk"),
    "cli.triangle_from_spec_us": ("us", ROOT_VERIFY, "cli.triangle_from_spec", "total",
                                  "call_p10_us on verify_scalar"),
    "ratio.identity_report_self_us": ("us", ROOT_VERIFY, "ratio.identity_report", "self",
                                      "call_p10_us on verify_scalar"),
    "geom.metrics_calls_per_verify": ("count", ROOT_VERIFY, "geom.metrics", "calls",
                                      "call_p10_us on verify_scalar"),
    "geom.metrics_us_per_verify": ("us", ROOT_VERIFY, "geom.metrics", "total",
                                   "call_p10_us on verify_scalar"),
    "construction.construct_calls_per_verify": ("count", ROOT_VERIFY, "construction.construct",
                                                "calls", "call_p10_us on verify_scalar"),
    "construction.construct_us_per_verify": ("us", ROOT_VERIFY, "construction.construct",
                                             "total", "call_p10_us on verify_scalar"),
    "identities.us_per_verify": ("us", ROOT_VERIFY, "identities", "total",
                                 "call_p10_us on verify_scalar"),
    "construction.construct_phi_us": ("us", ROOT_SIMILARITY, "construction.construct", "total",
                                      "similarity_p50_us (report only) on verify_scalar"),
    "construction.similarity_check_us": ("us", ROOT_SIMILARITY, "construction.similarity_check",
                                         "total",
                                         "similarity_p50_us (report only) on verify_scalar"),
    "extremal.global_cot_sum_min_ms": ("ms", ROOT_MINIMIZE, "extremal.global_cot_sum_min",
                                       "total", "call_p10_us on extremal_search"),
    "extremal.right_triangle_min_us": ("us", ROOT_MINIMIZE, "extremal.right_triangle_min",
                                       "total", "call_p10_us on extremal_search"),
    "extremal.minimize_slice_us": ("us", ROOT_MINIMIZE, "extremal.minimize_slice", "per_call",
                                   "call_p10_us on extremal_search"),
    "extremal.slice_evals_per_pass": ("count", ROOT_MINIMIZE, "extremal.cot_sum_slice", "calls",
                                      "call_p10_us on extremal_search"),
    "extremal.cot_sum_lattice_min_ms": ("ms", ROOT_LATTICE, "extremal.cot_sum_lattice_min",
                                        "total", "lattice_ms (report only) on extremal_search"),
}


class Tracer:
    """In-memory span aggregates: (root, span) -> [calls, total_ns, self_ns]."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list[int]] = {}
        self.peaks: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []

    def _root(self, name: str) -> str:
        return self._stack[0][0] if self._stack else name

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def _exit(self) -> None:
        name, start, child_ns = self._stack.pop()
        duration = time.perf_counter_ns() - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.stats.setdefault((self._root(name), name), [0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def wrap_peak(self, fn, name: str):
        """A span that also records the tracemalloc peak of the allocations inside it."""

        def traced(*args, **kwargs):
            tracemalloc.start()
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                key = (self._root(name), name)
                self._exit()
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[key] = max(self.peaks.get(key, 0), peak)

        return traced

    def count(self, fn, name: str):
        """Call counter without timing, for functions called thousands of times a pass."""

        def counted(*args, **kwargs):
            entry = self.stats.setdefault((self._root(name), name), [0, 0, 0])
            entry[0] += 1
            return fn(*args, **kwargs)

        return counted

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric; 0 where the workload never entered the root."""
        out = {}
        for metric, (unit, root, name, stat, _) in PER_LAYER.items():
            roots = self.stats.get((root, root), [0, 0, 0])[0]
            calls, total_ns, self_ns = self.stats.get((root, name), [0, 0, 0])
            if stat == "peak":
                out[metric] = self.peaks.get((root, name), 0) / BYTES_PER_MIB
            elif stat == "calls":
                out[metric] = calls / roots if roots else 0.0
            elif stat == "per_call":
                out[metric] = total_ns / calls / NS_PER_UNIT[unit] if calls else 0.0
            else:
                ns = self_ns if stat == "self" else total_ns
                out[metric] = ns / roots / NS_PER_UNIT[unit] if roots else 0.0
        return out


def _boundaries(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every span boundary."""
    from perptri import cli, construction, extremal, ratio, sampling, sweep

    for owner, attr, name in (
        (cli, "triangle_from_spec", "cli.triangle_from_spec"),
        (ratio, "identity_report", "ratio.identity_report"),
        (ratio, "metrics", "geom.metrics"),
        (ratio, "construct", "construction.construct"),
        (ratio, "cot", "identities"),
        (ratio, "cot_half_angles", "identities"),
        (ratio, "sixteen_area_squared", "identities"),
        (ratio, "area_from_cots", "identities"),
        (construction, "metrics", "geom.metrics"),
        (construction, "cot_sum", "identities"),
        (construction, "construct", "construction.construct"),
        (construction, "similarity_check", "construction.similarity_check"),
        (sweep, "sample_corpus", "sampling.sample_corpus"),
        (sampling.TriangleCorpus, "vertex_arrays", "sampling.vertex_arrays"),
        (extremal, "global_cot_sum_min", "extremal.global_cot_sum_min"),
        (extremal, "right_triangle_min", "extremal.right_triangle_min"),
        (extremal, "minimize_slice", "extremal.minimize_slice"),
        (extremal, "cot_sum_lattice_min", "extremal.cot_sum_lattice_min"),
    ):
        yield owner, attr, lambda fn, name=name: tracer.wrap(fn, name)
    yield sweep, "evaluate_corpus", lambda fn: tracer.wrap_peak(fn, "sweep.evaluate_corpus")
    yield extremal, "cot_sum_slice", lambda fn: tracer.count(fn, "extremal.cot_sum_slice")
    for attr in ("max_residuals", "min_cot_sum", "argmin_index"):
        yield sweep.SweepResult, attr, lambda prop: property(tracer.wrap(prop.fget, "sweep.reduce"))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every span boundary to the tracer for the duration of the block.

    A boundary the package no longer has is skipped, so its metrics read 0
    instead of the traced run failing.
    """
    saved = []
    try:
        for owner, attr, wrapper in _boundaries(tracer):
            original = vars(owner).get(attr)
            if original is not None:
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
