"""The three workloads, the answers they are checked against, and their inputs.

Every workload is a closed loop: one caller, and at most one child process at
a time.  Each operation's output is checked against constants pinned below,
never against the package's own tolerance tables, so loosening a table in
perptri cannot hide a regression.  A wrong answer is counted as a failed
operation and the run goes on; an operation that gives no readable answer
(raised, crashed, timed out, printed no JSON) is also failed and, in addition,
makes the run's `correct` false.

Every run's operations are a fixed set drawn from the seed: the first
COUNTED_UNITS units of work.  Once they are done the loop cycles over the same
units until the run's seconds have passed, so `attempted` and `failed` count
each distinct operation once and depend on the seed and the code, not on how
fast the machine ran.  A repeat must reach the verdict its first run reached;
one that does not also makes `correct` false.

Calls into perptri go through module attributes (`cli.triangle_from_spec`,
`ratio.identity_report`, ...) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from perptri import cli, construction, extremal, ratio, sampling

import spans
from spawner import Spawner

SQRT3 = math.sqrt(3.0)
HALF_PI = 0.5 * math.pi

# --- sweep_bulk: pinned answers for `perptri sweep --n 1000000 --json` -------
SWEEP_N = 1_000_000
SWEEP_RATIO_KEYS = ("area_ratio", "area_agreement")
SWEEP_RATIO_BOUND = 1e-8
SWEEP_CHAIN_KEYS = (
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
)
SWEEP_CHAIN_BOUND = 1e-9
MIN_COT_SUM_SLACK = 1e-9

# --- verify_scalar: the package's strict tier as it stood when the benchmark
# was defined.  The identities are theorems, so every verdict must be PASS. ---
VERIFY_MAIN_TOLERANCES = {
    "area_increment": 1e-9,
    "sixteen_area_sq": 1e-10,
    "cot_term_a": 1e-9,
    "cot_term_g": 1e-9,
    "cot_term_b": 1e-9,
    "squared_sum_expansion": 1e-12,
    "chain_sum": 1e-9,
    "area_quadratic": 1e-9,
    "half_angle_cots": 1e-9,
    "area_from_cots": 1e-9,
    "area_ratio": 1e-8,
}
# Triangles whose smallest angle is below STRESS_MIN_ANGLE (rad) are judged
# at the relaxed VERIFY_STRESS_TOLERANCE, as the package's stress tier is.
VERIFY_STRESS_TOLERANCE = 1e-5
STRESS_MIN_ANGLE = 0.02
SIMILARITY_BOUND_RAD = 1e-7

# Inputs: four angle-A strata with a 0.01 rad floor, plus slivers with a
# 1e-4 rad floor; sizes 10^U(-2, 2); a random rotation; a translation of
# 10^U(0, 8) times the longest side, which reaches the offsets at which
# binary64 line offsets lose the digits the area ratio needs.
DELTA_MAIN = 0.01
DELTA_SLIVER = 1e-4
STRATA = ("all", "acute", "right", "obtuse")
PER_STRATUM = 448
SLIVERS_PER_BLOCK = 256
SIZE_DECADES = (-2.0, 2.0)
OFFSET_DECADES = (0.0, 8.0)
LARGE_OFFSET_DECADES = 6.0

# --- extremal_search ---------------------------------------------------------
SLICE_KS = tuple(float(k) for k in np.logspace(-2.0, 2.0, 41))
LATTICE_N = 2000
GLOBAL_MIN_SQ_SLACK = 1e-8
ARGMIN_SLACK = 1e-9
RIGHT_MIN_SLACK = 1e-10
LATTICE_SLACK = 1e-6
SLICE_AGREEMENT = 1e-9
PASSES_PER_ROUND = 40

SWEEP_SETUPS_PER_UNIT = 2

# Units of work whose operations a run counts (each about 4 s, 0.6 s and 0.7 s
# on 2 cores): about a third of a 30 s run, so every run completes them.
COUNTED_UNITS = {"sweep_bulk": 3, "verify_scalar": 16, "extremal_search": 16}


class NoAnswer(Exception):
    """An operation produced no result the benchmark could check."""


@dataclass
class Tally:
    """Distinct operations attempted and failed, by operation kind and failure kind.

    An operation is identified by its kind and a key naming its input; a
    repeat of a key is checked against the first verdict, not counted again.
    """

    attempted: int = 0
    failed: int = 0
    unanswered: int = 0
    inconsistent: int = 0
    ops: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    kinds: Counter = field(default_factory=Counter)
    verdicts: dict = field(default_factory=dict)

    def record(self, op: str, key, problem: str | None, answered: bool = True) -> None:
        self.unanswered += not answered
        if (op, key) in self.verdicts:
            self.inconsistent += self.verdicts[op, key] != problem
            return
        self.verdicts[op, key] = problem
        self.attempted += 1
        self.ops[op] += 1
        if problem:
            self.failed += 1
            self.failures[op] += 1
            self.kinds[f"{op}: {problem}"] += 1

    def judge(self, op: str, key, check, *args) -> None:
        """Record one operation whose output `check` inspects."""
        try:
            problem = check(*args)
        except NoAnswer as exc:
            self.record(op, key, str(exc), answered=False)
        else:
            self.record(op, key, problem)

    def raised(self, op: str, key, exc: Exception) -> None:
        self.record(op, key, f"raised {type(exc).__name__}", answered=False)

    @property
    def correct(self) -> bool:
        return not self.unanswered and not self.inconsistent

    def summary(self) -> dict:
        return {
            "attempted": dict(self.ops),
            "failed": dict(self.failures),
            "fail_share": {op: self.failures[op] / n for op, n in self.ops.items()},
            "failure_kinds": dict(self.kinds.most_common()),
            "inconsistent_repeats": self.inconsistent,
        }


@dataclass
class Context:
    seed: int
    seconds: float
    spawner: Spawner


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, within the range of the data; nan without data."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def p10(values: list[float]) -> float:
    """The gated latency statistic.

    A low percentile, not the median: on a machine of 2 shared cores the
    speed drifts by 15-30 % over minutes, and that moves medians between runs
    more than the fast tail (six times more for the scalar verify latency).
    """
    return percentile(values, 10)


def setup_wall(ctx: Context) -> float:
    """Wall time of a fresh interpreter until `import perptri.cli` returns."""
    child = ctx.spawner.run(["-c", "import perptri.cli"])
    if child.code != 0:
        raise RuntimeError(f"`import perptri.cli` exited {child.code}")
    return child.wall_s


def closed_loop(ctx: Context, unit, counted: int, setups_per_unit: int = 1) -> list[float]:
    """Run unit(0), ..., unit(counted - 1), then cycle over them again until
    ctx.seconds have passed; set-up wall times.

    unit(i, first) gets `first` true on its first run only.  Set-ups are
    measured between units rather than before them, so that every metric of a
    run samples the same stretch of time.
    """
    setup_wall(ctx)  # writes the bytecode caches
    setup = []
    start = time.perf_counter()
    i = 0
    while i < counted or time.perf_counter() - start < ctx.seconds:
        unit(i % counted, i < counted)
        setup += [setup_wall(ctx) for _ in range(setups_per_unit)]
        i += 1
    return setup


def _no_span(name: str):
    """Stands in for `Tracer.span` in untraced runs."""
    return contextlib.nullcontext()


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise NoAnswer("no readable JSON") from exc
    if not isinstance(doc, dict):
        raise NoAnswer("no readable JSON")
    return doc


def _field(doc: dict, *path):
    value = doc
    try:
        for key in path:
            value = value[key]
    except (KeyError, IndexError, TypeError) as exc:
        raise NoAnswer(f"missing {'/'.join(map(str, path))}") from exc
    return value


# --- sweep_bulk ---------------------------------------------------------------

def sweep_problem(code: int, text: str) -> str | None:
    """None when a `perptri sweep --json` result matches the pinned answers."""
    doc = _read_json(text)
    if code != 0:
        return f"exit {code}"
    if _field(doc, "n") != SWEEP_N:
        return "n"
    counts = _field(doc, "case_counts")
    if sum(counts.values()) != SWEEP_N:
        return "case counts do not sum to n"
    for key in SWEEP_RATIO_KEYS:
        if not _field(doc, "max_residuals", key) <= SWEEP_RATIO_BOUND:
            return f"{key} over {SWEEP_RATIO_BOUND:g}"
    for key in SWEEP_CHAIN_KEYS:
        if not _field(doc, "max_residuals", key) <= SWEEP_CHAIN_BOUND:
            return f"{key} over {SWEEP_CHAIN_BOUND:g}"
    if not _field(doc, "min_cot_sum_triangle", "cot_sum") >= SQRT3 - MIN_COT_SUM_SLACK:
        return "min cot sum below sqrt(3)"
    return None


def _sweep_seed(seed: int, i: int) -> int:
    """The `perptri sweep --seed` of the run's i-th sweep."""
    return seed * 1000 + i


def _sweep_args(seed: int) -> list[str]:
    return ["sweep", "--n", str(SWEEP_N), "--seed", str(seed), "--json"]


def _sweep_call(tally: Tally, seed: int, root=_no_span) -> int | None:
    """In-process `cli.main(["sweep", ...])`; latency in ns, None without an answer."""
    start = time.perf_counter_ns()
    try:
        with root(spans.ROOT_SWEEP):
            code, text = cli_in_process(_sweep_args(seed))
    except Exception as exc:
        tally.raised("sweep_call", seed, exc)
        return None
    elapsed = time.perf_counter_ns() - start
    tally.judge("sweep_call", seed, sweep_problem, code, text)
    return elapsed


def sweep_shares(seeds: list[int]) -> dict:
    """Input properties of the corpora `perptri sweep` drew for these seeds."""
    obtuse = stress = 0
    for seed in seeds:
        corpus = sampling.sample_corpus(SWEEP_N, seed)
        ang_a = corpus.ang_a
        smallest = np.minimum(np.minimum(corpus.ang_b, corpus.ang_g), ang_a)
        obtuse += int(np.count_nonzero(ang_a > HALF_PI))
        stress += int(np.count_nonzero(smallest < STRESS_MIN_ANGLE))
    total = SWEEP_N * len(seeds)
    return {"triangles": total, "obtuse_share": obtuse / total, "stress_share": stress / total}


def sweep_bulk(ctx: Context, tally: Tally) -> dict:
    """`perptri sweep` processes, every other seed also swept in process."""
    walls, rss, calls, seeds = [], [], [], []

    def cli_sweep(seed: int) -> None:
        child = ctx.spawner.run(["-m", "perptri", *_sweep_args(seed)])
        tally.judge("sweep_cli", seed, sweep_problem, child.code, child.stdout)
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mib)

    def unit(i: int, first_run: bool) -> None:
        # Two processes per in-process sweep: the process wall time, with its
        # interpreter start-up, spreads about twice as widely between runs.
        first, second = _sweep_seed(ctx.seed, 2 * i), _sweep_seed(ctx.seed, 2 * i + 1)
        if first_run:
            seeds.extend((first, second))
        cli_sweep(first)
        elapsed = _sweep_call(tally, first)
        if elapsed is not None:
            calls.append(elapsed / 1e3)
        cli_sweep(second)

    setup = closed_loop(ctx, unit, COUNTED_UNITS["sweep_bulk"], SWEEP_SETUPS_PER_UNIT)
    cli_ms = statistics.median(walls) * 1e3
    return {
        "setup": setup,
        "samples": {"cli": len(walls), "call": len(calls)},
        "gated": {"cli_p10_ms": p10(walls) * 1e3, "cli_peak_rss_mb": statistics.median(rss),
                  "call_p10_us": p10(calls)},
        "named": {
            "sweep_triangles_per_s": (SWEEP_N / (cli_ms / 1e3), "1/s"),
            "sweep_peak_rss_mb": (statistics.median(rss), "MiB"),
        },
        "inputs": sweep_shares(seeds),
    }


# --- verify_scalar ------------------------------------------------------------

@dataclass(frozen=True)
class Spec:
    doc: dict
    phi: float
    stratum: str
    stress: bool
    offset_decades: float


def _simplex(rng, n: int, delta: float):
    """Uniform base angles (B, Gamma) on the open simplex, by folding."""
    span = math.pi - 3.0 * delta
    u = rng.uniform(0.0, span, n)
    v = rng.uniform(0.0, span, n)
    over = u + v > span
    return delta + np.where(over, span - u, u), delta + np.where(over, span - v, v)


def _base_angles(rng, n: int, stratum: str, delta: float):
    if stratum == "right":
        ang_b = rng.uniform(delta, HALF_PI - delta, n)
        return ang_b, HALF_PI - ang_b
    ang_b, ang_g = _simplex(rng, n, delta)
    if stratum in ("acute", "obtuse"):
        while True:
            wrong = (math.pi - ang_b - ang_g < HALF_PI) != (stratum == "acute")
            count = int(np.count_nonzero(wrong))
            if not count:
                break
            ang_b[wrong], ang_g[wrong] = _simplex(rng, count, delta)
    return ang_b, ang_g


def verify_block(seed: int, block: int) -> list[Spec]:
    """Block `block` of the seeded spec stream, in shuffled order."""
    rng = np.random.default_rng([seed, block])
    labels, bs, gs = [], [], []
    for stratum, n, delta in [(s, PER_STRATUM, DELTA_MAIN) for s in STRATA] + [
        ("sliver", SLIVERS_PER_BLOCK, DELTA_SLIVER)
    ]:
        ang_b, ang_g = _base_angles(rng, n, "all" if stratum == "sliver" else stratum, delta)
        labels += [stratum] * n
        bs.append(ang_b)
        gs.append(ang_g)
    ang_b, ang_g = np.concatenate(bs), np.concatenate(gs)
    n = ang_b.size
    ang_a = math.pi - ang_b - ang_g
    size = 10.0 ** rng.uniform(*SIZE_DECADES, n)
    beta = size * np.sin(ang_b) / np.sin(ang_g)
    gx, gy = beta * np.cos(ang_a), beta * np.sin(ang_a)
    longest = np.maximum(np.maximum(size, beta), np.hypot(gx - size, gy))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    decades = rng.uniform(*OFFSET_DECADES, n)
    direction = rng.uniform(0.0, 2.0 * math.pi, n)
    ox = 10.0**decades * longest * np.cos(direction)
    oy = 10.0**decades * longest * np.sin(direction)
    phi = HALF_PI * (1.0 - rng.uniform(0.0, 1.0, n))
    smallest = np.minimum(np.minimum(ang_a, ang_b), ang_g)
    vertices = np.stack([
        ox, oy,
        ox + size * cos_t, oy + size * sin_t,
        ox + gx * cos_t - gy * sin_t, oy + gx * sin_t + gy * cos_t,
    ], axis=1).tolist()
    specs = [
        Spec(
            doc={"vertices": {"A": v[0:2], "B": v[2:4], "Gamma": v[4:6]}},
            phi=float(phi[i]),
            stratum=labels[i],
            stress=bool(smallest[i] < STRESS_MIN_ANGLE),
            offset_decades=float(decades[i]),
        )
        for i, v in enumerate(vertices)
    ]
    return [specs[i] for i in rng.permutation(n)]


def verify_problem(report, stress: bool) -> str | None:
    if not report.passed:
        return f"FAIL verdict ({report.first_failing})"
    for key, tol in VERIFY_MAIN_TOLERANCES.items():
        value = report.residuals.get(key)
        if value is None:
            return f"no {key} residual"
        if not value <= (VERIFY_STRESS_TOLERANCE if stress else tol):
            return f"{key} over the pinned tolerance"
    return None


def similarity_problem(discrepancies) -> str | None:
    if not max(discrepancies) <= SIMILARITY_BOUND_RAD:
        return f"similarity discrepancy over {SIMILARITY_BOUND_RAD:g} rad"
    return None


def cli_verify_problem(code: int, text: str) -> str | None:
    doc = _read_json(text)
    if code != 0 or _field(doc, "passed") is not True:
        return f"exit {code}, FAIL verdict ({doc.get('first_failing')})"
    return None


def _verify_specs(tally: Tally, block: int, specs: list[Spec], verify_us: list,
                  similarity_us: list, root=_no_span) -> None:
    """Both timed scalar operations for every spec; `root` opens the operation span."""
    for index, spec in enumerate(specs):
        key = (block, index)
        t = None
        start = time.perf_counter_ns()
        try:
            with root(spans.ROOT_VERIFY):
                t = cli.triangle_from_spec(spec.doc)
                report = ratio.identity_report(t)
        except Exception as exc:
            tally.raised("verify", key, exc)
        else:
            verify_us.append((time.perf_counter_ns() - start) / 1e3)
            tally.judge("verify", key, verify_problem, report, spec.stress)

        start = time.perf_counter_ns()
        try:
            with root(spans.ROOT_SIMILARITY):
                d = construction.construct(t, spec.phi)
                disc = construction.similarity_check(t, d)
        except Exception as exc:
            tally.raised("similarity", key, exc)
        else:
            similarity_us.append((time.perf_counter_ns() - start) / 1e3)
            tally.judge("similarity", key, similarity_problem, disc)


def count_inputs(counts: Counter, specs: list[Spec]) -> None:
    counts["specs"] += len(specs)
    counts.update(spec.stratum for spec in specs)
    counts["stress_tier"] += sum(spec.stress for spec in specs)
    counts["offset_ge_1e6_size"] += sum(
        spec.offset_decades >= LARGE_OFFSET_DECADES for spec in specs)


def verify_shares(counts: Counter) -> dict:
    n = counts["specs"]
    return {
        "specs": n,
        "stratum_mix": {name: counts[name] / n for name in (*STRATA, "sliver")},
        "stress_share": counts["stress_tier"] / n,
        "offset_ge_1e6_size_share": counts["offset_ge_1e6_size"] / n,
    }


def verify_scalar(ctx: Context, tally: Tally) -> dict:
    """Blocks of specs through the scalar path, one `perptri verify` per block."""
    verify_us, similarity_us, cli_ms, rss = [], [], [], []
    inputs = Counter()

    def unit(block: int, first_run: bool) -> None:
        specs = verify_block(ctx.seed, block)
        _verify_specs(tally, block, specs, verify_us, similarity_us)
        child = ctx.spawner.run(["-m", "perptri", "verify", "--json", "-"],
                                json.dumps(specs[0].doc))
        tally.judge("cli_verify", block, cli_verify_problem, child.code, child.stdout)
        cli_ms.append(child.wall_s * 1e3)
        rss.append(child.peak_rss_mib)
        if first_run:
            count_inputs(inputs, specs)

    setup = closed_loop(ctx, unit, COUNTED_UNITS["verify_scalar"])
    return {
        "setup": setup,
        "samples": {"verify": len(verify_us), "similarity": len(similarity_us),
                    "cli": len(cli_ms)},
        "gated": {"cli_p10_ms": p10(cli_ms), "cli_peak_rss_mb": statistics.median(rss),
                  "call_p10_us": p10(verify_us)},
        "named": {
            "verify_p50_us": (statistics.median(verify_us) if verify_us else math.nan, "us"),
            "verify_p99_us": (percentile(verify_us, 99), "us"),
            "similarity_p50_us": (
                statistics.median(similarity_us) if similarity_us else math.nan, "us"),
            "similarity_p99_us": (percentile(similarity_us, 99), "us"),
            "cli_verify_p50_ms": (statistics.median(cli_ms), "ms"),
        },
        "inputs": verify_shares(inputs),
    }


# --- extremal_search ----------------------------------------------------------

def slice_min_closed_form(k: float) -> float:
    root = math.sqrt(k * k + 1.0)
    return (2.0 * k * k - k * root + 2.0) / root


def minimize_problem(global_min, right_min, slices) -> str | None:
    value, ang_b, ang_g = global_min
    if not abs(value * value - 3.0) <= GLOBAL_MIN_SQ_SLACK:
        return "global minimum squared is not 3"
    if not max(abs(ang_b - math.pi / 3.0), abs(ang_g - math.pi / 3.0)) <= ARGMIN_SLACK:
        return "global minimum not at pi/3"
    value, ang = right_min
    if not abs(value - 4.0) <= RIGHT_MIN_SLACK:
        return "right-triangle minimum is not 4"
    if not abs(ang - 0.25 * math.pi) <= RIGHT_MIN_SLACK:
        return "right-triangle minimum not at pi/4"
    for k, report in zip(SLICE_KS, slices):
        if not abs(slice_min_closed_form(k) - report.numeric_min) <= SLICE_AGREEMENT:
            return f"slice k={k:g}: numeric minimum strays from the closed form"
    return None


def lattice_problem(result) -> str | None:
    if not result[0] >= SQRT3 - LATTICE_SLACK:
        return "lattice minimum below sqrt(3)"
    return None


def cli_minimize_problem(code: int, text: str) -> str | None:
    doc = _read_json(text)
    if code != 0:
        return f"exit {code}"
    if not abs(_field(doc, "min_ratio") - 3.0) <= GLOBAL_MIN_SQ_SLACK:
        return "min_ratio is not 3"
    return None


def _minimize_pass(tally: Tally, key, root) -> float | None:
    """Global minimum, right-triangle minimum and the 41-slice table; ms."""
    start = time.perf_counter_ns()
    try:
        with root(spans.ROOT_MINIMIZE):
            global_min = extremal.global_cot_sum_min()
            right_min = extremal.right_triangle_min()
            slices = [extremal.minimize_slice(k) for k in SLICE_KS]
    except Exception as exc:
        tally.raised("minimize", key, exc)
        return None
    elapsed = (time.perf_counter_ns() - start) / 1e6
    tally.judge("minimize", key, minimize_problem, global_min, right_min, slices)
    return elapsed


def _lattice(tally: Tally, key, root) -> float | None:
    start = time.perf_counter_ns()
    try:
        with root(spans.ROOT_LATTICE):
            result = extremal.cot_sum_lattice_min(LATTICE_N)
    except Exception as exc:
        tally.raised("lattice", key, exc)
        return None
    elapsed = (time.perf_counter_ns() - start) / 1e6
    tally.judge("lattice", key, lattice_problem, result)
    return elapsed


def _extremal_round(tally: Tally, round_: int, minimize_ms: list, lattice_ms: list,
                    root=_no_span) -> None:
    for i in range(PASSES_PER_ROUND):
        elapsed = _minimize_pass(tally, (round_, i), root)
        if elapsed is not None:
            minimize_ms.append(elapsed)
    elapsed = _lattice(tally, round_, root)
    if elapsed is not None:
        lattice_ms.append(elapsed)


def extremal_search(ctx: Context, tally: Tally) -> dict:
    """Rounds of minimize passes, one lattice and one `perptri minimize`.

    Deterministic: nothing here is drawn from the seed.
    """
    minimize_ms, lattice_ms, cli_ms, rss = [], [], [], []

    def unit(round_: int, _: bool) -> None:
        _extremal_round(tally, round_, minimize_ms, lattice_ms)
        child = ctx.spawner.run(["-m", "perptri", "minimize", "--json"])
        tally.judge("cli_minimize", round_, cli_minimize_problem, child.code, child.stdout)
        cli_ms.append(child.wall_s * 1e3)
        rss.append(child.peak_rss_mib)

    setup = closed_loop(ctx, unit, COUNTED_UNITS["extremal_search"])
    minimize_p50 = statistics.median(minimize_ms) if minimize_ms else math.nan
    return {
        "setup": setup,
        "samples": {"minimize": len(minimize_ms), "lattice": len(lattice_ms), "cli": len(cli_ms)},
        "gated": {"cli_p10_ms": p10(cli_ms), "cli_peak_rss_mb": statistics.median(rss),
                  "call_p10_us": p10(minimize_ms) * 1e3},
        "named": {
            "minimize_ms": (minimize_p50, "ms"),
            "lattice_ms": (statistics.median(lattice_ms) if lattice_ms else math.nan, "ms"),
        },
        "inputs": {"seeded": False, "slices": len(SLICE_KS), "lattice_n": LATTICE_N},
    }


# --- traced runs --------------------------------------------------------------

def traced(name: str, ctx: Context, tally: Tally) -> dict:
    """Per-layer metrics: each unit of work runs once plain and once traced.

    The two runs alternate which goes first, so first-touch costs do not land
    on one side; their wall-time ratio is the tracing overhead.  Child
    processes are left out: the spans are in this process.  Units cycle as in
    closed_loop.
    """
    tracer = spans.Tracer()
    wall = {False: 0.0, True: 0.0}
    counted = COUNTED_UNITS[name]
    units = 0
    start = time.perf_counter()
    while units < counted or time.perf_counter() - start < ctx.seconds:
        i = units % counted
        if name == "sweep_bulk":
            seed = _sweep_seed(ctx.seed, i)
            unit = lambda root: _sweep_call(tally, seed, root)
        elif name == "verify_scalar":
            specs = verify_block(ctx.seed, i)
            unit = lambda root: _verify_specs(tally, i, specs, [], [], root)
        else:
            unit = lambda root: _extremal_round(tally, i, [], [], root)
        for with_spans in (units % 2 == 1, units % 2 == 0):
            begin = time.perf_counter()
            if with_spans:
                with spans.installed(tracer):
                    unit(tracer.span)
            else:
                unit(_no_span)
            wall[with_spans] += time.perf_counter() - begin
        units += 1
    layers = tracer.layer_metrics()
    layers["trace.overhead_share"] = wall[True] / wall[False] - 1.0
    return {"units": units, "layers": layers}


WORKLOADS = {
    "sweep_bulk": sweep_bulk,
    "verify_scalar": verify_scalar,
    "extremal_search": extremal_search,
}
