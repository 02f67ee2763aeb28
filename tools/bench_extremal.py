"""Time of the minimize pass (`global_cot_sum_min`, `right_triangle_min`, 41 slices), per tree.

    python tools/bench_extremal.py --runs 10 --src /path/to/parent --src . \\
        --out BENCH_extremal.json

Each run of a source tree (a checkout holding `src/perptri`) starts a fresh
interpreter with PYTHONPATH=<tree>/src that makes PASSES minimize passes, as
perfbench's `extremal_search` does: `global_cot_sum_min()`,
`right_triangle_min()` and `minimize_slice(k)` for the 41 k of its SLICE_KS,
each pass timed with perf_counter.  A run records the 10th percentile and the
median of its passes (µs), and the medians of the global search alone and of
one slice search (the 41-slice table over 41).  One more pass, not timed,
counts evaluations through counting wrappers: the slice `extremal._slice`
in the global search (global_evals) and in the table (table_evals), their
sum (slice_evals_per_pass), and the right family's 2/sin 2B in its search
(right_evals).  The child then prints its results: every `ExtremalReport`
of the table, and the global stage's k* and numeric minimum, from the
tree's search over k of `minimize_slice(k).numeric_min`.  A tree from
before Brent's method searched with `golden_section_min`, and its right
search evaluated the checked `right_cot_sum`; the child uses those names
where `brent_min` and `_right_cot_sum` are missing, so such a tree can be
measured as the parent.
Each run also starts `python -m perptri minimize --json` and
`python -m perptri minimize --right --json` and keeps their exit codes and
bytes.

Runs alternate between trees as in bench_sweep_memory.py, whose helpers this
script imports.  Every run must give the same results and bytes as the first;
otherwise the script names the differing paths (such as slices/3/numeric_min
or cli/minimize --json) and exits 1 after writing its report.  The report
holds every run, the minimum, median and quartiles of each measure per tree,
the machine, and each tree's identity (git HEAD, whether its src/ differs
from HEAD, and a SHA-256 of its src/).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from bench_sweep_memory import (
    ROOT,
    alternating,
    differing_paths,
    machine,
    run_child,
    source_trees,
    spread,
    tree_identity,
)

#: Passes per run, as many as perfbench makes per round.
PASSES = 40

PROBE = """\
import json
import statistics
import sys
import time

import numpy as np

from perptri import extremal
from perptri.extremal import global_cot_sum_min, minimize_slice, right_triangle_min

search = getattr(extremal, "brent_min", None) or extremal.golden_section_min
right_body = "_right_cot_sum" if hasattr(extremal, "_right_cot_sum") else "right_cot_sum"

SLICE_KS = tuple(float(k) for k in np.logspace(-2.0, 2.0, 41))
passes, globals_, tables = [], [], []
for _ in range(int(sys.argv[1])):
    start = time.perf_counter()
    global_min = global_cot_sum_min()
    after_global = time.perf_counter()
    right_min = right_triangle_min()
    after_right = time.perf_counter()
    slices = [minimize_slice(k) for k in SLICE_KS]
    end = time.perf_counter()
    passes.append((end - start) * 1e6)
    globals_.append((after_global - start) * 1e6)
    tables.append((end - after_right) * 1e6)
evals = {"slice": 0, "right": 0}


def counting(name, bare):
    def evaluate(*args):
        evals[name] += 1
        return bare(*args)
    return evaluate


bare_slice, bare_right = extremal._slice, getattr(extremal, right_body)
extremal._slice = counting("slice", bare_slice)
setattr(extremal, right_body, counting("right", bare_right))
global_cot_sum_min()
global_evals = evals["slice"]
right_triangle_min()
for k in SLICE_KS:
    minimize_slice(k)
extremal._slice = bare_slice
setattr(extremal, right_body, bare_right)
k_star, numeric_min = search(lambda k: minimize_slice(k).numeric_min, 1e-3, 1e2)
print(json.dumps({
    "pass_p10_us": statistics.quantiles(passes, n=10, method="inclusive")[0],
    "pass_median_us": statistics.median(passes),
    "global_median_us": statistics.median(globals_),
    "slice_median_us": statistics.median(tables) / len(SLICE_KS),
    "slice_evals_per_pass": evals["slice"],
    "global_evals": global_evals,
    "right_evals": evals["right"],
    "table_evals": evals["slice"] - global_evals,
}))
print(json.dumps({
    "global_cot_sum_min": global_min,
    "right_triangle_min": right_min,
    "global_stage": {"k_star": k_star, "numeric_min": numeric_min},
    "slices": [report._asdict() for report in slices],
}))
"""

CLI = {"minimize --json": ["minimize", "--json"],
       "minimize --right --json": ["minimize", "--right", "--json"]}


def measure(tree: Path) -> tuple[dict, str]:
    """One run on one tree: its timings, and its results and command outputs as one document."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    _, _, printed = run_child([sys.executable, "-c", PROBE, str(PASSES)], env)
    code, _, printed = printed.partition("\n")
    if code != "exit 0":
        raise SystemExit(f"the minimize passes on {tree} ended with {code}")
    timings, results = map(json.loads, printed.splitlines())
    results["cli"] = {name: run_child([sys.executable, "-m", "perptri", *argv], env)[2]
                      for name, argv in CLI.items()}
    return timings, "exit 0\n" + json.dumps(results, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="a source tree to measure (repeatable; default: this checkout)")
    parser.add_argument("--runs", type=int, default=10, help="runs per tree")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_extremal.json")
    args = parser.parse_args(argv)
    trees = source_trees(parser, args.src)

    runs = {tree: [] for tree in trees}
    outputs = {}
    for i, tree in alternating(trees, args.runs):
        timings, output = measure(tree)
        runs[tree].append(timings)
        outputs.setdefault(output, []).append(f"{tree} run {i}")
    identical = len(outputs) == 1
    differing = differing_paths(list(outputs))

    report = {
        "benchmark": f"{PASSES} minimize passes (global_cot_sum_min, right_triangle_min, "
                     "minimize_slice over perfbench's 41 SLICE_KS) in a fresh interpreter, "
                     "and perptri minimize [--right] --json",
        "passes_per_run": PASSES,
        "runs_per_tree": args.runs,
        "machine": machine(),
        **tree_identity(ROOT),
        "identical_output": identical,
        "differing_paths": differing,
        "trees": [{
            "tree": tree.name,
            **tree_identity(tree),
            "summary": {key: spread([run[key] for run in runs[tree]]) for key in runs[tree][0]},
            "runs": runs[tree],
        } for tree in trees],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    measures = list(report["trees"][0]["summary"])
    width = max(len(entry["tree"]) for entry in report["trees"])
    print("  ".join((f"{'tree':>{width}}", *measures)))
    for entry in report["trees"]:
        cells = (f"{entry['summary'][key]['median']:>{len(key)}.1f}" for key in measures)
        print("  ".join((f"{entry['tree']:>{width}}", *cells)))
    print(f"medians of {args.runs} run(s) of {PASSES} passes each; report in {args.out}")
    if not identical:
        for i, where in enumerate(outputs.values()):
            print(f"output {i}: {', '.join(where)}", file=sys.stderr)
        print(f"the runs gave different results at {', '.join(differing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
