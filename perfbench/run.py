"""Benchmark of the perptri package in the source checkout that holds this file.

    python3 perfbench/run.py --workload sweep_bulk --seed 1 --seconds 20 --trace 0

Workloads (the reasons are in BENCHMARK.json):

    sweep_bulk       `perptri sweep --n 1000000 --json` processes, alternated
                     with the same sweep through `cli.main` in this process
    verify_scalar    seeded vertex specs through `cli.triangle_from_spec` +
                     `ratio.identity_report` and `construction.construct(t, phi)`
                     + `similarity_check`; one `perptri verify --json` per block
    extremal_search  global and right-triangle minima with the 41-slice table,
                     the 2000^2 lattice, and `perptri minimize --json`

With --trace 0 the result carries the end-to-end metrics, the same four on
every workload:

    setup_s          median wall time of a fresh interpreter until
                     `import perptri.cli` returns, numpy import included
    cli_p10_ms       10th percentile of the wall time of one `perptri` process
                     of the workload (sweep, verify or minimize)
    cli_peak_rss_mb  median peak RSS of those processes, each read with wait4
    call_p10_us      10th percentile of the latency of the workload's
                     in-process call: the whole sweep through `cli.main`,
                     parse + identity_report, or one minimize pass

Latencies are gated at their 10th percentile because a shared machine's
speed drifts by 15-30 % over minutes; the report also gives medians.

With --trace 1 every unit of work runs once plain and once with the spans of
spans.py installed; the result carries the per-layer metrics of spans.PER_LAYER
and trace.overhead_share.

Before the result, a JSON report names every metric of the workload with its
unit (including those that are not gated, such as p99 latencies), the failures
by kind, the input-property shares, the machine, and the code measured.  The
last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count the distinct operations of the run's fixed,
seeded set (see workloads.py), so the same seed and code give the same
counts; `failed` counts operations that raised, exited non-zero or failed a
pinned check.  `correct` is false when some operation gave no readable answer
at all, or a repeated operation reached another verdict than its first run.
The code measured is the checkout's own `src/`; without it the benchmark exits
2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spawner import Spawner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cli_p10_ms": "ms",
    "cli_peak_rss_mb": "MiB",
    "call_p10_us": "us",
}


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(perptri_file: str) -> dict:
    head = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if head else None
    return {
        "perptri_file": perptri_file,
        "git_head": head,
        "dirty": None if status is None else bool(status),
    }


def machine() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_bulk", "verify_scalar", "extremal_search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "perptri" / "__init__.py").is_file():
        print(f"error: no perptri package under {SRC}", file=sys.stderr)
        return 2
    # Children must be spawned from a process that is still small: see spawner.py.
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    spawner = Spawner(sys.executable, str(ROOT), dict(os.environ, PYTHONPATH=pythonpath))
    try:
        return measure(args, spawner)
    finally:
        spawner.close()


def measure(args: argparse.Namespace, spawner: Spawner) -> int:
    sys.path.insert(0, str(SRC))
    import perptri

    if Path(perptri.__file__).resolve().parent != SRC / "perptri":
        print(f"error: imported perptri from {perptri.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, spawner=spawner)
    tally = workloads.Tally()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}

    if args.trace:
        from spans import PER_LAYER

        traced = workloads.traced(args.workload, ctx, tally)
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name][0] if name in PER_LAYER else "share"}
            for name, value in traced["layers"].items()
        }
        report["units_of_work"] = traced["units"]
        report["should_move"] = {name: row[4] for name, row in PER_LAYER.items()}
    else:
        result = workloads.WORKLOADS[args.workload](ctx, tally)
        setup = result["setup"]
        gated = dict(result["gated"], setup_s=statistics.median(setup))
        metrics = {name: {"value": gated[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        named = {name: {"value": value, "unit": unit}
                 for name, (value, unit) in result["named"].items()}
        named["setup_s"] = metrics["setup_s"]
        named["fail_share"] = {"value": tally.failed / tally.attempted, "unit": "share"}
        report.update(samples=dict(result["samples"], setup=len(setup)),
                      named_metrics=named, inputs=result["inputs"])

    report.update(failures=tally.summary(), machine=machine(),
                  code=provenance(perptri.__file__))
    report["metrics"] = metrics
    print(json.dumps(report, indent=2))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
