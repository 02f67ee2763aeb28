"""Wall time, peak memory and page faults of `perptri sweep`, one fresh process a run.

    python tools/bench_sweep_memory.py --n 200000 --n 1000000 --seed 0 --runs 10 \\
        --src /path/to/parent --src . --out BENCH_sweep_memory.json

Each run of a source tree (a checkout holding `src/perptri`) starts two
processes with PYTHONPATH=<tree>/src:

    sweep  `python -m perptri sweep --n N --seed S --json`; its wall time, and
           the peak RSS and minor page faults that wait4 reports for it
    stages the same `sweep.run_sweep(N, S)` in one process, reading its RSS
           (VmRSS) and peak (VmHWM) after the imports and after the sweep

--n may be given several times; each size is measured in turn.  With several
trees, each run visits every tree, and the order alternates from run to run
(first to last, then last to first), so drift on a shared machine falls on
both sides alike.  At each size every sweep must print the same bytes and
exit with the same code as the first; otherwise the script names the JSON
paths whose values differ (such as max_residuals/area_ratio, or exit for the
exit code) and the runs that printed each output, and exits 1 after writing
its report.  The report holds every run, the median and quartiles of each
measure per tree and size, the differing paths per size, the machine (CPUs,
CPU model, Python, numpy), and each tree's directory name and git HEAD
(where it is a git checkout).

Linux only: wait4 gives the peak and the faults, /proc/self/status the stage
RSS.  Linux carries a process's peak RSS across fork and exec, so a child's
wait4 peak is never below the peak of the process that started it; this
script imports no numpy and stays far below the sweep's peak.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STAGES = """
import json
import sys
from perptri.sweep import run_sweep

def rss():
    status = dict(line.split(":", 1) for line in open("/proc/self/status"))
    return [int(status[key].split()[0]) / 1024.0 for key in ("VmRSS", "VmHWM")]

stages = {"imports": rss()}
run_sweep(int(sys.argv[1]), int(sys.argv[2]))
stages["sweep"] = rss()
print(json.dumps({stage: dict(zip(("rss_mib", "peak_mib"), values))
                  for stage, values in stages.items()}))
"""

MEASURES = ("wall_s", "peak_rss_mib", "minor_faults", "rss_after_imports_mib",
            "rss_after_sweep_mib", "peak_after_sweep_mib")


def run_child(argv: list[str], env: dict) -> tuple[float, object, str]:
    """Run argv to completion: (wall seconds, its rusage, its exit status and stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage, f"exit {proc.returncode}\n" + out.decode()


def measure(tree: Path, n: int, seed: int) -> tuple[dict, str]:
    """One run on one tree: its measures and the sweep's exit code and output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    wall, usage, output = run_child(
        [sys.executable, "-m", "perptri", "sweep", "--n", str(n), "--seed", str(seed), "--json"],
        env)
    _, _, stage_out = run_child([sys.executable, "-c", STAGES, str(n), str(seed)], env)
    code, _, printed = stage_out.partition("\n")
    if code != "exit 0":
        raise SystemExit(f"the stage process on {tree} ended with {code}")
    stages = json.loads(printed)
    return {
        "wall_s": wall,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "minor_faults": usage.ru_minflt,
        "rss_after_imports_mib": stages["imports"]["rss_mib"],
        "peak_after_imports_mib": stages["imports"]["peak_mib"],
        "rss_after_sweep_mib": stages["sweep"]["rss_mib"],
        "peak_after_sweep_mib": stages["sweep"]["peak_mib"],
    }, output


def leaves(value, path: str = ""):
    """(path, value) for every leaf of a parsed JSON document; paths join keys with /."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from leaves(item, f"{path}/{key}" if path else str(key))
    else:
        yield path, value


def differing_paths(outputs: list[str]) -> list[str]:
    """The paths whose values are not the same in every output of `run_child`.

    "exit" is the exit status and "stdout" the whole of an output that is not
    JSON; a path missing from some outputs differs.
    """
    flat = []
    for output in outputs:
        code, _, printed = output.partition("\n")
        try:
            values = dict(leaves(json.loads(printed)))
        except ValueError:
            values = {"stdout": printed}
        values["exit"] = code
        flat.append(values)
    missing = object()
    return sorted(path for path in set().union(*flat)
                  if any(values.get(path, missing) != flat[0].get(path, missing)
                         for values in flat[1:]))


def summary(values: list[float]) -> dict:
    """Median and quartiles (the value itself for a single run)."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def command_output(argv: list[str], cwd: Path | None = None) -> str | None:
    try:
        done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": command_output([sys.executable, "-c", "import numpy; print(numpy.__version__)"]),
        "platform": platform.platform(),
    }


def source_trees(parser: argparse.ArgumentParser, src: list[Path] | None) -> list[Path]:
    """The --src trees, resolved (default: this checkout); each must hold src/perptri."""
    trees = [tree.resolve() for tree in src or [ROOT]]
    for tree in trees:
        if not (tree / "src" / "perptri").is_dir():
            parser.error(f"{tree} holds no src/perptri")
    return trees


def alternating(trees: list[Path], runs: int):
    """(run index, tree) for every run of every tree, the order reversed from run to run."""
    for i in range(runs):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            yield i, tree


def tree_head(tree: Path) -> str | None:
    """A tree's git HEAD, None where it is not a git checkout."""
    return command_output(["git", "rev-parse", "HEAD"], tree) if (tree / ".git").exists() else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="a source tree to measure (repeatable; default: this checkout)")
    parser.add_argument("--n", type=int, action="append",
                        help="triangles per sweep (repeatable; default: 1000000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=10, help="runs per tree")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_sweep_memory.json")
    args = parser.parse_args(argv)
    trees = source_trees(parser, args.src)
    sizes = args.n or [1_000_000]

    runs = {(n, tree): [] for n in sizes for tree in trees}
    outputs = {n: {} for n in sizes}
    for n in sizes:
        for i, tree in alternating(trees, args.runs):
            result, output = measure(tree, n, args.seed)
            runs[n, tree].append(result)
            outputs[n].setdefault(output, []).append(f"{tree} run {i}")
    differing = {n: differing_paths(list(outputs[n])) for n in sizes}

    report = {
        "benchmark": "perptri sweep --n N --seed S --json, fresh processes",
        "n": sizes,
        "seed": args.seed,
        "runs_per_tree": args.runs,
        "machine": machine(),
        "git_head": command_output(["git", "rev-parse", "HEAD"], ROOT),
        "identical_output": all(len(outputs[n]) == 1 for n in sizes),
        "differing_paths": {str(n): paths for n, paths in differing.items()},
        "trees": [{
            "tree": tree.name,
            "n": n,
            "git_head": tree_head(tree),
            "summary": {key: summary([run[key] for run in runs[n, tree]])
                        for key in runs[n, tree][0]},
            "runs": runs[n, tree],
        } for n in sizes for tree in trees],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(entry["tree"]) for entry in report["trees"])
    print("  ".join((f"{'tree':>{width}}", f"{'n':>9}", *MEASURES)))
    for entry in report["trees"]:
        cells = (f"{entry['summary'][key]['median']:>{len(key)}.5g}" for key in MEASURES)
        print("  ".join((f"{entry['tree']:>{width}}", f"{entry['n']:>9}", *cells)))
    print(f"medians of {args.runs} run(s) each; report in {args.out}")
    for n in sizes:
        if len(outputs[n]) > 1:
            for i, where in enumerate(outputs[n].values()):
                print(f"n = {n}, output {i}: {', '.join(where)}", file=sys.stderr)
            print(f"at n = {n} the sweeps printed different values at "
                  f"{', '.join(differing[n])}", file=sys.stderr)
    return 0 if report["identical_output"] else 1


if __name__ == "__main__":
    sys.exit(main())
