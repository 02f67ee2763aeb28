"""Wall time, peak memory and page faults of `perptri sweep`, one fresh process a run.

    python tools/bench_sweep_memory.py --n 200000 --n 1000000 --seed 0 --runs 10 \\
        --stratum all --stratum obtuse --src /path/to/parent --src . \\
        --out BENCH_sweep_memory.json

Each run of a source tree (a checkout holding `src/perptri`) starts two
processes with PYTHONPATH=<tree>/src:

    sweep  `python -m perptri sweep --n N --seed S --stratum T --json`; its wall
           time, and the peak RSS and minor page faults that wait4 reports for it
    stages the same `sweep.run_sweep(N, S, T)` in one process, reading its RSS
           (VmRSS) and peak (VmHWM) after the imports and after the sweep

--n and --stratum may be given several times; each stratum is measured at
each size in turn.  With several trees, each run visits every tree, and the
order alternates from run to run (first to last, then last to first), so
drift on a shared machine falls on both sides alike.  At each stratum and
size every sweep must print the same bytes and exit with the same code as
the first; otherwise the script names the JSON paths whose values differ
(such as max_residuals/area_ratio, or exit for the exit code) and the runs
that printed each output, and exits 1 after writing its report.  The report
holds every run, the median and quartiles of each measure per tree, stratum
and size, the differing paths per stratum and size (keyed "stratum/n"), the
machine (CPUs, CPU model, Python, numpy), and each tree's directory name and
identity (`tree_identity`): its git HEAD and whether its src/ differs from
HEAD (where it is a git checkout), and a SHA-256 of its src/, so that a tree
measured with uncommitted changes does not read as its parent.

Linux only: wait4 gives the peak and the faults, /proc/self/status the stage
RSS.  Linux carries a process's peak RSS across fork and exec, so a child's
wait4 peak is never below the peak of the process that started it; this
script imports no numpy and stays far below the sweep's peak.
"""

from __future__ import annotations

import argparse
import hashlib
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
run_sweep(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3])
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


def measure(tree: Path, n: int, seed: int, stratum: str) -> tuple[dict, str]:
    """One run on one tree: its measures and the sweep's exit code and output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    wall, usage, output = run_child(
        [sys.executable, "-m", "perptri", "sweep", "--n", str(n), "--seed", str(seed),
         "--stratum", stratum, "--json"], env)
    _, _, stage_out = run_child([sys.executable, "-c", STAGES, str(n), str(seed), stratum], env)
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


def spread(values: list[float]) -> dict:
    """Minimum, median and quartiles."""
    return {**summary(values), "min": min(values)}


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


def tree_identity(tree: Path) -> dict:
    """A tree's git HEAD, whether its src/ differs from HEAD, and a SHA-256 of its src/.

    git_head and src_dirty are None where the tree is not a git checkout.
    src_sha256 hashes a list of every .py file under src/, by relative path
    and the SHA-256 of its bytes, so trees with the same HEAD but different
    sources differ in it.
    """
    checkout = (tree / ".git").exists()
    status = (command_output(["git", "status", "--porcelain", "--", "src"], tree)
              if checkout else None)
    listing = "".join(f"{path.relative_to(tree).as_posix()} "
                      f"{hashlib.sha256(path.read_bytes()).hexdigest()}\n"
                      for path in sorted((tree / "src").rglob("*.py")))
    return {
        "git_head": command_output(["git", "rev-parse", "HEAD"], tree) if checkout else None,
        "src_dirty": None if status is None else status != "",
        "src_sha256": hashlib.sha256(listing.encode()).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="a source tree to measure (repeatable; default: this checkout)")
    parser.add_argument("--n", type=int, action="append",
                        help="triangles per sweep (repeatable; default: 1000000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stratum", action="append",
                        help="angle-A stratum to sweep (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10, help="runs per tree")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_sweep_memory.json")
    args = parser.parse_args(argv)
    trees = source_trees(parser, args.src)
    sizes = args.n or [1_000_000]
    strata = args.stratum or ["all"]
    cases = [(stratum, n) for stratum in strata for n in sizes]

    runs = {(case, tree): [] for case in cases for tree in trees}
    outputs = {case: {} for case in cases}
    for case in cases:
        stratum, n = case
        for i, tree in alternating(trees, args.runs):
            result, output = measure(tree, n, args.seed, stratum)
            runs[case, tree].append(result)
            outputs[case].setdefault(output, []).append(f"{tree} run {i}")
    differing = {case: differing_paths(list(outputs[case])) for case in cases}

    report = {
        "benchmark": "perptri sweep --n N --seed S --stratum T --json, fresh processes",
        "n": sizes,
        "strata": strata,
        "seed": args.seed,
        "runs_per_tree": args.runs,
        "machine": machine(),
        **tree_identity(ROOT),
        "identical_output": all(len(outputs[case]) == 1 for case in cases),
        "differing_paths": {f"{stratum}/{n}": paths
                            for (stratum, n), paths in differing.items()},
        "trees": [{
            "tree": tree.name,
            "stratum": stratum,
            "n": n,
            **tree_identity(tree),
            "summary": {key: summary([run[key] for run in runs[(stratum, n), tree]])
                        for key in runs[(stratum, n), tree][0]},
            "runs": runs[(stratum, n), tree],
        } for stratum, n in cases for tree in trees],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(entry["tree"]) for entry in report["trees"])
    print("  ".join((f"{'tree':>{width}}", f"{'stratum':>7}", f"{'n':>9}", *MEASURES)))
    for entry in report["trees"]:
        cells = (f"{entry['summary'][key]['median']:>{len(key)}.5g}" for key in MEASURES)
        print("  ".join((f"{entry['tree']:>{width}}", f"{entry['stratum']:>7}",
                         f"{entry['n']:>9}", *cells)))
    print(f"medians of {args.runs} run(s) each; report in {args.out}")
    for case in cases:
        if len(outputs[case]) > 1:
            stratum, n = case
            for i, where in enumerate(outputs[case].values()):
                print(f"{stratum} n = {n}, output {i}: {', '.join(where)}", file=sys.stderr)
            print(f"in the {stratum} stratum at n = {n} the sweeps printed different values "
                  f"at {', '.join(differing[case])}", file=sys.stderr)
    return 0 if report["identical_output"] else 1


if __name__ == "__main__":
    sys.exit(main())
