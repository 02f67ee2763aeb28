"""Benchmarks of perptri on one or more source trees, in fresh processes, with one report shape.

    python tools/bench.py sweep --n 200000 --n 1000000 --stratum all --stratum obtuse \\
        --seed 0 --runs 10 --src /path/to/parent --src . --out BENCH_sweep_memory.json
    python tools/bench.py startup --runs 20 --src /path/to/parent --src . --out BENCH_startup.json
    python tools/bench.py extremal --runs 10 --src /path/to/parent --src . --out BENCH_extremal.json

A source tree is a checkout holding src/perptri (default: this one).  Each
benchmark measures one or more cases.  Every run visits every tree for every
case, and the tree order alternates from run to run (first to last, then last
to first), so drift on a shared machine falls on both sides alike.  Every run
of a case must print the same bytes and exit with the same code; otherwise the
script names the JSON paths whose values differ (such as
max_residuals/area_ratio, or exit for the exit code) and the runs that printed
each output, and exits 1 after writing its report.  The report holds the
machine (CPUs, CPU model, Python, numpy), the identity (`tree_identity`) of
this checkout and of each tree, whether every case's outputs were identical,
the differing paths of each case, and per tree and case every run with the
minimum, median and quartiles of each measure.

sweep     One case per --stratum and --n (each repeatable; default all and
          10^6), at --seed, labelled stratum/n/seed.  A run times
          `python -m perptri sweep --n N --seed S --stratum T --json`, whose
          output it keeps, and records the peak RSS and minor page faults that
          wait4 reports for it.  A stage process then runs the same
          `sweep.run_sweep(N, S, T)` and reads its RSS (VmRSS) and peak (VmHWM)
          after the imports and after the sweep.
startup   Cases bytecode and source: two copies of each tree's package, made
          once.  The bytecode copy holds .pyc files compiled in advance, as an
          installed package does; the source copy holds none, so every start
          compiles the package's modules, as a checkout under
          PYTHONDONTWRITEBYTECODE does.  Children run with
          PYTHONDONTWRITEBYTECODE=1, so neither copy changes.  A run times
          `import perptri.cli` in a fresh interpreter (ms), and starts
          `python -m perptri verify --json <3-4-5 spec>`, whose output it keeps,
          for its wall time (ms) and peak RSS (MiB).
extremal  One case.  A fresh interpreter makes PASSES minimize passes, as
          perfbench's `extremal_search` does: `global_cot_sum_min()`,
          `right_triangle_min()` and `minimize_slice(k)` for the 41 k of its
          SLICE_KS, each pass timed with perf_counter.  A run records the 10th
          percentile and the median of its passes (µs), and the medians of the
          global search alone and of one slice search (the 41-slice table over
          41).  One more pass, not timed, counts evaluations through counting
          wrappers: the slice `extremal._slice` in the global search
          (global_evals) and in the table (table_evals), their sum
          (slice_evals_per_pass), and the right family's `_right_cot_sum` in
          its search (right_evals).  The output is every `ExtremalReport` of
          the table, the global stage's k* and numeric minimum from `brent_min`
          over k of `minimize_slice(k).numeric_min`, and the exit codes and
          bytes of `perptri minimize --json` and `perptri minimize --right --json`.

Linux only: wait4 gives the peaks and the faults, /proc/self/status the stage
RSS.  Linux carries a process's peak RSS across fork and exec, so a child's
wait4 peak is never below the peak of the process that started it.  This
script imports no numpy and stays far below a sweep's peak; each verify, which
peaks lower, is started and timed by a small helper interpreter
(`python -S -I`, about 8 MiB here).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STAGES = """
import json
import sys
from perptri.sweep import run_sweep

def rss(stage):
    status = dict(line.split(":", 1) for line in open("/proc/self/status"))
    return {f"{name}_after_{stage}_mib": int(status[key].split()[0]) / 1024.0
            for name, key in (("rss", "VmRSS"), ("peak", "VmHWM"))}

imports = rss("imports")
run_sweep(int(sys.argv[2]), int(sys.argv[3]), sys.argv[1])
print(json.dumps({**imports, **rss("sweep")}))
"""

SPEC = {"vertices": {"A": [0, 0], "B": [4, 0], "Gamma": [0, 3]}}

IMPORT_PROBE = """\
import time
start = time.perf_counter()
import perptri.cli
print((time.perf_counter() - start) * 1e3)
"""

#: Runs `python *argv` and, after its output, prints its wall seconds and wait4 peak RSS (MiB).
SPAWN = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss / 1024.0)
sys.exit(os.waitstatus_to_exitcode(status))
"""

#: Minimize passes per run, as many as perfbench makes per round.
PASSES = 40

PROBE = """\
import collections
import json
import statistics
import sys
import time

import numpy as np

from perptri import extremal
from perptri.extremal import brent_min, global_cot_sum_min, minimize_slice, right_triangle_min

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
k_star, numeric_min = brent_min(lambda k: minimize_slice(k).numeric_min, 1e-3, 1e2)
evals = collections.Counter()


def counting(bare):
    def evaluate(*args):
        evals[bare.__name__] += 1
        return bare(*args)
    return evaluate


extremal._slice = counting(extremal._slice)
extremal._right_cot_sum = counting(extremal._right_cot_sum)
global_cot_sum_min()
global_evals = evals["_slice"]
right_triangle_min()
for k in SLICE_KS:
    minimize_slice(k)
print(json.dumps({
    "pass_p10_us": statistics.quantiles(passes, n=10, method="inclusive")[0],
    "pass_median_us": statistics.median(passes),
    "global_median_us": statistics.median(globals_),
    "slice_median_us": statistics.median(tables) / len(SLICE_KS),
    "slice_evals_per_pass": evals["_slice"],
    "global_evals": global_evals,
    "right_evals": evals["_right_cot_sum"],
    "table_evals": evals["_slice"] - global_evals,
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


def checked_output(argv: list[str], env: dict, what: str) -> str:
    """The stdout of a helper process, which must exit 0."""
    code, _, printed = run_child(argv, env)[2].partition("\n")
    if code != "exit 0":
        raise SystemExit(f"{what} ended with {code}")
    return printed


def measure_sweep(tree: Path, case: tuple) -> tuple[dict, str]:
    """One sweep run of a (stratum, n, seed) case: its measures and the sweep's exit and output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    stratum, n, seed = map(str, case)
    wall, usage, output = run_child(
        [sys.executable, "-m", "perptri", "sweep", "--n", n, "--seed", seed,
         "--stratum", stratum, "--json"], env)
    stages = checked_output([sys.executable, "-c", STAGES, stratum, n, seed], env,
                            f"the stage process on {tree}")
    return {"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024.0,
            "minor_faults": usage.ru_minflt, **json.loads(stages)}, output


def measure_startup(path: Path, spec: Path) -> tuple[dict, str]:
    """One start-up run of a package copy: its measures, and the verify's exit code and output."""
    env = dict(os.environ, PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1")
    import_ms = checked_output([sys.executable, "-c", IMPORT_PROBE], env,
                               f"`import perptri.cli` from {path}")
    _, _, printed = run_child([sys.executable, "-S", "-I", "-c", SPAWN,
                               "-m", "perptri", "verify", "--json", str(spec)], env)
    output, _, spawned = printed.rstrip("\n").rpartition("\n")
    wall_s, peak_mib = map(float, spawned.split())
    return {"import_ms": float(import_ms), "verify_wall_ms": wall_s * 1e3,
            "verify_peak_rss_mib": peak_mib}, output


def measure_extremal(tree: Path, passes: int) -> tuple[dict, str]:
    """One run of the minimize passes: their timings, and results and command outputs as one."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    printed = checked_output([sys.executable, "-c", PROBE, str(passes)], env,
                             f"the minimize passes on {tree}")
    timings, results = map(json.loads, printed.splitlines())
    results["cli"] = {name: run_child([sys.executable, "-m", "perptri", *argv], env)[2]
                      for name, argv in CLI.items()}
    return timings, "exit 0\n" + json.dumps(results, indent=1)


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


def spread(values: list[float]) -> dict:
    """Minimum, median and quartiles (the value itself for a single run)."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "min": min(values)}


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


def tree_identity(tree: Path) -> dict:
    """A tree's git HEAD, whether its src/ differs from HEAD (None outside a git checkout),
    and a SHA-256 of the relative path and SHA-256 of every .py file under its src/.
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


def compare(args: argparse.Namespace, benchmark: str, cases: dict, measure) -> int:
    """Run every case on every tree args.runs times, write the report and print its table.

    cases maps labels to what `measure(tree, case)` takes; measure gives a run's measures
    and output (as `run_child`'s).  Returns 1 where a case's runs differ in output, else 0.
    """
    runs = {(label, tree): [] for label in cases for tree in args.src}
    outputs = {label: {} for label in cases}
    for i in range(args.runs):
        for tree in args.src if i % 2 == 0 else args.src[::-1]:
            for label, case in cases.items():
                result, output = measure(tree, case)
                runs[label, tree].append(result)
                outputs[label].setdefault(output, []).append(f"{tree} run {i}")
    differing = {label: differing_paths(list(found)) for label, found in outputs.items()}
    entries = [{
        "tree": tree.name,
        "case": label,
        **tree_identity(tree),
        "summary": {key: spread([run[key] for run in runs[label, tree]])
                    for key in runs[label, tree][0]},
        "runs": runs[label, tree],
    } for label in cases for tree in args.src]
    identical = all(len(found) == 1 for found in outputs.values())
    args.out.write_text(json.dumps({
        "benchmark": benchmark,
        "runs_per_tree": args.runs,
        "machine": machine(),
        **tree_identity(ROOT),
        "identical_output": identical,
        "differing_paths": differing,
        "trees": entries,
    }, indent=2) + "\n")

    measures = list(entries[0]["summary"])
    rows = [["tree", "case", *measures]] + [
        [entry["tree"], entry["case"], *(f"{entry['summary'][key]['median']:.5g}"
                                         for key in measures)] for entry in entries]
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    print(f"medians of {args.runs} run(s) each; minima and quartiles in {args.out}")
    for label, found in outputs.items():
        if len(found) > 1:
            for k, where in enumerate(found.values()):
                print(f"{label} output {k}: {', '.join(where)}", file=sys.stderr)
            print(f"{label}: the runs printed different values at "
                  f"{', '.join(differing[label])}", file=sys.stderr)
    return 0 if identical else 1


def sweep(args: argparse.Namespace) -> int:
    """Wall time, peak memory and page faults of `perptri sweep`, and its RSS by stage."""
    cases = {f"{stratum}/{n}/{args.seed}": (stratum, n, args.seed)
             for stratum in args.stratum or ["all"] for n in args.n or [1_000_000]}
    return compare(args, "perptri sweep --n N --seed S --stratum T --json, fresh processes; "
                   "cases T/N/S", cases, measure_sweep)


def startup(args: argparse.Namespace) -> int:
    """Start-up cost of the scalar path: `import perptri.cli`, and one `perptri verify` process."""
    with tempfile.TemporaryDirectory() as scratch:
        spec = Path(scratch) / "spec.json"
        spec.write_text(json.dumps(SPEC))
        cases, copies = {"bytecode": True, "source": False}, {}
        for k, tree in enumerate(args.src):
            for mode, compiled in cases.items():
                copies[tree, compiled] = path = Path(scratch) / f"{k}-{mode}"
                shutil.copytree(tree / "src" / "perptri", path / "perptri",
                                ignore=shutil.ignore_patterns("__pycache__"))
                if compiled and not compileall.compile_dir(path / "perptri", quiet=1):
                    raise SystemExit(f"{tree}: the package does not compile")
        return compare(args, "import perptri.cli in process, and perptri verify --json of "
                       f"{json.dumps(SPEC)} as a process; fresh interpreters, with the "
                       "package's bytecode and from source", cases,
                       lambda tree, compiled: measure_startup(copies[tree, compiled], spec))


def extremal(args: argparse.Namespace) -> int:
    """Time of the minimize pass (`global_cot_sum_min`, `right_triangle_min`, 41 slices)."""
    return compare(args, f"{PASSES} minimize passes (global_cot_sum_min, right_triangle_min, "
                   "minimize_slice over perfbench's 41 SLICE_KS) in a fresh interpreter, "
                   "and perptri minimize [--right] --json", {f"{PASSES} passes": PASSES},
                   measure_extremal)


def at_least(least: int):
    """An argparse type: an integer not below least."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is below {least}")
        return value
    return count


def source_tree(text: str) -> Path:
    """An argparse type: a directory holding src/perptri, resolved."""
    tree = Path(text).resolve()
    if not (tree / "src" / "perptri").is_dir():
        raise argparse.ArgumentTypeError(f"{tree} holds no src/perptri")
    return tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="benchmark", required=True)
    for run, report in ((sweep, "sweep_memory"), (startup, "startup"), (extremal, "extremal")):
        command = commands.add_parser(run.__name__, help=run.__doc__)
        command.set_defaults(run=run)
        command.add_argument("--src", action="append", type=source_tree,
                             help="a source tree to measure (repeatable; default: this checkout)")
        command.add_argument("--runs", type=at_least(1), default=10, help="runs per tree")
        command.add_argument("--out", type=Path, default=ROOT / f"BENCH_{report}.json")
    options = commands.choices["sweep"]
    options.add_argument("--n", type=at_least(0), action="append",
                         help="triangles per sweep (repeatable; default: 1000000)")
    options.add_argument("--seed", type=int, default=0)
    options.add_argument("--stratum", action="append",
                         help="angle-A stratum to sweep (repeatable; default: all)")
    args = parser.parse_args(argv)
    args.src = args.src or [ROOT]
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
