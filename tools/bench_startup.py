"""Start-up cost of the scalar path: `import perptri.cli`, and one `perptri verify` process.

    python tools/bench_startup.py --runs 20 --src /path/to/parent --src . \\
        --out BENCH_startup.json

Each run of a source tree (a checkout holding `src/perptri`) starts, in each of
two bytecode modes, two fresh interpreters:

    import  `import perptri.cli`, timed in process with perf_counter (ms)
    verify  `python -m perptri verify --json <3-4-5 spec>`: its wall time (ms)
            and the peak RSS that wait4 reports for it (MiB)

The modes are two copies of the tree's package, made once: "bytecode" holds
.pyc files compiled in advance, as an installed package does, and "source"
holds none, so every start compiles the package's modules, as a checkout
under PYTHONDONTWRITEBYTECODE does.  Children run with
PYTHONDONTWRITEBYTECODE=1, so neither copy changes; the standard library is
read from its own bytecode in both.

Linux carries a process's peak RSS into the children it starts, so each verify
is started, and timed, by a small helper interpreter (`python -S -I`, about
8 MiB here), not by this script.  Runs alternate between trees as in
bench_sweep_memory.py, whose helpers this script imports.  Every verify must
print the same bytes and exit with the same code as the first; otherwise the
script names the differing JSON paths and exits 1 after writing its report.
The report holds every run, the minimum, median and quartiles of each measure
per tree and mode, the machine, and each tree's identity (git HEAD, whether
its src/ differs from HEAD, and a SHA-256 of its src/).  Linux only (wait4).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
import tempfile
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

MODES = ("bytecode", "source")


def package_copy(tree: Path, into: Path, compiled: bool) -> Path:
    """A copy of tree's src/perptri under into, with fresh .pyc files or none; its path entry."""
    shutil.copytree(tree / "src" / "perptri", into / "perptri",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if compiled and not compileall.compile_dir(into / "perptri", quiet=1):
        raise SystemExit(f"{tree}: the package does not compile")
    return into


def measure(path: Path, spec: Path) -> tuple[dict, str]:
    """One run of one copy: its measures, and the verify's exit code and output."""
    env = dict(os.environ, PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1")
    _, _, printed = run_child([sys.executable, "-c", IMPORT_PROBE], env)
    code, _, import_ms = printed.partition("\n")
    if code != "exit 0":
        raise SystemExit(f"`import perptri.cli` from {path} ended with {code}")
    _, _, printed = run_child([sys.executable, "-S", "-I", "-c", SPAWN,
                               "-m", "perptri", "verify", "--json", str(spec)], env)
    output, _, spawned = printed.rstrip("\n").rpartition("\n")
    wall_s, peak_mib = map(float, spawned.split())
    return {
        "import_ms": float(import_ms),
        "verify_wall_ms": wall_s * 1e3,
        "verify_peak_rss_mib": peak_mib,
    }, output


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="a source tree to measure (repeatable; default: this checkout)")
    parser.add_argument("--runs", type=int, default=12, help="runs per tree")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_startup.json")
    args = parser.parse_args(argv)
    trees = source_trees(parser, args.src)

    runs = {tree: {mode: [] for mode in MODES} for tree in trees}
    outputs = {}
    with tempfile.TemporaryDirectory() as scratch:
        spec = Path(scratch) / "spec.json"
        spec.write_text(json.dumps(SPEC))
        copies = {(tree, mode): package_copy(tree, Path(scratch) / f"{k}-{mode}", mode == "bytecode")
                  for k, tree in enumerate(trees) for mode in MODES}
        for i, tree in alternating(trees, args.runs):
            for mode in MODES:
                result, output = measure(copies[tree, mode], spec)
                runs[tree][mode].append(result)
                outputs.setdefault(output, []).append(f"{tree} {mode} run {i}")
    identical = len(outputs) == 1
    differing = differing_paths(list(outputs))

    report = {
        "benchmark": "import perptri.cli in process, and perptri verify --json of 3-4-5 as a "
                     "process; fresh interpreters, with the package's bytecode and from source",
        "spec": SPEC,
        "runs_per_tree": args.runs,
        "machine": machine(),
        **tree_identity(ROOT),
        "identical_output": identical,
        "differing_paths": differing,
        "trees": [{
            "tree": tree.name,
            **tree_identity(tree),
            "summary": {mode: {key: spread([run[key] for run in runs[tree][mode]])
                               for key in runs[tree][mode][0]} for mode in MODES},
            "runs": runs[tree],
        } for tree in trees],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(entry["tree"]) for entry in report["trees"])
    print(f"{'tree':>{width}}  {'mode':>8}  import_ms (min)  verify_wall_ms  verify_peak_rss_mib")
    for entry in report["trees"]:
        for mode, measures in entry["summary"].items():
            print(f"{entry['tree']:>{width}}  {mode:>8}  {measures['import_ms']['min']:>15.2f}  "
                  f"{measures['verify_wall_ms']['median']:>14.2f}  "
                  f"{measures['verify_peak_rss_mib']['median']:>19.2f}")
    print(f"medians (import: minimum) of {args.runs} run(s) each; report in {args.out}")
    if not identical:
        for i, where in enumerate(outputs.values()):
            print(f"output {i}: {', '.join(where)}", file=sys.stderr)
        print(f"the verifies printed different values at {', '.join(differing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
