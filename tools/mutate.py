"""Mutation analysis of tier-1: every one-token mutant of src/perptri and the tests that kill it.

    python tools/mutate.py [TREE] --out MUTANTS.json

TREE is a checkout holding src/perptri and tests/ (default: this one).  A
mutant changes one token of one module: an arithmetic operator swapped (+ and
-, * and /, ** to *, // to /, & and |), a comparison flipped (< and >, <= and
>=, == and !=, is and is not, in and not in), `and` and `or` swapped, an `abs`
call dropped, or a numeric constant nudged (an int by +1, a float times 2, 0.0
to 1.0).  Strings (docstrings, `__version__`) and annotations, which
`from __future__ import annotations` never evaluates, are not mutated.  Each
mutant is placed in the source text and checked to parse to the mutated tree.

Every pytest run happens in a temporary copy of TREE's src, tests, demos,
tools and pyproject.toml, one copy per worker, with PYTHONPATH on the copy's
src, `--hypothesis-seed=0`, `-p no:cacheprovider`, no bytecode written, and a
Hypothesis profile without an example database, deadline or health checks
(timing bounds of the harness, not of perptri) and without shrinking (a kill
needs a failing example, not the smallest).  Nothing is written into TREE
but the report.  At most `len(os.sched_getaffinity(0))` runs go at once; each
is its own process group, killed when it ends or at its time cap.

First the clean suite runs once under `sys.settrace` and `threading.settrace`,
which record the src lines each test executes.  Every Python process a test
starts is traced too, through a `usercustomize` module on a private
PYTHONUSERBASE, and its lines count for that test.  If the clean run fails,
the tool exits 1.  A mutant then runs only:

  * the tests that execute a line of its node;
  * if its line runs at import time (module level, class bodies, defaults,
    or any line executed while the test modules were collected): every test
    of a test module that imports its module, and every test that executes
    any line of its module;
  * every test that starts more Python processes with the copy's src on
    their PYTHONPATH than were traced (those run with -S or -I, or ended by
    os._exit, record nothing), or that calls fork or system;
  * with each of these, every test sharing with it a module- or
    session-scoped fixture of the tests' own files.

A mutant no test reaches is live without a run.  Its time cap is CAP_FACTOR
times the clean run's collection time plus its tests' clean times (both
taken under the tracer).  Outcomes
come from pytest's --junitxml: a test that fails or errors kills the mutant.
A kill made only by timing or memory bounds (tests that read tracemalloc or
perf_counter or pass a timeout) is re-run once, serially, before it counts.

The report holds the machine and the tree (`machine` and `tree_identity` of
tools/bench.py), the wall time, and per mutant its module, line, column,
operator, before and after, outcome (killed, live or timeout) and the node ids
that killed it.  Per test it holds the number of mutants it was run against
and killed, and its twin: the test with the fewest kills among those whose
kills include all of its own (none for a test that kills nothing; those are
listed under kills_nothing).  A test with a twin adds no kill the twin does
not make.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import math
import os
import shutil
import signal
import site
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = "perptri"
COPIED = ("src", "tests", "demos", "tools", "pyproject.toml")
#: A mutant's time cap over the clean time of what it runs.
CAP_FACTOR = 4.0
#: Environment variables the tool passes to pytest and the processes it traces.
RECORDS, TEST, SELECT, USER_SITE = (f"PERPTRI_MUTATE_{name}"
                                    for name in ("RECORDS", "TEST", "SELECT", "USER_SITE"))

BINARY = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
          ast.FloorDiv: ("//", "/"), ast.Pow: ("**", "*"), ast.BitAnd: ("&", "|"),
          ast.BitOr: ("|", "&")}
COMPARE = {ast.Lt: ("<", ">"), ast.Gt: (">", "<"), ast.LtE: ("<=", ">="), ast.GtE: (">=", "<="),
           ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
           ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in")}
BOOLEAN = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
#: The operator class each symbol parses to.
OPERATOR = {symbol: kind for table in (BINARY, COMPARE, BOOLEAN)
            for kind, (symbol, _) in table.items()}

#: Written as usercustomize.py for the traced clean run: every Python process
#: started with site enabled records the src lines it executes, per test.
TRACER = f"""\
import os, sys, threading

if os.environ.get("{USER_SITE}"):
    import site
    site.addsitedir(os.environ["{USER_SITE}"])

started = current = os.environ.get("{TEST}", "")
lines = {{}}
keys = {{}}


def key_of(filename):
    head, tail = os.path.split(filename)
    return f"{{os.path.basename(head)}}/{{tail}}" if os.path.basename(head) == "{PACKAGE}" else None


def local(frame, event, arg):
    if event == "line":
        lines.setdefault(current, set()).add((keys[frame.f_code], frame.f_lineno))
    return local


def tracer(frame, event, arg):
    code = frame.f_code
    key = keys.get(code, False)
    if key is False:
        key = keys[code] = key_of(code.co_filename)
    if key is None:
        return None
    lines.setdefault(current, set()).add((key, frame.f_lineno))
    return local


def write():
    sys.settrace(None)
    threading.settrace(None)
    path = os.path.join(os.environ["{RECORDS}"], f"{{os.getpid()}}.txt")
    with open(path, "w") as out:
        out.write(started + "\\n")
        for test, hits in lines.items():
            out.writelines(f"{{test}}\\t{{key}}\\t{{line}}\\n" for key, line in hits)


if os.environ.get("{RECORDS}"):
    import atexit
    atexit.register(write)
    sys.settrace(tracer)
    threading.settrace(tracer)
"""


# ---------------------------------------------------------------------------
# The pytest plugin (`-p mutate`), loaded into every pytest run the tool starts
# ---------------------------------------------------------------------------

class _Recorder:
    """The plugin's part in the traced clean run: it names the running test to the tracer
    and to the processes the test starts, counts the processes that can import the
    measured src (Python ones whose PYTHONPATH holds it) and the forks and shell
    commands of each test, and notes the module- and session-scoped fixtures of the
    tests' own files (not pytest's, such as tmp_path_factory) that each test uses."""

    def __init__(self, src: str):
        self.src = src
        self.spawns = {}
        self.shared = {}

    def audit(self, event, args):
        test = os.environ.get(TEST)
        if test is None:
            return
        if event in ("subprocess.Popen", "os.posix_spawn"):
            program, argv, env = args[0], args[1], args[-1]
            if not isinstance(argv, (list, tuple)):
                argv = [argv]
            path = os.fsdecode((os.environ if env is None else env).get("PYTHONPATH", ""))
            counted = (Path(os.fsdecode(program or argv[0])).name.startswith("python")
                       and self.src in map(os.path.realpath, path.split(os.pathsep)))
        else:
            counted = event in ("os.fork", "os.system")
        if counted:
            self.spawns[test] = self.spawns.get(test, 0) + 1

    def pytest_collection_modifyitems(self, items):
        for item in items:
            fixtures = getattr(getattr(item, "_fixtureinfo", None), "name2fixturedefs", {})
            self.shared[item.nodeid] = sorted(
                f"{defs[-1].baseid}::{name}" for name, defs in fixtures.items()
                if defs and defs[-1].baseid and defs[-1].scope != "function")

    def pytest_runtest_logstart(self, nodeid):
        os.environ[TEST] = nodeid
        tracer = sys.modules.get("usercustomize")
        if tracer is not None:
            tracer.current = nodeid

    def pytest_sessionfinish(self):
        Path(os.environ[RECORDS], "plugin.json").write_text(
            json.dumps({"spawns": self.spawns, "shared": self.shared}))


def pytest_configure(config):
    try:
        from hypothesis import HealthCheck, Phase, settings
    except ImportError:
        pass
    else:
        settings.register_profile("perptri-mutate", database=None, deadline=None,
                                  suppress_health_check=list(HealthCheck),
                                  phases=[Phase.explicit, Phase.generate])
        settings.load_profile("perptri-mutate")
    if os.environ.get(RECORDS):
        recorder = _Recorder(os.path.realpath(config.rootpath / "src"))
        sys.addaudithook(recorder.audit)
        config.pluginmanager.register(recorder)


def pytest_collection_modifyitems(config, items):
    if os.environ.get(SELECT):
        wanted = set(Path(os.environ[SELECT]).read_text().splitlines())
        config.hook.pytest_deselected(items=[item for item in items if item.nodeid not in wanted])
        items[:] = [item for item in items if item.nodeid in wanted]


# ---------------------------------------------------------------------------
# Mutants
# ---------------------------------------------------------------------------

class _Sites(ast.NodeVisitor):
    """The mutable nodes of a module in a fixed order: (kind, node, k, at_import)."""

    def __init__(self):
        self.sites = []
        self.depth = 0  # function bodies entered

    def add(self, kind, node, k=0):
        self.sites.append((kind, node, k, self.depth == 0))

    def visit_FunctionDef(self, node):
        for part in (*node.decorator_list, *node.args.defaults, *node.args.kw_defaults):
            if part is not None:
                self.visit(part)
        self.depth += 1
        for statement in node.body:
            self.visit(statement)
        self.depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        for part in (*node.args.defaults, *node.args.kw_defaults):
            if part is not None:
                self.visit(part)
        self.depth += 1
        self.visit(node.body)
        self.depth -= 1

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_BinOp(self, node):
        if type(node.op) in BINARY:
            self.add("binop", node)
        self.generic_visit(node)

    def visit_Compare(self, node):
        for k in range(len(node.ops)):
            self.add("compare", node, k)
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        self.add("boolop", node)
        self.generic_visit(node)

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "abs"
                and len(node.args) == 1 and not node.keywords):
            self.add("abs", node)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            self.add("constant", node)


def _sites(tree: ast.AST) -> list:
    finder = _Sites()
    finder.visit(tree)
    return finder.sites


def _nudged(value):
    if isinstance(value, int):
        return value + 1
    if value == 0.0:
        return 1.0
    return value * 2.0 if math.isfinite(value * 2.0) else value / 2.0


def _operator_span(source: bytes, start: int, end: int) -> tuple[int, int]:
    """The operator between two operands: source[start:end] holds it, blanks, brackets
    and comments only."""
    first = last = None
    i = start
    while i < end:
        char = source[i:i + 1]
        if char == b"#":
            i = source.index(b"\n", i)
        elif char not in b"()\\ \t\r\n":
            first = i if first is None else first
            last = i + 1
        i += 1
    return first, last


def _mutant(kind, node, k, source: bytes, offset) -> tuple[list, dict, ast.AST]:
    """The edits (start, end, new bytes) that make a site's mutant, what they change, and
    the node the mutant parses to in place of the site's."""
    def span(a, b):
        return _operator_span(source, offset(a.end_lineno, a.end_col_offset),
                              offset(b.lineno, b.col_offset))

    start = offset(node.lineno, node.col_offset)
    end = offset(node.end_lineno, node.end_col_offset)
    if kind == "constant":
        before, after = source[start:end].decode(), repr(_nudged(node.value))
        return [(start, end, after.encode())], {"before": before, "after": after}, \
            ast.Constant(_nudged(node.value))
    if kind == "abs":
        inner = node.args[0]
        after = "(" + source[offset(inner.lineno, inner.col_offset):
                             offset(inner.end_lineno, inner.end_col_offset)].decode() + ")"
        return [(start, end, after.encode())], \
            {"before": source[start:end].decode(), "after": after}, inner
    if kind == "compare":
        before, after = COMPARE[type(node.ops[k])]
        operands = [node.left, *node.comparators]
        spans = [span(operands[k], operands[k + 1])]
        replacement = ast.Compare(node.left, [*node.ops[:k], OPERATOR[after](), *node.ops[k + 1:]],
                                  node.comparators)
    elif kind == "boolop":
        before, after = BOOLEAN[type(node.op)]
        spans = [span(a, b) for a, b in zip(node.values, node.values[1:])]
        replacement = ast.BoolOp(OPERATOR[after](), node.values)
    else:
        before, after = BINARY[type(node.op)]
        spans = [span(node.left, node.right)]
        replacement = ast.BinOp(node.left, OPERATOR[after](), node.right)
    edits = [(a, b, after.encode()) for a, b in spans]
    if kind != "compare":  # brackets keep the mutant's operands where precedence would move them
        edits += [(start, start, b"("), (end, end, b")")]
    return edits, {"before": before, "after": after}, replacement


def _dump_with(tree: ast.AST, node: ast.AST, replacement: ast.AST) -> str:
    """The dump of tree with node replaced, which is put back before returning."""
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            items = value if isinstance(value, list) else None
            if value is node or items and any(item is node for item in items):
                where = [item is node for item in items].index(True) if items else None
                if items:
                    items[where] = replacement
                else:
                    setattr(parent, field, replacement)
                try:
                    return ast.dump(tree)
                finally:
                    if items:
                        items[where] = node
                    else:
                        setattr(parent, field, node)
    raise ValueError("node is not in tree")


def find_mutants(tree: Path) -> list[dict]:
    """Every mutant of tree's src/perptri, each with its mutated module source."""
    mutants = []
    for path in sorted((tree / "src" / PACKAGE).rglob("*.py")):
        source = path.read_bytes()
        starts = [0]
        for line in source.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        module_tree = ast.parse(source)
        relative = path.relative_to(tree / "src")
        for kind, node, k, at_import in _sites(module_tree):
            edits, change, replacement = _mutant(kind, node, k, source,
                                                 lambda line, col: starts[line - 1] + col)
            mutated = source
            for start, end, new in sorted(edits, reverse=True):
                mutated = mutated[:start] + new + mutated[end:]
            if ast.dump(ast.parse(mutated)) != _dump_with(module_tree, node, replacement):
                raise RuntimeError(f"cannot place the {kind} mutant at {relative}:{node.lineno}")
            mutants.append({
                "module": ".".join(relative.with_suffix("").parts),
                "line": node.lineno, "col": node.col_offset, "operator": kind, **change,
                "path": relative.as_posix(), "end_line": node.end_lineno,
                "at_import": at_import, "source": mutated,
            })
    return mutants


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def copy_tree(tree: Path, into: Path) -> Path:
    """A copy of what tier-1 reads of tree, without caches."""
    into.mkdir()
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        if (tree / name).is_dir():
            shutil.copytree(tree / name, into / name, ignore=ignore)
        elif (tree / name).is_file():
            shutil.copy2(tree / name, into / name)
    return into


def child_env(copy: Path, **extra: str) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PERPTRI_MUTATE_")}
    env.update(PYTHONPATH=os.pathsep.join([str(copy / "src"), str(HERE)]),
               PYTHONDONTWRITEBYTECODE="1", **extra)
    return env


def pytest(copy: Path, env: dict, junit: Path, args: list[str], log: Path,
           cap: float | None = None) -> int | None:
    """Run pytest on args in copy as its own process group: its exit code, or None at the cap."""
    junit.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "pytest", "-p", "mutate", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", "-q", "--tb=no", "--rootdir", str(copy),
            f"--junitxml={junit}", *args]
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, cwd=copy, env=env, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            return proc.wait(timeout=cap)
        except subprocess.TimeoutExpired:
            return None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


def junit_names(nodeids) -> dict:
    """Node id by the (classname, name) that pytest's --junitxml gives it."""
    names = {}
    for nodeid in nodeids:
        path, bracket, params = nodeid.partition("[")
        parts = path.split("::")
        parts[0] = parts[0].replace("/", ".").removesuffix(".py")
        parts[-1] += bracket + params
        names[".".join(parts[:-1]), parts[-1]] = nodeid
    return names


def failures(junit: Path, names: dict, selected) -> set | None:
    """The selected node ids that failed or errored; None if pytest wrote no report."""
    try:
        cases = ET.parse(junit).getroot().iter("testcase")
    except (OSError, ET.ParseError):
        return None
    failed = set()
    for case in cases:
        if case.find("failure") is None and case.find("error") is None:
            continue
        key = (case.get("classname", ""), case.get("name", ""))
        if key in names:
            failed.add(names[key])
        else:  # a test file that failed to collect, named as a dotted path
            failed |= {nodeid for nodeid in selected if nodeid.split("::")[0].replace(
                "/", ".").removesuffix(".py") == key[1]}
    return failed


def imported_modules(source: bytes) -> set[str]:
    """The perptri modules a source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    return {name for name in found if name.split(".")[0] == PACKAGE}


#: Names a test reads when it bounds time or memory.
BOUND_NAMES = {"tracemalloc", "perf_counter", "monotonic", "process_time", "timeout"}


def bound_tests(copy: Path, tests) -> set[str]:
    """The tests that bound time or memory: whose function, or a function or fixture of
    their module that they name, reads one of BOUND_NAMES."""
    bound = set()
    for file in {test.split("::")[0] for test in tests}:
        functions = {node.name: node for node in ast.walk(ast.parse((copy / file).read_bytes()))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        names = {name: {getattr(node, field) for node in ast.walk(function)
                        for field in ("id", "attr", "arg") if hasattr(node, field)}
                 for name, function in functions.items()}
        marked = {name for name, read in names.items() if read & BOUND_NAMES}
        while grown := {name for name, read in names.items() if read & marked} - marked:
            marked |= grown
        bound |= {test for test in tests if test.split("::")[0] == file
                  and test.split("::")[-1].partition("[")[0] in marked}
    return bound


class Clean:
    """The traced clean run: which tests run which src lines, and their clean times."""

    def __init__(self, copy: Path, temp: Path):
        records = temp / "records"
        records.mkdir()
        userbase = temp / "userbase"
        user_site = Path(sysconfig.get_path("purelib", f"{os.name}_user",
                                            vars={"userbase": str(userbase)}))
        user_site.mkdir(parents=True)
        (user_site / "usercustomize.py").write_text(TRACER)
        env = child_env(copy, PYTHONUSERBASE=str(userbase), **{
            RECORDS: str(records), USER_SITE: site.getusersitepackages()})
        start = time.perf_counter()
        self.code = pytest(copy, env, temp / "clean.xml", ["tests"], temp / "clean.log")
        self.wall_s = time.perf_counter() - start
        self.log = (temp / "clean.log").read_text(errors="replace")
        if self.code != 0:
            return
        plugin = json.loads((records / "plugin.json").read_text())
        self.tests = sorted(plugin["shared"])
        self.names = junit_names(self.tests)
        self.seconds = {self.names[case.get("classname"), case.get("name")]: float(case.get("time"))
                        for case in ET.parse(temp / "clean.xml").getroot().iter("testcase")}
        self.overhead_s = max(self.wall_s - sum(self.seconds.values()), 0.0)
        self.lines = {}  # test ("" while collecting) -> {(module path, line)}
        started = {}
        for record in records.glob("*.txt"):
            header, *rows = record.read_text().splitlines()
            started[header] = started.get(header, 0) + 1
            for row in rows:
                test, key, line = row.split("\t")
                self.lines.setdefault(test, set()).add((key, int(line)))
        self.import_lines = self.lines.pop("", set())
        self.by_line = {}
        for test, hits in self.lines.items():
            for hit in hits:
                self.by_line.setdefault(hit, set()).add(test)
        self.untraced = {test for test, count in plugin["spawns"].items()
                         if count > started.get(test, 0)}
        self.sharing = {}
        for test, fixtures in plugin["shared"].items():
            for fixture in fixtures:
                self.sharing.setdefault(fixture, set()).add(test)
        self.shared = plugin["shared"]
        self.imports = {file: imported_modules((copy / file).read_bytes())
                        for file in {test.split("::")[0] for test in self.tests}}
        self.bound = bound_tests(copy, self.tests)

    def selected(self, mutant: dict) -> set[str]:
        key = mutant["path"]
        span = {(key, line) for line in range(mutant["line"], mutant["end_line"] + 1)}
        tests = set().union(*(self.by_line.get(hit, ()) for hit in span))
        if mutant["at_import"] or span & self.import_lines:
            tests |= {test for test in self.tests
                      if mutant["module"] in self.imports[test.split("::")[0]]
                      or any(hit[0] == key for hit in self.lines.get(test, ()))}
        tests |= self.untraced
        for test in list(tests):
            for fixture in self.shared.get(test, ()):
                tests |= self.sharing[fixture]
        return tests

    def cap(self, tests) -> float:
        return CAP_FACTOR * (self.overhead_s + sum(self.seconds.get(test, 0.0) for test in tests))


def run_mutant(copy: Path, mutant: dict, tests, clean: Clean, temp: Path) -> tuple[str, list]:
    """Run tests on copy with the mutant in place: its outcome and the tests that killed it."""
    target = copy / "src" / mutant["path"]
    original = target.read_bytes()
    selection = temp / "selected.txt"
    selection.write_text("\n".join(sorted(tests)) + "\n")
    target.write_bytes(mutant["source"])
    try:
        code = pytest(copy, child_env(copy, **{SELECT: str(selection)}), temp / "run.xml",
                      sorted({test.split("::")[0] for test in tests}), temp / "run.log",
                      clean.cap(tests))
    finally:
        target.write_bytes(original)
    if code is None:
        return "timeout", []
    if code == 5:
        raise RuntimeError(f"pytest selected none of {sorted(tests)}")
    failed = failures(temp / "run.xml", clean.names, tests)
    killers = sorted(tests if failed is None else failed)
    return ("killed" if killers else "live"), killers


def twins(kills: dict) -> dict:
    """Each test's twin: of the other tests whose kills include all of its own, the one
    with the fewest (then the first by node id); None for a test that kills nothing."""
    found = {}
    for test, own in kills.items():
        covering = [other for other in kills if other != test and own <= kills[other]]
        found[test] = min(covering, key=lambda other: (len(kills[other]), other)) \
            if own and covering else None
    return found


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", HERE / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def main(argv: list[str] | None = None) -> int:
    bench = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=bench.source_tree, default=HERE.parent,
                        help="a checkout holding src/perptri and tests (default: this one)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    mutants = find_mutants(args.tree)
    workers = len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="perptri-mutate-") as temp:
        temp = Path(temp)
        copies = [copy_tree(args.tree, temp / f"tree{i}") for i in range(workers)]
        clean = Clean(copies[0], temp)
        if clean.code != 0:
            print(clean.log, file=sys.stderr)
            print(f"error: the clean suite exited {clean.code}", file=sys.stderr)
            return 1
        free = list(zip(copies, (temp / f"work{i}" for i in range(workers))))
        for _, work in free:
            work.mkdir()
        lock = threading.Lock()
        done = []

        def measure(mutant):
            tests = mutant["selected"] = clean.selected(mutant)
            mutant["tests_run"] = len(tests)
            if not tests:
                mutant["outcome"], mutant["killed_by"] = "live", []
                return
            with lock:
                copy, work = free.pop()
            try:
                mutant["outcome"], mutant["killed_by"] = run_mutant(copy, mutant, tests, clean,
                                                                    work)
            finally:
                with lock:
                    free.append((copy, work))
            with lock:
                done.append(mutant)
                print(f"[{len(done)}/{len(mutants)}] {mutant['module']}:{mutant['line']} "
                      f"{mutant['before']} -> {mutant['after']}: {mutant['outcome']} "
                      f"({len(mutant['killed_by'])} of {len(tests)} tests)", file=sys.stderr)

        # The longest runs first, so that no worker is left with one at the end.
        order = sorted(mutants, key=lambda mutant: -clean.cap(clean.selected(mutant)))
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(measure, order))
        copy, work = free[0]
        for mutant in mutants:
            killers = set(mutant["killed_by"])
            if killers and killers <= clean.bound:
                mutant["outcome"], mutant["killed_by"] = run_mutant(copy, mutant, killers, clean,
                                                                    work)
    kills = {test: set() for test in clean.tests}
    runs = dict.fromkeys(clean.tests, 0)
    for index, mutant in enumerate(mutants):
        for test in mutant["killed_by"]:
            kills[test].add(index)
        for test in mutant["selected"]:
            runs[test] += 1
    twin = twins(kills)
    outcomes = ("killed", "live", "timeout")
    by_module = {}
    for mutant in mutants:
        counts = by_module.setdefault(mutant["module"], dict.fromkeys(outcomes, 0))
        counts[mutant["outcome"]] += 1
    report = {
        "machine": bench.machine(),
        "tree": {"path": str(args.tree), **bench.tree_identity(args.tree)},
        "wall_s": time.perf_counter() - start,
        "workers": workers,
        "clean": {"tests": len(clean.tests), "wall_s": clean.wall_s},
        "summary": {outcome: sum(counts[outcome] for counts in by_module.values())
                    for outcome in outcomes},
        "by_module": by_module,
        "tests": {test: {"runs": runs[test], "kills": len(kills[test]), "twin": twin[test]}
                  for test in clean.tests},
        "kills_nothing": [test for test in clean.tests if not kills[test]],
        "mutants": [{key: mutant[key] for key in ("module", "line", "col", "operator", "before",
                                                  "after", "outcome", "tests_run", "killed_by")}
                    for mutant in mutants],
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{len(mutants)} mutants: " + ", ".join(f"{report['summary'][o]} {o}" for o in outcomes)
          + f"; {sum(1 for t in twin.values() if t)} tests have a twin; wrote {args.out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
