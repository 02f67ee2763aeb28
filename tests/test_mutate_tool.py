"""The mutation tool, tools/mutate.py: on a one-module tree it maps each mutant to the
tests that kill it, names a test's twin and the test that kills nothing, and writes
nothing into the tree but its report."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutate)

MODULE = """\
def grow(x, y):
    if x > y:
        return x * y
    return y
"""

TESTS = """\
from perptri.core import grow


def test_both():
    assert grow(3, 2) == 6


def test_twin():
    assert grow(2, 1) != 1


def test_nothing():
    import perptri.core
"""


def files(tree):
    return sorted(path.relative_to(tree).as_posix() for path in tree.rglob("*"))


def test_report_maps_each_mutant_to_its_killers_and_names_the_twin(tmp_path):
    for name, text in (("src/perptri/__init__.py", ""), ("src/perptri/core.py", MODULE),
                       ("tests/test_core.py", TESTS)):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    before = files(tmp_path)
    out = tmp_path / "MUTANTS.json"
    assert mutate.main([str(tmp_path), "--out", str(out)]) == 0
    assert files(tmp_path) == sorted(before + ["MUTANTS.json"])
    report = json.loads(out.read_text())
    assert set(report["machine"]) >= {"nproc", "cpu_model", "python"}
    assert report["tree"]["path"] == str(tmp_path.resolve())
    assert report["wall_s"] > 0.0 and report["clean"]["tests"] == 3
    both, twin, nothing = (f"tests/test_core.py::test_{name}"
                           for name in ("both", "twin", "nothing"))
    assert report["mutants"] == [
        {"module": "perptri.core", "line": 2, "col": 7, "operator": "compare", "before": ">",
         "after": "<", "outcome": "killed", "tests_run": 2, "killed_by": [both, twin]},
        {"module": "perptri.core", "line": 3, "col": 15, "operator": "binop", "before": "*",
         "after": "/", "outcome": "killed", "tests_run": 2, "killed_by": [both]},
    ]
    assert report["summary"] == {"killed": 2, "live": 0, "timeout": 0}
    assert report["tests"] == {
        both: {"runs": 2, "kills": 2, "twin": None},
        nothing: {"runs": 0, "kills": 0, "twin": None},
        twin: {"runs": 2, "kills": 1, "twin": both},
    }
    assert report["kills_nothing"] == [nothing]
