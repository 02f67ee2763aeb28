"""The benchmark tools: bench_sweep_memory.py names what differs between two sweeps' outputs,
and each of the three writes its report."""

import importlib.util
import json
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_sweep_memory.py"
SPEC = importlib.util.spec_from_file_location("bench_sweep_memory", TOOL)
bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench)


def output(code, doc):
    """An output as `run_child` returns it: the exit line, then stdout."""
    return f"exit {code}\n" + json.dumps(doc, indent=2) + "\n"


def test_differing_paths_name_the_values_that_differ():
    doc = {"n": 3, "max_residuals": {"area_ratio": 1e-16, "chain_sum": 2e-16},
           "argmin": [1, None]}
    changed = json.loads(json.dumps(doc))
    changed["max_residuals"]["area_ratio"] = 2e-16
    changed["argmin"][1] = 0.5
    assert bench.differing_paths([output(0, doc), output(0, doc)]) == []
    assert bench.differing_paths([output(0, doc), output(0, changed), output(0, doc)]) == [
        "argmin/1", "max_residuals/area_ratio"]


def test_differing_paths_name_the_exit_code_a_missing_key_and_non_json():
    doc = {"over_bound": None}
    assert bench.differing_paths([output(0, doc), output(1, doc)]) == ["exit"]
    assert bench.differing_paths([output(0, doc), output(0, {})]) == ["over_bound"]
    assert bench.differing_paths([output(0, doc), "exit 0\nnot json\n"]) == ["over_bound", "stdout"]


def assert_identified(tree: dict) -> None:
    """A report's tree names its HEAD, whether its src/ differs from it, and a hash of src/."""
    assert (tree["src_dirty"] is None) == (tree["git_head"] is None)
    assert tree["src_dirty"] in (None, True, False)
    assert re.fullmatch("[0-9a-f]{64}", tree["src_sha256"])


def test_tree_identity_tells_apart_sources_with_one_head(tmp_path):
    # Outside a git checkout HEAD and the flag are None; the hash still
    # changes with any byte of src/.
    module = tmp_path / "src" / "perptri" / "__init__.py"
    module.parent.mkdir(parents=True)
    module.write_text("X = 1\n")
    first = bench.tree_identity(tmp_path)
    assert (first["git_head"], first["src_dirty"]) == (None, None)
    module.write_text("X = 2\n")
    assert bench.tree_identity(tmp_path)["src_sha256"] != first["src_sha256"]


def test_sweep_memory_benchmark_writes_its_report(tmp_path):
    out = tmp_path / "sweep.json"
    assert bench.main(["--n", "20000", "--runs", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["identical_output"] and report["runs_per_tree"] == 1
    (tree,) = report["trees"]
    assert tree["summary"]["peak_rss_mib"]["median"] > 0.0
    assert_identified(tree)


def test_startup_benchmark_writes_its_report(tmp_path, monkeypatch):
    # tools/bench_startup.py imports its helpers from bench_sweep_memory.py.
    monkeypatch.syspath_prepend(str(TOOL.parent))
    startup = importlib.import_module("bench_startup")
    out = tmp_path / "startup.json"
    assert startup.main(["--runs", "1", "--src", str(TOOL.parent.parent), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["identical_output"] and report["runs_per_tree"] == 1
    assert set(report["machine"]) >= {"nproc", "cpu_model", "python"}
    (tree,) = report["trees"]
    assert_identified(tree)
    for mode in ("bytecode", "source"):
        for measure in ("import_ms", "verify_wall_ms", "verify_peak_rss_mib"):
            assert tree["summary"][mode][measure]["min"] > 0.0


def test_extremal_benchmark_writes_its_report(tmp_path, monkeypatch):
    # tools/bench_extremal.py imports its helpers from bench_sweep_memory.py.
    monkeypatch.syspath_prepend(str(TOOL.parent))
    extremal = importlib.import_module("bench_extremal")
    out = tmp_path / "extremal.json"
    assert extremal.main(["--runs", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["identical_output"] and report["runs_per_tree"] == 1
    (tree,) = report["trees"]
    assert_identified(tree)
    for measure in ("pass_p10_us", "pass_median_us", "global_median_us", "slice_median_us",
                    "slice_evals_per_pass", "global_evals", "right_evals", "table_evals"):
        assert tree["summary"][measure]["min"] > 0.0
    evals = tree["summary"]
    assert (evals["slice_evals_per_pass"]["min"]
            == evals["global_evals"]["min"] + evals["table_evals"]["min"])
