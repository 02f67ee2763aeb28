"""The benchmark tool, tools/bench.py: it names what differs between two outputs, tells
trees apart, writes each subcommand's report, fails on trees that print different
sweeps, and refuses run and size counts out of range."""

import importlib.util
import json
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
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


SWEEP_MEASURES = ("wall_s", "peak_rss_mib", "minor_faults", "rss_after_imports_mib",
                  "peak_after_imports_mib", "rss_after_sweep_mib", "peak_after_sweep_mib")
STARTUP_MEASURES = ("import_ms", "verify_wall_ms", "verify_peak_rss_mib")
EXTREMAL_MEASURES = ("pass_p10_us", "pass_median_us", "global_median_us", "slice_median_us",
                     "slice_evals_per_pass", "global_evals", "right_evals", "table_evals")


@pytest.mark.parametrize("command, options, cases, measures", [
    ("sweep", ["--n", "20000"], ["all/20000/0"], SWEEP_MEASURES),
    ("startup", [], ["bytecode", "source"], STARTUP_MEASURES),
    ("extremal", [], ["40 passes"], EXTREMAL_MEASURES),
], ids=["sweep", "startup", "extremal"])
def test_benchmark_writes_its_report(tmp_path, command, options, cases, measures):
    out = tmp_path / "report.json"
    argv = [command, "--runs", "1", "--src", str(ROOT), "--out", str(out), *options]
    assert bench.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["identical_output"] and report["runs_per_tree"] == 1
    assert report["differing_paths"] == {case: [] for case in cases}
    assert set(report["machine"]) >= {"nproc", "cpu_model", "python"}
    assert_identified(report)
    assert [tree["case"] for tree in report["trees"]] == cases
    for tree in report["trees"]:
        assert_identified(tree)
        assert list(tree["summary"]) == list(measures)
        for measure in measures:
            assert tree["summary"][measure]["min"] > 0.0
    evals = report["trees"][0]["summary"]
    if "slice_evals_per_pass" in evals:
        assert (evals["slice_evals_per_pass"]["min"]
                == evals["global_evals"]["min"] + evals["table_evals"]["min"])


def test_sweep_fails_and_names_the_value_that_differs_between_trees(tmp_path, capsys):
    # A copy of src/ with another bound constant prints another sweep.
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "perptri", other / "src" / "perptri",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ratio = other / "src" / "perptri" / "ratio.py"
    source, count = re.subn("^BOUND_CONSTANT = ", "BOUND_CONSTANT = 1.0 + ", ratio.read_text(),
                            flags=re.M)
    assert count == 1
    ratio.write_text(source)
    out = tmp_path / "report.json"
    assert bench.main(["sweep", "--runs", "1", "--n", "1000", "--src", str(ROOT),
                       "--src", str(other), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["identical_output"]
    assert report["differing_paths"] == {"all/1000/0": ["bound_constant"]}
    assert "bound_constant" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["extremal", "--runs", "0"], ["sweep", "--n", "-5"]],
                         ids=["runs-0", "negative-n"])
def test_out_of_range_counts_exit_2(argv):
    with pytest.raises(SystemExit) as refused:
        bench.main(argv)
    assert refused.value.code == 2
