"""Each command loads only the modules it runs.

numpy is loaded only by the array code: the sweep and the brute-force lattice.
The scalar commands run on `math` alone; importing numpy would cost them more
than their arithmetic and more than the interpreter's own start.  Nor do they
load `dataclasses` (with `inspect`, `ast` and `dis`), and importing the
package loads none of its modules.  Each case runs in a fresh interpreter,
whose sys.modules shows what it really imported.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import perptri

SPEC_345 = json.dumps({"vertices": {"A": [0, 0], "B": [4, 0], "Gamma": [0, 3]}})

#: Runs perptri.cli.main on argv (a JSON list) with SPEC_345 on stdin.
RUN_MAIN = """\
import contextlib, io, json, sys
from perptri import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
assert code == 0, code
"""


@functools.lru_cache(maxsize=None)
def modules_after(code: str, *args: str) -> frozenset:
    """The names in sys.modules of a fresh interpreter at the end of running code."""
    env = dict(os.environ)
    src = str(Path(perptri.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys\n" + code + "\nprint(*sys.modules)\n"
    run = subprocess.run([sys.executable, "-c", probe, *args], input=SPEC_345, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return frozenset(run.stdout.splitlines()[-1].split())


def loads_numpy(code: str, *args: str) -> bool:
    """Whether a fresh interpreter running code has numpy in sys.modules at its end."""
    return "numpy" in modules_after(code, *args)


@pytest.mark.parametrize("module", ["perptri", "perptri.cli"])
def test_import_loads_no_numpy(module):
    assert not loads_numpy(f"import {module}")


def test_import_of_the_package_loads_none_of_its_modules():
    assert not {name for name in modules_after("import perptri") if name.startswith("perptri.")}


SCALAR_COMMANDS = [
    ["verify", "-"],
    ["verify", "--json", "-"],
    ["metrics", "-"],
    ["construct", "-"],
    ["construct", "--phi", "60", "--json", "-"],
    ["render", "-", "--out", "{tmp}/figure.svg"],
    ["minimize"],
    ["minimize", "--right", "--json"],
]


@pytest.mark.parametrize("argv", SCALAR_COMMANDS)
def test_scalar_command_loads_no_numpy(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert not loads_numpy(RUN_MAIN, json.dumps(argv))


@pytest.mark.parametrize("argv", SCALAR_COMMANDS)
def test_scalar_command_loads_no_dataclasses(argv, tmp_path):
    if "dataclasses" in modules_after("pass"):
        pytest.skip("a bare interpreter here already loads dataclasses")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert "dataclasses" not in modules_after(RUN_MAIN, json.dumps(argv))


@pytest.mark.parametrize("argv", [["verify", "-"], ["verify", "--json", "-"]])
def test_verify_loads_no_construction_extremal_or_svg(argv):
    loaded = modules_after(RUN_MAIN, json.dumps(argv))
    assert not loaded & {"perptri.construction", "perptri.extremal", "perptri.svg"}


def test_sweep_loads_numpy():
    # The probe sees numpy where it is used, so the checks above can fail.
    assert loads_numpy(RUN_MAIN, json.dumps(["sweep", "--n", "10"]))

