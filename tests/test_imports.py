"""numpy is loaded only by the array code: the sweep and the brute-force lattice.

The scalar commands run on `math` alone; importing numpy would cost them more
than their arithmetic and more than the interpreter's own start.  Each case runs
in a fresh interpreter, whose sys.modules shows what it really imported.
"""

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


def loads_numpy(code: str, *args: str) -> bool:
    """Whether a fresh interpreter running code has numpy in sys.modules at its end."""
    env = dict(os.environ)
    src = str(Path(perptri.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = code + "\nprint('numpy' in sys.modules)\n"
    run = subprocess.run([sys.executable, "-c", probe, *args], input=SPEC_345, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("module", ["perptri", "perptri.cli"])
def test_import_loads_no_numpy(module):
    assert not loads_numpy(f"import sys, {module}")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "-"],
        ["verify", "--json", "-"],
        ["metrics", "-"],
        ["construct", "-"],
        ["construct", "--phi", "60", "--json", "-"],
        ["render", "-", "--out", "{tmp}/figure.svg"],
        ["minimize"],
        ["minimize", "--right", "--json"],
    ],
)
def test_scalar_command_loads_no_numpy(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert not loads_numpy(RUN_MAIN, json.dumps(argv))


def test_sweep_loads_numpy():
    # The probe sees numpy where it is used, so the checks above can fail.
    assert loads_numpy(RUN_MAIN, json.dumps(["sweep", "--n", "10"]))


def test_every_public_name_resolves():
    assert perptri.run_sweep(10, 0) == perptri.sweep.run_sweep(10, 0)
    assert isinstance(perptri.run_sweep(0, 0), perptri.SweepResult)
    namespace = {}
    exec("from perptri import *", namespace)
    assert set(perptri.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(perptri, name) for name in perptri.__all__)
    with pytest.raises(AttributeError):
        perptri.no_such_name
