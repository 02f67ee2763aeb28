"""Runs the benchmark's child processes, one at a time, from a small process.

Linux carries a process's peak RSS across vfork/fork and exec, so a child's
wait4 peak is never below the peak of the process that spawned it.  The
benchmark itself grows to hundreds of MiB during the in-process sweep; it
starts this helper before importing numpy, and every child is spawned from
here, where wait4 reports the child's own peak.

Protocol: one JSON request per line on stdin, {"argv": [...], "stdin": "..."};
one JSON reply per line on stdout, {"wall_s", "peak_rss_mib", "code",
"stdout"}.  End of input ends the helper.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Child:
    wall_s: float
    peak_rss_mib: float
    code: int
    stdout: str


def run(argv: list[str], stdin: str) -> Child:
    """Run one child to completion; a child that outlives CHILD_TIMEOUT_S is killed."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        try:
            proc.stdin.write(stdin.encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 out.decode("utf-8", errors="replace"))


class Spawner:
    """The benchmark's handle on the helper process."""

    def __init__(self, python: str, cwd: str, env: dict) -> None:
        self.python = python
        self._proc = subprocess.Popen([python, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      cwd=cwd, env=env, text=True)

    def run(self, args: list[str], stdin: str = "") -> Child:
        """Run `python *args` to completion."""
        self._proc.stdin.write(json.dumps({"argv": [self.python, *args], "stdin": stdin}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner exited")
        return Child(**json.loads(reply))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=CHILD_TIMEOUT_S + 30.0)
        self._proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        child = run(request["argv"], request["stdin"])
        sys.stdout.write(json.dumps(child.__dict__) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
