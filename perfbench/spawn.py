"""Starts and times the benchmark's children from a small process.

Linux reports a child's peak RSS as at least the peak RSS of the process
that spawned it (the spawner's address space is the one replaced at exec).
So the children are started from this process, which stays small, and not
from the benchmark, which holds parsed reports.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}``, and
one JSON reply per line on stdout, ``{"wall_s", "maxrss_kb", "exit_code"}``.
A child still running after ``timeout`` seconds is killed.  The spawner
exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            _kill(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit_code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
