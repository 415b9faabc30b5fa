"""No process outlives a benchmark run."""

import os
import signal
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINGER_S = 10.0


def _session_members(sid: int) -> dict[int, str]:
    """pid -> "state command" of every process in session ``sid``."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited while listed
        # the command may hold spaces and parentheses: fields follow the last ")"
        comm = stat[stat.index("(") + 1 : stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[3]) == sid:  # state, ppid, pgrp, session
            out[int(name)] = f"{fields[0]} {comm}"
    return out


def test_benchmark_run_leaves_no_process():
    """``perfbench/run.py`` in a session of its own exits, and within
    LINGER_S every process of that session (Ray's daemons and workers,
    and the zombie its shutdown leaves for init to reap) is gone. On
    failure the survivors are killed, so this test leaves nothing."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "bulk", "--seed", "1", "--seconds", "1"],
        cwd=REPO, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        assert proc.wait(timeout=600) == 0
        deadline = time.monotonic() + LINGER_S
        left = _session_members(proc.pid)
        while left and time.monotonic() < deadline:
            time.sleep(0.2)
            left = _session_members(proc.pid)
        assert not left, f"left running after the benchmark exited: {left}"
    finally:
        for pid in _session_members(proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode is None:
            proc.kill()
            proc.wait()
