"""Child processes of the benchmark: spawned, timed, measured for peak
memory, and always reaped."""

import os
import subprocess
import time

_live = set()


class Result:
    def __init__(self, code, wall_s, maxrss_kb, out, err):
        self.code, self.wall_s, self.maxrss_kb = code, wall_s, maxrss_kb
        self.out, self.err = out, err

    @property
    def peak_rss_mb(self):
        return self.maxrss_kb / 1024.0


def spawn(argv, stdout, stderr, stdin=subprocess.DEVNULL):
    p = subprocess.Popen(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    _live.add(p)
    return p


def reap(p, timeout=None):
    """Waits for `p` and returns its exit code and peak resident set in
    KiB (from the kernel's accounting of the child, so the whole life of
    the process counts). After `timeout` seconds the child is killed."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(p.pid, 0 if deadline is None else os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            p.kill()
            deadline = None
        else:
            time.sleep(0.005)
    p.returncode = os.waitstatus_to_exitcode(status)
    _live.discard(p)
    return p.returncode, usage.ru_maxrss


def run(argv, log_prefix, stdin_path=None):
    """Runs `argv` to completion with its output in `<log_prefix>.out`
    and `.err`, and returns a Result timed from spawn to exit."""
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    try:
        with open(out_path, "wb") as o, open(err_path, "wb") as e:
            t0 = time.perf_counter()
            p = spawn(argv, o, e, stdin)
            code, rss = reap(p)
            wall = time.perf_counter() - t0
    finally:
        if stdin_path:
            stdin.close()
    with open(out_path, "rb") as f:
        out = f.read().decode()
    with open(err_path, "rb") as f:
        err = f.read().decode(errors="replace")
    return Result(code, wall, rss, out, err)


def stop_all():
    """Kills and reaps every child still running (error paths only)."""
    for p in list(_live):
        try:
            p.kill()
        except OSError:
            pass
        try:
            reap(p)
        except ChildProcessError:
            _live.discard(p)
