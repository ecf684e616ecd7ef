"""Child-process launcher for the benchmark, kept small on purpose.

On Linux a child's ru_maxrss starts from the resident size of the process
that forked it, so CLI children forked from the benchmark, which holds the
inputs and expected answers, would report the benchmark's memory instead
of their own. This process holds nothing and forks every child instead.

Protocol: one JSON request per line on stdin,
``{"args": [...], "stdout": path, "stderr": path, "timeout": seconds}``;
one JSON reply per line on stdout,
``{"elapsed": s, "code": exit code or null on timeout, "maxrss_mb": MB}``.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(args, stdout, stderr, timeout):
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(args, stdout=out, stderr=err)
        timer = threading.Timer(timeout, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)
    if code == -9 and elapsed >= timeout:
        code = None
    return {"elapsed": elapsed, "code": code, "maxrss_mb": usage.ru_maxrss / 1024}


def main():
    for line in sys.stdin:
        reply = run(**json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
