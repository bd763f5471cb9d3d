"""Start diagbench CLI children one at a time and report wall time and peak RSS.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "stdout": PATH, "stderr": PATH}
and one JSON reply per line on stdout,
    {"wall_s": float, "maxrss_kb": int, "code": int}.

This runs as its own small process, started before the benchmark builds its
inputs and oracles.  A spawned child shares its parent's memory image until it
execs, and Linux keeps that image's high-water mark in the child's ru_maxrss;
spawning from here keeps that floor at this process's few megabytes instead
of the benchmark's hundreds.
"""

import json
import os
import sys
import time


def main():
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_CLOSE, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        argv = [sys.executable, "-m", "diagbench", *req["argv"]]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                 "code": os.waitstatus_to_exitcode(status)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
