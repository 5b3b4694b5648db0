#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); its output goes to stderr, so the last stdout
line is the benchmark's JSON result. Exits non-zero without a result when
the build or the run fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Runs `cmd` in its own process group, and kills the group on timeout
    or when this script is asked to stop."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 124


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
    ]
    code = run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"error: build failed ({code})", file=sys.stderr)
        return code or 1
    binary = os.path.join(target, "release", "xbar-e2e-bench")
    return run([binary] + sys.argv[1:], RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
