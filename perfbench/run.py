#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload pairs_bx --seed 1 --seconds 15 --trace 0

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root) and run from the repository root.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. The run gets its own process group, so on a
timeout the shard workers it spawned are stopped with it.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# The longest a run may take once built, below the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "cne", "Cargo.toml")):
        print("perfbench: the repository's crates are not here; nothing to build", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s; stopping it", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 124
    finally:
        # Reap anything left in the run's process group (shard workers of a
        # run that died before shutting them down).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


if __name__ == "__main__":
    sys.exit(main())
