#!/usr/bin/env python3
"""Build and run the serving benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root), runs
one workload once, and relays the program's output. The last line of
standard output is the result object. Exits non-zero, without a result,
when the build fails, the run fails or times out, or the result line is
malformed; a run whose answers disagree with BFS prints its result and
exits non-zero.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room to stop the child and report.
RUN_TIMEOUT_S = 170
# The first build in a fresh checkout compiles the workspace (about 20 s on
# two cores); the build and the first run together must end within 900 s.
BUILD_TIMEOUT_S = 700
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(command, timeout, **kwargs):
    """Run `command`, killing it and waiting for it to end on timeout."""
    with subprocess.Popen(command, cwd=ROOT, **kwargs) as child:
        try:
            out, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            fail(f"{command[0]} did not finish within {timeout} s")
        return child.returncode, out


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    manifest = HERE / "Cargo.toml"
    if not (ROOT / "crates" / "server" / "Cargo.toml").is_file():
        fail("the repository's crates are missing; run from a full checkout")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    code, _ = run_child(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed with exit code {code}")

    binary = target / "release" / "perfbench"
    command = [str(binary), *sys.argv[1:], "--out", str(HERE / "results")]
    code, out = run_child(command, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"the benchmark printed no result (exit code {code})")
    sys.exit(code)


if __name__ == "__main__":
    main()
