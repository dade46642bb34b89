#!/usr/bin/env python3
"""Build and run the evencycle end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sparse --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which pulls in the
repository's library) into .bench_build/; later runs rebuild incrementally.
The benchmark's own output streams through; its last line is the result
object. A traced run (--trace 1) also writes a Chrome trace-event file to
.bench_build/traces/. The exit code is non-zero when the build fails or
any correctness check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("paper-sparse", "service-mix", "flood-dense")
# A run is three set-ups, the timed phase and the checks; at --seconds 30
# it takes about 40 s, so twice the timed phase plus this margin holds it.
RUN_MARGIN_S = 115


def build():
    """Configure and build perfbench; the log goes to .bench_build/build.log."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as error:
                code = f"could not start: {error}"
            if code != 0:
                log.flush()
                with open(log_path) as failed:
                    tail = failed.read()[-4000:]
                sys.stderr.write(f"perfbench: build step {step} failed ({code}):\n{tail}\n")
                return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git-" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    if not build():
        return 1
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--source-id", source_id(),
        "--reference", os.path.join(HERE, "reference.json"),
        "--trace-out", os.path.join(trace_dir, f"{args.workload}-{args.seed}.trace.json"),
    ]
    # Every thread count is pinned in the benchmark itself; pinning the
    # engine default as well keeps any unpinned path off the host's cores.
    env = dict(os.environ, EVENCYCLE_THREADS="1")
    timeout_s = 2 * args.seconds + RUN_MARGIN_S
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env, cwd=ROOT, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {timeout_s} s and was stopped\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
