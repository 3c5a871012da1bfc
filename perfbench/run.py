#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest      # build and run the benchmark's tests

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout; the workload's output ends with one JSON
line {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("fleet_catchup", "serve_observed", "edge_inference")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, target):
    """Configure once, then build `target` incrementally (Release)."""
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed ({' '.join(step)}); log in {log}")
    return build_dir / target


# Mounts a tmpfs over the run's I/O directory ($0), then runs the workload.
MOUNT_SCRIPT = 'mount -t tmpfs -o size=512m,mode=0700 perfbench-io "$0" && exec "$@"'


def private_tmpfs_prefix(io_dir):
    """Command prefix running the workload in a private mount namespace with
    a tmpfs over io_dir, so journal, metrics and checkpoint writes measure
    the program rather than the shared disk's fsync. The mount lives only as
    long as the process; nothing outside the checkout is touched. Returns []
    when the system allows no private mount (the run then does its I/O on
    the checkout's own file system, which it reports as io_dir_fs)."""
    for flags in (["--mount"], ["--mount", "--map-root-user"]):
        prefix = ["unshare", *flags, "sh", "-c", MOUNT_SCRIPT, str(io_dir)]
        try:
            probe = subprocess.run(prefix + ["true"], capture_output=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            continue
        if probe.returncode == 0:
            return prefix
    return []


def git_sha():
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = result.stdout.split()
    # A checkout that is not itself a repository may sit inside another one.
    if result.returncode != 0 or len(lines) != 2 or pathlib.Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")

    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = pathlib.Path.cwd() / target_dir
    build_dir = target_dir / "perfbench"

    if args.selftest:
        binary = build(build_dir, "perfbench_tests")
        sys.exit(subprocess.run([str(binary)], cwd=ROOT).returncode)

    binary = build(build_dir, "perfbench")
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    io_dir = target_dir / "perfbench-io"
    io_dir.mkdir(parents=True, exist_ok=True)
    command = private_tmpfs_prefix(io_dir) + [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--out", str(target_dir / "perfbench-out"), "--io", str(io_dir)]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
