#!/usr/bin/env python3
"""Builds and runs pembench, the PEM window benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

`all` runs the kept workloads, the ones BENCHMARK.json lists.  The two
2048-bit workloads stay runnable by name; README.md says why they are
not kept.

Run from the repository root.  The first call configures and builds the
`pem` library and the benchmark in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild incrementally.  Each workload runs in a fresh process, so
resource peaks never carry over between workloads.  The last line of
stdout is the benchmark's JSON result; the exit code is non-zero when
the build fails or any window fails the correctness gate.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KEPT = ["forked-process-1024", "forked-shm-1024"]
INFORMATIONAL = ["serial-2048", "pooled-parallel-2048"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: the PEM sources are not next to perfbench/")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "pembench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(out, "pembench")


def run_one(binary, out, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=KEPT + INFORMATIONAL + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    names = KEPT if args.workload == "all" else [args.workload]
    worst = 0
    for name in names:
        worst = max(worst, run_one(binary, out, name, args))
    sys.exit(worst)


if __name__ == "__main__":
    main()
