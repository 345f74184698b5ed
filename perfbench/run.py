#!/usr/bin/env python3
"""Builds and runs the next700 end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload engine-2pl|kv-mixed|shard-2pc \
        --seed N --seconds S --trace 0|1 [--tiny]

Builds the library from ../src and the benchmark program (perfbench/src)
in Release under $CARGO_TARGET_DIR (default .bench_build) at the checkout
root, then runs one workload. Build output goes to stderr; the program's
report goes to stdout, whose last line is the JSON result object. The exit
status is the program's: 0 when every correctness gate passed, nonzero
otherwise (and nonzero without a result when the sources are missing or
the build fails).
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("engine-2pl", "kv-mixed", "shard-2pc")
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit if there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HERE / "src"):
        for path in sorted(tree.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(step))
    return build_dir / "next700_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: small tables, short phases")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    # Keep the compiler's and the program's scratch files in the checkout.
    tmp = target / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    binary = build(target / "perfbench-release")
    run_dir = target / "perfbench-run" / args.workload

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--run-dir", str(run_dir), "--source-id", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
