#!/usr/bin/env python3
"""Pipeline benchmark: build the driver from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload generate|analyze|serve \
        --seed N --seconds S --trace 0|1 [--alter CHECK]

The driver (perfbench/*.cpp) is built with CMake against ../src in
Release mode under .bench_build/ (or $CARGO_TARGET_DIR when set); the
first run pays the build. The driver's stdout passes through unchanged:
its last line is the result object. Build output goes to stderr.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_root() -> pathlib.Path:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out: pathlib.Path) -> pathlib.Path:
    """Configure (once) and build the driver; returns the binary's path."""
    cmake_dir = out / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return cmake_dir / "bblab_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["generate", "analyze", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--alter", default="",
                        help="deliberately alter the input of one output check")
    args = parser.parse_args()

    out = build_root()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", os.path.relpath(out / "work", ROOT)]
    if args.alter:
        command += ["--alter", args.alter]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
