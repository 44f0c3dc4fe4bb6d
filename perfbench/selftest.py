#!/usr/bin/env python3
"""Show that every output check of the benchmark can fail.

Usage, from the repository root:

    python3 perfbench/selftest.py [--seconds 1]

For each workload it runs the benchmark once as is, which must pass,
and then once per output check with that check's input deliberately
altered (--alter CHECK), which must fail: exit code 1 and "correct":
false. Exit code 0 when all of that holds.
"""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

CHECKS = {
    "generate": ["generate.record_count", "generate.unique_ids", "generate.p95_ceiling",
                 "generate.upgrade_p95_ceiling", "generate.thread_invariance",
                 "generate.roundtrip"],
    "analyze": ["analyze.fig1_oracle", "analyze.tab1_pairs", "analyze.render_equal"],
    "serve": ["serve.ping", "serve.reply_bytes", "serve.lru_accounting",
              "serve.open_bytes_budget"],
}


def run(workload, seconds, alter):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", "0"]
    if alter:
        command += ["--alter", alter]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    correct = json.loads(lines[-1])["correct"] if lines else None
    failed = [l for l in proc.stderr.splitlines() if "check failed" in l]
    return proc.returncode, correct, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    ok = True
    for workload, checks in CHECKS.items():
        code, correct, failed = run(workload, args.seconds, "")
        passed = code == 0 and correct is True
        ok &= passed
        print(f"{workload:<9} {'(unaltered)':<30} {'pass' if passed else 'FAIL'} {failed}")
        for check in checks:
            code, correct, failed = run(workload, args.seconds, check)
            # Only the altered check may fail, and it must.
            caught = (code == 1 and correct is False and len(failed) == 1
                      and f"check failed: {check}:" in failed[0])
            ok &= caught
            print(f"{workload:<9} {check:<30} {'caught' if caught else 'MISSED'} {failed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
