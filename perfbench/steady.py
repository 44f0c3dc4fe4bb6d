#!/usr/bin/env python3
"""Steadiness check: run each workload in two sets, at different times.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]

Each of the two sets runs every workload --runs times, each run with its
own seed; the second set starts after the first has finished every workload, so
the two sets are minutes apart. For each end-to-end metric of
BENCHMARK.json it prints, per set, the median and the spread (distance
between the first and third quartile as a share of the median, from
statistics.quantiles(values, n=4)), then the shift of the second set's
median against the first in the metric's worse direction, each next to
the metric's bound. setup_s is exempt from the spread rule, as the
benchmark contract has it. It also compares the share of failed
operations between the sets, which must be exactly equal.

Exit code 0 when every figure is within its bound. The raw results go
to .bench_build/steady.json.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
FIRST_SEED = 1000


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}  # per workload: one list of runs per set
    for s in range(SETS):
        for w in workloads:
            runs = []
            for i in range(args.runs):
                seed = FIRST_SEED + 100 * s + i
                t0 = time.time()
                runs.append(run_once(w, seed, args.seconds))
                print(f"set {s + 1} {w} seed {seed}: {time.time() - t0:.1f} s "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in
                                 sorted(runs[-1]["metrics"].items())), flush=True)
            results[w].append(runs)
    out = ROOT / ".bench_build" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    ok = True
    print(f"\n{'workload':<10} {'metric':<14} {'bound':>6} "
          + " ".join(f"{'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}"
                     for s in range(SETS))
          + f" {'shift':>8}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, medians, verdict = [], [], "ok"
            for runs in results[w]:
                sp, med = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                cells.append(f"{med:>12.6g} {sp:>8.3f}")
                if name != "setup_s" and sp > bound:
                    verdict = "SPREAD"
            shift = (medians[1] - medians[0]) / medians[0]
            worse = shift if m["better"] == "lower" else -shift
            if worse > bound:
                verdict = "SHIFT" if verdict == "ok" else verdict + "+SHIFT"
            ok &= verdict == "ok"
            print(f"{w:<10} {name:<14} {bound:>6.2f} " + " ".join(cells)
                  + f" {shift:>+8.3f}  {verdict}")
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in results[w]}
        if len(shares) > 1:
            ok = False
            print(f"{w:<10} failed share differs between sets: {sorted(shares)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
