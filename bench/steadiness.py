"""Run one workload under several seeds and report each metric's spread.

    python3 bench/steadiness.py --workload hri_session --seeds 101-110 --seconds 30

Runs are sequential, one process each, from the root of a checkout.  For
every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread: (q3 - q1) / median.  With
--json FILE the per-run results are also written there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 101-110")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="write the per-run results to this file")
    args = p.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["wall_s"] = seed, wall
        result["log"] = [line for line in proc.stderr.splitlines() if line.startswith("bench: ")]
        runs.append(result)
        print(f"seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)
        print("\n".join(result["log"]), file=sys.stderr)

    print(f"{args.workload}: {len(runs)} runs, seeds {args.seeds}, "
          f"all correct: {all(r['correct'] for r in runs)}")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
