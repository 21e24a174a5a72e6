"""Compare two commits on one benchmark workload in alternating pairs of runs.

    python3 tools/bench_compare.py BASE HEAD --workload hri_session \
        --seeds 101-110 --seconds 30 --label hri_session

Run from anywhere inside a git checkout.  BASE and HEAD are any commit
names git knows; each is exported with `git archive` into a temporary
directory, and each run is that checkout's own `bench/run.py --trace 0`,
one process at a time.  There is one pair per seed of --seeds: pair i
runs both sides on seed i, BASE first in even pairs and HEAD first in odd
ones, so drift of the host's speed weighs on both sides alike.

It writes BENCH_<label>.json (in --out, default the current directory).
For each end-to-end metric of BENCHMARK.json it holds the per-pair values
of both sides, each side's median and quartiles, the ratio of the medians
(HEAD / BASE), the pairs HEAD won, whether the comparison is unresolved
at this many pairs (a side's min-max range, relative to its median, is
wider than the metric's bound), whether a gain claim holds (at least 10
pairs, HEAD better in at least 9 of each 10, and its median better than
BASE's by more than BASE's interquartile range) and a verdict.  Each run's record keeps its
seed, its wall time, its correctness and operation counts, and the host
slowness median that run.py prints on standard error.  Nothing here is
part of the benchmark: it reads BENCHMARK.json and runs bench/run.py as
they are.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SIDES = ("base", "head")
CLAIM_PAIRS = 10   # the fewest pairs a gain claim rests on
SLOWNESS = re.compile(r"host slowness median ([0-9.]+)")


def parse_seeds(text: str) -> list:
    """An inclusive seed range, "101-110", or one seed, "7"."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def pair_order(pair: int) -> tuple:
    """The sides in run order for pair `pair`: BASE first in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def parse_slowness(stderr: str) -> float | None:
    """The host slowness median that bench/run.py prints on standard error."""
    found = SLOWNESS.findall(stderr)
    return float(found[-1]) if found else None


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of the values, by statistics.quantiles(n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(base: list, head: list, better: str, bound: float) -> dict:
    """One metric's comparison from its per-pair values: pair i of `base`
    and of `head` ran on the same seed.  `better` is "lower" or "higher";
    `bound` the relative change BENCHMARK.json allows the metric."""
    if len(base) != len(head) or not base:
        raise ValueError(f"{len(base)} base and {len(head)} head values do not pair")
    sign = 1.0 if better == "higher" else -1.0
    (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
    won = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    spread = {side: (max(v) - min(v)) / abs(statistics.median(v)) if statistics.median(v) else math.inf
              for side, v in zip(SIDES, (base, head))}
    unresolved = max(spread.values()) > bound
    ratio = hm / bm if bm else math.nan
    claim = len(base) >= CLAIM_PAIRS and won >= math.ceil(0.9 * len(base)) and sign * (hm - bm) > b3 - b1
    change = sign * (ratio - 1.0)   # > 0: HEAD better
    if claim:
        verdict = "better"
    elif change < -bound:
        verdict = "worse"
    elif unresolved:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "base": base, "head": head,
        "base_median": bm, "base_q1": b1, "base_q3": b3,
        "head_median": hm, "head_q1": h1, "head_q3": h3,
        "ratio": ratio, "pairs_won": won, "pairs": len(base),
        "base_range_rel": spread["base"], "head_range_rel": spread["head"],
        "bound": bound, "better": better,
        "unresolved": unresolved, "claim_holds": claim, "verdict": verdict,
    }


def summarize(runs: list, spec: dict) -> dict:
    """metric -> compare(...) over the runs (dicts with "pair", "side" and
    "metrics") for each end-to-end metric of the BENCHMARK.json `spec` that
    every run reports."""
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["pair"], r["side"]): r for r in runs}
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if not all(name in by[p, s]["metrics"] for p in pairs for s in SIDES):
            continue
        values = {s: [by[p, s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        out[name] = {"unit": m["unit"], **compare(values["base"], values["head"], m["better"], m["bound"])}
    return out


def export(rev: str, into: Path) -> str:
    """Write the tree of commit `rev` into `into`; returns the commit's hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py process in `checkout`; its result line, wall time and slowness."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, timeout=max(600.0, 20 * seconds))
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(seed=seed, wall_s=wall, slowness_median=parse_slowness(proc.stderr))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 101-110; one pair per seed")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--label", required=True)
    p.add_argument("--out", default=".", help="directory for BENCH_<label>.json")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    out = Path(args.out) / f"BENCH_{args.label}.json"

    with tempfile.TemporaryDirectory(prefix="bench_compare_") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(rev, checkouts[side]) for side, rev in zip(SIDES, (args.base, args.head))}
        spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
        runs = []
        for pair, seed in enumerate(seeds):
            for order, side in enumerate(pair_order(pair)):
                result = run_once(checkouts[side], args.workload, seed, args.seconds)
                runs.append({"pair": pair, "side": side, "order": order, **result})
                print(f"pair {pair} {side} seed {seed}: wall {result['wall_s']:.1f} s, correct "
                      f"{result['correct']}, slowness {result['slowness_median']}", file=sys.stderr)

    report = {
        "label": args.label, "workload": args.workload, "seconds": args.seconds, "seeds": args.seeds,
        "base": {"rev": args.base, "commit": commits["base"]},
        "head": {"rev": args.head, "commit": commits["head"]},
        "all_correct": all(r["correct"] for r in runs),
        "failed": {side: sum(r["failed"] for r in runs if r["side"] == side) for side in SIDES},
        "metrics": summarize(runs, spec),
        "runs": runs,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{args.workload}: {len(seeds)} pairs, all correct: {report['all_correct']}; wrote {out}")
    print(f"{'metric':24} {'base med':>12} {'head med':>12} {'ratio':>7} {'won':>6}  verdict")
    for name, m in report["metrics"].items():
        print(f"{name:24} {m['base_median']:12.6g} {m['head_median']:12.6g} {m['ratio']:7.3f} "
              f"{m['pairs_won']:>3}/{m['pairs']:<2}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
