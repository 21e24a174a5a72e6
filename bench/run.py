"""Benchmark of gaze6d: one workload per process.

    python3 bench/run.py --workload offline_pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Every run does a fixed amount of work for its workload and --seconds, so
two runs of one workload do the same operations and a traced run's call
counts repeat exactly.  The last line of standard output is one JSON
object: the correctness verdict, the operations attempted and failed, and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
See bench/README.md for the workloads, the metrics and their bounds.
"""

from time import perf_counter

PROCESS_START = perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("offline_pipeline", "hri_session", "convert_stream")
RUNS_DIR = Path(".bench_runs")
TRACES_DIR = Path(".bench_traces")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="nominal length of the measured phase; sets how many rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import gaze6d from the checkout's src/, and only from there."""
    src = Path("src").resolve()
    if not (src / "gaze6d" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {src / 'gaze6d'}; run from the root of a gaze6d checkout")
    sys.path.insert(0, str(src))
    import gaze6d
    import gaze6d.cli
    if Path(gaze6d.__file__).resolve().parent != src / "gaze6d":
        sys.exit(f"bench: imported gaze6d from {gaze6d.__file__}, not from {src}")
    return gaze6d, gaze6d.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy is first imported: with OpenBLAS's
    # default two threads on the reference host, `eval` ran 2.2x slower for
    # minutes at a time whenever the second vCPU was contended (README, Host).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    g6, cli = import_program()

    import numpy as np

    import plan
    import scenarios
    from measure import HostClock, percentile
    from tracing import Tracer

    clock = HostClock()
    clock.start()

    root = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    try:
        rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
        screen, screen_path = plan.write_screen(rng, root)
        base_params = plan.train_base_model(g6, rng, root)
        setup = clock.interval((PROCESS_START, 0.0))

        tracer = Tracer(enabled=bool(args.trace))
        tally = scenarios.Tally()
        ctx = scenarios.Context(g6=g6, cli=cli, tracer=tracer, root=root,
                                screen_path=screen_path, screen=screen,
                                base_params=base_params, rng=rng, tally=tally, clock=clock)
        ref_ms = []
        if args.trace:
            ref_ms += plan.ref_loop_ms()
            tracer.install(g6)
        t0 = perf_counter()
        try:
            walls = plan.run(ctx, args.workload, args.seconds)
        finally:
            tracer.uninstall()
            clock.stop()
        measured_s = perf_counter() - t0
        scenarios.check_sessions_improve(tally)

        if args.trace:
            ref_ms += plan.ref_loop_ms()
            summary = tracer.summary()
            metrics = plan.layer_metrics(tracer, summary, statistics.median(ref_ms))
            plan.check_counts(summary, tally)
            TRACES_DIR.mkdir(exist_ok=True)
            tracer.write(TRACES_DIR / f"{args.workload}-seed{args.seed}.json")
        else:
            ref_s = clock.reference_s
            calib_ms = [ref_s(iv) * 1e3 for iv in tally.calibrations]
            track_us = [ref_s(iv) * 1e6 for iv in tally.frames]
            metrics = {
                "setup_s": (ref_s(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "pipeline_s": (statistics.median(sum(map(ref_s, r)) for r in tally.rounds), "s"),
                "gen_frames_per_s": (tally.rate(clock, "gen"), "frames/s"),
                "train_samples_per_s": (tally.rate(clock, "train"), "samples/s"),
                "eval_rows_per_s": (tally.rate(clock, "eval"), "rows/s"),
                "calib_ms_p50": (percentile(calib_ms, 50), "ms"),
                "track_us_p50": (percentile(track_us, 50), "us"),
                "track_us_p99": (percentile(track_us, 99), "us"),
                "pogz2pog_records_per_s": (tally.rate(clock, "pogz2pog"), "records/s"),
                "pog2pogz_records_per_s": (tally.rate(clock, "pog2pogz"), "records/s"),
            }
    finally:
        clock.stop()
        shutil.rmtree(root, ignore_errors=True)

    for (scenario, size), (rounds, wall) in walls.items():
        print(f"bench: {rounds} {scenario} rounds of {size}: {wall / rounds:.3f} s each",
              file=sys.stderr)
    for problem in tally.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: set-up {setup[2]:.2f} s, measured phase "
          f"{measured_s:.2f} s, {tally.attempted} operations, {len(tracer)} spans; host slowness "
          f"median {statistics.median(clock.slowness):.3f} over {len(clock.slowness)} speed samples",
          file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
