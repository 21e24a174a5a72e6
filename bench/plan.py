"""Workload plans, set-up, and the per-layer metrics of a traced run.

Each workload runs its own scenario for most of the measured phase and a
fixed number of probe rounds of each other scenario, spread evenly through
it, so every run reports every end-to-end metric.  The number of focus
rounds is a fixed function of --seconds (the nominal round times below were
measured on a 2-vCPU VM with Python 3.11 and numpy 2.4), not of the clock,
so runs of one workload always attempt the same operations.
"""

from __future__ import annotations

import json
import time

import numpy as np

import oracle
import scenarios
from scenarios import PipelineSize, SessionSize

PIPELINE = PipelineSize(subjects=6, train_frames=300, eval_frames=150, calib_frames=50, epochs=120)
PIPELINE_PROBE = PipelineSize(subjects=4, train_frames=250, eval_frames=100, calib_frames=50, epochs=120)
SESSION = SessionSize(calib_frames=50, track_frames=400)
STREAM_RECORDS = 4000
STREAM_PROBE_RECORDS = 1000
# base model for the sessions, trained in set-up on subjects of its own
BASE_SUBJECTS, BASE_FRAMES, BASE_EPOCHS = 6, 300, 60

# (scenario, size) -> nominal seconds per round, as measured on the
# reference host at its usual speed (median slowness about 1.8)
NOMINAL_S = {
    ("pipeline", PIPELINE): 5.1,
    ("pipeline", PIPELINE_PROBE): 2.6,
    ("session", SESSION): 0.38,
    ("stream", STREAM_RECORDS): 1.2,
    ("stream", STREAM_PROBE_RECORDS): 0.32,
}

# Probes, as (scenario, size, rounds).  Twenty sessions track 8000 frames, so
# their p99 has eighty samples beyond it.
PIPELINE_PROBES = ("pipeline", PIPELINE_PROBE, 4)
SESSION_PROBES = ("session", SESSION, 20)
STREAM_PROBES = ("stream", STREAM_PROBE_RECORDS, 10)

# workload -> (focus scenario and size, minimum focus rounds, probes)
PLANS = {
    "offline_pipeline": (("pipeline", PIPELINE), 1, [SESSION_PROBES, STREAM_PROBES]),
    "hri_session": (("session", SESSION), 10, [PIPELINE_PROBES, STREAM_PROBES]),
    "convert_stream": (("stream", STREAM_RECORDS), 1, [PIPELINE_PROBES, SESSION_PROBES]),
}

ROUND = {
    "pipeline": scenarios.pipeline_round,
    "session": scenarios.session_round,
    "stream": scenarios.stream_round,
}


def schedule(workload: str, seconds: float) -> list:
    """[(scenario, size)] in run order.

    The focus rounds fill what the probes leave of `seconds`.  Each probe
    scenario is spread evenly through the run, so that host speed drift
    during the run weighs on probe and focus metrics alike.
    """
    focus, min_rounds, probes = PLANS[workload]
    left = seconds - sum(NOMINAL_S[(s, size)] * n for s, size, n in probes)
    rounds = max(min_rounds, round(left / NOMINAL_S[focus]))
    placed = [((i + 0.5) / rounds, 0, focus) for i in range(rounds)]
    for rank, (scenario, size, n) in enumerate(probes, start=1):
        placed += [((i + 0.5) / n, rank, (scenario, size)) for i in range(n)]
    return [item for _, _, item in sorted(placed, key=lambda p: p[:2])]


def run(ctx: scenarios.Context, workload: str, seconds: float) -> dict:
    """Run the schedule; returns {(scenario, size): [rounds, wall seconds]}."""
    walls = {}
    for k, (scenario, size) in enumerate(schedule(workload, seconds)):
        t0 = time.perf_counter()
        ROUND[scenario](ctx, size, f"{scenario}{k}")
        wall = walls.setdefault((scenario, size), [0, 0.0])
        wall[0] += 1
        wall[1] += time.perf_counter() - t0
    return walls


def write_screen(rng: np.random.Generator, root):
    """A camera-to-screen transform: the screen tilted about an axis near x
    and set below the camera, drawn from the workload seed."""
    axis = np.array([1.0, rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)])
    axis /= np.linalg.norm(axis)
    half = 0.5 * rng.uniform(0.15, 0.5)
    screen = oracle.Rigid(np.concatenate([[np.cos(half)], np.sin(half) * axis]),
                          [rng.uniform(-60, 60), rng.uniform(150, 260), rng.uniform(-40, 40)])
    path = root / "screen.json"
    with open(path, "w") as f:
        json.dump({"R": screen.matrix().reshape(9).tolist(), "t": screen.t.tolist()}, f)
    return screen, path


def train_base_model(g6, rng: np.random.Generator, root):
    seeds = [int(s) for s in rng.integers(2**31 - 1, size=3)]
    subjects = g6.make_subjects(BASE_SUBJECTS, seeds[0])
    path = root / "base.jsonl"
    g6.generate_dataset(g6.SceneConfig(seed=seeds[1]), subjects, BASE_FRAMES, "general", path)
    params, _ = g6.train(g6.TrainConfig(epochs=BASE_EPOCHS, seed=seeds[2]), g6.load_dataset(path))
    return params


def ref_loop_ms(repeats: int = 3) -> list:
    """A fixed pure-Python loop, timed to tell host drift from a regression."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        out.append((time.perf_counter() - t0) * 1e3)
    return out


# traced layers reported with both their call count and their self time
CALLS_AND_SELF = [
    "camera.backproject", "easy_norm.norm_rotation", "easy_norm.to_matrix",
    "easy_norm.Rotation3", "pogz.pogz_from_ray", "pogz.pogz_to_pog", "pogz.pog_to_pogz",
    "calibration.derive_calibration_label", "synth.sample_frame", "model.backward",
    "model.Adam.step", "model.forward", "model.predict_6dof",
]
SELF_ONLY = [
    "calibration.write_calibration_set", "synth.generate_dataset", "synth.load_dataset",
    "synth.calibration_view", "model.Batch.from_samples", "model.train", "model.fine_tune",
    "model.save_params", "model.load_params", "metrics.evaluate",
]
CLI_STAGES = ["gen", "train", "finetune", "eval", "convert"]


def layer_metrics(tracer, s: dict, ref_ms: float) -> dict:
    """Per-layer metrics from a traced run's summary (see Tracer.summary)."""

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    out["pogz.RigidTransform.inverse.calls"] = (get("pogz.RigidTransform.inverse", "calls"), "count")
    frames = get("synth.sample_frame", "calls")
    placements = tracer.child_calls("synth.sample_frame", "easy_norm.norm_rotation")
    out["synth.sample_frame.placements_per_frame"] = (placements / frames if frames else 0.0,
                                                      "placements/frame")
    out["synth.load_dataset.rows"] = (get("synth.load_dataset", "rows"), "count")
    calls = get("model.backward", "calls")
    out["model.backward.rows_per_call"] = (get("model.backward", "rows") / calls if calls else 0.0,
                                           "rows/call")
    for stage in CLI_STAGES:
        out[f"cli.{stage}.s"] = (get(f"cli.{stage}", "total_s"), "s")
    out["host.ref_loop_ms"] = (ref_ms, "ms")
    return out


def check_counts(s: dict, tally: scenarios.Tally) -> None:
    """Traced call counts against the totals worked out from the plan."""

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    for name, want in (("synth.sample_frame", tally.expect_frames),
                       ("model.backward", tally.expect_steps),
                       ("model.Adam.step", tally.expect_steps),
                       ("model.predict_6dof", tally.expect_tracked),
                       ("pogz.pog_to_pogz", tally.records["pog2pogz"])):
        if calls(name) != want:
            tally.problem(f"traced {name} calls {calls(name)}, expected {want}")
