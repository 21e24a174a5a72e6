"""The three scenarios the workloads are built from, with their checks.

* pipeline: the research workflow through `gaze6d.cli.main` -- gen (train
  set), gen (eval set), gen --mode calibration, train, finetune, and eval
  --screen once with the base params and once per subject with its tuned
  params.  The operations are the CLI commands.
* session: one new subject at a robot.  Easy-Calibration on 50
  lens-fixation frames (calibration_view, fine_tune, save_params), then
  closed-loop tracking of that subject's frames with predict_6dof, one
  frame after the other.  The operations are the sessions and the frames.
* stream: `gaze6d convert` over a file of camera-plane records, then back
  over its output.  The operations are the record conversions.

Inputs are generated before the timed calls and every output is checked
after them against `oracle`, with tracing paused, so neither the checks nor
the input generation are in a metric or in a traced count.  Every timed
call is kept as an interval of `measure.HostClock`, which turns it into
reference seconds when the run ends.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from measure import HostClock, rate

E_Z = np.array([0.0, 0.0, 1.0])
ORIGIN = np.zeros(3)

# the CLI's and TrainConfig's defaults that the expected counts depend on
VAL_FRACTION = 0.1
BATCH_SIZE = 128
FINETUNE_STEPS = 100

# sampling tolerance, in standard errors, for the attribute statistics
STAT_TOL_SE = 5.0


@dataclass(frozen=True)
class PipelineSize:
    subjects: int
    train_frames: int
    eval_frames: int
    calib_frames: int
    epochs: int

    def train_rows(self) -> int:
        return self.subjects * (self.train_frames - int(self.train_frames * VAL_FRACTION))

    def steps(self) -> int:
        """Optimizer steps: train epochs x batches, then 100 per fine-tuned subject."""
        return (self.epochs * math.ceil(self.train_rows() / BATCH_SIZE)
                + self.subjects * FINETUNE_STEPS)

    def frames(self) -> int:
        return self.subjects * (self.train_frames + self.eval_frames + self.calib_frames)


@dataclass(frozen=True)
class SessionSize:
    calib_frames: int
    track_frames: int


@dataclass
class Tally:
    """Operations, timings and expected trace counts of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # timed calls, as HostClock intervals: the commands of each pipeline
    # round; per kind of command (gen, train, eval, pogz2pog, pog2pogz), the
    # rate samples, each a group of successful commands with the work each
    # did; each session's calibration; each tracked frame
    rounds: list = field(default_factory=list)
    commands: dict = field(default_factory=lambda: defaultdict(list))
    calibrations: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    tuned_err_deg: list = field(default_factory=list)
    base_err_deg: list = field(default_factory=list)
    records: dict = field(default_factory=lambda: {"pogz2pog": 0, "pog2pogz": 0})
    # totals the traced counts must equal, worked out from the sizes alone
    expect_frames: int = 0
    expect_steps: int = 0
    expect_tracked: int = 0

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def rate(self, clock: HostClock, kind: str) -> float:
        """Median over the rate samples of the kind of their work per
        reference second."""
        return statistics.median(
            rate(sum(w for w, _ in cmds), sum(clock.reference_s(iv) for _, iv in cmds))
            for cmds in self.commands[kind])


@dataclass
class Context:
    g6: object            # the imported gaze6d package
    cli: object           # gaze6d.cli
    tracer: object
    root: Path            # run directory inside the checkout
    screen_path: Path     # camera-to-screen transform JSON
    screen: oracle.Rigid
    base_params: object   # base model for the sessions
    rng: np.random.Generator
    tally: Tally
    clock: HostClock
    floors: dict = field(default_factory=dict)  # noise sigma -> floor in degrees

    def seed(self) -> int:
        return int(self.rng.integers(2**31 - 1))


def run_cli(ctx: Context, argv) -> tuple[int, tuple]:
    """One in-process `gaze6d` command; returns (exit code, its interval)."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with ctx.tracer.span("cli." + argv[0]), redirect_stdout(out), redirect_stderr(err):
        mark = ctx.clock.mark()
        code = ctx.cli.main(argv)
        dt = ctx.clock.interval(mark)
    if code != 0:
        ctx.tally.problem(f"gaze6d {' '.join(argv)} exited {code}: {err.getvalue().strip()[:200]}")
    return code, dt


# ---------------------------------------------------------------------------
# pipeline


def pipeline_round(ctx: Context, size: PipelineSize, tag: str) -> None:
    t = ctx.tally
    d = ctx.root / tag
    train_seed, eval_seed = ctx.seed(), ctx.seed()
    S = size.subjects
    # calibration and eval share a seed: gen draws the subject table (the
    # per-subject bias) from --seed, so only a shared seed gives both sets
    # the same people.  Each command carries the work it does: frames
    # generated, samples trained on, or rows evaluated.
    eval_rows = S * size.eval_frames
    commands = [
        ("gen", S * size.train_frames,
         ["--mode", "general", "--subjects", S, "--frames", size.train_frames,
          "--seed", train_seed, "--out", d / "train"]),
        ("gen", eval_rows,
         ["--mode", "general", "--subjects", S, "--frames", size.eval_frames,
          "--seed", eval_seed, "--out", d / "eval"]),
        ("gen", S * size.calib_frames,
         ["--mode", "calibration", "--subjects", S, "--frames", size.calib_frames,
          "--seed", eval_seed, "--out", d / "cal"]),
        ("train", size.epochs * size.train_rows(),
         ["--data", d / "train" / "dataset.jsonl", "--epochs", size.epochs,
          "--seed", train_seed, "--out", d / "model"]),
        ("finetune", None,
         ["--params", d / "model" / "params.json", "--calib", d / "cal" / "dataset.jsonl",
          "--out", d / "tuned"]),
        ("eval", eval_rows,
         ["--params", d / "model" / "params.json", "--data", d / "eval" / "dataset.jsonl",
          "--screen", ctx.screen_path, "--out", d / "report_base"]),
    ] + [
        ("eval", eval_rows,
         ["--params", d / "tuned" / f"params_subject_{s}.json", "--data", d / "eval" / "dataset.jsonl",
          "--screen", ctx.screen_path, "--out", d / f"report_{s}"])
        for s in range(S)
    ]
    intervals, done = [], defaultdict(list)
    for command, work, args in commands:
        t.attempted += 1
        code, dt = run_cli(ctx, [command] + args)
        intervals.append(dt)
        if code != 0:
            t.failed += 1
        elif work is not None:
            done[command].append((work, dt))
    t.rounds.append(intervals)
    # a round's gen commands make one rate sample, as they differ in size;
    # every other command is a sample of its own
    for command, cmds in done.items():
        t.commands[command] += [cmds] if command == "gen" else [[c] for c in cmds]
    t.expect_frames += size.frames()
    t.expect_steps += size.steps()
    with ctx.tracer.paused():
        check_pipeline(ctx, size, d)


def read_jsonl(path):
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    return lines[0], lines[1:]


def read_report(path) -> dict:
    with open(path) as f:
        return {row["subject"]: row for row in csv.DictReader(f)}


def check_rows(t: Tally, label: str, header: dict, rows: list) -> None:
    """Every row's face centre projects onto its box centre, and its pogz
    is where the line (o_face, g_o) meets the plane z = 0."""
    intr = header["config"]["intrinsics"]
    o_face = np.array([r["o_face"] for r in rows])
    boxes = np.array([r["bbox"] for r in rows])
    g_o = np.array([r["g_o"] for r in rows])
    pogz = np.array([r["pogz"] for r in rows])
    px = oracle.project(o_face, intr["focal_px"], intr["cx"], intr["cy"])
    if not np.allclose(px, boxes[:, :2], rtol=0.0, atol=1e-6):
        t.problem(f"{label}: o_face projects up to {np.abs(px - boxes[:, :2]).max():.3g} px off its box centre")
    hit, _ = oracle.line_plane(o_face, oracle.gaze_vectors(g_o[:, 0], g_o[:, 1]), ORIGIN, E_Z)
    if not np.allclose(pogz, hit[:, :2], rtol=1e-9, atol=1e-6):
        t.problem(f"{label}: pogz off the oracle intersection by up to {np.abs(pogz - hit[:, :2]).max():.3g} mm")


def check_attributes(t: Tally, label: str, header: dict, rows: list, scene) -> None:
    """Means and standard deviations of the sampled attributes against the
    scene's targets, within sampling tolerance.  Head pose is observed only
    through its feature channel, which carries the subject's feature noise."""
    sigma = header["subjects"][0]["noise_sigma"]
    g_n = np.array([r["g_n"] for r in rows])
    feats = np.array([r["features"] for r in rows])
    columns = [("gaze_yaw", g_n[:, 0], scene.gaze_yaw, 0.0),
               ("gaze_pitch", g_n[:, 1], scene.gaze_pitch, 0.0),
               ("head_yaw", feats[:, 2], scene.head_yaw, sigma),
               ("head_pitch", feats[:, 3], scene.head_pitch, sigma)]
    n = len(rows)
    for name, values, dist, noise in columns:
        std = math.hypot(dist.std, noise)
        if abs(values.mean() - dist.mean) > STAT_TOL_SE * std / math.sqrt(n):
            t.problem(f"{label}: {name} mean {values.mean():.4f} vs target {dist.mean}")
        if abs(values.std() - std) > STAT_TOL_SE * std / math.sqrt(2 * n):
            t.problem(f"{label}: {name} std {values.std():.4f} vs target {std:.4f}")


def check_pipeline(ctx: Context, size: PipelineSize, d: Path) -> None:
    t = ctx.tally
    scene = ctx.g6.SceneConfig()
    sets = {}
    for name, frames in (("train", size.train_frames), ("eval", size.eval_frames),
                         ("cal", size.calib_frames)):
        path = d / name / "dataset.jsonl"
        if not path.exists():
            t.problem(f"{path} missing")
            return
        header, rows = read_jsonl(path)
        if len(rows) != size.subjects * frames:
            t.problem(f"{path}: {len(rows)} rows, expected {size.subjects * frames}")
        check_rows(t, str(path), header, rows)
        if name != "cal":
            check_attributes(t, str(path), header, rows, scene)
        sets[name] = (header, rows)

    # trained model: above the noise floor, below a constant predictor
    header, rows = sets["train"]
    history = (d / "model" / "history.csv").read_text().strip().splitlines()
    val_deg = float(history[-1].split(",")[3])
    n_val = int(size.train_frames * VAL_FRACTION)
    fit, val = [], []
    for s in range(size.subjects):
        own = [r["g_n"] for r in rows if r["subject"] == s]
        fit += own[:len(own) - n_val]
        val += own[len(own) - n_val:]
    fit, val = np.array(fit), np.array(val)
    mean_gaze = oracle.gaze_vectors(*fit.mean(axis=0))
    const_deg = oracle.angle_deg(np.broadcast_to(mean_gaze, (len(val), 3)),
                                 oracle.gaze_vectors(val[:, 0], val[:, 1])).mean()
    floor = noise_floor(ctx, header["subjects"][0]["noise_sigma"])
    if not floor < val_deg < const_deg:
        t.problem(f"{d}: final val_angular_deg {val_deg:.3f} outside "
                  f"(noise floor {floor:.3f}, constant predictor {const_deg:.3f})")

    # eval reports: row counts, and fine-tuning helps its own subjects
    base = read_report(d / "report_base" / "report.csv")
    tuned_go, base_go = [], []
    for s in range(size.subjects):
        report = read_report(d / f"report_{s}" / "report.csv")
        for rep, label in ((report, f"report_{s}"), (base, "report_base")):
            counts = {k: int(v["n"]) for k, v in rep.items()}
            want = {str(i): size.eval_frames for i in range(size.subjects)}
            want["all"] = size.subjects * size.eval_frames
            if counts != want:
                t.problem(f"{d / label}: row counts {counts}, expected {want}")
        tuned_go.append(float(report[str(s)]["go_deg_mean"]))
        base_go.append(float(base[str(s)]["go_deg_mean"]))
    if not np.mean(tuned_go) < np.mean(base_go):
        t.problem(f"{d}: finetune raised mean g_o error {np.mean(base_go):.3f} -> {np.mean(tuned_go):.3f} deg")


def noise_floor(ctx: Context, sigma: float) -> float:
    if sigma not in ctx.floors:
        scene = ctx.g6.SceneConfig()
        ctx.floors[sigma] = oracle.noise_floor_deg(
            sigma, (scene.gaze_yaw.mean, scene.gaze_yaw.std),
            (scene.gaze_pitch.mean, scene.gaze_pitch.std))
    return ctx.floors[sigma]


# ---------------------------------------------------------------------------
# session


def session_round(ctx: Context, size: SessionSize, tag: str) -> None:
    g6, t = ctx.g6, ctx.tally
    subject = g6.make_subjects(1, ctx.seed())[0]
    cal_path, track_path = ctx.root / f"{tag}_cal.jsonl", ctx.root / f"{tag}_track.jsonl"
    g6.generate_dataset(g6.SceneConfig(seed=ctx.seed()), [subject], size.calib_frames,
                        "calibration", cal_path)
    g6.generate_dataset(g6.SceneConfig(seed=ctx.seed()), [subject], size.track_frames,
                        "general", track_path)
    cal, track = g6.load_dataset(cal_path), g6.load_dataset(track_path)
    intr = cal.intrinsics
    t.expect_frames += size.calib_frames + size.track_frames
    t.expect_steps += FINETUNE_STEPS
    t.expect_tracked += size.track_frames
    t.attempted += 1 + size.track_frames

    with ctx.tracer.span("session.calibrate"):
        mark = ctx.clock.mark()
        try:
            rows = g6.calibration_view(cal.samples, intr)
            tuned = g6.fine_tune(ctx.base_params, g6.TrainConfig(), rows, intr)
            g6.save_params(tuned, ctx.root / f"{tag}_params.json")
        except (g6.GeometryError, g6.ConfigError, g6.TrainingDiverged) as exc:
            t.failed += 1 + size.track_frames
            t.problem(f"{tag}: calibration failed: {exc}")
            return
        t.calibrations.append(ctx.clock.interval(mark))

    preds, samples = [], []
    with ctx.tracer.span("session.track"):
        for s in track.samples:
            mark = ctx.clock.mark()
            try:
                pred = g6.predict_6dof(tuned, s.features, s.bbox, intr)
            except g6.GeometryError as exc:
                t.failed += 1
                t.problem(f"{tag}: predict_6dof failed: {exc}")
                continue
            t.frames.append(ctx.clock.interval(mark))
            preds.append(pred)
            samples.append(s)
    with ctx.tracer.paused():
        check_session(ctx, tag, intr, preds, samples)


def check_session(ctx: Context, tag: str, intr, preds, samples) -> None:
    g6, t = ctx.g6, ctx.tally
    if not preds:
        return
    origins = np.array([p.origin.xyz for p in preds])
    dirs = np.array([p.direction for p in preds])
    boxes = np.array([s.bbox.center for s in samples])
    px = oracle.project(origins, intr.focal_px, intr.cx, intr.cy)
    if not np.allclose(px, boxes, rtol=0.0, atol=1e-6):
        t.problem(f"{tag}: origins project up to {np.abs(px - boxes).max():.3g} px off the box centres")
    norms = np.linalg.norm(dirs, axis=1)
    if not np.allclose(norms, 1.0, rtol=0.0, atol=1e-12):
        t.problem(f"{tag}: direction norms off 1 by up to {np.abs(norms - 1).max():.3g}")
    hit, _ = oracle.line_plane(origins, dirs, ORIGIN, E_Z)
    geo = np.array([[np.nan, np.nan] if p.pogz_geometric is None
                    else [p.pogz_geometric.x, p.pogz_geometric.y] for p in preds])
    if not np.allclose(geo, hit[:, :2], rtol=1e-9, atol=1e-6):
        t.problem(f"{tag}: pogz_geometric off the oracle intersection")
    labels = np.array([s.g_o for s in samples])
    truth = oracle.gaze_vectors(labels[:, 0], labels[:, 1])
    t.tuned_err_deg.extend(oracle.angle_deg(dirs, truth))
    base = np.array([g6.forward(ctx.base_params, s.features).g_o for s in samples])
    t.base_err_deg.extend(oracle.angle_deg(oracle.gaze_vectors(base[:, 0], base[:, 1]), truth))


def check_sessions_improve(t: Tally) -> None:
    """Calibration lowers the tracked g_o error against the base params."""
    if t.tuned_err_deg and not np.mean(t.tuned_err_deg) < np.mean(t.base_err_deg):
        t.problem(f"tracked g_o error after calibration {np.mean(t.tuned_err_deg):.3f} deg "
                  f"is not below the base params' {np.mean(t.base_err_deg):.3f} deg")


# ---------------------------------------------------------------------------
# stream


def draw_records(rng: np.random.Generator, screen: oracle.Rigid, n: int, margin: float = 0.2):
    """Camera-plane points and unit gazes that keep `margin` of |z| in both frames."""
    points = rng.uniform([-300.0, -300.0], [300.0, 300.0], size=(n, 2))
    gazes = np.empty((0, 3))
    while len(gazes) < n:
        g = rng.normal(size=(2 * n, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        keep = (np.abs(g[:, 2]) >= margin) & (np.abs(screen.direction(g)[:, 2]) >= margin)
        gazes = np.concatenate([gazes, g[keep]])
    return points, gazes[:n]


def stream_round(ctx: Context, records: int, tag: str) -> None:
    t = ctx.tally
    points, gazes = draw_records(ctx.rng, ctx.screen, records)
    src, mid, back = (ctx.root / f"{tag}_{k}.jsonl" for k in ("camera", "screen", "back"))
    with open(src, "w") as f:
        for p, g in zip(points.tolist(), gazes.tolist()):
            f.write(json.dumps({"point": p, "gaze": g}) + "\n")
    for direction, a, b in (("pogz2pog", src, mid), ("pog2pogz", mid, back)):
        t.attempted += records
        code, dt = run_cli(ctx, ["convert", "--dir", direction, "--transform", ctx.screen_path,
                                 "--input", a, "--output", b])
        t.records[direction] += records
        if code != 0:
            t.failed += records
            return
        t.commands[direction].append([(records, dt)])
    with ctx.tracer.paused():
        check_stream(ctx, tag, points, gazes, mid, back)


def _read_records(t: Tally, path: Path):
    points, gazes, behind = [], [], []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "error" in rec:
                t.failed += 1
                t.problem(f"{path}: error record {rec}")
                continue
            points.append(rec["point"])
            gazes.append(rec["gaze"])
            behind.append(rec["behind"])
    return np.array(points), np.array(gazes), np.array(behind)


def check_stream(ctx: Context, tag: str, points, gazes, mid: Path, back: Path) -> None:
    t = ctx.tally
    mid_pts, mid_gaze, mid_behind = _read_records(t, mid)
    back_pts, back_gaze, _ = _read_records(t, back)
    if len(mid_pts) != len(points) or len(back_pts) != len(points):
        t.problem(f"{tag}: {len(mid_pts)} and {len(back_pts)} records out of {len(points)}")
        return
    lifted = np.concatenate([points, np.zeros((len(points), 1))], axis=1)
    direction = ctx.screen.direction(gazes)
    hit, lam = oracle.line_plane(ctx.screen.point(lifted), direction, ORIGIN, E_Z)
    if not np.allclose(mid_pts, hit[:, :2], rtol=1e-9, atol=1e-6):
        t.problem(f"{tag}: pogz2pog off the oracle by up to {np.abs(mid_pts - hit[:, :2]).max():.3g} mm")
    if not np.array_equal(mid_behind, lam < 0):
        t.problem(f"{tag}: {int(np.sum(mid_behind != (lam < 0)))} behind flags disagree with the oracle")
    if not np.allclose(mid_gaze, direction, rtol=0.0, atol=1e-12):
        t.problem(f"{tag}: pogz2pog gaze off the oracle rotation")
    if not np.allclose(back_pts, points, rtol=0.0, atol=1e-6):
        t.problem(f"{tag}: pog2pogz misses the input points by up to {np.abs(back_pts - points).max():.3g} mm")
    if not np.allclose(back_gaze, gazes, rtol=0.0, atol=1e-12):
        t.problem(f"{tag}: pog2pogz misses the input gazes by up to {np.abs(back_gaze - gazes).max():.3g}")
