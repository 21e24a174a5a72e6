import json
import os
import re
from pathlib import Path

import pipeline_digest

GOLDEN = Path(__file__).with_name("pipeline_digest.golden")

OUTPUTS = {
    "screen.json", "scene.json", "records.jsonl", "pogz2pog.jsonl", "pog2pogz.jsonl", "predictions.jsonl",
    *(f"{d}/{f}" for d in ("gen_train", "gen_eval", "gen_calib", "gen_scene", "gen_replay")
      for f in ("config.json", "dataset.jsonl")),
    "train/config.json", "train/params.json", "train/history.csv", "folds/config.json",
    *(f"folds/fold_{k}/{f}" for k in (0, 1) for f in ("params.json", "history.csv", "report.csv")),
    "tuned/config.json", *(f"tuned/params_subject_{sid}.json" for sid in (0, 1, 2)),
    *(f"{d}/{f}" for d in ("eval_base", "eval_base_screen", "eval_tuned", "eval_tuned_screen")
      for f in ("config.json", "report.csv")),
}


def moved_files(golden: list[str], lines: list[str]) -> list[str]:
    """The files whose line differs between two listings, or that only one holds."""
    old, new = (dict(line.split(" ") for line in listing) for listing in (golden, lines))
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def test_pipeline_digest_hashes_every_output_of_the_pinned_pipeline(tmp_path, capsys):
    cwd = os.getcwd()
    assert pipeline_digest.main([str(tmp_path / "out")]) == 0
    assert os.getcwd() == cwd
    lines = capsys.readouterr().out.splitlines()
    # every output has the hash it had when the golden listing was recorded, on any machine
    text = GOLDEN.read_text().splitlines()
    recorded = [line for line in text if line.startswith("# ")]
    golden = [line for line in text if not line.startswith("# ")]
    assert lines == golden, (f"moved: {moved_files(golden, lines)}; the golden listing was recorded with "
                             f"{recorded}, this run had {pipeline_digest.header()}")
    listing = dict(line.split(" ") for line in lines)
    assert set(listing) == OUTPUTS and len(lines) == len(OUTPUTS)
    assert [line.split(" ")[0] for line in lines] == sorted(listing)
    assert all(re.fullmatch("[0-9a-f]{64}", sha) for sha in listing.values())
    # the snapshots name their inputs relative to the run root, so they match across checkouts
    snapshot = json.loads((tmp_path / "out" / "eval_tuned_screen" / "config.json").read_text())
    assert (snapshot["params"], snapshot["screen"]) == ("tuned/params_subject_0.json", "screen.json")
    # the scene that ran is the given one, with gen's seed; a replayed gen writes the same files
    snapshot = json.loads((tmp_path / "out" / "gen_scene" / "config.json").read_text())
    assert snapshot["scene"] == {**pipeline_digest.SCENE, "seed": 5}
    for name in ("config.json", "dataset.jsonl"):
        assert listing[f"gen_replay/{name}"] == listing[f"gen_train/{name}"], name
    # convert streamed an error record for each faulty line, in both directions,
    # faults on each side of two block seams included
    assert pipeline_digest.SEAM == pipeline_digest.cli.BLOCK_LINES
    for direction in ("pogz2pog", "pog2pogz"):
        records = [json.loads(line) for line in (tmp_path / "out" / f"{direction}.jsonl").read_text().splitlines()]
        assert len(records) == len(pipeline_digest.CONVERT_LINES)
        assert sum("error" in r for r in records) == 13
    # one prediction per evaluation row, each a full 6-DoF state
    predictions = [json.loads(line) for line in (tmp_path / "out" / "predictions.jsonl").read_text().splitlines()]
    assert len(predictions) == 3 * 20
    assert all(len(p["origin"]) == 3 and len(p["direction"]) == 3 and len(p["pogz"]) == 2 for p in predictions)



def test_moved_files_names_a_changed_an_added_and_a_removed_file():
    golden = ["a.json 00", "b.csv 11", "c.jsonl 22"]
    assert moved_files(golden, golden) == []
    assert moved_files(golden, ["a.json 00", "b.csv 12", "d.json 33"]) == ["b.csv", "c.jsonl", "d.json"]
