"""tools/bench_compare.py's pure parts on fixed numbers: seeds, pairing,
quartiles, the slowness line, each verdict, the per-metric summary and the
traced runs' non-time differences.  No benchmark runs here."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
bc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bc)


def test_seeds_are_an_inclusive_range_or_one_seed():
    assert bc.parse_seeds("101-105") == [101, 102, 103, 104, 105]
    assert bc.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bc.parse_seeds("9-3")


def test_the_side_that_runs_first_alternates():
    assert [bc.pair_order(i) for i in range(4)] == [("base", "head"), ("head", "base")] * 2


def test_the_slowness_is_read_from_run_py_s_last_summary_line():
    stderr = ("bench: 10 session rounds of ...: 0.4 s each\n"
              "bench: hri_session seed 3: set-up 5.21 s, measured phase 31.02 s, 8421 operations, 0 spans; "
              "host slowness median 1.234 over 612 speed samples\n")
    assert bc.parse_slowness(stderr) == 1.234
    assert bc.parse_slowness("no summary\n") is None


def test_quartiles_are_statistics_quantiles_and_one_value_is_all_three():
    assert bc.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert bc.quartiles([2.0]) == (2.0, 2.0, 2.0)


BASE = [42.0, 41.0, 43.0, 42.5, 41.5, 42.2, 41.8, 42.8, 41.2, 42.4]


def test_a_lower_is_better_gain_in_every_pair_beyond_the_base_iqr_is_a_claim():
    head = [b * 0.9 for b in BASE]
    m = bc.compare(BASE, head, "lower", 0.25)
    assert m["pairs_won"] == 10 and m["claim_holds"] and m["verdict"] == "better"
    assert m["ratio"] == pytest.approx(0.9)
    assert (m["base_q1"], m["base_median"], m["base_q3"]) == bc.quartiles(BASE)
    assert m["base"] == BASE and m["head"] == head and not m["unresolved"]


def test_nine_of_ten_pairs_still_claim_and_eight_do_not():
    head = [b * 0.9 for b in BASE]
    nine, eight = list(head), list(head)
    nine[0] = BASE[0] + 1.0
    eight[0], eight[1] = BASE[0] + 1.0, BASE[1] + 1.0
    assert bc.compare(BASE, nine, "lower", 0.25)["claim_holds"]
    m = bc.compare(BASE, eight, "lower", 0.25)
    assert m["pairs_won"] == 8 and not m["claim_holds"] and m["verdict"] == "within bound"


def test_a_gain_inside_the_base_iqr_or_on_too_few_pairs_is_no_claim():
    head = [b - 0.1 for b in BASE]   # wins every pair, by less than the IQR
    assert not bc.compare(BASE, head, "lower", 0.25)["claim_holds"]
    five = BASE[:5]
    assert not bc.compare(five, [b * 0.5 for b in five], "lower", 0.25)["claim_holds"]


def test_a_higher_is_better_metric_is_worse_past_its_bound():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    m = bc.compare(base, [b * 0.7 for b in base], "higher", 0.25)
    assert m["pairs_won"] == 0 and m["verdict"] == "worse"
    m = bc.compare(base, [b * 1.1 for b in base], "higher", 0.25)
    assert m["pairs_won"] == 5 and m["verdict"] == "within bound"


def test_a_side_whose_range_exceeds_the_bound_leaves_unchanged_unresolved():
    base = [100.0, 140.0, 100.0, 100.0, 100.0]   # range 40 % of the median
    m = bc.compare(base, [100.0] * 5, "lower", 0.25)
    assert m["base_range_rel"] == pytest.approx(0.4) and m["unresolved"] and m["verdict"] == "unresolved"
    m = bc.compare(base, [100.0] * 5, "lower", 0.5)
    assert not m["unresolved"] and m["verdict"] == "within bound"


def test_unpaired_values_are_refused():
    with pytest.raises(ValueError):
        bc.compare([1.0, 2.0], [1.0], "lower", 0.25)


def test_summarize_pairs_runs_by_pair_and_side_for_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    runs = [{"pair": p, "side": side, "metrics": {n: {"value": 10.0 + p + (side == "head")} for n in names}}
            for p in range(3) for side in ("head", "base")]
    out = bc.summarize(runs, spec)
    assert list(out) == names
    for m, declared in zip(out.values(), spec["end_to_end"]):
        assert m["base"] == [10.0, 11.0, 12.0] and m["head"] == [11.0, 12.0, 13.0]
        assert m["unit"] == declared["unit"] and m["bound"] == declared["bound"]
        assert m["pairs_won"] == (3 if declared["better"] == "higher" else 0)
    del runs[0]["metrics"]["setup_s"]
    assert "setup_s" not in bc.summarize(runs, spec)
    assert math.isnan(bc.compare([0.0], [1.0], "lower", 0.25)["ratio"])


def test_traced_runs_differ_only_in_times_or_in_the_counts_they_report():
    base = {"synth.sample_frame.calls": {"value": 1200, "unit": "count"},
            "synth.sample_frame.self_s": {"value": 0.41, "unit": "s"},
            "host.ref_loop_ms": {"value": 3.1, "unit": "ms"},
            "synth.sample_frame.placements_per_frame": {"value": 1.25, "unit": "placements/frame"},
            "model.backward.rows_per_call": {"value": 128.0, "unit": "rows/call"},
            "easy_norm.Rotation3.calls": {"value": 900, "unit": "count"}}
    head = {name: dict(m) for name, m in base.items()}
    head["synth.sample_frame.self_s"]["value"] = 0.33   # times may differ
    head["host.ref_loop_ms"]["value"] = 2.9
    assert bc.count_differences(base, head) == {}
    head["easy_norm.Rotation3.calls"]["value"] = 901
    head["synth.sample_frame.placements_per_frame"]["value"] = 1.2500001
    del head["model.backward.rows_per_call"]
    assert bc.count_differences(base, head) == {
        "easy_norm.Rotation3.calls": {"unit": "count", "base": 900, "head": 901},
        "model.backward.rows_per_call": {"unit": "rows/call", "base": 128.0, "head": None},
        "synth.sample_frame.placements_per_frame": {"unit": "placements/frame", "base": 1.25, "head": 1.2500001}}
