"""The benchmark's own arithmetic: percentiles, rates, host-speed scaling
and span self times."""

import sys
from pathlib import Path

import pytest

import measure
from measure import HostClock, percentile, rate, slowness
from scenarios import Tally
from tracing import Tracer, self_times


def test_median_is_nearest_rank():
    assert percentile(range(1, 101), 50) == 50
    assert percentile([3.0], 50) == 3.0


def test_tail_needs_ten_samples_beyond():
    assert percentile(range(1, 1001), 99) == 990
    assert percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError):
        percentile(range(1, 1000), 99)  # 999 samples leave 9 beyond rank 990
    with pytest.raises(ValueError):
        percentile(range(1, 101), 91)


def test_low_tail_needs_ten_samples_below():
    assert percentile(range(1, 111), 10) == 11
    with pytest.raises(ValueError):
        percentile(range(1, 101), 10)  # rank 10 has 9 samples below it


def test_rate():
    assert rate(500, 2.0) == 250.0
    with pytest.raises(ValueError):
        rate(1, 0.0)


def test_slowness_is_the_mean_ratio_to_the_nominal_times():
    nominal = [n for _, n in measure.SLICES]
    assert slowness(nominal) == pytest.approx(1.0)
    assert slowness([2 * n for n in nominal]) == pytest.approx(2.0)
    assert slowness([1 * nominal[0], 2 * nominal[1], 3 * nominal[2]]) == pytest.approx(2.0)


def test_reference_seconds_use_the_median_sample_within_one_period():
    clock = HostClock(period_s=0.05)
    clock.times = [0.0, 0.1, 0.2, 0.3, 0.4]
    clock.slowness = [1.0, 2.0, 4.0, 8.0, 16.0]
    # samples within [0.07, 0.23]: 2 and 4, median 3
    assert clock.reference_s((0.12, 0.18, 0.03)) == pytest.approx(0.01)
    # samples within [0.05, 0.35]: 2, 4 and 8, median 4
    assert clock.reference_s((0.10, 0.30, 0.2)) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        clock.reference_s((0.5, 0.6, 0.1))


def test_interval_leaves_out_sampling_time():
    clock = HostClock()
    mark = clock.mark()
    clock.sample()
    start, end, seconds = clock.interval(mark)
    assert clock.sampling_s > 0
    assert seconds == pytest.approx((end - start) - clock.sampling_s)
    assert len(clock.slowness) == 1 and clock.slowness[0] > 0


class UnitClock:
    """Reference seconds equal to the interval's own seconds."""

    @staticmethod
    def reference_s(interval):
        return interval[2]


def test_rate_is_the_median_over_samples():
    t = Tally()
    # three samples: 100 / (1 + 1), 300 / 1 and 50 / 1 work per second
    t.commands["gen"] = [[(60, (0, 1, 1.0)), (40, (1, 2, 1.0))],
                         [(300, (2, 3, 1.0))],
                         [(50, (3, 4, 1.0))]]
    assert t.rate(UnitClock, "gen") == 50.0


def test_self_time_of_nested_and_sibling_spans():
    #   0 root [0, 100]
    #   1   a  [10, 40]      2 a1 [15, 25]
    #   3   b  [50, 70]      4 b1 [65, 80], sticks out of b: clipped to [65, 70]
    parents = [-1, 0, 1, 0, 3]
    starts = [0, 10, 15, 50, 65]
    ends = [100, 40, 25, 70, 80]
    assert self_times(parents, starts, ends) == [50, 20, 10, 15, 15]


def test_self_time_counts_overlapping_children_once():
    assert self_times([-1, 0, 0], [0, 2, 4], [10, 6, 8]) == [4, 4, 4]


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import gaze6d
    from gaze6d import camera, synth

    original = camera.backproject
    tracer = Tracer()
    tracer.install(gaze6d)
    try:
        assert synth.backproject is camera.backproject is not original
        subjects = gaze6d.make_subjects(1, 0)
        for i in range(3):
            gaze6d.sample_frame(subjects[0], gaze6d.SceneConfig(), synth.frame_rng(0, 0, i))
        with tracer.paused():
            gaze6d.sample_frame(subjects[0], gaze6d.SceneConfig(), synth.frame_rng(0, 0, 3))
    finally:
        tracer.uninstall()
    assert synth.backproject is camera.backproject is original
    summary = tracer.summary()
    assert summary["synth.sample_frame"]["calls"] == 3
    assert tracer.child_calls("synth.sample_frame", "easy_norm.norm_rotation") == 3
    assert summary["easy_norm.Rotation3"]["calls"] >= 3
