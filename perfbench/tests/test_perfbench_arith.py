"""The benchmark's own arithmetic: the tail rule, host adjustment,
failed-ratio base counts, the probe clock and exclusive sections."""

import statistics

import time

import pytest

from arith import (
    HostScale,
    adjust_time,
    failed_ratio,
    highest_resolved_percentile,
    tail_beyond,
)


def test_tail_rule_needs_ten_samples_beyond():
    assert highest_resolved_percentile(100) == pytest.approx(90.0)
    assert highest_resolved_percentile(1000) == pytest.approx(99.0)
    assert highest_resolved_percentile(200) == pytest.approx(95.0)
    assert highest_resolved_percentile(10) is None
    assert highest_resolved_percentile(11) == pytest.approx(100.0 / 11)


def test_p90_of_100_samples_has_exactly_ten_beyond():
    xs = list(range(1, 101))
    assert tail_beyond(xs, 90) == 10
    # with fewer samples the same percentile is under-sampled
    assert tail_beyond(list(range(1, 15)), 90) < 10


def test_host_adjustment_known_values():
    # host 25% slower than the reference (probe 10 ms vs 8 ms)
    assert adjust_time(500.0, probe_ms=10.0, reference_ms=8.0) == pytest.approx(400.0)
    # host 20% faster
    assert adjust_time(1.2, probe_ms=6.4, reference_ms=8.0) == pytest.approx(1.5)
    # at reference speed nothing changes
    assert adjust_time(3.0, 8.0, 8.0) == 3.0


def test_host_adjustment_cancels_a_uniform_slowdown():
    op_ms, probe_ms = 40.0, 8.0
    for slowdown in (0.8, 1.0, 1.3, 2.0):
        assert adjust_time(op_ms * slowdown, probe_ms * slowdown, 8.0) == pytest.approx(op_ms)


def test_host_adjustment_rejects_non_positive_probe():
    with pytest.raises(ValueError):
        adjust_time(1.0, 0.0, 8.0)
    with pytest.raises(ValueError):
        adjust_time(1.0, 8.0, -1.0)


def test_host_scale_piecewise_known_values():
    # probe at the reference at t=0, twice as slow at t=10:
    # factor 1 before t=0, 0.75 between the marks, 0.5 after t=10
    scale = HostScale([(0.0, 0.008), (10.0, 0.016)], reference_ms=8.0)
    assert scale.interval(0.0, 10.0) == pytest.approx(7.5)
    assert scale.interval(-5.0, 0.0) == pytest.approx(5.0)
    assert scale.interval(10.0, 12.0) == pytest.approx(1.0)
    assert scale.interval(-1.0, 11.0) == pytest.approx(1.0 + 7.5 + 0.5)
    assert scale.interval(2.0, 2.0) == 0.0


def test_host_scale_cancels_a_uniform_slowdown():
    marks = [(float(t), 0.012) for t in range(0, 20, 2)]
    scale = HostScale(marks, reference_ms=8.0)
    # 1.5x slower host: 15 s of wall time is 10 s at reference speed
    assert scale.interval(1.0, 16.0) == pytest.approx(10.0)
    same = HostScale(marks, reference_ms=12.0)
    assert same.interval(3.0, 7.5) == pytest.approx(4.5)


def test_host_scale_rejects_bad_input():
    with pytest.raises(ValueError):
        HostScale([], 8.0)
    with pytest.raises(ValueError):
        HostScale([(1.0, 0.008), (0.0, 0.008)], 8.0)
    with pytest.raises(ValueError):
        HostScale([(0.0, 0.008)], 8.0).interval(2.0, 1.0)


def test_failed_ratio_base_counts():
    assert failed_ratio(0, 288) == 0.0
    assert failed_ratio(3, 12) == 0.25
    assert failed_ratio(7, 7) == 1.0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_ratio(5, 4)
    with pytest.raises(ValueError):
        failed_ratio(-1, 4)


def test_probe_clock_excludes_probe_time():
    from hostprobe import HostProbe

    probe = HostProbe()
    mark = probe.mark()
    t0 = probe.now()
    probe.run(3)
    elapsed = probe.now() - t0
    assert probe.mark() - mark == 3
    assert len(probe.marks) == 1
    when, mean_s = probe.marks[0]
    assert t0 <= when <= probe.now()
    assert mean_s == pytest.approx(statistics.fmean(probe.samples_s[mark:]))
    spent = sum(probe.samples_s[mark:])
    assert spent > 0
    assert elapsed < 0.1 * spent + 1e-3
    assert probe.median_ms(mark) == pytest.approx(
        statistics.median(probe.samples_s[mark:]) * 1e3
    )
    with pytest.raises(ValueError):
        probe.median_ms(probe.mark())


def test_sections_are_exclusive_and_sum_to_the_outer_wall():
    from common import Sections

    sections = Sections()
    t0 = time.perf_counter()
    with sections("outer"):
        time.sleep(0.02)
        with sections("inner"):
            time.sleep(0.03)
        with sections("inner"):
            time.sleep(0.01)
    wall = time.perf_counter() - t0
    assert sections.calls == {"outer": 1, "inner": 2}
    assert sections.seconds["inner"] >= 0.04
    assert sections.seconds["outer"] >= 0.02
    assert sum(sections.seconds.values()) == pytest.approx(wall, abs=2e-3)
