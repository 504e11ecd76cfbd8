"""Host speed rescaling: the sampler collects samples, and times scale with them."""

import time

import pytest

import child
import run


def test_sampler_collects_samples_while_the_main_thread_works():
    sampler = child.SpeedSampler()
    sampler.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        sum(range(1000))
    sampler.stop()
    assert len(sampler.samples) >= 5
    assert 0 < sampler.median_s() < 0.1
    sampler.stop()  # stopping twice is harmless


def test_a_sampler_never_started_has_no_median():
    sampler = child.SpeedSampler()
    sampler.stop()
    assert sampler.median_s() is None


def repetition(wall, speed, request_s):
    return {
        "wall_s": wall,
        "cpu_s": wall,
        "peak_rss_mb": 25.0,
        "speed_s": speed,
        "speed_samples": 100,
        "scale": run.SPEED_REF_S / speed,
        "ops": [{"seconds": s} for s in request_s],
    }


def test_a_host_twice_as_slow_reports_the_same_times():
    fast = repetition(6.0, run.SPEED_REF_S, [0.01, 0.02, 0.03])
    slow = repetition(12.0, 2 * run.SPEED_REF_S, [0.02, 0.04, 0.06])
    values = [run.end_to_end([r], [0.1])[0] for r in (fast, slow)]
    for name in ("wall_s", "cpu_s", "op_p50_ms", "op_p90_ms"):
        assert values[0][name] == pytest.approx(values[1][name])
    assert values[0]["wall_s"] == pytest.approx(6.0)
    assert values[0]["op_p50_ms"] == pytest.approx(20.0)
    assert values[1]["setup_s"] == 0.1
