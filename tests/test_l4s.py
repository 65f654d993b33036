import numpy as np
import pytest

from xrsim.l4s import (AdaptiveSource, L4sQueueState, Method2Marker,
                       closed_loop_run, mark_method1, marking_probability)


def test_marking_probability_ramp():
    assert marking_probability(0.0) == 0.0
    assert marking_probability(2.0) == 0.0
    assert marking_probability(6.0) == pytest.approx(0.5)
    assert marking_probability(10.0) == 1.0
    assert marking_probability(25.0) == 1.0


def test_mark_method1_frequency():
    rng = np.random.default_rng(4242)
    n = 100_000
    marked = sum(mark_method1(0.3, rng) for _ in range(n))
    assert abs(marked / n - 0.3) <= 0.01


def test_mark_method1_degenerate_probabilities():
    rng = np.random.default_rng(1)
    assert not any(mark_method1(0.0, rng) for _ in range(1000))
    assert all(mark_method1(1.0, rng) for _ in range(1000))
    with pytest.raises(ValueError):
        mark_method1(1.5, rng)


def test_method2_step_change_lags_by_delay():
    marker = Method2Marker(signaling_delay_ms=10.0)
    for t in range(100):
        marker.publish(float(t), 0.0)
    marker.publish(100.0, 1.0)
    # the step published at t=100 must not be visible before t=110
    assert marker.delayed_p(109.9) == 0.0
    assert marker.delayed_p(110.0) == 1.0
    assert marker.delayed_p(200.0) == 1.0


def test_method2_zero_delay_tracks_immediately():
    marker = Method2Marker(0.0)
    marker.publish(5.0, 0.4)
    assert marker.delayed_p(5.0) == 0.4
    marker.publish(6.0, 0.9)
    assert marker.delayed_p(6.0) == 0.9


def test_methods_equal_mean_under_constant_p():
    n = 100_000
    rng1 = np.random.default_rng(33)
    f1 = sum(mark_method1(0.3, rng1) for _ in range(n)) / n
    marker = Method2Marker(signaling_delay_ms=7.0)
    marker.publish(0.0, 0.3)
    rng2 = np.random.default_rng(34)
    f2 = sum(marker.mark(50.0, rng2) for _ in range(n)) / n
    assert abs(f1 - f2) <= 0.01


def test_source_adapt_rules():
    def adapt(rate_bps, marked_fraction):
        src = AdaptiveSource(rate_bps=rate_bps, min_bps=5e6, max_bps=100e6,
                             step_bps=1e6)
        return src.adapt(marked_fraction)

    assert adapt(40e6, 0.0) == pytest.approx(41e6)
    assert adapt(40e6, 0.5) == pytest.approx(30e6)
    assert adapt(40e6, 1.0) == pytest.approx(20e6)
    # clamping at both ends
    assert adapt(99.8e6, 0.0) == 100e6
    assert adapt(5.5e6, 1.0) == 5e6
    with pytest.raises(ValueError):
        adapt(40e6, 1.2)


def test_adaptive_source_validation():
    with pytest.raises(ValueError):
        AdaptiveSource(rate_bps=1e6, min_bps=2e6, max_bps=10e6, step_bps=1e5)
    with pytest.raises(ValueError):
        AdaptiveSource(rate_bps=5e6, min_bps=2e6, max_bps=10e6, step_bps=0)
    src = AdaptiveSource(rate_bps=5e6, min_bps=2e6, max_bps=10e6, step_bps=1e6)
    assert src.adapt(0.0) == pytest.approx(6e6)
    assert src.adapt(0.5) == pytest.approx(4.5e6)


def test_flow_isolation():
    a = L4sQueueState()
    b = L4sQueueState()
    for t in range(20):
        a.enqueue(float(t))
    assert len(a.queue) == 20
    assert not b.queue
    assert b.head_sojourn_ms(100.0) == 0.0
    assert b.current_p(100.0) == 0.0
    assert a.current_p(10.0) > 0.0
    a.dequeue(10.0)
    assert len(a.queue) == 19 and not b.queue


def _run(seed, method=1, marking=True, delay=0.0, duration=4000.0):
    src = AdaptiveSource(rate_bps=30e6, min_bps=5e6, max_bps=100e6,
                         step_bps=1e6, feedback_delay_ms=20.0)
    return closed_loop_run(src, capacity_bps=50e6, duration_ms=duration,
                           rng=np.random.default_rng(seed), method=method,
                           signaling_delay_ms=delay, marking_enabled=marking)


def test_closed_loop_equilibrium_band_and_sojourn():
    res = _run(seed=9)
    tail = res.rates_bps[len(res.rates_bps) // 2:]
    mean = sum(tail) / len(tail)
    # rate oscillates in a bounded band around the bottleneck capacity
    assert 0.8 * 50e6 <= mean <= 1.1 * 50e6
    assert min(tail) >= 0.6 * 50e6
    assert max(tail) <= 1.2 * 50e6
    assert res.p95_sojourn_ms() <= 10.0


def test_closed_loop_methods_agree():
    r1 = _run(seed=11, method=1)
    r2 = _run(seed=11, method=2, delay=5.0)
    f1 = r1.marked_total / len(r1.sojourns_ms)
    f2 = r2.marked_total / len(r2.sojourns_ms)
    assert abs(f1 - f2) <= 0.02
    tail2 = r2.rates_bps[len(r2.rates_bps) // 2:]
    assert 0.8 * 50e6 <= sum(tail2) / len(tail2) <= 1.1 * 50e6


def test_rate_never_leaves_bounds():
    res = _run(seed=5)
    assert all(5e6 <= r <= 100e6 for r in res.rates_bps)
    starved = _run(seed=6, duration=1000.0)
    assert all(5e6 <= r <= 100e6 for r in starved.rates_bps)


def test_marking_bounds_p95_sojourn():
    on = _run(seed=21, duration=2000.0)
    off = _run(seed=21, marking=False, duration=2000.0)
    assert on.p95_sojourn_ms() <= off.p95_sojourn_ms()
    # without marking the source saturates and the queue keeps growing
    assert off.p95_sojourn_ms() > 10.0
