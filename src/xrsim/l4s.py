"""Low-latency congestion marking and rate-adaptive sources.

A shallow per-flow queue tracks the sojourn time of each packet.  The
marking probability rises linearly between two sojourn thresholds, and
congestion-experienced marks either get applied right where the queue
drains (method 1) or downstream after a signaling delay (method 2).
Sources react to the marked fraction of each feedback interval by
multiplicative decrease / additive increase.

The cell does not run this loop: ``closed_loop_run`` is its one entry
point, and acceptance criterion 9 runs it on its own. The ramp thresholds,
the packet size and the loop step are constants.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from numpy.random import Generator

T_LOW_MS = 2.0
T_HIGH_MS = 10.0
PKT_BYTES = 1500
TICK_MS = 1.0


def marking_probability(sojourn_ms: float) -> float:
    """Linear ramp from 0 at T_LOW_MS to 1 at T_HIGH_MS, clamped outside."""
    p = (sojourn_ms - T_LOW_MS) / (T_HIGH_MS - T_LOW_MS)
    return min(1.0, max(0.0, p))


class L4sQueueState:
    """Per-flow bottleneck queue with sojourn-time tracking.

    Every packet is PKT_BYTES, so the queue holds only enqueue times; each
    flow has its own queue, so one flow's backlog cannot influence
    another's sojourn or marking.
    """

    __slots__ = ("queue",)

    def __init__(self):
        self.queue: deque = deque()

    def enqueue(self, now_ms: float) -> None:
        self.queue.append(now_ms)

    def head_sojourn_ms(self, now_ms: float) -> float:
        if not self.queue:
            return 0.0
        return now_ms - self.queue[0]

    def current_p(self, now_ms: float) -> float:
        return marking_probability(self.head_sojourn_ms(now_ms))

    def dequeue(self, now_ms: float) -> Optional[float]:
        """Pop the head packet, returning its sojourn in ms."""
        if not self.queue:
            return None
        return now_ms - self.queue.popleft()


def mark_method1(p: float, rng: Generator) -> bool:
    """Bernoulli CE mark applied at the dequeue point."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    return bool(rng.random() < p)


class Method2Marker:
    """Delayed-probability marker for a downstream marking stage.

    The queue owner publishes its marking probability as it evolves;
    the downstream stage applies whatever value was current one
    signaling delay ago.  A zero delay reproduces method 1 exactly.
    """

    def __init__(self, signaling_delay_ms: float = 0.0):
        if signaling_delay_ms < 0:
            raise ValueError("signaling_delay_ms must be >= 0")
        self.signaling_delay_ms = signaling_delay_ms
        self._history: List[Tuple[float, float]] = [(-math.inf, 0.0)]

    def publish(self, now_ms: float, p: float) -> None:
        if not 0 <= p <= 1:
            raise ValueError("p must lie in [0, 1]")
        if now_ms < self._history[-1][0]:
            raise ValueError("publish times must be non-decreasing")
        self._history.append((now_ms, p))

    def delayed_p(self, now_ms: float) -> float:
        cutoff = now_ms - self.signaling_delay_ms
        # linear scan from the tail: feedback lag spans few entries
        for t, p in reversed(self._history):
            if t <= cutoff:
                return p
        return 0.0

    def mark(self, now_ms: float, rng: Generator) -> bool:
        return mark_method1(self.delayed_p(now_ms), rng)


@dataclass
class AdaptiveSource:
    """Rate-adaptive sender driven by per-interval mark feedback."""

    rate_bps: float
    min_bps: float
    max_bps: float
    step_bps: float
    feedback_delay_ms: float = 20.0

    def __post_init__(self):
        if not 0 < self.min_bps <= self.max_bps:
            raise ValueError("need 0 < min_bps <= max_bps")
        if self.step_bps <= 0:
            raise ValueError("step_bps must be positive")
        if not self.min_bps <= self.rate_bps <= self.max_bps:
            raise ValueError("rate_bps outside [min_bps, max_bps]")

    def adapt(self, marked_fraction: float) -> float:
        """One feedback-interval rate update, clamped to [min, max]: a
        marked interval cuts the rate by half its marked fraction, and an
        unmarked one adds a step."""
        if not 0 <= marked_fraction <= 1:
            raise ValueError("marked_fraction must lie in [0, 1]")
        if marked_fraction > 0:
            rate = self.rate_bps * (1 - marked_fraction / 2)
        else:
            rate = self.rate_bps + self.step_bps
        self.rate_bps = min(self.max_bps, max(self.min_bps, rate))
        return self.rate_bps


class LoopResult(NamedTuple):
    rates_bps: List[float]  # after each feedback interval
    sojourns_ms: List[float]  # of each dequeued packet
    marked_total: int

    def p95_sojourn_ms(self) -> float:
        if not self.sojourns_ms:
            return 0.0
        ordered = sorted(self.sojourns_ms)
        rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
        return ordered[rank]


def closed_loop_run(source: AdaptiveSource, capacity_bps: float,
                    duration_ms: float, rng: Generator, method: int = 1,
                    signaling_delay_ms: float = 0.0,
                    marking_enabled: bool = True) -> LoopResult:
    """Drive one source through a constant-capacity bottleneck.

    The source emits fixed-size packets at its current rate, the queue
    drains at the link capacity, dequeued packets are CE-marked from
    the sojourn ramp, and once per feedback interval the marked
    fraction is fed back into the rate update.
    """
    if capacity_bps <= 0:
        raise ValueError("capacity_bps must be positive")
    if method not in (1, 2):
        raise ValueError("method must be 1 or 2")
    queue = L4sQueueState()
    marker = Method2Marker(signaling_delay_ms)
    rates, sojourns, marked_total = [], [], 0

    emit_carry = 0.0
    serve_carry = 0.0
    interval_marked = 0
    interval_total = 0
    next_feedback_ms = source.feedback_delay_ms

    n_ticks = int(round(duration_ms / TICK_MS))
    for tick in range(n_ticks):
        now = (tick + 1) * TICK_MS

        emit_carry += source.rate_bps * TICK_MS / 8000.0
        while emit_carry >= PKT_BYTES:
            queue.enqueue(now)
            emit_carry -= PKT_BYTES

        marker.publish(now, queue.current_p(now))

        serve_carry += capacity_bps * TICK_MS / 8000.0
        while queue.queue and serve_carry >= PKT_BYTES:
            sojourn = queue.dequeue(now)
            serve_carry -= PKT_BYTES
            sojourns.append(sojourn)
            if marking_enabled:
                if method == 1:
                    marked = mark_method1(marking_probability(sojourn), rng)
                else:
                    marked = marker.mark(now, rng)
            else:
                marked = False
            interval_total += 1
            interval_marked += int(marked)
            marked_total += int(marked)
        if not queue.queue:
            serve_carry = 0.0

        if now + 1e-9 >= next_feedback_ms:
            f = interval_marked / interval_total if interval_total else 0.0
            source.adapt(f)
            rates.append(source.rate_bps)
            interval_marked = 0
            interval_total = 0
            next_feedback_ms += source.feedback_delay_ms

    return LoopResult(rates, sojourns, marked_total)
