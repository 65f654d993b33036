"""PDU-set QoS: flow queues and their discard rules."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Iterable, NamedTuple, Optional

from .engine import ConfigError
from .traffic import PduSet


def _check_time_ms(value, name: str) -> None:
    """A time in ms is a finite real above 0, and not a bool."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not 0 < value < math.inf):
        raise ConfigError("must be a finite time above 0 ms", name)


@dataclass(frozen=True)
class QosFlowProfile:
    psdb_ms: float
    psihi: bool = True
    discard_timer_ms: Optional[float] = None  # None disables timer discard

    def __post_init__(self):
        _check_time_ms(self.psdb_ms, "psdb_ms")
        if self.discard_timer_ms is not None:
            _check_time_ms(self.discard_timer_ms, "discard_timer_ms")


class DiscardEvent(NamedTuple):
    time_us: float
    set_id: tuple
    cause: str  # harq | psihi | psi | timer
    pdu_ids: tuple


class Segment:
    """The span of one PDU set that one transport block carries.

    ``start`` is the span's first byte within the set and ``byte_size``
    its length.
    """

    __slots__ = ("pdu_set", "start", "byte_size")

    def __init__(self, pdu_set: PduSet, start: int, byte_size: int):
        self.pdu_set = pdu_set
        self.start = start
        self.byte_size = byte_size

    @property
    def first_pdu_index(self) -> int:
        return bisect_right(self.pdu_set.ends, self.start)


class FlowQueue:
    """FIFO byte queue of PDU sets with discard machinery.

    Each entry is the PduSet itself, whose ``taken`` counts the bytes MAC
    has taken from it; a set is enqueued once, in one queue.

    Set times and ``now`` are in µs, or in ticks of 1/ticks_per_us µs for
    a caller on an integer clock; ages and event times come out in µs.

    ``expires_at`` is a lower bound on the time when a queued set can first
    expire under the discard timer: infinite with no timer or no set.
    """

    def __init__(self, profile: QosFlowProfile, ticks_per_us: int = 1):
        self.profile = profile
        self.ticks_per_us = ticks_per_us
        self.entries: deque[PduSet] = deque()
        self.queued_bytes = 0  # queued bytes that MAC has not taken yet
        self.total_sets = 0
        self.lost_sets: set = set()
        self.events: list[DiscardEvent] = []
        # a set expires once its age in µs, as a float, exceeds the timer;
        # that needs an age above the timer exactly, so above this floor of
        # it in ticks, whatever the type of the times
        timer = profile.discard_timer_ms
        self._timer_floor = (math.inf if timer is None else
                             math.floor(Fraction(timer * 1000.0)
                                        * ticks_per_us))
        self.expires_at = math.inf

    def enqueue_set(self, *sets: PduSet):
        """Queue the sets at the tail, in the order given."""
        self.total_sets += len(sets)
        if not self.entries:
            self.expires_at = math.inf  # no bound is left of sets gone
        self.entries.extend(sets)
        floor = self._timer_floor
        for s in sets:
            self.queued_bytes += s.total_bytes
            # arrivals need not be in queue order
            if s.arrival_time + floor < self.expires_at:
                self.expires_at = s.arrival_time + floor

    def hol_age_us(self, now) -> float:
        if not self.entries:
            return 0.0
        return float((now - self.entries[0].arrival_time)
                     / self.ticks_per_us)

    def take(self, max_bytes: int) -> list[Segment]:
        """Remove up to max_bytes from the head for one transport block."""
        out = []
        budget = max_bytes
        entries = self.entries
        while budget > 0 and entries:
            s = entries[0]
            start = s.taken
            chunk = s.total_bytes - start
            if chunk <= budget:
                entries.popleft()
            else:
                chunk = budget
            s.taken = start + chunk
            budget -= chunk
            out.append(Segment(s, start, chunk))
        self.queued_bytes -= max_bytes - budget
        return out

    def _log(self, now, set_id, cause, pdu_ids=()):
        self.events.append(DiscardEvent(float(now / self.ticks_per_us),
                                        set_id, cause, tuple(pdu_ids)))

    def _remove_set(self, s, now, cause) -> list:
        """Drop a set and log it; return its PDUs not yet fully taken."""
        removed = []
        if s.taken < s.total_bytes:  # a set taken whole has left the queue
            self.entries.remove(s)
            self.queued_bytes -= s.total_bytes - s.taken
            removed = list(s.pdus[bisect_right(s.ends, s.taken):])
        self._log(now, s.id, cause, removed)
        return removed

    def on_block_lost(self, segments: Iterable[Segment], now) -> list:
        """HARQ gave up on a transport block: every set it carried is lost,
        counted for PSER and, under PSIHI, flushed of its queued PDUs."""
        removed = []
        for seg in segments:
            s = seg.pdu_set
            if s.id not in self.lost_sets:
                self._log(now, s.id, "harq", (s.pdus[seg.first_pdu_index],))
                self.lost_sets.add(s.id)
                if self.profile.psihi:
                    removed += self._remove_set(s, now, "psihi")
        return removed

    def discard_expired(self, now) -> list:
        if now < self.expires_at:
            return []  # no queued set can have expired yet
        limit = self.profile.discard_timer_ms * 1000.0
        tpu = self.ticks_per_us
        expired = [s for s in self.entries
                   if float((now - s.arrival_time) / tpu) > limit]
        removed = []
        for s in expired:
            self.lost_sets.add(s.id)
            removed += self._remove_set(s, now, "timer")
        self.expires_at = min((s.arrival_time for s in self.entries),
                              default=math.inf) + self._timer_floor
        return removed

    def psi_discard(self, now, service_rate_bps: float) -> list:
        """Drop whole unstarted low-importance sets while congested."""
        dropped = []
        while True:
            if not self._congested(now, service_rate_bps):
                break
            victim = self._lowest_unstarted_set()
            if victim is None:
                break
            self.lost_sets.add(victim.id)
            self._remove_set(victim, now, "psi")
            dropped.append(victim.id)
        return dropped

    def _congested(self, now, service_rate_bps: float) -> bool:
        if not self.entries:
            return False
        drain_us = self.queued_bytes * 8.0 / service_rate_bps * 1e6
        projected = self.hol_age_us(now) + drain_us
        return projected > 0.8 * self.profile.psdb_ms * 1000.0

    def _lowest_unstarted_set(self):
        best = None
        for s in self.entries:
            if s.psi >= 1 or s.taken > 0:  # the top level, 1, is kept
                continue
            if best is None or s.psi < best.psi:
                best = s
        return best

    def pser(self) -> float:
        if self.total_sets == 0:
            return 0.0
        return len(self.lost_sets) / self.total_sets

    def recount_pser_from_log(self) -> float:
        """Independent tally over the event log; must agree with pser()."""
        if self.total_sets == 0:
            return 0.0
        return len({ev.set_id for ev in self.events}) / self.total_sets
