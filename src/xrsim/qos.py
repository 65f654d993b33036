"""PDU-set QoS: flow queues, discard rules, metadata, UE assistance info."""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

from .traffic import Pdu, PduSet


class MappingConfig(Enum):
    ONE_ONE_ONE = "1:1:1"
    N_ONE_ONE = "N:1:1"
    N_N_ONE = "N:N:1"


@dataclass(frozen=True)
class QosFlowProfile:
    psdb_ms: float
    pser: float = 1e-2
    psihi: bool = True
    psi_levels: tuple[int, ...] = (0, 1)
    discard_timer_ms: Optional[float] = None  # None disables timer discard

    def __post_init__(self):
        if self.psdb_ms <= 0:
            raise ValueError("psdb must be positive")
        if not 0 <= self.pser <= 1:
            raise ValueError("pser is a fraction")


@dataclass(frozen=True)
class UaiMessage:
    flow_id: int
    expected_arrival_us: Fraction
    periodicity_us: Fraction
    jitter_bounds_us: tuple[float, float]
    psi_levels: tuple[int, ...]
    prohibit_timer_ms: float


@dataclass(frozen=True)
class DiscardEvent:
    time_us: float
    ue_id: int
    set_id: tuple
    cause: str  # harq | psihi | psi | timer
    pdu_ids: tuple


class Segment:
    """The span of one PDU set that one transport block carries.

    ``start`` is the span's first byte within the set, ``byte_size`` its
    length and ``completed`` the number of PDUs whose last byte it carries.
    """

    __slots__ = ("pdu_set", "start", "byte_size", "completed")

    def __init__(self, pdu_set: PduSet, start: int, byte_size: int,
                 completed: int):
        self.pdu_set = pdu_set
        self.start = start
        self.byte_size = byte_size
        self.completed = completed

    @property
    def completes_pdu(self) -> bool:
        return self.completed > 0

    @property
    def first_pdu_index(self) -> int:
        return bisect_right(self.pdu_set.ends, self.start)

    @property
    def pdu(self) -> Pdu:
        """The first PDU the span touches, built on demand."""
        return self.pdu_set.pdus[self.first_pdu_index]


class QueuedSet:
    """A PDU set in a flow queue and how many of its bytes MAC has taken."""

    __slots__ = ("pdu_set", "taken")

    def __init__(self, pdu_set: PduSet):
        self.pdu_set = pdu_set
        self.taken = 0

    @property
    def remaining(self) -> int:
        return self.pdu_set.total_bytes - self.taken

    def queued_pdu_ids(self) -> list:
        """Ids of the PDUs not yet fully taken, in order."""
        s = self.pdu_set
        return [s.id + (i,)
                for i in range(bisect_right(s.ends, self.taken), len(s.ends))]


class FlowQueue:
    """FIFO byte queue of PDU sets with discard machinery."""

    def __init__(self, profile: QosFlowProfile,
                 mapping: MappingConfig = MappingConfig.ONE_ONE_ONE,
                 ue_id: int = 0):
        self.profile = profile
        self.mapping = mapping
        self.ue_id = ue_id
        self.entries: deque[QueuedSet] = deque()
        self._queued_bytes = 0
        self.total_sets = 0
        self.lost_sets: set = set()
        self.events: list[DiscardEvent] = []
        self._logged_sets: set = set()

    @property
    def sets_visible(self) -> bool:
        return self.mapping is not MappingConfig.N_N_ONE

    def enqueue_set(self, pdu_set: PduSet):
        self.total_sets += 1
        self.entries.append(QueuedSet(pdu_set))
        self._queued_bytes += pdu_set.total_bytes

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def hol_age_us(self, now) -> float:
        if not self.entries:
            return 0.0
        return float(now - self.entries[0].pdu_set.arrival_time)

    def take(self, max_bytes: int, _now=None) -> list[Segment]:
        """Remove up to max_bytes from the head for one transport block."""
        out = []
        budget = max_bytes
        entries = self.entries
        while budget > 0 and entries:
            entry = entries[0]
            s = entry.pdu_set
            start = entry.taken
            ends = s.ends
            chunk = s.total_bytes - start
            if chunk <= budget:
                entries.popleft()
                completed = len(ends) - bisect_right(ends, start)
            else:
                chunk = budget
                completed = (bisect_right(ends, start + chunk)
                             - bisect_right(ends, start))
            entry.taken = start + chunk
            budget -= chunk
            out.append(Segment(s, start, chunk, completed))
        self._queued_bytes -= max_bytes - budget
        return out

    def _log(self, now, set_id, cause, pdu_ids=()):
        self.events.append(DiscardEvent(float(now), self.ue_id, set_id, cause,
                                        tuple(pdu_ids)))
        self._logged_sets.add(set_id)

    def _remove_set(self, set_id, now, cause) -> list:
        removed = []
        entry = next((e for e in self.entries if e.pdu_set.id == set_id), None)
        if entry is not None:
            self.entries.remove(entry)
            self._queued_bytes -= entry.remaining
            removed = entry.queued_pdu_ids()
        self._log(now, set_id, cause, removed)
        return removed

    def mark_set_lost(self, set_id, now, cause: str) -> list:
        """Count the set for PSER and, under PSIHI, flush its queued PDUs."""
        self.lost_sets.add(set_id)
        removed = []
        if self.profile.psihi:
            removed = self._remove_set(set_id, now,
                                       "psihi" if cause != "timer" else cause)
        if set_id not in self._logged_sets:
            self._log(now, set_id, cause)
        return removed

    def _harq_loss(self, set_id, pdu_id, now) -> list:
        self._log(now, set_id, "harq", (pdu_id,))
        return self.mark_set_lost(set_id, now, "harq")

    def on_pdu_lost(self, pdu: Pdu, now) -> list:
        return self._harq_loss(pdu.pdu_set_id, pdu.id, now)

    def on_block_lost(self, segments: Iterable[Segment], now) -> list:
        """HARQ gave up on a transport block: every set it carried is lost."""
        removed = []
        for seg in segments:
            s = seg.pdu_set
            if s.id not in self.lost_sets:
                removed += self._harq_loss(
                    s.id, s.id + (seg.first_pdu_index,), now)
        return removed

    def discard_expired(self, now) -> list:
        if self.profile.discard_timer_ms is None:
            return []
        limit = self.profile.discard_timer_ms * 1000.0
        expired = [e.pdu_set.id for e in self.entries
                   if float(now - e.pdu_set.arrival_time) > limit]
        removed = []
        for sid in expired:
            self.lost_sets.add(sid)
            removed.extend(self._remove_set(sid, now, "timer"))
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
            self.lost_sets.add(victim)
            self._remove_set(victim, now, "psi")
            dropped.append(victim)
        return dropped

    def _congested(self, now, service_rate_bps: float) -> bool:
        if not self.entries:
            return False
        drain_us = self.queued_bytes * 8.0 / service_rate_bps * 1e6
        projected = self.hol_age_us(now) + drain_us
        return projected > 0.8 * self.profile.psdb_ms * 1000.0

    def _lowest_unstarted_set(self):
        top = max(self.profile.psi_levels)
        best = None
        for e in self.entries:
            s = e.pdu_set
            if s.psi >= top or e.taken > 0:
                continue
            if best is None or s.psi < best.psi:
                best = s
        return None if best is None else best.id

    def pser(self) -> float:
        if self.total_sets == 0:
            return 0.0
        return len(self.lost_sets) / self.total_sets

    def recount_pser_from_log(self) -> float:
        """Independent tally over the event log; must agree with pser()."""
        if self.total_sets == 0:
            return 0.0
        return len({ev.set_id for ev in self.events}) / self.total_sets


def psihi_discard(queue: FlowQueue, lost_pdu: Pdu, now=0) -> list:
    return queue.on_pdu_lost(lost_pdu, now)


def psi_discard(queue: FlowQueue, now, service_rate_bps: float) -> list:
    return queue.psi_discard(now, service_rate_bps)


def discard_expired(queue: FlowQueue, now) -> list:
    return queue.discard_expired(now)


@dataclass(frozen=True)
class AnnotatedPdu:
    pdu: Pdu
    set_id: tuple
    set_bytes: int
    psi: int
    is_last_of_set: bool
    is_end_of_burst: bool
    set_visible: bool


def annotate_metadata(pdu_sets: Iterable[PduSet],
                      mapping: MappingConfig) -> list[AnnotatedPdu]:
    """Expose the per-PDU header fields the RAN would read off GTP-U."""
    visible = mapping is not MappingConfig.N_N_ONE
    out = []
    for s in pdu_sets:
        total = s.total_bytes
        for p in s.pdus:
            out.append(AnnotatedPdu(p, s.id, total, s.psi,
                                    p.is_last_of_set, p.is_end_of_burst, visible))
    return out


class UaiState:
    def __init__(self, flow_id: int, prohibit_timer_ms: float = 100.0):
        self.flow_id = flow_id
        self.prohibit_timer_ms = prohibit_timer_ms
        self.last_emit_us: Optional[float] = None


def build_uai(state: UaiState, arrival_times: list, psi_levels: tuple,
              now) -> Optional[UaiMessage]:
    """Summarize observed UL arrivals, rate-limited by the prohibit timer."""
    if len(arrival_times) < 2:
        return None
    if state.last_emit_us is not None and \
            float(now) - state.last_emit_us < state.prohibit_timer_ms * 1000.0:
        return None
    diffs = [b - a for a, b in zip(arrival_times, arrival_times[1:])]
    period = sum(diffs, Fraction(0)) / len(diffs)
    grid0 = arrival_times[-1] - (len(arrival_times) - 1) * period
    dev = [float(t - (grid0 + k * period)) for k, t in enumerate(arrival_times)]
    msg = UaiMessage(state.flow_id, arrival_times[-1] + period, period,
                     (min(dev), max(dev)), tuple(sorted(set(psi_levels))),
                     state.prohibit_timer_ms)
    state.last_emit_us = float(now)
    return msg
