"""Property test: the set-granular FlowQueue against a PDU-by-PDU model.

The model keeps one entry per PDU, as a queue without set-level
bookkeeping would. Random sets with explicit PDU sizes go through random
sequences of take, HARQ loss, timer discard and PSI discard; after every
step both queues must agree on what left, what was dropped and what is
still queued.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim.qos import FlowQueue, QosFlowProfile
from xrsim.traffic import PduSet

PSDB_MS = 10.0
PSI_LEVELS = (0, 1)


class PduQueueModel:
    """FIFO of PDUs: [set_id, index, remaining, psi, arrival] each."""

    def __init__(self, psihi, timer_ms, ticks_per_us):
        self.psihi = psihi
        self.timer_ms = timer_ms
        self.tpu = ticks_per_us
        self.pdus = []
        self.total_sets = 0
        self.lost = set()
        self.taken = {}  # set_id -> bytes handed out
        self.events = []  # (set_id, cause, pdu_ids)

    def enqueue(self, sid, sizes, psi, arrival):
        self.total_sets += 1
        self.pdus += [[sid, i, b, psi, arrival] for i, b in enumerate(sizes)]

    def queued_bytes(self):
        return sum(p[2] for p in self.pdus)

    def take(self, budget):
        """Spans per set: [set_id, start, bytes, pdus completed, first pdu]."""
        spans = []
        while budget > 0 and self.pdus:
            p = self.pdus[0]
            sid = p[0]
            chunk = min(p[2], budget)
            budget -= chunk
            p[2] -= chunk
            if p[2] == 0:
                self.pdus.pop(0)
            if not spans or spans[-1][0] != sid:
                spans.append([sid, self.taken.get(sid, 0), 0, 0, p[1]])
            spans[-1][2] += chunk
            spans[-1][3] += p[2] == 0
            self.taken[sid] = self.taken.get(sid, 0) + chunk
        return [tuple(s) for s in spans]

    def _remove(self, sid, cause):
        ids = [p[0] + (p[1],) for p in self.pdus if p[0] == sid]
        self.pdus = [p for p in self.pdus if p[0] != sid]
        self.events.append((sid, cause, tuple(ids)))
        return ids

    def harq_loss(self, sid, first_pdu):
        self.events.append((sid, "harq", (sid + (first_pdu,),)))
        self.lost.add(sid)
        return self._remove(sid, "psihi") if self.psihi else []

    def block_lost(self, spans):
        removed = []
        for sid, _, _, _, first_pdu in spans:
            if sid not in self.lost:
                removed += self.harq_loss(sid, first_pdu)
        return removed

    def discard_expired(self, now):
        if self.timer_ms is None:
            return []
        expired = []
        for p in self.pdus:
            if float((now - p[4]) / self.tpu) > self.timer_ms * 1000.0 \
                    and p[0] not in expired:
                expired.append(p[0])
        removed = []
        for sid in expired:
            self.lost.add(sid)
            removed += self._remove(sid, "timer")
        return removed

    def psi_discard(self, now, rate_bps):
        dropped = []
        while self.pdus:
            drain_us = self.queued_bytes() * 8.0 / rate_bps * 1e6
            if float((now - self.pdus[0][4]) / self.tpu) + drain_us \
                    <= 0.8 * PSDB_MS * 1000.0:
                break
            best = None
            for sid, _, _, psi, _ in self.pdus:
                if psi >= max(PSI_LEVELS) or self.taken.get(sid, 0) > 0:
                    continue
                if best is None or psi < best[1]:
                    best = (sid, psi)
            if best is None:
                break
            self.lost.add(best[0])
            self._remove(best[0], "psi")
            dropped.append(best[0])
        return dropped

    def pser(self):
        return len(self.lost) / self.total_sets if self.total_sets else 0.0


def spans_of(segments):
    """The model's spans of the queue's segments: the PDUs completed are
    those of the set whose last byte lies in the segment."""
    return [(g.pdu_set.id, g.start, g.byte_size,
             sum(g.start < end <= g.start + g.byte_size
                 for end in g.pdu_set.ends),
             g.first_pdu_index) for g in segments]


# multiples of 500 bytes make takes end on PDU boundaries often
pdu_size = st.one_of(st.integers(1, 3000), st.sampled_from((500, 1000, 1500)))
take_size = st.one_of(st.integers(0, 8000), st.integers(0, 16).map(
    lambda k: 500 * k))
# times in ticks: whole or not, and any age in any order, so a set queued
# behind a younger one expires first
duration = st.one_of(st.integers(0, 30_000),
                     st.fractions(0, 30_000, max_denominator=7))
new_set = st.tuples(st.just("enqueue"),
                    st.lists(pdu_size, min_size=1, max_size=6),
                    st.sampled_from(PSI_LEVELS), duration)
ops = st.lists(st.one_of(
    new_set,
    st.tuples(st.just("take"), take_size),
    st.tuples(st.just("block_lost")),
    st.tuples(st.just("timer")),
    st.tuples(st.just("psi"), st.sampled_from((1e5, 1e6, 8e6))),
    st.tuples(st.just("tick"), duration),
), min_size=10, max_size=60)
# timers whose µs are not whole ticks, nor a whole number at all
timers = st.one_of(st.sampled_from((None, 5.0, 20.0, 7.3)),
                   st.floats(0.001, 25.0))


@settings(max_examples=200)
@given(psihi=st.booleans(), timer_ms=timers, tpu=st.sampled_from((1, 3)),
       first=st.lists(new_set, min_size=1, max_size=8), steps=ops)
def test_set_queue_matches_pdu_model(psihi, timer_ms, tpu, first, steps):
    q = FlowQueue(QosFlowProfile(psdb_ms=PSDB_MS, psihi=psihi,
                                 discard_timer_ms=timer_ms),
                  ticks_per_us=tpu)
    model = PduQueueModel(psihi, timer_ms, tpu)
    now = Fraction(30_000)
    last = []  # segments of the latest take
    for n, step in enumerate(first + steps):
        op = step[0]
        if op == "enqueue":
            _, pdu_sizes, psi, age = step
            sid = (n,)
            q.enqueue_set(PduSet(sid, psi, now - age, pdu_sizes))
            model.enqueue(sid, pdu_sizes, psi, now - age)
        elif op == "take":
            last = q.take(step[1])
            assert spans_of(last) == model.take(step[1])
        elif op == "block_lost":
            assert q.on_block_lost(last, now) == \
                model.block_lost(spans_of(last))
        elif op == "timer":
            assert q.discard_expired(now) == model.discard_expired(now)
        elif op == "psi":
            assert q.psi_discard(now, step[1]) == \
                model.psi_discard(now, step[1])
        elif op == "tick":
            now += step[1]

        assert q.queued_bytes == model.queued_bytes()
        queued = list(dict.fromkeys(p[0] for p in model.pdus))
        assert [e.id for e in q.entries] == queued
        assert [e.taken for e in q.entries] == \
            [model.taken.get(sid, 0) for sid in queued]
        assert q.lost_sets == model.lost
        assert [(e.set_id, e.cause, e.pdu_ids) for e in q.events] == \
            model.events
        assert q.pser() == q.recount_pser_from_log() == model.pser()
        # no queued set can expire before the queue's bound: a set expires
        # only once its exact age is above the timer
        if timer_ms is not None and q.entries:
            earliest = min(p[4] for p in model.pdus)
            assert q.expires_at <= earliest + Fraction(timer_ms * 1000.0) * tpu
