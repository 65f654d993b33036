from fractions import Fraction

import numpy as np
import pytest

from xrsim.qos import FlowQueue, QosFlowProfile
from xrsim.traffic import VideoFrame, fragment_frame, pose_source


def make_set(frame_id=0, size=7500, nsets=1, psi_pattern=(1,), arrival=0):
    """fragment_frame's sets of a frame, with the importance cycled from
    psi_pattern in place of the default pattern."""
    frame = VideoFrame(frame_id, Fraction(arrival), size)
    sets = fragment_frame(frame, sets_per_frame=nsets)
    for k, s in enumerate(sets):
        s.psi = psi_pattern[k % len(psi_pattern)]
    return sets


def fresh_queue(**profile_kw):
    kw = dict(psdb_ms=10.0, psihi=True)
    kw.update(profile_kw)
    return FlowQueue(QosFlowProfile(**kw))


def test_psihi_cascade_discards_rest_of_set():
    q = fresh_queue()
    (s,) = make_set(size=7500)  # 5 pdus of 1500
    q.enqueue_set(s)
    (seg,) = q.take(3000)  # pdus 0 and 1 leave the queue in one span
    # the PDUs whose last byte the span carries
    completed = sum(0 < end <= 3000 for end in s.ends)
    assert (seg.pdu_set, seg.start, seg.byte_size, completed) == \
        (s, 0, 3000, 2)
    dropped = q.on_block_lost([seg], 1000)
    assert dropped == [s.id + (2,), s.id + (3,), s.id + (4,)]
    assert q.queued_bytes == 0
    assert q.lost_sets == {s.id}


def test_loss_of_last_pdu_discards_nothing():
    q = fresh_queue()
    (s,) = make_set()
    q.enqueue_set(s)
    assert q.on_block_lost(q.take(10**6), 0) == []
    assert q.lost_sets == {s.id}


def test_psihi_disabled_keeps_queue():
    q = fresh_queue(psihi=False)
    (s,) = make_set()
    q.enqueue_set(s)
    assert q.on_block_lost(q.take(1500), 0) == []
    assert q.queued_bytes == 6000
    assert q.pser() == 1.0


def test_set_counted_lost_once():
    q = fresh_queue()
    (s,) = make_set()
    q.enqueue_set(s)
    first, rest = q.take(1500), q.take(10**6)  # two blocks of one set
    q.on_block_lost(first, 0)
    q.on_block_lost(rest, 5)
    assert len(q.lost_sets) == 1
    assert q.pser() == q.recount_pser_from_log() == 1.0


def test_timer_discard():
    q = fresh_queue(discard_timer_ms=30.0)
    (a,) = make_set(frame_id=0, arrival=0)
    (b,) = make_set(frame_id=1, arrival=5_000)
    q.enqueue_set(a)
    q.enqueue_set(b)
    assert q.discard_expired(29_000) == []
    gone = q.discard_expired(31_000)
    assert {pid[:2] for pid in [g[:2] for g in gone]} == {(0, 0)}
    assert q.lost_sets == {a.id}
    assert [e.id for e in q.entries] == [b.id]


def test_timer_disabled_never_discards():
    q = fresh_queue(discard_timer_ms=None)
    (s,) = make_set()
    q.enqueue_set(s)
    assert q.discard_expired(10**9) == []
    assert q.queued_bytes == 7500


def test_psi_discard_lowest_unstarted_first():
    q = fresh_queue(psdb_ms=10.0)
    sets = make_set(size=15_000, nsets=3, psi_pattern=(1, 0, 0), arrival=0)
    for s in sets:
        q.enqueue_set(s)
    # 15 kB at 8 Mbps projects a 15 ms drain, past 0.8 * 10 ms
    dropped = q.psi_discard(now=1_000, service_rate_bps=8e6)
    assert dropped
    assert dropped[0] == sets[1].id  # first low-importance set goes first
    assert sets[0].id not in dropped  # high importance survives psi discard
    assert all(e.psi == 1 or e.taken > 0 for e in q.entries)


def test_psi_discard_idle_and_all_high():
    q = fresh_queue()
    assert q.psi_discard(0, 1e6) == []
    for s in make_set(size=15_000, nsets=3, psi_pattern=(1, 1, 1)):
        q.enqueue_set(s)
    assert q.psi_discard(50_000, 1e5) == []
    assert q.queued_bytes == 15_000


def test_psi_discard_skips_started_sets():
    q = fresh_queue()
    sets = make_set(size=15_000, nsets=3, psi_pattern=(0, 0, 1))
    for s in sets:
        q.enqueue_set(s)
    q.take(100)  # first low set is in flight
    dropped = q.psi_discard(20_000, 1e6)
    assert sets[0].id not in dropped
    assert sets[1].id in dropped


def test_take_never_returns_lost_set():
    rng = np.random.default_rng(17)
    q = fresh_queue(discard_timer_ms=50.0)
    all_sets = []
    t = 0
    for f in range(300):
        sets = make_set(frame_id=f, size=int(rng.integers(1500, 20_000)),
                        nsets=int(rng.integers(1, 4)),
                        psi_pattern=(1, 0), arrival=t)
        all_sets.extend(sets)
        for s in sets:
            q.enqueue_set(s)
        for _ in range(int(rng.integers(0, 4))):
            segs = q.take(int(rng.integers(500, 6000)))
            for g in segs:
                assert g.pdu_set.id not in q.lost_sets
            if segs and rng.random() < 0.3:
                q.on_block_lost(segs[-1:], t)
        if rng.random() < 0.2:
            q.discard_expired(t)
        if rng.random() < 0.2:
            q.psi_discard(t, 2e6)
        t += 2_000
    assert q.total_sets == len(all_sets)
    assert q.pser() == q.recount_pser_from_log()
    assert len(q.lost_sets) == len({e.set_id for e in q.events})


def _pdus(s):
    """(id, is_end_of_burst) of each PDU of a set, stated from its ends: the
    last PDU ends the set, and the burst too when the set does."""
    last = len(s.ends) - 1
    return [(s.id + (i,), s.end_of_burst and i == last)
            for i in range(last + 1)]


def test_pose_pdus_are_own_bursts():
    from itertools import islice
    for s in islice(pose_source(), 5):
        # one PDU, the set's last, which ends its burst
        assert s.ends == (100,) and s.end_of_burst
        assert _pdus(s) == [(s.id + (0,), True)]


def test_eodb_partitions_stream():
    pdus = []
    for f in range(20):
        for s in make_set(frame_id=f, size=9_000, nsets=3, arrival=f * 1000):
            pdus.extend(_pdus(s))
    bursts = []
    cur = []
    for p in pdus:
        cur.append(p)
        if p[1]:
            bursts.append(cur)
            cur = []
    assert cur == []
    assert len(bursts) == 20
    assert sum(len(b) for b in bursts) == len(pdus)


def test_profile_validation():
    with pytest.raises(ValueError):
        QosFlowProfile(psdb_ms=0)
