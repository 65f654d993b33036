from fractions import Fraction

import numpy as np
import pytest

from xrsim.qos import (
    FlowQueue,
    MappingConfig,
    QosFlowProfile,
    UaiState,
    annotate_metadata,
    build_uai,
    discard_expired,
    psi_discard,
    psihi_discard,
)
from xrsim.traffic import VideoFrame, fragment_frame, pose_source


def make_set(frame_id=0, size=7500, nsets=1, psi_pattern=(1,), arrival=0):
    frame = VideoFrame(frame_id, Fraction(arrival), size)
    return fragment_frame(frame, mtu=1500, sets_per_frame=nsets,
                          psi_pattern=psi_pattern)


def fresh_queue(**profile_kw):
    kw = dict(psdb_ms=10.0, psihi=True)
    kw.update(profile_kw)
    return FlowQueue(QosFlowProfile(**kw))


def test_psihi_cascade_discards_rest_of_set():
    q = fresh_queue()
    (s,) = make_set(size=7500)  # 5 pdus of 1500
    q.enqueue_set(s)
    (seg,) = q.take(3000)  # pdus 0 and 1 leave the queue in one span
    assert (seg.pdu_set, seg.start, seg.byte_size, seg.completed) == \
        (s, 0, 3000, 2)
    dropped = psihi_discard(q, s.pdus[1], now=1000)
    assert dropped == [s.pdus[2].id, s.pdus[3].id, s.pdus[4].id]
    assert q.queued_bytes == 0
    assert q.lost_sets == {s.id}


def test_loss_of_last_pdu_discards_nothing():
    q = fresh_queue()
    (s,) = make_set()
    q.enqueue_set(s)
    q.take(10**6)
    assert psihi_discard(q, s.pdus[-1], now=0) == []
    assert q.lost_sets == {s.id}


def test_psihi_disabled_keeps_queue():
    q = fresh_queue(psihi=False)
    (s,) = make_set()
    q.enqueue_set(s)
    q.take(1500)
    assert psihi_discard(q, s.pdus[0], now=0) == []
    assert q.queued_bytes == 6000
    assert q.pser() == 1.0


def test_set_counted_lost_once():
    q = fresh_queue()
    (s,) = make_set()
    q.enqueue_set(s)
    q.take(10**6)
    psihi_discard(q, s.pdus[0], now=0)
    psihi_discard(q, s.pdus[1], now=5)
    assert len(q.lost_sets) == 1
    assert q.pser() == q.recount_pser_from_log() == 1.0


def test_timer_discard():
    q = fresh_queue(discard_timer_ms=30.0)
    (a,) = make_set(frame_id=0, arrival=0)
    (b,) = make_set(frame_id=1, arrival=5_000)
    q.enqueue_set(a)
    q.enqueue_set(b)
    assert discard_expired(q, 29_000) == []
    gone = discard_expired(q, 31_000)
    assert {pid[:2] for pid in [g[:2] for g in gone]} == {(0, 0)}
    assert q.lost_sets == {a.id}
    assert [e.pdu_set.id for e in q.entries] == [b.id]


def test_timer_disabled_never_discards():
    q = fresh_queue(discard_timer_ms=None)
    (s,) = make_set()
    q.enqueue_set(s)
    assert discard_expired(q, 10**9) == []
    assert q.queued_bytes == 7500


def test_psi_discard_lowest_unstarted_first():
    q = fresh_queue(psdb_ms=10.0, psi_levels=(0, 1))
    sets = make_set(size=15_000, nsets=3, psi_pattern=(1, 0, 0), arrival=0)
    for s in sets:
        q.enqueue_set(s)
    # 15 kB at 8 Mbps projects a 15 ms drain, past 0.8 * 10 ms
    dropped = psi_discard(q, now=1_000, service_rate_bps=8e6)
    assert dropped
    assert dropped[0] == sets[1].id  # first low-importance set goes first
    assert sets[0].id not in dropped  # high importance survives psi discard
    assert all(e.pdu_set.psi == 1 or e.taken > 0 for e in q.entries)


def test_psi_discard_idle_and_all_high():
    q = fresh_queue(psi_levels=(0, 1))
    assert psi_discard(q, 0, 1e6) == []
    for s in make_set(size=15_000, nsets=3, psi_pattern=(1, 1, 1)):
        q.enqueue_set(s)
    assert psi_discard(q, 50_000, 1e5) == []
    assert q.queued_bytes == 15_000


def test_psi_discard_skips_started_sets():
    q = fresh_queue(psi_levels=(0, 1))
    sets = make_set(size=15_000, nsets=3, psi_pattern=(0, 0, 1))
    for s in sets:
        q.enqueue_set(s)
    q.take(100)  # first low set is in flight
    dropped = psi_discard(q, 20_000, 1e6)
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
            discard_expired(q, t)
        if rng.random() < 0.2:
            psi_discard(q, t, 2e6)
        t += 2_000
    assert q.total_sets == len(all_sets)
    assert q.pser() == q.recount_pser_from_log()
    assert len(q.lost_sets) == len({e.set_id for e in q.events})


def test_annotate_metadata_flags():
    sets = make_set(size=62_500, nsets=10, psi_pattern=(1, 0, 0, 1))
    ann = annotate_metadata(sets, MappingConfig.N_ONE_ONE)
    assert sum(1 for a in ann if a.is_end_of_burst) == 1
    assert sum(1 for a in ann if a.is_last_of_set) == 10
    assert all(a.set_visible for a in ann)
    assert ann[-1].is_last_of_set and ann[-1].is_end_of_burst

    hidden = annotate_metadata(sets, MappingConfig.N_N_ONE)
    assert all(not a.set_visible for a in hidden)
    assert {a.set_id for a in hidden} == {s.id for s in sets}

    (single,) = make_set(size=4000, nsets=1)
    one = annotate_metadata([single], MappingConfig.ONE_ONE_ONE)
    assert one[-1].is_last_of_set and one[-1].is_end_of_burst


def test_pose_pdus_are_own_bursts():
    from itertools import islice
    for s in islice(pose_source(), 5):
        (a,) = annotate_metadata([s], MappingConfig.ONE_ONE_ONE)
        assert a.is_last_of_set and a.is_end_of_burst


def test_eodb_partitions_stream():
    pdus = []
    for f in range(20):
        for s in make_set(frame_id=f, size=9_000, nsets=3, arrival=f * 1000):
            pdus.extend(s.pdus)
    bursts = []
    cur = []
    for p in pdus:
        cur.append(p)
        if p.is_end_of_burst:
            bursts.append(cur)
            cur = []
    assert cur == []
    assert len(bursts) == 20
    assert sum(len(b) for b in bursts) == len(pdus)


def test_uai_prohibit_timer():
    st = UaiState(flow_id=1, prohibit_timer_ms=100.0)
    period = Fraction(50_000, 3)
    arrivals = [k * period for k in range(10)]
    msg = build_uai(st, arrivals, (0,), now=200_000)
    assert msg is not None
    assert msg.periodicity_us == period
    assert msg.jitter_bounds_us == (0.0, 0.0)
    assert msg.expected_arrival_us == arrivals[-1] + period
    assert build_uai(st, arrivals, (0,), now=201_000) is None
    assert build_uai(st, arrivals, (0,), now=300_500) is not None


def test_uai_needs_traffic():
    st = UaiState(flow_id=0)
    assert build_uai(st, [], (0,), now=0) is None
    assert build_uai(st, [Fraction(0)], (0,), now=0) is None


def test_profile_validation():
    with pytest.raises(ValueError):
        QosFlowProfile(psdb_ms=0)
    with pytest.raises(ValueError):
        QosFlowProfile(psdb_ms=10, pser=1.5)
