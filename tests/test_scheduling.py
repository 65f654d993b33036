import math
from fractions import Fraction

import numpy as np
import pytest

from xrsim.cellsim import UeCtx
from xrsim.engine import SLOT_US, UPLINK, slot_type
from xrsim.qos import FlowQueue, QosFlowProfile
from xrsim.radio import DATA_SYMBOLS, N_RB, S_SLOT_DATA_SYMBOLS, tb_bits
from xrsim.scheduling import (
    CgConfig,
    PolicyKind,
    SchedulerPolicy,
    UlCandidate,
    allocate_dl,
    allocate_ul,
    build_uto_uci,
    cg_occasions,
    _rank,
    mlwdf_metric,
    pf_metric,
    pf_update,
    reclaim_unused,
)
from xrsim.traffic import PduSet, VideoFrame, fragment_frame


def queue_with(size, arrival=0, psdb_ms=10.0, nsets=1, frame_id=0, **prof):
    q = FlowQueue(QosFlowProfile(psdb_ms=psdb_ms, **prof))
    frame = VideoFrame(frame_id, Fraction(arrival), size)
    for s in fragment_frame(frame, sets_per_frame=nsets,
                            psdb_us=int(psdb_ms * 1000)):
        q.enqueue_set(s)
    return q


def cand(ue_id, size=9000, mcs=27, avg=1e6, psdb_ms=10.0, arrival=0,
         is_embb=False, nsets=1):
    """A UE record as allocate_dl reads it, with one frame queued."""
    ue = UeCtx(ue_id, is_embb)
    ue.queue = queue_with(size, arrival=arrival, psdb_ms=psdb_ms, nsets=nsets,
                          frame_id=ue_id)
    ue.mcs = mcs
    ue.avg_tput_bps = avg
    return ue


BUDGET_US = 10_000.0


def test_pf_metric_ratios():
    a = cand(0, avg=1e7)
    # the full-band rate at the UE's MCS, in bits per second
    assert pf_metric(a, DATA_SYMBOLS) == \
        tb_bits(27, N_RB, DATA_SYMBOLS) * 2000 / 1e7
    assert pf_metric(a, DATA_SYMBOLS) > pf_metric(a, S_SLOT_DATA_SYMBOLS)
    b = cand(1, avg=2e7)
    assert pf_metric(a, DATA_SYMBOLS) == pytest.approx(
        2 * pf_metric(b, DATA_SYMBOLS))
    assert pf_metric(cand(2, mcs=20, avg=1e7), DATA_SYMBOLS) < \
        pf_metric(a, DATA_SYMBOLS)
    zero_avg = cand(3, avg=0.0)
    assert math.isfinite(pf_metric(zero_avg, DATA_SYMBOLS))
    assert pf_metric(zero_avg, DATA_SYMBOLS) > 0


def test_mlwdf_metric_shape():
    def metric(ue, now, psdb_us=BUDGET_US):
        return mlwdf_metric(ue, now, DATA_SYMBOLS, psdb_us)

    base = cand(0, arrival=0)
    assert metric(base, 0) == 0.0
    assert metric(base, 4000) == pytest.approx(2 * metric(base, 2000))
    assert metric(base, 3000, 10_000.0) == pytest.approx(
        1.5 * metric(base, 3000, 15_000.0))


def test_pduset_metric_shape():
    # the pduset metric lives in _rank, so its shape shows in the order it
    # gives: boost / max(tau, EPSILON_TIME_US), where tau is the head set's
    # time left and the boost is exp of the share of it already sent
    def order(ues, now):
        pol = SchedulerPolicy(kind=PolicyKind.PDUSET)
        return [ue.ue_id for ue in _rank(ues, now, pol, DATA_SYMBOLS,
                                         BUDGET_US)]

    # less time left ranks first, whatever the ids
    assert order([cand(0, arrival=3000), cand(1, arrival=0)], 5000) == [1, 0]
    # a time left under EPSILON_TIME_US counts as EPSILON_TIME_US, so 500,
    # 800 and 1000 µs tie and rank by id, ahead of 1100 µs
    assert order([cand(0, arrival=600), cand(3, arrival=0),
                  cand(1, arrival=300), cand(2, arrival=500)], 9500) == \
        [1, 2, 3, 0]
    # a head set half sent with 5000 µs left scores exp(0.5) / 5000, between
    # untouched heads with 3032 and 3033 µs left (5000 / exp(0.5) = 3032.65)
    half = cand(1, size=10_000, arrival=3000)
    half.queue.take(5000)
    assert order([half, cand(0, arrival=1032)], 8000) == [0, 1]
    assert order([half, cand(0, arrival=1033)], 8000) == [1, 0]
    # a head set sent but for one byte of 10,000 is boosted by exp(0.9999):
    # against an untouched head with 30,000 µs left it ranks first with
    # 81,540 µs left and second with 81,541 µs (30,000 * exp(0.9999) =
    # 81,540.3, where exp(1) would give 81,548.5)
    untouched = cand(0, size=10_000, psdb_ms=100.0, arrival=30_000)
    for tau, want in ((81_540, [1, 0]), (81_541, [0, 1])):
        almost = cand(1, size=10_000, psdb_ms=100.0, arrival=tau)
        almost.queue.take(9999)
        assert order([untouched, almost], 100_000) == want
    # a head without a deadline has the whole budget left: it ties with a
    # head just arrived, and ranks by id
    open_ended = cand(0)
    open_ended.queue.entries[0] = PduSet((0, 0), 1, 7000, (9000,))
    assert order([cand(1, arrival=7000), open_ended], 7000) == [0, 1]
    # an expired budget drops to the floor, behind any fresh head
    assert order([cand(0, arrival=0), cand(1, arrival=10_500,
                                           psdb_ms=1000.0)], 11_000) == [1, 0]


def test_allocate_dl_hard_priority():
    pol = SchedulerPolicy(kind=PolicyKind.PF)
    xr = cand(0, size=9000, mcs=27)
    embb = cand(1, size=10**7, mcs=27, is_embb=True)
    allocs = allocate_dl(0, [xr, embb], pol, N_RB, DATA_SYMBOLS,
                         psdb_us=BUDGET_US)
    assert [a.ue_id for a in allocs] == [0, 1]
    need = math.ceil(9000 * 8 / (7.8 * 12 * 12))
    assert allocs[0].rb_count == need
    assert allocs[1].rb_count == 273 - need


def test_allocate_dl_empty():
    assert allocate_dl(0, [], SchedulerPolicy(), N_RB, DATA_SYMBOLS,
                       psdb_us=BUDGET_US) == []
    drained = cand(0, size=1000)
    drained.queue.take(10**6)
    assert allocate_dl(0, [drained], SchedulerPolicy(), N_RB, DATA_SYMBOLS,
                       psdb_us=BUDGET_US) == []


def test_allocate_dl_rb_budget_and_disjoint():
    pol = SchedulerPolicy(kind=PolicyKind.MLWDF)
    cands = [cand(i, size=500_000, mcs=10, arrival=-1000 * i) for i in range(4)]
    allocs = allocate_dl(0, cands, pol, N_RB, DATA_SYMBOLS, psdb_us=BUDGET_US)
    # only RB counts are modelled: the grants fit the slot together
    assert sum(a.rb_count for a in allocs) <= 273
    # oldest head-of-line wins under M-LWDF
    assert allocs[0].ue_id == 3


def test_allocate_dl_pduset_urgency_order():
    pol = SchedulerPolicy(kind=PolicyKind.PDUSET)
    late = cand(0, size=50_000, arrival=-8000, psdb_ms=10.0)
    fresh = cand(1, size=50_000, arrival=0, psdb_ms=10.0)
    allocs = allocate_dl(0, [fresh, late], pol, N_RB, DATA_SYMBOLS,
                         psdb_us=BUDGET_US)
    assert allocs[0].ue_id == 0  # two ms of budget left ranks first


def test_allocate_dl_expired_floor_still_schedules():
    pol = SchedulerPolicy(kind=PolicyKind.PDUSET)
    expired = cand(0, size=5000, arrival=-20_000, psdb_ms=10.0)
    alive = cand(1, size=5000, arrival=0, psdb_ms=10.0)
    allocs = allocate_dl(0, [expired, alive], pol, N_RB, DATA_SYMBOLS,
                         psdb_us=BUDGET_US)
    assert [a.ue_id for a in allocs] == [1, 0]


def test_metric_scale_invariance():
    pol = SchedulerPolicy(kind=PolicyKind.MLWDF)
    cands = [cand(i, size=30_000, arrival=-500 * (i + 1)) for i in range(3)]
    scaled = [cand(i, size=30_000, arrival=-500 * (i + 1), avg=1e6 / 7.0)
              for i in range(3)]

    def order(ues):
        return [a.ue_id
                for a in allocate_dl(0, ues, pol, N_RB, DATA_SYMBOLS,
                                     psdb_us=BUDGET_US)]

    assert order(scaled) == order(cands)


def test_pf_update_smoothing():
    avg = 0.0
    for _ in range(1000):
        avg = pf_update(avg, 1e6)
    assert avg == pytest.approx(1e6, rel=1e-4)
    assert pf_update(1e6, 0.0) == pytest.approx(0.99e6)


def test_allocate_ul_proportional():
    cs = [UlCandidate(0, 30_000, 20), UlCandidate(1, 10_000, 20)]
    grants = allocate_ul(cs, N_RB)
    by_ue = {g.ue_id: g for g in grants}
    assert set(by_ue) == {0, 1}
    assert by_ue[0].rb_count >= by_ue[1].rb_count
    assert sum(g.rb_count for g in grants) <= 273


def test_allocate_ul_urgency_first_and_caps():
    cs = [UlCandidate(0, 10**6, 5, urgency_us=None),
          UlCandidate(1, 10**6, 5, urgency_us=2000.0)]
    grants = allocate_ul(cs, N_RB)
    assert grants[0].ue_id == 1
    assert allocate_ul([UlCandidate(0, 0, 20)], N_RB) == []


def test_cg_occasions_land_on_ul_slots():
    cfg = CgConfig(periodicity_us=Fraction(50_000, 3), occasions_per_period=4)
    occs = cg_occasions(cfg, 10_000_000)
    assert all(slot_type(o.slot) == UPLINK for o in occs)
    assert len(occs) == 2400
    # the occasions come period by period, four to a period
    for k in range(0, 2400, 4):
        slots = [o.slot for o in occs[k:k + 4]]
        assert [b - a for a, b in zip(slots, slots[1:])] == [5, 5, 5]


def test_cg_single_occasion_tracks_period_without_drift():
    cfg = CgConfig(periodicity_us=Fraction(50_000, 3), occasions_per_period=1)
    occs = cg_occasions(cfg, 10_000_000)
    assert len(occs) == 600
    for period, o in enumerate(occs):
        start = period * cfg.periodicity_us
        assert slot_type(o.slot) == UPLINK
        assert o.slot * SLOT_US >= start - SLOT_US  # at/after period start
        assert (o.slot - 4) % 5 == 0
        # never more than one full DDDSU cycle late
        assert o.slot * SLOT_US - start < 5 * SLOT_US


def test_cg_config_rejects_overlong_train():
    with pytest.raises(ValueError):
        CgConfig(periodicity_us=Fraction(10_000), occasions_per_period=5)


def prefix_sum_bitmap(buffer_bytes, caps):
    # closed form: occasion i is unused iff the buffer drains entirely into
    # the occasions before it
    return "".join("1" if buffer_bytes <= sum(caps[:i]) else "0"
                   for i in range(len(caps)))


def test_uto_uci_examples():
    assert build_uto_uci(0, [100] * 4) == "1111"
    assert build_uto_uci(200, [100, 100, 100, 100]) == "0011"
    assert build_uto_uci(10**9, [100] * 4) == "0000"
    assert build_uto_uci(150, [100, 100, 100]) == "001"


def test_uto_uci_matches_prefix_sum_form():
    rng = np.random.default_rng(13)
    for _ in range(250):
        n = int(rng.integers(1, 9))
        caps = [int(rng.integers(1, 500)) for _ in range(n)]
        buf = int(rng.integers(0, sum(caps) + 300))
        assert build_uto_uci(buf, caps) == prefix_sum_bitmap(buf, caps)


def test_reclaim_unused_future_only():
    cfg = CgConfig(periodicity_us=Fraction(50_000, 3), occasions_per_period=4)
    occs = cg_occasions(cfg, 200_000)[:4]
    freed = reclaim_unused("1111", occs, current_slot=occs[1].slot)
    assert [o.slot for o in freed] == [o.slot for o in occs[2:]]
    assert reclaim_unused("0000", occs, current_slot=-1) == []
