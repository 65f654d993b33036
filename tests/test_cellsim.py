"""End to end sanity checks on the cell simulator."""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xrsim.cellsim import (CellConfig, CellSim, FrameProgress,
                           _always_on_power, run_drop)
from xrsim.drx import (ADRX_Q0, DrxConfig, SLOT_PDCCH, SLOT_PDSCH,
                       SLOT_SLEEP, power_for_run)
from xrsim.engine import SLOT_US, UPLINK, next_slot, slot_type
from xrsim.qos import FlowQueue
from xrsim.radio import tb_bits
from xrsim.scheduling import CgConfig, PolicyKind, SchedulerPolicy
from xrsim.traffic import Direction, PduSet


def _short(**kw) -> CellConfig:
    base = dict(ues_per_cell=2, rate_bps=30e6, psdb_ms=10.0,
                duration_s=2.0, warmup_s=0.5)
    base.update(kw)
    return CellConfig(**base)


def test_same_seed_identical_results():
    a = CellSim(_short(), seed=3).run()
    b = CellSim(_short(), seed=3).run()
    for ka, kb in zip(a.ues, b.ues):
        assert ka.outcomes == kb.outcomes
        assert ka.delivered_bits == kb.delivered_bits
        assert ka.avg_power == kb.avg_power
    assert a.rb_utilization == b.rb_utilization


def test_different_seeds_differ():
    a = CellSim(_short(), seed=1).run()
    b = CellSim(_short(), seed=2).run()
    assert a.xr_ues()[0].outcomes != b.xr_ues()[0].outcomes


def test_frame_accounting_window():
    # only frames arriving after warm-up with deadlines inside the run count
    r = CellSim(_short(), seed=1).run()
    for kpi in r.xr_ues():
        expected = (2.0 - 0.5) * 60
        assert expected - 3 <= kpi.frames_total <= expected + 1
        for arrival, _ in kpi.outcomes:
            assert arrival >= 0.5e6
            assert arrival + 10_000 <= 2.0e6


def test_in_budget_means_done_by_the_deadline():
    # the one in-budget rule: a frame done at its deadline counts, one done
    # a tick later does not, and a lost frame never does
    sim = CellSim(_short(ues_per_cell=1), seed=1)
    ue = sim.xr[0]
    arrival = sim.warmup_t
    deadline = arrival + sim.psdb_t
    frames = [FrameProgress(i, arrival, deadline, 1) for i in range(4)]
    frames[0].done_time = deadline
    frames[1].done_time = deadline + 1
    frames[2].lost = True
    frames[3].lost = True
    frames[3].done_time = arrival
    ue.undecided.extend(frames)
    sim.n_undecided += len(frames)
    sim._decide_frames(deadline + 1)
    assert not ue.undecided
    assert ue.outcomes == [(arrival / sim.ticks_per_us, ok)
                           for ok in (True, False, False, False)]


def test_a_frame_is_done_with_its_last_byte():
    # a block that carries bytes inside a PDU, but no PDU's last byte, can
    # still be in HARQ when a later block carrying the PDU's end is ACKed;
    # the frame is done only once the first block is delivered too
    sim = CellSim(_short(ues_per_cell=1), seed=1)
    ue = sim.xr[0]
    fp = FrameProgress(0, 0, sim.psdb_t, 1000)
    ue.frames[0] = fp
    ue.queue.enqueue_set(PduSet((0, 0), 1, 0, (1000,), sim.psdb_t))
    inner, last = ue.queue.take(400), ue.queue.take(600)
    sim._deliver(ue, ue.queue, last, 0)
    assert (fp.left, fp.done_time) == (400, None)
    sim._deliver(ue, ue.queue, inner, 8 * sim.slot_t)
    assert (fp.left, fp.done_time) == (0, 9 * sim.slot_t)


def test_low_load_all_in_budget():
    r = CellSim(_short(ues_per_cell=1), seed=5).run()
    kpi = r.xr_ues()[0]
    assert kpi.frames_in_budget == kpi.frames_total > 0


def test_drx_sleeps_without_missing_frames():
    drx = DrxConfig(cycle_us=Fraction(50_000, 3),
                    on_duration_us=Fraction(8000),
                    inactivity_us=Fraction(2000))
    on = CellSim(_short(ues_per_cell=1), seed=4).run()
    gated = CellSim(_short(ues_per_cell=1, drx=drx), seed=4).run()
    k_on, k_drx = on.xr_ues()[0], gated.xr_ues()[0]
    assert k_drx.frames_in_budget == k_drx.frames_total
    assert k_drx.avg_power < k_on.avg_power


def test_pdsch_only_on_dl_slots():
    drx = DrxConfig(cycle_us=Fraction(50_000, 3),
                    on_duration_us=Fraction(8000),
                    inactivity_us=Fraction(2000))
    sim = CellSim(_short(ues_per_cell=1, drx=drx), seed=4)
    sim.run()
    log = sim.ues[0].activity
    assert SLOT_SLEEP in log.labels
    slot = 0
    for label, k in log.runs():
        if label == SLOT_PDSCH:
            assert all(slot_type(s) != UPLINK for s in range(slot, slot + k))
        slot += k
    assert slot == sim.n_slots


def _always_on_trace(pdsch_slots, start, end):
    """A UE without DRX slot by slot: PDCCH on every slot but its PDSCH
    ones, from start."""
    pdsch = set(pdsch_slots)
    return [(SLOT_PDSCH if s in pdsch else SLOT_PDCCH, 1)
            for s in range(start, end)]


@given(st.sets(st.integers(0, 60)), st.integers(0, 70), st.integers(1, 70))
def test_always_on_power_is_the_per_slot_trace_power(pdsch, start, span):
    end = start + span
    pdsch = sorted(s for s in pdsch if s < end)  # every slot before the end
    assert _always_on_power(pdsch, start, end) == power_for_run(
        _always_on_trace(pdsch, start, end))


def test_embb_soaks_leftover_capacity():
    r = CellSim(_short(ues_per_cell=2, embb_ues=1, embb_full_buffer=True),
                seed=2).run()
    xr = r.xr_ues()
    assert all(k.frames_in_budget == k.frames_total for k in xr)
    embb = [u for u in r.ues if u.is_embb]
    assert embb[0].delivered_bits > 0
    # a full buffer keeps the cell busy nearly every downlink slot
    busy = sum(1 for x in r.rb_utilization if x > 0.95)
    assert busy / len(r.rb_utilization) > 0.7


def test_uplink_pipeline_delivers():
    r = CellSim(_short(direction=Direction.UL, ues_per_cell=2, rate_bps=10e6,
                       psdb_ms=30.0), seed=1).run()
    for kpi in r.xr_ues():
        assert kpi.frames_total > 0
        assert kpi.frames_in_budget / kpi.frames_total > 0.9
        assert kpi.padding_samples


def test_policy_changes_allocation_order():
    cfgs = {k: _short(ues_per_cell=8, policy=SchedulerPolicy(kind=k))
            for k in PolicyKind}
    results = {k: CellSim(c, seed=1).run() for k, c in cfgs.items()}
    sat = {k: sum(1 for u in r.xr_ues()
                  if u.frames_total and u.frames_in_budget == u.frames_total)
           for k, r in results.items()}
    # deadline aware policies hold more UEs in budget under pressure
    assert sat[PolicyKind.MLWDF] >= sat[PolicyKind.PF]
    assert sat[PolicyKind.PDUSET] >= sat[PolicyKind.PF]


def test_rb_utilization_bounds():
    r = CellSim(_short(), seed=1).run()
    assert all(0.0 <= x <= 1.0 for x in r.rb_utilization)
    n_slots = int(2.0e6 - 0.5e6) // SLOT_US
    assert len(r.rb_utilization) == n_slots


def test_uplink_dsr_fires_and_run_completes():
    # a 25 ms threshold under a 30 ms budget fires DSR on data that waits
    # more than 5 ms; its urgency then orders the UL grants
    sim = CellSim(_short(direction=Direction.UL, ues_per_cell=4, rate_bps=10e6,
                         psdb_ms=30.0, duration_s=1.0, warmup_s=0.2,
                         dsr_enabled=True, dsr_threshold_ms=25.0), seed=1)
    r = sim.run()
    assert any(u.dsr_reported for u in sim.xr)
    assert all(k.frames_total > 0 for k in r.xr_ues())


def test_dl_cell_builds_no_pdu_objects():
    # queues hold whole PDU sets, and discards work on them too
    sim = CellSim(_short(ues_per_cell=6, rate_bps=45e6, sets_per_frame=4,
                         embb_ues=2, psi_discard_enabled=True,
                         duration_s=1.0, warmup_s=0.2), seed=1)
    sim.run()
    assert sum(len(u.queue.events) for u in sim.xr) > 0  # discards ran


def test_no_fraction_work_per_slot(monkeypatch):
    # the cell runs on integer ticks: rational arithmetic may follow frames
    # and adaptation epochs, never slots
    calls = []
    for name in ("_richcmp", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
                 "__divmod__", "__rdivmod__", "__pow__", "__rpow__"):
        orig = getattr(Fraction, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(Fraction, name, counted)
    sim = CellSim(_short(ues_per_cell=6, rate_bps=45e6, sets_per_frame=4,
                         duration_s=1.0, warmup_s=0.2,
                         drx=DrxConfig(cycle_us=Fraction(50_000, 3),
                                       on_duration_us=Fraction(8000),
                                       inactivity_us=Fraction(2000)),
                         adaptive_drx=True), seed=1)
    calls.clear()  # count the run only, not the set-up
    result = sim.run()
    slots = 1.0 * 1e6 / SLOT_US
    assert any(u.adrx.q != ADRX_Q0 for u in sim.xr)  # adapted
    assert all(k.frames_total > 0 for k in result.xr_ues())
    assert len(calls) < slots / 10


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_pf_update_once_per_grant(kind, monkeypatch):
    # a PF average is kept only where the cell reads it, and brought up to
    # date when it is read: a DL slot pays one pf_update per UE it serves
    # whose average is read, none for the other UEs. With two eMBB UEs, the
    # eMBB pick reads theirs; the pduset metric reads no XR UE's
    import xrsim.cellsim as cellsim
    from xrsim.scheduling import reads_avg

    calls = []
    caught_up = []
    pf_update, pf_avg = cellsim.pf_update, CellSim._pf_avg

    def counted(*args):
        calls.append(args)
        return pf_update(*args)

    def counted_avg(self, ue):
        caught_up.append(ue.ue_id)  # no PSI discard: only grants call it
        return pf_avg(self, ue)

    monkeypatch.setattr(cellsim, "pf_update", counted)
    monkeypatch.setattr(CellSim, "_pf_avg", counted_avg)
    result = CellSim(_short(ues_per_cell=6, rate_bps=45e6, sets_per_frame=4,
                            embb_ues=2, embb_full_buffer=True,
                            duration_s=1.0, warmup_s=0.0,
                            policy=SchedulerPolicy(kind=kind)), seed=2).run()
    grants = sum(u.grants for u in result.ues)
    assert grants > 1000  # a busy cell: about one grant per DL slot or more
    # one call per grant to a UE whose average is read, none for the rest
    read = {u.ue_id: u.grants for u in result.ues
            if reads_avg(SchedulerPolicy(kind=kind), not u.is_embb, 2)}
    assert len(calls) == len(caught_up)
    assert Counter(caught_up) == Counter(read)
    if kind is PolicyKind.PDUSET:
        xr = result.xr_ues()
        assert sum(u.grants for u in xr) > 500
        assert not {u.ue_id for u in xr} & set(caught_up)


@pytest.mark.parametrize("kind, psi, embb", [
    (PolicyKind.PF, True, 2), (PolicyKind.PDUSET, True, 2),
    # nothing but a grant reads an average here
    (PolicyKind.PDUSET, False, 1)])
def test_pf_average_reads_as_if_updated_every_slot(kind, psi, embb,
                                                   monkeypatch):
    # every read of a lazily updated PF average (a metric, PSI discard, a
    # grant) sees what a per-slot update of every UE would hold; the average
    # of a UE that nothing reads is never updated
    import xrsim.cellsim as cellsim
    from xrsim.qos import FlowQueue
    from xrsim.scheduling import pf_update, reads_avg

    sim = CellSim(_short(ues_per_cell=3, rate_bps=45e6, sets_per_frame=4,
                         embb_ues=embb, embb_full_buffer=True,
                         psi_discard_enabled=psi, duration_s=0.5,
                         warmup_s=0.0, policy=SchedulerPolicy(kind=kind)),
                  seed=3)
    eager = {ue.ue_id: 1.0 for ue in sim.ues}
    served = {}
    reads = []
    allocate_dl, dl_slot = cellsim.allocate_dl, CellSim._dl_slot
    psi_discard = FlowQueue.psi_discard

    def allocate(now, cands, policy, *args, **kwargs):
        reads.extend((c.avg_tput_bps, eager[c.ue_id]) for c in cands
                     if reads_avg(policy, not c.is_embb, embb))
        out = allocate_dl(now, cands, policy, *args, **kwargs)
        served.update((a.ue_id, a.tb_bits) for a in out)
        return out

    def eager_dl_slot(self, *args):
        served.clear()
        dl_slot(self, *args)
        for ue_id, avg in eager.items():
            eager[ue_id] = pf_update(avg, served.get(ue_id, 0) * 2000)

    owner = {id(ue.queue): ue.ue_id for ue in sim.ues}

    def psi_read(self, now, rate):
        reads.append((rate, max(eager[owner[id(self)]], 1e6)))
        return psi_discard(self, now, rate)

    monkeypatch.setattr(cellsim, "allocate_dl", allocate)
    monkeypatch.setattr(CellSim, "_dl_slot", eager_dl_slot)
    monkeypatch.setattr(FlowQueue, "psi_discard", psi_read)
    sim.run()
    assert len(reads) > (1000 if psi or embb > 1 else -1)
    assert all(got == want for got, want in reads)
    read = [ue for ue in sim.ues
            if reads_avg(sim.cfg.policy, not ue.is_embb, embb)
            or psi and not ue.is_embb]
    assert [sim._pf_avg(ue) for ue in read] == [eager[u.ue_id] for u in read]
    unread = [ue for ue in sim.ues if ue not in read]
    assert len(unread) == (len(sim.ues) if not psi and embb == 1 else 0)
    assert all(ue.avg_tput_bps == 1.0 and ue.grants for ue in unread)


@pytest.mark.parametrize("duration_s", [0.0013, 0.002, 0.5])
def test_one_call_per_slot_before_the_end(duration_s, monkeypatch):
    # slots start every 500 µs from 0 up to, not including, the end; a run
    # that ends mid-slot still simulates that last, partial slot
    cfg = _short(ues_per_cell=2, embb_ues=1, duration_s=duration_s,
                 warmup_s=0.0)
    plain = CellSim(cfg, seed=1).run()
    seen = []
    on_slot = CellSim._on_slot

    def counted(self, slot):
        seen.append((slot, slot * self.slot_t < self.end_t))
        return on_slot(self, slot)

    monkeypatch.setattr(CellSim, "_on_slot", counted)
    wrapped = CellSim(cfg, seed=1).run()
    n_slots = math.ceil(cfg.duration_us / SLOT_US)
    assert [slot for slot, _ in seen] == list(range(n_slots))
    assert all(before_end for _, before_end in seen)
    assert wrapped == plain


@pytest.mark.parametrize("drx", [None, DrxConfig(
    cycle_us=Fraction(50_000, 3), on_duration_us=4000, inactivity_us=2000)])
def test_power_and_rb_samples_share_the_warm_up_boundary(drx):
    # a 200.3 ms warm-up ends inside slot 400, so slot 401 is the first
    # post-warm-up slot: the RB samples start there, and so does the power
    cfg = _short(ues_per_cell=3, rate_bps=10e6, drx=drx, duration_s=1.0013,
                 warmup_s=0.2003)
    sim = CellSim(cfg, seed=1)
    result = sim.run()
    first = sim.n_slots - len(result.rb_utilization)
    assert first == 401
    for ue, kpi in zip(sim.ues, result.ues):
        runs = (ue.activity.runs(first) if drx else
                _always_on_trace(ue.pdsch_slots, first, sim.n_slots))
        assert kpi.avg_power == power_for_run(runs)


def test_skip_counts_the_dl_slots_it_skips():
    sim = CellSim(_short(ues_per_cell=1), seed=1)
    for a in range(60):
        for b in range(a, 60):
            sim.dl_slots = 0
            sim._skip(a, b)
            assert sim.dl_slots == sum(slot_type(s) != UPLINK
                                       for s in range(a, b)), (a, b)


def test_dl_retransmissions_stay_within_the_rb_budget(monkeypatch):
    # when slot s+8 is the UL slot, the retransmissions of slots s and s+1
    # both fall due on s+9; in this two-cell drop they used to add up past
    # 273 RBs and crash. Blocks that do not fit wait for the next DL slot.
    repro = CellConfig(n_cells=2, ues_per_cell=6, rate_bps=45e6,
                       duration_s=2.0)
    logged = run_drop(repro, 1).rb_utilization
    # the warm-up only gates what is logged: with none, every slot of each
    # cell is, cell after cell
    every = run_drop(replace(repro, warmup_s=0.0), 1).rb_utilization
    n = len(logged) // 2
    assert len(every) == 2 * 4000 and len(logged) == 2 * n
    assert [every[:4000][-n:], every[4000:][-n:]] == [logged[:n], logged[n:]]
    assert max(every) <= 1.0
    # the drop still takes the deferral path: count the due blocks that
    # wait for the next DL slot, per cell
    send, deferred = CellSim._send_due, []

    def counted(self, slot, now, limit, tx_ues, ul):
        due = [block for _, _, block in self.retx[slot]]
        used = send(self, slot, now, limit, tx_ues, ul)
        later = [block for _, _, block in
                 self.retx.get(next_slot(slot + 1, ul), ())]
        deferred[-1] += sum(any(b is x for x in later) for b in due)
        return used

    monkeypatch.setattr(CellSim, "_send_due", counted)
    for cell in range(2):
        deferred.append(0)
        CellSim(repro, seed=1, cell=cell).run()
    assert sum(deferred) > 0


def test_each_cell_has_its_own_rb_pool():
    # three cells of two 30 Mbps UEs each: one shared 273-RB pool gave one
    # series and starved four of the six UEs. Each cell now schedules only
    # its own UEs, so the UEs at MCS 19 meet every frame, as in one cell.
    cfg = CellConfig(n_cells=3, ues_per_cell=2, rate_bps=30e6,
                     duration_s=2.0, warmup_s=0.0)
    result = run_drop(cfg, 1)
    assert len(result.rb_utilization) == 3 * 4000
    assert [u.ue_id for u in result.ues] == list(range(6))
    first, last = result.ues[0], result.ues[5]
    assert (first.frames_in_budget, first.frames_total) == (119, 119)
    assert (last.frames_in_budget, last.frames_total) == (120, 120)
    # each cell draws its HARQ outcomes from its own stream
    assert next(CellSim(cfg, 1, 0).phy_uniforms) != \
        next(CellSim(cfg, 1, 1).phy_uniforms)


def test_a_drop_is_drawn_once(monkeypatch):
    # run_drop draws the drop once and hands each cell its own UE links; a
    # cell then gives what it gives when it draws the whole drop itself
    from xrsim.radio import Deployment

    cfg = CellConfig(n_cells=3, ues_per_cell=2, embb_ues=1, rate_bps=30e6,
                     duration_s=0.5, warmup_s=0.1)
    alone = [CellSim(cfg, 4, cell).run() for cell in range(3)]
    calls = []
    drop_ues = Deployment.drop_ues

    def counted(self, *args):
        calls.append(args)
        return drop_ues(self, *args)

    monkeypatch.setattr(Deployment, "drop_ues", counted)
    result = run_drop(cfg, 4)
    assert len(calls) == 1
    assert result.ues == [u for r in alone for u in r.ues]
    assert result.rb_utilization == [x for r in alone
                                     for x in r.rb_utilization]


@pytest.mark.parametrize("cfg, seed", [
    # four UEs on one UL cell: due retransmissions came on top of grants
    # sized for the whole slot, up to 1.22 x 273 RBs
    (CellConfig(ues_per_cell=4, direction=Direction.UL, rate_bps=10e6,
                psdb_ms=30.0, duration_s=10.0, warmup_s=0.0), 1),
    # two cells with a pose CG, whose blocks retransmit like any other
    (CellConfig(ues_per_cell=2, n_cells=2, direction=Direction.UL,
                rate_bps=10e6, psdb_ms=30.0, duration_s=3.0, warmup_s=0.0,
                pose_cg=CgConfig(periodicity_us=Fraction(4000))), 1),
], ids=["4-ues", "2-cells-cg"])
def test_ul_blocks_stay_within_the_rb_budget(cfg, seed):
    # the grants of a UL slot are sized five slots ahead, when every block
    # due on it is known, so their RBs and the slot's CG occasion come off
    # the grant budget
    assert max(run_drop(cfg, seed).rb_utilization) <= 1.0


# four XR UEs on one UL cell, each with a pose flow on the default CG
_CG_CELL = CellConfig(ues_per_cell=4, direction=Direction.UL, rate_bps=10e6,
                      psdb_ms=30.0, duration_s=2.0, warmup_s=0.1,
                      pose_cg=CgConfig(periodicity_us=Fraction(4000)))


def test_every_pose_flow_drains_on_its_own_occasions():
    # one pose packet of 100 B every 4 ms, and one occasion per UE each
    # 4 ms: each UE's queue ends with at most the packets that came after
    # its last window's bitmap. The first XR UE with pose data used to take
    # every occasion of the cell, and UEs 1-3 ended with all 500 of their
    # packets queued
    sim = CellSim(_CG_CELL, seed=1)
    sim.run()
    window = _CG_CELL.pose_cg.uto_uci_window
    for u in sim.xr:
        assert u.pose_queue.total_sets == 500
        assert u.pose_queue.queued_bytes <= window * 100, u.ue_id


@pytest.mark.parametrize("ue", range(4))
@pytest.mark.parametrize("extra, need", [(0, 1), (1, 2)])
def test_each_ue_frees_its_own_occasions_by_its_own_buffer(ue, extra, need):
    # at the first occasion of a window, the UE's UTO-UCI bitmap reads its
    # own pose buffer against occasions sized at its own MCS: a buffer of
    # one occasion and a byte keeps its next occasion live. Every other UE,
    # with nothing queued, frees its later occasions of the window
    sim = CellSim(_CG_CELL, seed=1)
    first, *later = sim.cg_occasions[:_CG_CELL.pose_cg.uto_uci_window]
    u = sim.xr[ue]
    u.ul_mcs = 27  # above the others' MCS 23, so their occasions hold less
    cap = tb_bits(27, first.rb_count) // 8
    u.pose_queue.enqueue_set(PduSet(("pose", -1), 0, 0, (cap + extra,)))
    sim._cg_serve(first.slot, first.slot * sim.slot_t, set())
    assert [sim._cg_rb(o.slot) for o in later] == \
        [first.rb_count if k < need - 1 else 0 for k in range(len(later))]


@pytest.mark.parametrize("cfg, cell", [
    (_CG_CELL, 0),
    (replace(_CG_CELL, ues_per_cell=3, n_cells=2, rate_bps=20e6,
             pose_cg=CgConfig(periodicity_us=Fraction(4000),
                              rb_per_occasion=10, uto_uci_window=2)), 1),
], ids=["4-ues", "cell-1-of-2"])
def test_forced_acks_serve_every_pose_flow_alike(cfg, cell):
    # the pose source draws nothing at random, so with every HARQ attempt
    # ACKed only the UEs' MCS could tell their pose flows apart, and each
    # UE's own occasions carry its 100 B packets at any MCS
    sim = CellSim(cfg, seed=1, cell=cell)
    sim.phy_uniforms = repeat(1.0)  # every draw 1.0: every attempt ACKs
    sim.run()
    queues = [u.pose_queue for u in sim.xr]
    assert len(queues) == cfg.ues_per_cell
    assert len({(q.total_sets, q.queued_bytes) for q in queues}) == 1
    assert not any(q.lost_sets for q in queues)


@pytest.mark.parametrize("direction, pose_cg, crowd", [
    (Direction.DL, None, {}), (Direction.UL, None, {}),
    (Direction.UL, CgConfig(periodicity_us=Fraction(4000)), {}),
    (Direction.DL, None, dict(ues_per_cell=6, rate_bps=45e6)),
], ids=["Direction.DL", "Direction.UL", "pose-cg", "deferred"])
def test_harq_exhaustion_loses_the_block(direction, pose_cg, crowd,
                                         monkeypatch):
    # with every attempt NACKed, each transport block is sent 1 + MAX_RETX
    # times, each retransmission on the first slot of the block's direction
    # at least HARQ_RTT_SLOTS after the attempt before it; then HARQ gives
    # up and the block's sets are lost in its own queue. A configured-grant
    # block, first sent on an occasion, goes the same way against the pose
    # queue. A UL grant shrinks by the RBs of the blocks due on its slot, so
    # a UL video set can ride in two blocks, and such a block stops early
    # once every set it carries is lost. In the crowded DL cell the blocks
    # due on a slot overflow its 273 RBs, and _send_due defers some to the
    # next DL slot: a deferred block keeps its count and is still sent
    # 1 + MAX_RETX times, unless the run ends first or its sets are lost
    import xrsim.cellsim as cellsim
    from xrsim.qos import FlowQueue
    from xrsim.radio import HARQ_RTT_SLOTS, MAX_RETX, harq_exhausted

    cfg = _short(**{**dict(ues_per_cell=1, direction=direction,
                           rate_bps=5e6, psdb_ms=30.0, discard_timer_ms=None,
                           duration_s=1.5, warmup_s=0.0, pose_cg=pose_cg),
                    **crowd})
    sim = CellSim(cfg, seed=1)
    sim.phy_uniforms = repeat(0.0)  # every draw 0.0: every attempt NACKs
    current = [None]
    taken = []  # the (ue, set, start, bytes) spans of each non-empty take
    blocks = []  # (block, spans carried, slots of its attempts)
    by_block = {}
    on_slot, take, attempt = (CellSim._on_slot, FlowQueue.take,
                              cellsim.harq_attempt)

    def at_slot(self, slot):
        current[0] = slot
        return on_slot(self, slot)

    owner = {id(q): ue.ue_id for ue in sim.ues
             for q in (ue.queue, ue.pose_queue) if q is not None}

    def taking(self, max_bytes):
        segs = take(self, max_bytes)
        if segs:
            taken.append([(owner[id(self)], s.pdu_set.id, s.start,
                           s.byte_size) for s in segs])
        return segs

    def attempting(block, sinr_db, rng):
        if block.attempts == 0:  # a first transmission carries the last take
            by_block[id(block)] = (block, taken.pop(0), [])
            blocks.append(by_block[id(block)])
        by_block[id(block)][2].append(current[0])
        return attempt(block, sinr_db, rng)

    monkeypatch.setattr(CellSim, "_on_slot", at_slot)
    monkeypatch.setattr(FlowQueue, "take", taking)
    monkeypatch.setattr(cellsim, "harq_attempt", attempting)
    result = sim.run()

    def next_slot(slot):  # the first slot of the direction at or after slot
        while (slot_type(slot) == UPLINK) != (direction is Direction.UL):
            slot += 1
        return slot

    ul_video = direction is Direction.UL and pose_cg is None
    split = ul_video or bool(crowd)  # a set may ride in several blocks
    if pose_cg is not None:  # the pose blocks, first sent on an occasion
        blocks = [b for b in blocks if b[1][0][1][0] == "pose"]
        occasions = {o.slot for o in sim.cg_occasions}
        assert all(slots[0] in occasions for _, _, slots in blocks)

    def queue_of(ue):
        return ue.queue if pose_cg is None else ue.pose_queue

    n_slots = math.ceil(cfg.duration_us / SLOT_US)
    if split:  # no byte rides in two blocks: a set's spans do not overlap
        spans = sorted(span for _, carried, _ in blocks for span in carried)
        for (u, a, start, size), (v, b, next_start, _) in zip(spans,
                                                              spans[1:]):
            assert (u, a) != (v, b) or start + size <= next_start
    else:  # no set rides in two blocks
        ids = [(u, sid) for _, carried, _ in blocks
               for u, sid, _, _ in carried]
        assert len(ids) == len(set(ids))
    causes = {}  # (ue, set) -> the causes of the set's discard events
    for ue in sim.xr:
        for e in queue_of(ue).events:
            causes.setdefault((ue.ue_id, e.set_id), set()).add(e.cause)
    pending = {id(b) for due in sim.retx.values() for _, _, b in due}
    exhausted = deferred = 0
    for block, carried, slots in blocks:
        queue = queue_of(sim.by_id[block.ue_id])
        sets = {sid for _, sid, _, _ in carried}
        assert block.attempts == len(slots) <= 1 + MAX_RETX
        if crowd:  # a retransmission waits for room, never less than a RTT
            waits = [slots[k] - next_slot(slots[k - 1] + HARQ_RTT_SLOTS)
                     for k in range(1, len(slots))]
            assert min(waits, default=0) >= 0
            deferred += any(waits)
            assert (len(slots) == 1 + MAX_RETX or id(block) in pending
                    or sets <= queue.lost_sets)
        else:
            want = [slots[0]]
            for _ in range(MAX_RETX):
                want.append(next_slot(want[-1] + HARQ_RTT_SLOTS))
            want = [s for s in want if s < n_slots]
            if ul_video:
                assert slots == want[:len(slots)]
                if len(slots) < len(want):
                    assert sets <= queue.lost_sets  # stopped early: sets lost
            else:
                assert slots == want
        if len(slots) == 1 + MAX_RETX:
            exhausted += 1
            assert harq_exhausted(block) and id(block) not in pending
            assert all("harq" in causes[block.ue_id, sid] for sid in sets)
            assert sets <= queue.lost_sets
    assert exhausted > 30
    assert deferred > 30 if crowd else deferred == 0
    for kpi in result.xr_ues():
        assert kpi.pser > 0 and kpi.delivered_bits == 0
        assert kpi.frames_total > 0 and kpi.frames_in_budget == 0
    if pose_cg is not None:
        # pose losses stay in the pose queue, out of the video PSER
        for ue in sim.xr:
            assert not any(sid[0] == "pose" for sid in ue.queue.lost_sets)


@pytest.mark.parametrize("kw, sources", [
    (dict(embb_ues=2), {"video", "ftp"}),
    (dict(embb_ues=1, embb_full_buffer=True), {"video", "fb"}),
    (dict(direction=Direction.UL,
          pose_cg=CgConfig(periodicity_us=Fraction(4000),
                           occasions_per_period=1, rb_per_occasion=50,
                           uto_uci_window=4)), {"video", "pose"}),
], ids=["ftp", "full-buffer", "pose-cg"])
def test_every_source_enqueues_a_fresh_set(kw, sources, monkeypatch):
    # a set carries its own queue state, so no source may hand a queue a
    # set that was taken from or queued before
    seen = {}  # id -> set, kept alive so that no id is reused
    enqueue = FlowQueue.enqueue_set

    def checked(queue, s):
        assert s.taken == 0 and id(s) not in seen
        seen[id(s)] = s
        enqueue(queue, s)

    monkeypatch.setattr(FlowQueue, "enqueue_set", checked)
    CellSim(_short(**kw), seed=2).run()
    assert {"video" if isinstance(s.id[0], int) else s.id[0]
            for s in seen.values()} == sources


def test_short_adaptive_cycle_fails_when_the_config_is_built():
    # the ADRX grid's shortest on-duration is 2 ms: a 1.9 ms cycle leaves
    # the controller nothing to pick, which used to raise "min() arg is an
    # empty sequence" at its first update, mid-run
    cfg = CellConfig(ues_per_cell=2, duration_s=1.0, warmup_s=0.2,
                     drx=DrxConfig(cycle_us=Fraction(1900),
                                   on_duration_us=Fraction(1500),
                                   inactivity_us=Fraction(1000)))
    with pytest.raises(ValueError, match="at least 2 ms, got 1.9 ms"):
        replace(cfg, adaptive_drx=True)
    # the same cycle without the controller runs
    CellSim(cfg, seed=1).run()
