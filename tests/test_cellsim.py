"""End to end sanity checks on the cell simulator."""

import math
from fractions import Fraction
from itertools import repeat

import pytest

from xrsim.cellsim import CellConfig, CellSim
from xrsim.drx import DrxConfig, SLOT_PDSCH, SLOT_SLEEP
from xrsim.engine import SLOT_US, UPLINK, slot_type
from xrsim.qos import FlowQueue
from xrsim.scheduling import CgConfig, PolicyKind, SchedulerPolicy
from xrsim.traffic import Direction, Pdu, PduSet


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
    trace = sim.ues[0].trace
    assert SLOT_SLEEP in trace
    for slot, label in enumerate(trace):
        if label == SLOT_PDSCH:
            assert slot_type(slot) != UPLINK


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
    assert any(u.lcg.dsr_reported for u in sim.xr)
    assert all(k.frames_total > 0 for k in r.xr_ues())


def test_dl_cell_builds_no_pdu_objects(monkeypatch):
    # queues hold whole PDU sets; PDU objects exist only for callers that
    # ask a set for them
    built = []
    monkeypatch.setattr(Pdu, "__post_init__",
                        lambda self: built.append(self.id))
    sim = CellSim(_short(ues_per_cell=6, rate_bps=45e6, sets_per_frame=4,
                         embb_ues=2, psi_discard_enabled=True,
                         duration_s=1.0, warmup_s=0.2), seed=1)
    sim.run()
    assert sum(len(u.queue.events) for u in sim.xr) > 0  # discards ran
    assert built == []
    PduSet(("x",), 0, 0, Fraction(0), (100, 200)).pdus[1]
    assert built == [("x", 1)]  # the hook sees a PDU being built


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
    assert any(u.adrx.q != u.adrx.params.q0 for u in sim.xr)  # adapted
    assert all(k.frames_total > 0 for k in result.xr_ues())
    assert len(calls) < slots / 10


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_pf_update_once_per_grant(kind, monkeypatch):
    # a PF average is brought up to date when it is read; a DL slot pays
    # one pf_update per UE it serves, none for the UEs it does not
    import xrsim.cellsim as cellsim

    calls = []
    pf_update = cellsim.pf_update

    def counted(*args):
        calls.append(args)
        return pf_update(*args)

    monkeypatch.setattr(cellsim, "pf_update", counted)
    result = CellSim(_short(ues_per_cell=6, rate_bps=45e6, sets_per_frame=4,
                            embb_ues=2, embb_full_buffer=True,
                            duration_s=1.0, warmup_s=0.0,
                            policy=SchedulerPolicy(kind=kind)), seed=2).run()
    grants = sum(u.grants for u in result.ues)
    assert grants > 1000  # a busy cell: about one grant per DL slot or more
    assert len(calls) == grants


@pytest.mark.parametrize("kind, psi, embb", [
    (PolicyKind.PF, True, 2), (PolicyKind.PDUSET, True, 2),
    # nothing but a grant reads an average here
    (PolicyKind.PDUSET, False, 1)])
def test_pf_average_reads_as_if_updated_every_slot(kind, psi, embb,
                                                   monkeypatch):
    # every read of a lazily updated PF average (a metric, PSI discard, a
    # grant) sees what a per-slot update of every UE would hold
    import xrsim.cellsim as cellsim
    from xrsim.qos import FlowQueue
    from xrsim.scheduling import pf_update, reads_avg

    sim = CellSim(_short(ues_per_cell=3, rate_bps=45e6, sets_per_frame=4,
                         embb_ues=embb, embb_full_buffer=True,
                         psi_discard_enabled=psi, duration_s=0.5,
                         warmup_s=0.0, policy=SchedulerPolicy(kind=kind)),
                  seed=3)
    window = sim.cfg.policy.pf_avg_window
    eager = {ue.ue_id: 1.0 for ue in sim.ues}
    served = {}
    reads = []
    allocate_dl, dl_slot = cellsim.allocate_dl, CellSim._dl_slot
    psi_discard = FlowQueue.psi_discard

    def allocate(slot, cands, now, policy, **kwargs):
        reads.extend((c.avg_tput_bps, eager[c.ue_id]) for c in cands
                     if reads_avg(policy, c.is_xr, embb))
        out = allocate_dl(slot, cands, now, policy, **kwargs)
        served.update((a.ue_id, a.tb_bits) for a in out)
        return out

    def eager_dl_slot(self, *args):
        served.clear()
        dl_slot(self, *args)
        for ue_id, avg in eager.items():
            eager[ue_id] = pf_update(avg, served.get(ue_id, 0) * 2000, window)

    def psi_read(self, now, rate):
        reads.append((rate, max(eager[self.ue_id], 1e6)))
        return psi_discard(self, now, rate)

    monkeypatch.setattr(cellsim, "allocate_dl", allocate)
    monkeypatch.setattr(CellSim, "_dl_slot", eager_dl_slot)
    monkeypatch.setattr(FlowQueue, "psi_discard", psi_read)
    sim.run()
    assert len(reads) > (1000 if psi or embb > 1 else -1)
    assert all(got == want for got, want in reads)
    assert [sim._pf_avg(ue) for ue in sim.ues] == list(eager.values())


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


def test_skip_counts_the_dl_slots_it_skips():
    sim = CellSim(_short(ues_per_cell=1), seed=1)
    for a in range(60):
        for b in range(a, 60):
            sim.dl_slots = 0
            sim._skip(a, b)
            assert sim.dl_slots == sum(slot_type(s) != UPLINK
                                       for s in range(a, b)), (a, b)


@pytest.mark.parametrize("direction", [Direction.DL, Direction.UL])
def test_harq_exhaustion_loses_the_block(direction, monkeypatch):
    # with every attempt NACKed, each transport block is sent 1 + MAX_RETX
    # times, each retransmission on the first slot of the block's direction
    # at least HARQ_RTT_SLOTS after the attempt before it; then HARQ gives
    # up and the block's sets are lost
    import xrsim.cellsim as cellsim
    from xrsim.qos import FlowQueue
    from xrsim.radio import HARQ_RTT_SLOTS, MAX_RETX

    cfg = _short(ues_per_cell=1, direction=direction, rate_bps=5e6,
                 psdb_ms=30.0, discard_timer_ms=None, duration_s=1.5,
                 warmup_s=0.0)
    sim = CellSim(cfg, seed=1)
    sim.phy_uniforms = repeat(0.0)  # every draw 0.0: every attempt NACKs
    current = [None]
    taken = []  # the sets of each non-empty take, in order
    blocks = []  # (process, sets carried, slots of its attempts)
    by_proc = {}
    on_slot, take, attempt = (CellSim._on_slot, FlowQueue.take,
                              cellsim.harq_attempt)

    def at_slot(self, slot):
        current[0] = slot
        return on_slot(self, slot)

    def taking(self, max_bytes, now=None):
        segs = take(self, max_bytes, now)
        if segs:
            taken.append({s.pdu_set.id for s in segs})
        return segs

    def attempting(proc, sinr_db, rng):
        if proc.attempts == 0:  # a first transmission carries the last take
            by_proc[id(proc)] = (proc, taken.pop(0), [])
            blocks.append(by_proc[id(proc)])
        by_proc[id(proc)][2].append(current[0])
        return attempt(proc, sinr_db, rng)

    monkeypatch.setattr(CellSim, "_on_slot", at_slot)
    monkeypatch.setattr(FlowQueue, "take", taking)
    monkeypatch.setattr(cellsim, "harq_attempt", attempting)
    result = sim.run()

    def next_slot(slot):  # the first slot of the direction at or after slot
        while (slot_type(slot) == UPLINK) != (direction is Direction.UL):
            slot += 1
        return slot

    n_slots = math.ceil(cfg.duration_us / SLOT_US)
    ids = [sid for _, sets, _ in blocks for sid in sets]
    assert len(ids) == len(set(ids))  # no set rides in two blocks
    causes = {}
    for e in sim.xr[0].queue.events:
        causes.setdefault(e.set_id, set()).add(e.cause)
    exhausted = 0
    for _, sets, slots in blocks:
        want = [slots[0]]
        for _ in range(MAX_RETX):
            want.append(next_slot(want[-1] + HARQ_RTT_SLOTS))
        assert slots == [s for s in want if s < n_slots]
        if len(slots) == 1 + MAX_RETX:
            exhausted += 1
            assert all("harq" in causes[sid] for sid in sets)
            assert sets <= sim.xr[0].queue.lost_sets
    assert exhausted > 30
    kpi = result.xr_ues()[0]
    assert kpi.pser > 0
    assert kpi.frames_total > 0 and kpi.frames_in_budget == 0
    assert not any(ok for _, ok in kpi.outcomes)


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
