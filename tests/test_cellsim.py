"""End to end sanity checks on the cell simulator."""

from fractions import Fraction

from xrsim.cellsim import CellConfig, CellSim
from xrsim.drx import DrxConfig, SLOT_PDSCH, SLOT_SLEEP
from xrsim.engine import SLOT_US, UPLINK, slot_type
from xrsim.scheduling import PolicyKind, SchedulerPolicy
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
