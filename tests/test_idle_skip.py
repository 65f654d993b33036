"""Idle slots: a cell that fast-forwards them gives the same results as one
that simulates every slot, and a DRX machine stepped only on the slots
where its UE has data gives the same results as one stepped on every
slot."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim.cellsim import CellConfig, CellSim
from xrsim.drx import DrxConfig
from xrsim.engine import SLOT_US, UPLINK, slot_type
from xrsim.scheduling import CgConfig, PolicyKind, SchedulerPolicy
from xrsim.traffic import Direction


def _run(cfg, cell, seed, skipping, eager_drx=False):
    """Result and per-UE activity (a DRX UE's log, the PDSCH slots of a UE
    without DRX) of one run of a drop's cell, with idle skipping on or off.
    With eager_drx, every DRX machine is caught up through each slot before
    the slot's frames are decided, as if it were stepped on every slot."""
    decide = CellSim._decide_frames

    def caught_up_first(self, now):
        for ue in self.drx_ues:
            self._catch_up(ue, min(now // self.slot_t + 1, self.n_slots))
        decide(self, now)

    with pytest.MonkeyPatch.context() as m:
        if not skipping:
            m.setattr(CellSim, "_idle", lambda self: False)
        if eager_drx:
            m.setattr(CellSim, "_decide_frames", caught_up_first)
        sim = CellSim(cfg, seed=seed, cell=cell)
        result = sim.run()
    return result, [(ue.activity.labels, ue.activity.counts)
                    if ue.activity is not None else list(ue.pdsch_slots)
                    for ue in sim.ues]


@st.composite
def idle_cells(draw, drx_modes=("off", "fixed", "adaptive"), pose_cg=False):
    """A config and one of its cells."""
    n_cells = draw(st.integers(1, 2))
    drx_mode = draw(st.sampled_from(drx_modes))
    drx = None
    if drx_mode != "off":
        drx = DrxConfig(
            cycle_us=Fraction(50_000, 3),
            on_duration_us=Fraction(draw(st.integers(1, 12)) * 1000),
            # inactivity timers under a slot end inside a slot
            inactivity_us=Fraction(draw(st.integers(0, 4000))))
    duration_us = draw(st.integers(60_000, 300_000))
    cfg = CellConfig(
        ues_per_cell=draw(st.integers(1, 4)),
        n_cells=n_cells,
        direction=draw(st.sampled_from([Direction.DL, Direction.UL])),
        rate_bps=draw(st.sampled_from([2e6, 10e6, 30e6, 45e6])),
        psdb_ms=draw(st.sampled_from([10.0, 30.0])),
        sets_per_frame=draw(st.sampled_from([1, 2, 4])),
        policy=SchedulerPolicy(kind=draw(st.sampled_from(list(PolicyKind)))),
        duration_s=duration_us / 1e6,
        # a slot of the run starts at or after its warm-up's end
        warmup_s=draw(st.integers(
            0, (-(-duration_us // SLOT_US) - 1) * SLOT_US)) / 1e6,
        drx=drx,
        drx_offset_mode=draw(st.sampled_from(["traffic", "common"])),
        adaptive_drx=drx_mode == "adaptive",
        adrx_epoch_frames=draw(st.integers(1, 4)),
        dsr_enabled=draw(st.booleans()),
        psi_discard_enabled=draw(st.booleans()),
        discard_timer_ms=draw(st.sampled_from(["psdb", None])),
        # pose traffic is sent on UL slots to UEs that may have no video
        # data queued, and a cell with it never idles
        pose_cg=(CgConfig(periodicity_us=Fraction(4000))
                 if pose_cg and draw(st.booleans()) else None),
        stagger=draw(st.booleans()))
    return cfg, draw(st.integers(0, n_cells - 1))


@settings(max_examples=150)
@given(idle_cells(), st.integers(0, 1000))
def test_skipping_idle_slots_changes_nothing(drawn, seed):
    full, full_activity = _run(*drawn, seed, False)
    skipped, skipped_activity = _run(*drawn, seed, True)
    assert skipped == full
    assert skipped_activity == full_activity


@settings(max_examples=100)
@given(idle_cells(drx_modes=["fixed", "adaptive"], pose_cg=True),
       st.integers(0, 1000))
def test_stepping_drx_only_with_data_changes_nothing(drawn, seed):
    # the cell must catch a machine up before an adaptive retune: a window
    # of the old grid that opens in a missed slot would be lost otherwise
    lazy, lazy_activity = _run(*drawn, seed, True)
    eager, eager_activity = _run(*drawn, seed, True, eager_drx=True)
    assert lazy == eager
    assert lazy_activity == eager_activity


@settings(max_examples=100)
@given(idle_cells(pose_cg=True), st.integers(0, 1000))
def test_slot_bookkeeping_holds_after_every_slot(drawn, seed):
    # the cell's count of undecided frames is the sum of its UEs' deques,
    # and a DL cell without CG has no UL block or grant that its bare UL
    # slots would leave unsent
    cfg, cell = drawn
    on_slot = CellSim._on_slot
    bare_ul = cfg.direction is Direction.DL and cfg.pose_cg is None

    def checked(self, slot):
        on_slot(self, slot)
        assert self.n_undecided == sum(len(ue.undecided) for ue in self.xr)
        if bare_ul:
            assert not [s for s in (*self.retx, *self.ul_grants)
                        if slot_type(s) == UPLINK]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(CellSim, "_on_slot", checked)
        CellSim(cfg, seed=seed, cell=cell).run()


def test_every_slot_covered_once_in_order(monkeypatch):
    # a light DRX cell that idles between frames, ending mid-slot: slots
    # [0, n) are each run once, by _on_slot or inside a _skip, in order,
    # and none starts at or after the end of the run
    cfg = CellConfig(ues_per_cell=2, rate_bps=5e6,
                     drx=DrxConfig(cycle_us=Fraction(50_000, 3),
                                   on_duration_us=Fraction(4000),
                                   inactivity_us=Fraction(2000)),
                     duration_s=0.5013, warmup_s=0.1003)
    plain = CellSim(cfg, seed=2).run()
    covered, skips = [], []
    on_slot, skip = CellSim._on_slot, CellSim._skip

    def counted_slot(self, slot):
        covered.append((slot, slot * self.slot_t < self.end_t))
        return on_slot(self, slot)

    def counted_skip(self, a, b):
        skips.append((a, b))
        covered.extend((s, s * self.slot_t < self.end_t) for s in range(a, b))
        return skip(self, a, b)

    monkeypatch.setattr(CellSim, "_on_slot", counted_slot)
    monkeypatch.setattr(CellSim, "_skip", counted_skip)
    counted = CellSim(cfg, seed=2).run()
    n_slots = math.ceil(cfg.duration_us / SLOT_US)
    assert [slot for slot, _ in covered] == list(range(n_slots))
    assert all(before_end for _, before_end in covered)
    assert len(skips) > 10 and all(a < b for a, b in skips)
    assert sum(b - a for a, b in skips) > n_slots / 2
    assert counted == plain
