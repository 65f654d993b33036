"""Idle slots: a cell that fast-forwards them gives the same results as one
that simulates every slot."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from xrsim.cellsim import CellConfig, CellSim
from xrsim.drx import DrxConfig
from xrsim.engine import SLOT_US
from xrsim.scheduling import PolicyKind, SchedulerPolicy
from xrsim.traffic import Direction


def _run(cfg, seed, skipping):
    """Result and per-UE traces of one run, with idle skipping on or off."""
    with pytest.MonkeyPatch.context() as m:
        if not skipping:
            m.setattr(CellSim, "_idle", lambda self: False)
        sim = CellSim(cfg, seed=seed)
        result = sim.run()
    return result, [ue.trace for ue in sim.ues]


@st.composite
def idle_cells(draw):
    drx_mode = draw(st.sampled_from(["off", "fixed", "adaptive"]))
    drx = None
    if drx_mode != "off":
        drx = DrxConfig(
            cycle_us=Fraction(50_000, 3),
            on_duration_us=Fraction(draw(st.integers(1, 12)) * 1000),
            # inactivity timers under a slot end inside a slot
            inactivity_us=Fraction(draw(st.integers(0, 4000))))
    duration_us = draw(st.integers(60_000, 300_000))
    return CellConfig(
        ues_per_cell=draw(st.integers(1, 4)),
        n_cells=draw(st.integers(1, 2)),
        direction=draw(st.sampled_from([Direction.DL, Direction.UL])),
        rate_bps=draw(st.sampled_from([2e6, 10e6, 30e6, 45e6])),
        psdb_ms=draw(st.sampled_from([10.0, 30.0])),
        sets_per_frame=draw(st.sampled_from([1, 2, 4])),
        policy=SchedulerPolicy(kind=draw(st.sampled_from(list(PolicyKind)))),
        duration_s=duration_us / 1e6,
        warmup_s=draw(st.integers(0, duration_us)) / 1e6,
        drx=drx,
        drx_offset_mode=draw(st.sampled_from(["traffic", "common"])),
        adaptive_drx=drx_mode == "adaptive",
        adrx_epoch_frames=draw(st.integers(1, 4)),
        dsr_enabled=draw(st.booleans()),
        psi_discard_enabled=draw(st.booleans()),
        discard_timer_ms=draw(st.sampled_from(["psdb", None])),
        stagger=draw(st.booleans()))


@settings(max_examples=150)
@given(idle_cells(), st.integers(0, 1000))
def test_skipping_idle_slots_changes_nothing(cfg, seed):
    try:
        full, full_traces = _run(cfg, seed, False)
    except AssertionError:
        # the DL HARQ RB overflow (ROADMAP item 4) crashes both runs alike
        with pytest.raises(AssertionError):
            _run(cfg, seed, True)
        reject()
    skipped, skipped_traces = _run(cfg, seed, True)
    assert skipped == full
    assert skipped_traces == full_traces


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
