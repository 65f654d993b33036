"""The timer-discard bound: a cell runs its discards only from the least
``expires_at`` of its queues, and a queue scans its sets only from its own
bound. Neither gate may delay a discard, so a cell whose gates are forced
open on every slot gives the same results and the same discard log."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim.cellsim import CellConfig, CellSim
from xrsim.engine import SLOT_US
from xrsim.qos import FlowQueue
from xrsim.scheduling import PolicyKind, SchedulerPolicy
from xrsim.traffic import Direction


def _run(cfg, seed, gated):
    """Result and per-UE discard log (set id, cause, time) of cell 0, with
    the discard gates as they are or forced open on every slot. A gated
    cell must mark each discarded set's frame lost in the slot of the
    discard, also when the discard empties the queue."""
    on_slot, discard_expired = CellSim._on_slot, FlowQueue.discard_expired

    def synced_slot(self, slot):
        on_slot(self, slot)
        assert all(ue.events_seen == len(ue.queue.events) for ue in self.xr)

    def every_slot(self, slot):
        self.discard_at = 0
        return on_slot(self, slot)

    def every_scan(self, now):
        if self.profile.discard_timer_ms is not None:
            self.expires_at = -math.inf
        return discard_expired(self, now)

    with pytest.MonkeyPatch.context() as m:
        if gated:
            m.setattr(CellSim, "_on_slot", synced_slot)
        else:
            m.setattr(CellSim, "_on_slot", every_slot)
            m.setattr(FlowQueue, "discard_expired", every_scan)
        sim = CellSim(cfg, seed=seed)
        result = sim.run()
    return result, [[(e.set_id, e.cause, e.time_us) for e in ue.queue.events]
                    for ue in sim.ues]


@st.composite
def loaded_cells(draw):
    """A cell loaded enough for sets to outlive short timers. At 240 fps the
    DL arrival jitter reorders frames, and a frame rate in 1/1001 steps puts
    the cell on ticks shorter than a µs."""
    duration_us = draw(st.integers(100_000, 300_000))
    return CellConfig(
        ues_per_cell=draw(st.integers(1, 4)),
        direction=draw(st.sampled_from([Direction.DL, Direction.UL])),
        rate_bps=draw(st.sampled_from([10e6, 30e6, 45e6])),
        fps=draw(st.sampled_from([Fraction(60), Fraction(240),
                                  Fraction(240_000, 1001)])),
        psdb_ms=draw(st.sampled_from([5.0, 10.0, 30.0])),
        sets_per_frame=draw(st.sampled_from([1, 2, 4])),
        policy=SchedulerPolicy(kind=draw(st.sampled_from(list(PolicyKind)))),
        duration_s=duration_us / 1e6,
        warmup_s=draw(st.integers(
            0, (-(-duration_us // SLOT_US) - 1) * SLOT_US)) / 1e6,
        embb_ues=draw(st.integers(0, 1)),
        psi_discard_enabled=draw(st.booleans()),
        # timers whose µs are not whole ticks, nor a whole number at all
        discard_timer_ms=draw(st.one_of(
            st.sampled_from(["psdb", None, 7.3, 2.5]),
            st.floats(0.5, 20.0))),
        stagger=draw(st.booleans()))


@settings(max_examples=120)
@given(loaded_cells(), st.integers(0, 1000))
def test_discard_bound_never_delays_a_discard(cfg, seed):
    gated, gated_log = _run(cfg, seed, True)
    forced, forced_log = _run(cfg, seed, False)
    assert gated == forced
    assert gated_log == forced_log


def test_gate_skips_slots_and_still_discards():
    # 8 UEs at 45 Mbps load the cell enough for a 5 ms timer to fire, and
    # between the firings most slots run no discard at all
    cfg = CellConfig(ues_per_cell=8, rate_bps=45e6, fps=Fraction(240),
                     discard_timer_ms=5.0, duration_s=0.5, warmup_s=0.1)
    calls = []
    discards = CellSim._discards

    def counted(self, now):
        calls.append(now)
        return discards(self, now)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(CellSim, "_discards", counted)
        sim = CellSim(cfg, seed=1)
        gated = sim.run()
    timer_events = sum(e.cause == "timer" for ue in sim.ues
                       for e in ue.queue.events)
    assert timer_events > 0
    assert 0 < len(calls) < sim.n_slots / 2
    assert gated == _run(cfg, 1, False)[0]
