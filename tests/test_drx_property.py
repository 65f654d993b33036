"""Property tests: DRX is unit-free, skipping idle slots equals stepping
them, the power of activity runs equals that of a per-slot walk, and the
ADRX search picks as before."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim.drx import (ADRX_HISTORY, ADRX_OFFSET_DELTA_MS, ADRX_ON_GRID_MS,
                       ADRX_PHASE_GUARD_US, ADRX_TARGET_VIOLATIONS, ADRX_V,
                       ADRX_WAIT_TOLERANCE_US, SLOT_PDCCH, SLOT_PDSCH,
                       SLOT_SLEEP, ActivityLog, AdrxController, DrxConfig,
                       DrxMachine, PowerModel, power_for_run)
from xrsim.engine import SLOT_US
from xrsim.scheduling import pf_idle, pf_update


def rationals(lo, hi):
    """Fractions in [lo, hi] µs with denominators 1 to 7."""
    return st.builds(lambda den, x: Fraction(round(x * den), den),
                     st.integers(1, 7), st.floats(lo, hi))


@st.composite
def drx_configs(draw):
    cycle = draw(rationals(2000, 40_000))
    on = draw(rationals(1, float(cycle)).filter(lambda v: 0 < v <= cycle))
    return DrxConfig(cycle_us=cycle, on_duration_us=on,
                     # timers under a slot or two expose slot rounding
                     inactivity_us=draw(st.one_of(rationals(0, 1500),
                                                  rationals(0, 20_000))),
                     start_offset_us=draw(rationals(0, 2 * float(cycle))))


def in_ticks(cfg, tpu):
    return DrxConfig(cycle_us=int(cfg.cycle_us * tpu),
                     on_duration_us=int(cfg.on_duration_us * tpu),
                     inactivity_us=int(cfg.inactivity_us * tpu),
                     start_offset_us=int(cfg.start_offset_us * tpu))


# per slot, as the cell drives a machine: (new_data, scheduled_data) of
# its first step, and whether a granting step follows in the same slot
slot_calls = st.tuples(st.booleans(), st.booleans(), st.booleans())


@settings(max_examples=150)
@given(drx_configs(), drx_configs(), st.lists(slot_calls, min_size=100,
                                                max_size=300), st.data())
def test_drx_machine_same_in_any_unit(cfg, cfg2, calls, data):
    retune_slot = data.draw(st.integers(0, len(calls) - 1))
    times = [getattr(c, f) for c in (cfg, cfg2)
             for f in ("cycle_us", "on_duration_us", "inactivity_us",
                       "start_offset_us")]
    tpu = math.lcm(*(t.denominator for t in times))
    us = DrxMachine(cfg)
    ticks = DrxMachine(in_ticks(cfg, tpu), slot=SLOT_US * tpu)
    for slot, (new_data, scheduled, grant) in enumerate(calls):
        now = slot * SLOT_US
        if slot == retune_slot:
            us.retune(cfg2, now)
            ticks.retune(in_ticks(cfg2, tpu), now * tpu)
        assert (us.step(now, new_data, scheduled)
                == ticks.step(now * tpu, new_data, scheduled))
        if grant:
            assert us.step(now, True, True) == ticks.step(now * tpu, True, True)


def machine_state(m):
    return m.next_start, m._next_floor, m.on_expiry, m.inactivity_expiry


@settings(max_examples=200)
@given(drx_configs(), drx_configs(), st.lists(slot_calls, max_size=60),
       st.lists(st.integers(0, 200), min_size=1, max_size=4), st.data())
def test_drx_skip_equals_idle_steps(cfg, cfg2, calls, gaps, data):
    # after a random prefix of grants and data, with a retune drawn inside
    # it, each skip of n slots gives the runs and the state of n idle steps
    times = [getattr(c, f) for c in (cfg, cfg2)
             for f in ("cycle_us", "on_duration_us", "inactivity_us",
                       "start_offset_us")]
    tpu = math.lcm(*(t.denominator for t in times))
    slot = SLOT_US * tpu
    stepped, skipped = (DrxMachine(in_ticks(cfg, tpu), slot=slot)
                        for _ in range(2))
    retune_slot = data.draw(st.integers(0, len(calls)))
    now = 0
    for i, call in enumerate(calls + [None] * len(gaps)):
        if i == retune_slot:
            for m in (stepped, skipped):
                m.retune(in_ticks(cfg2, tpu), now)
        if call is None:  # an idle gap
            n = gaps[i - len(calls)]
            runs = []
            for k in range(n):
                monitoring = stepped.step(now + k * slot, False, False)[1]
                if runs and runs[-1][0] == monitoring:
                    runs[-1] = (monitoring, runs[-1][1] + 1)
                else:
                    runs.append((monitoring, 1))
            assert skipped.skip(now, n) == runs
            now += n * slot
        else:
            new_data, scheduled, grant = call
            for m in (stepped, skipped):
                m.step(now, new_data, scheduled)
                if grant:
                    m.step(now, True, True)
            now += slot
        assert machine_state(skipped) == machine_state(stepped)


# per slot, as the cell drives a machine lazily: None is a slot with no data
# (caught up later), "sent" one whose data goes out with no step (a UL
# slot), and a slot_calls tuple one that is stepped; a retune may follow
lazy_slots = st.tuples(st.one_of(st.none(), st.just("sent"), slot_calls),
                       st.booleans())


@settings(max_examples=200)
@given(drx_configs(), drx_configs(),
       st.lists(st.one_of(lazy_slots, st.tuples(st.none(), st.just(False))),
                min_size=1, max_size=200))
def test_caught_up_machine_equals_one_stepped_every_slot(cfg, cfg2, slots):
    # the eager machine is stepped on every slot but the sent ones and
    # labels each slot; the lazy one is stepped only on busy slots, and
    # skips the slots it missed before a step, a send, a retune and the end
    times = [getattr(c, f) for c in (cfg, cfg2)
             for f in ("cycle_us", "on_duration_us", "inactivity_us",
                       "start_offset_us")]
    tpu = math.lcm(*(t.denominator for t in times))
    slot_t = SLOT_US * tpu
    eager, lazy = (DrxMachine(in_ticks(cfg, tpu), slot=slot_t)
                   for _ in range(2))
    eager_log, lazy_log = ActivityLog(), ActivityLog()
    done = 0  # the first slot not yet in the lazy log

    def catch_up(upto):
        for monitoring, k in lazy.skip(done * slot_t, upto - done):
            lazy_log.add(SLOT_PDCCH if monitoring else SLOT_SLEEP, k)

    for slot, (call, retune) in enumerate(slots):
        now = slot * slot_t
        if call == "sent":
            eager_log.add(SLOT_PDSCH)
            catch_up(slot)
            lazy_log.add(SLOT_PDSCH)
            done = slot + 1
        elif call is None:
            monitoring = eager.step(now, False, False)[1]
            eager_log.add(SLOT_PDCCH if monitoring else SLOT_SLEEP)
        else:
            new_data, scheduled, grant = call
            catch_up(slot)
            flags = [m.step(now, new_data, scheduled)[1]
                     for m in (eager, lazy)]
            assert flags[0] == flags[1]
            if grant:
                for m in (eager, lazy):
                    m.step(now, True, True)
            done = slot + 1
            eager_log.add(SLOT_PDSCH if scheduled or grant
                          else SLOT_PDCCH if flags[0] else SLOT_SLEEP)
            lazy_log.add(SLOT_PDSCH if scheduled or grant
                         else SLOT_PDCCH if flags[1] else SLOT_SLEEP)
        if retune:
            catch_up(slot + 1)
            done = slot + 1
            for m in (eager, lazy):
                m.retune(in_ticks(cfg2, tpu), now)
    catch_up(len(slots))
    assert (lazy_log.labels, lazy_log.counts) == (eager_log.labels,
                                                   eager_log.counts)
    assert sum(lazy_log.counts) == len(slots)


def _power_per_slot(trace):
    """The power model as a walk over a per-slot trace of labels."""
    model = PowerModel
    total = 0.0
    i = 0
    n = len(trace)
    while i < n:
        label = trace[i]
        if label != SLOT_SLEEP:
            total += (model.pdcch_plus_pdsch if label == SLOT_PDSCH
                      else model.pdcch_only)
            i += 1
            continue
        j = i
        while j < n and trace[j] == SLOT_SLEEP:
            j += 1
        run = j - i
        light = run * model.light_sleep
        if run >= model.min_deep_dwell_slots:
            total += min(light, run * model.deep_sleep + model.transition_energy)
        else:
            total += light
        i = j
    return total / n


# runs as fed, not merged: sleep runs from a few slots to well past the
# deep-sleep dwell, monitoring runs long enough to add many rounded terms
# after a sleep run has left a fraction in the total
fed_runs = st.lists(st.tuples(st.sampled_from([SLOT_PDCCH, SLOT_PDSCH,
                                               SLOT_SLEEP]),
                              st.integers(1, 40)), min_size=1, max_size=40)


@settings(max_examples=300)
@given(fed_runs, st.data())
def test_power_of_runs_equals_per_slot_walk(runs, data):
    trace = [label for label, k in runs for _ in range(k)]
    cut = data.draw(st.integers(0, len(trace) - 1))
    log = ActivityLog()
    for label, k in runs:
        log.add(label, k)
    want = _power_per_slot(trace[cut:])
    assert power_for_run(log.runs(cut)) == want  # bit for bit
    if cut == 0:
        assert power_for_run(runs) == want


@settings(max_examples=200)
@given(st.one_of(st.just(0.0), st.floats(0, 1e9), st.floats(0, 1e-300)),
       st.integers(0, 2_000))
def test_pf_idle_equals_updates_with_nothing_served(avg, slots):
    want = avg
    for _ in range(slots):
        want = pf_update(want, 0)
    assert pf_idle(avg, slots).hex() == want.hex()  # bit for bit


def reference_predict(ctrl, offset_us, on_dur_us):
    """(violation fraction, active µs per cycle) of one candidate window, as
    one loop over the phases and services the controller keeps."""
    period = float(ctrl.current.cycle_us)
    viol = 0
    excess = 0.0
    tol = ADRX_WAIT_TOLERANCE_US
    guard = ADRX_PHASE_GUARD_US
    for phase, service in zip(ctrl.phases, ctrl.services):
        worst = 0.0
        for ph in (phase - guard, phase + guard):
            rel = (ph - offset_us) % period
            delay = 0.0 if rel < on_dur_us else period - rel
            worst = max(worst, delay)
        if worst > tol or worst + service > ctrl.psdb_us:
            viol += 1
        excess += max(0.0, service - on_dur_us)
    if not ctrl.phases:
        return 0.0, on_dur_us
    n = len(ctrl.phases)
    return viol / n, on_dur_us + excess / n


def reference_anchor(ctrl):
    """The circular mean of the kept phases, each phase's trigonometry
    worked out afresh at the cycle of the controller's current config."""
    period = float(ctrl.current.cycle_us)
    ang = [2 * math.pi * phase / period for phase in ctrl.phases]
    s = sum(map(math.sin, ang))
    c = sum(map(math.cos, ang))
    if s == 0 and c == 0:
        return 0.0
    return (math.atan2(s, c) % (2 * math.pi)) * period / (2 * math.pi)


def reference_update(ctrl, violations_in_epoch):
    """AdrxController.update as a loop over reference_predict."""
    ctrl.q = max(ctrl.q + violations_in_epoch - ADRX_TARGET_VIOLATIONS, 0.0)
    if not ctrl.phases:
        return ctrl.current
    cur = ctrl.current
    base_offset = float(cur.start_offset_us % cur.cycle_us)
    anchor = ctrl._expected_phase()
    offsets = [(anchor + d * 1000.0) % float(cur.cycle_us)
               for d in ADRX_OFFSET_DELTA_MS]
    best = None
    for on_ms in ADRX_ON_GRID_MS:
        on_us = on_ms * 1000.0
        if on_us > float(cur.cycle_us):
            continue
        for off in offsets:
            frac, active = reference_predict(ctrl, off, on_us)
            cost = ctrl.q * frac + ADRX_V * active / 1000.0
            key = (cost, on_us, abs(off - base_offset), off)
            if best is None or key < best[0]:
                best = (key, off, on_us)
    _, off, on_us = best
    return DrxConfig(cycle_us=cur.cycle_us, on_duration_us=int(round(on_us)),
                     inactivity_us=cur.inactivity_us,
                     start_offset_us=Fraction(int(round(off))))


PSDB_US = 10_000
# services at each grid on-duration, at the budget, and at the budget less
# the longest tolerated wait sit on the edges of the excess and of the
# budget test
services = st.one_of(st.floats(0, 15_000), st.sampled_from(
    [on_ms * 1000.0 for on_ms in ADRX_ON_GRID_MS]
    + [float(PSDB_US), PSDB_US - ADRX_WAIT_TOLERANCE_US]))
observations = st.one_of(
    st.lists(st.tuples(st.floats(0, 1.0), services), max_size=64),
    st.lists(st.tuples(st.floats(0, 1.0), services), min_size=1, max_size=1))
# a phase exactly at a candidate offset, minus or plus the guard: a shifted
# phase then lies on the offset, or a guard's width either side of it
edge_phases = st.lists(st.tuples(st.sampled_from(ADRX_OFFSET_DELTA_MS),
                                 st.sampled_from((-1, 1)), services),
                       min_size=1, max_size=8)


@settings(max_examples=300)
@given(observations, st.floats(0, 200), st.integers(0, 16),
       st.sampled_from([Fraction(50_000, 3), Fraction(16_000),
                        Fraction(50_000_000, 2997)]),
       st.integers(0, 20_000),
       st.none() | st.tuples(st.integers(0, 16_000), edge_phases))
def test_adrx_search_unchanged(obs, q, viols, cycle, base_off, pinned):
    base = DrxConfig(cycle_us=cycle, on_duration_us=8000,
                     inactivity_us=2000, start_offset_us=Fraction(base_off))
    ctrl, ref = (AdrxController(base, PSDB_US) for _ in range(2))
    period = float(cycle)
    history = [(frac * period, service) for frac, service in obs]
    with pytest.MonkeyPatch.context() as m:
        if pinned is not None:
            # the expected phase pinned to a whole µs, which puts the
            # candidate offsets, and these phases, where the test knows
            anchor, edges = pinned
            anchor = float(anchor) % period
            m.setattr(AdrxController, "_expected_phase", lambda self: anchor)
            history += [((anchor + d * 1000.0) % period
                         + side * ADRX_PHASE_GUARD_US, service)
                        for d, side, service in edges]
        for c in (ctrl, ref):
            c.q = q
            for phase, service in history:
                c.observe_frame(phase, service)
        # the controller keeps the last frames as it saw them
        kept = history[-ADRX_HISTORY:]
        assert list(zip(ctrl.phases, ctrl.services)) == kept
        for _ in range(2):  # the second search starts from the first's choice
            if pinned is None:
                assert ctrl._expected_phase() == reference_anchor(ctrl)
            ref.current = reference_update(ref, viols)
            assert ctrl.update(viols) == ref.current
            assert ctrl.q == ref.q
