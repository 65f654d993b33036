"""Property tests: DRX is unit-free, and the ADRX search picks as before."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim.drx import AdrxController, AdrxParams, DrxConfig, DrxMachine
from xrsim.engine import SLOT_US


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


def reference_predict(ctrl, offset_us, on_dur_us):
    """AdrxController.predict as one loop over the observations."""
    period = float(ctrl.current.cycle_us)
    viol = 0
    excess = 0.0
    tol = ctrl.params.wait_tolerance_us
    guard = ctrl.params.phase_guard_us
    for o in ctrl.observations:
        worst = 0.0
        for ph in (o.phase_us - guard, o.phase_us + guard):
            rel = (ph - offset_us) % period
            delay = 0.0 if rel < on_dur_us else period - rel
            worst = max(worst, delay)
        if worst > tol or worst + o.service_us > ctrl.psdb_us:
            viol += 1
        excess += max(0.0, o.service_us - on_dur_us)
    if not ctrl.observations:
        return 0.0, on_dur_us
    n = len(ctrl.observations)
    return viol / n, on_dur_us + excess / n


def reference_update(ctrl, violations_in_epoch):
    """AdrxController.update as a loop over reference_predict."""
    ctrl.q = max(ctrl.q + violations_in_epoch - ctrl.params.target_violations,
                 0.0)
    if not ctrl.observations:
        return ctrl.current
    cur = ctrl.current
    base_offset = float(cur.start_offset_us % cur.cycle_us)
    if ctrl.params.adapt_offset:
        anchor = ctrl._expected_phase()
        offsets = [(anchor + d * 1000.0) % float(cur.cycle_us)
                   for d in ctrl.params.offset_delta_ms]
    else:
        offsets = [base_offset]
    best = None
    for on_ms in ctrl.params.on_grid_ms:
        on_us = on_ms * 1000.0
        if on_us > float(cur.cycle_us):
            continue
        for off in offsets:
            frac, active = reference_predict(ctrl, off, on_us)
            cost = ctrl.q * frac + ctrl.params.v * active / 1000.0
            key = (cost, on_us, abs(off - base_offset), off)
            if best is None or key < best[0]:
                best = (key, off, on_us)
    _, off, on_us = best
    return DrxConfig(cycle_us=cur.cycle_us, on_duration_us=int(round(on_us)),
                     inactivity_us=cur.inactivity_us,
                     start_offset_us=Fraction(int(round(off))),
                     short_cycle=cur.short_cycle,
                     retx_monitoring=cur.retx_monitoring)


observations = st.lists(
    st.tuples(st.floats(0, 1.0), st.floats(0, 15_000), st.booleans()),
    max_size=64)


@settings(max_examples=150)
@given(observations, st.floats(0, 200), st.booleans(), st.integers(0, 16),
       st.sampled_from([Fraction(50_000, 3), Fraction(16_000),
                        Fraction(50_000_000, 2997)]),
       st.integers(0, 20_000), st.floats(-5_000, 20_000))
def test_adrx_search_unchanged(obs, q, adapt_offset, viols, cycle, base_off,
                               probe_off):
    base = DrxConfig(cycle_us=cycle, on_duration_us=8000,
                     inactivity_us=2000, start_offset_us=Fraction(base_off))
    params = AdrxParams(q0=q, adapt_offset=adapt_offset)
    ctrl, ref = (AdrxController(params, base, 10_000) for _ in range(2))
    for c in (ctrl, ref):
        for frac, service, violated in obs:
            c.observe_frame(frac * float(cycle), service, violated)
    for on_ms in params.on_grid_ms:
        assert (ctrl.predict(probe_off, on_ms * 1000.0)
                == reference_predict(ref, probe_off, on_ms * 1000.0))
    for _ in range(2):  # the second search starts from the first's choice
        ref.current = reference_update(ref, viols)
        assert ctrl.update(viols) == ref.current
        assert ctrl.q == ref.q
