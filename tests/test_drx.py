from fractions import Fraction

import numpy as np
import pytest

from xrsim.drx import (
    ADRX_OFFSET_DELTA_MS,
    ADRX_ON_GRID_MS,
    ADRX_V,
    AdrxController,
    DrxConfig,
    DrxMachine,
    DrxMode,
    PowerModel,
    SLOT_PDCCH,
    SLOT_PDSCH,
    SLOT_SLEEP,
    cycle_start_exact,
    power_for_run,
    power_saving_gain,
)
from test_drx_property import reference_predict

FRAC_CYCLE = Fraction(50_000, 3)


def frac_cfg(**kw):
    base = dict(cycle_us=FRAC_CYCLE, on_duration_us=8000, inactivity_us=8000)
    base.update(kw)
    return DrxConfig(**base)


def test_on_duration_start_examples():
    assert cycle_start_exact(frac_cfg(), 600) == 10_000_000


def test_fractional_cycle_has_zero_drift():
    cfg = frac_cfg()
    period = FRAC_CYCLE
    offsets = {cycle_start_exact(cfg, k) - k * period for k in range(10_000)}
    assert offsets == {Fraction(0)}


def test_integer_cycle_drifts_two_thirds_ms():
    cfg = DrxConfig(cycle_us=Fraction(16_000), on_duration_us=8000,
                    inactivity_us=8000)
    drift = [k * FRAC_CYCLE - cycle_start_exact(cfg, k) for k in range(10_000)]
    steps = {b - a for a, b in zip(drift, drift[1:])}
    assert steps == {Fraction(2000, 3)}


def test_no_discontinuity_at_sfn_wrap():
    cfg = frac_cfg()
    wrap = 10_240_000  # µs
    ks = range(int(wrap / FRAC_CYCLE) - 2, int(wrap / FRAC_CYCLE) + 3)
    gaps = {cycle_start_exact(cfg, k + 1) - cycle_start_exact(cfg, k) for k in ks}
    assert gaps == {FRAC_CYCLE}


def test_machine_monitored_slots_per_cycle():
    m = DrxMachine(frac_cfg())
    monitored = []
    for slot in range(100):  # three full cycles
        _, mon = m.step(slot * 500)
        monitored.append(mon)
    # windows floored at 0, 16.5 ms, 33 ms; 16 slots each
    assert sum(monitored[:33]) == 16
    assert all(monitored[:16]) and not any(monitored[16:33])
    assert sum(monitored) == 48


def test_inactivity_timer_extends_monitoring():
    m = DrxMachine(frac_cfg())
    got = {}
    for slot in range(40):
        now = slot * 500
        mode, mon = m.step(now, new_data=(slot == 15))
        got[slot] = (mode, mon)
    # grant lands in the final on-duration slot: 16 extra monitored slots
    assert all(got[s][1] for s in range(16, 32))
    assert got[31][0] is DrxMode.INACTIVITY
    assert not got[32][1]
    assert got[32][0] is DrxMode.SLEEP


def test_scheduled_data_overrides_sleep():
    m = DrxMachine(frac_cfg())
    for slot in range(20):
        m.step(slot * 500)
    mode, mon = m.step(20 * 500, scheduled_data=True)
    assert mon and mode is DrxMode.INACTIVITY
    mode, mon = m.step(21 * 500)
    assert not mon and mode is DrxMode.SLEEP


def test_machine_retune_realigns_windows():
    m = DrxMachine(frac_cfg())
    for slot in range(34):
        m.step(slot * 500)
    m.retune(frac_cfg(on_duration_us=2000, start_offset_us=Fraction(20_000)),
             now=17_000)
    seen = []
    for slot in range(34, 90):
        _, mon = m.step(slot * 500)
        seen.append((slot * 500, mon))
    on_times = [t for t, mon in seen if mon]
    # the open old-grid window serves out to 24.5 ms, then the new grid
    # takes over: 36666.67 floored to 36.5 ms plus 4 slots of on-duration
    assert on_times == [17_000 + 500 * i for i in range(15)] + \
        [36_500, 37_000, 37_500, 38_000]


def test_config_validation():
    with pytest.raises(ValueError):
        DrxConfig(cycle_us=Fraction(10_000), on_duration_us=12_000,
                  inactivity_us=0)
    with pytest.raises(ValueError):
        DrxConfig(cycle_us=Fraction(0), on_duration_us=1, inactivity_us=0)


def test_adrx_shrinks_without_violations():
    ctrl = AdrxController(frac_cfg(), psdb_us=10_000.0)
    ctrl.q = 0.0  # power-greedy from the start
    for _ in range(200):
        ctrl.observe_frame(phase_us=1000.0, service_us=1500.0)
        cfg = ctrl.update(violations_in_epoch=0)
    assert cfg.on_duration_us == 2000
    assert ctrl.q == 0.0


def outcome_under(cfg, phase, service_us, psdb_us):
    # reference model of one frame's fate under a window config
    period = float(cfg.cycle_us)
    off = float(cfg.start_offset_us % cfg.cycle_us)
    rel = (phase - off) % period
    delay = 0.0 if rel < cfg.on_duration_us else period - rel
    return delay + service_us > psdb_us


def test_adrx_expands_under_violations():
    # frames at phase 9 ms with 3 ms service, and the window at offset 0 at
    # first: waiting for the next cycle busts the budget, so the first epoch
    # violates every frame, and the controller moves the window onto the
    # arrival phase, where a short on-duration delivers every frame in time
    ctrl = AdrxController(frac_cfg(), psdb_us=10_000.0)
    ctrl.q = 0.0  # power-greedy: only the violations push the window
    cfg = ctrl.current
    epochs = []
    for _ in range(40):
        viols = 0
        for _ in range(8):
            v = outcome_under(cfg, 9000.0, 3000.0, 10_000.0)
            viols += v
            ctrl.observe_frame(9000.0, 3000.0)
        cfg = ctrl.update(viols)
        epochs.append(viols)
    assert epochs == [8] + [0] * 39
    assert cfg.start_offset_us == 9000
    assert cfg.on_duration_us == 2000
    # the 8 violations, less the per-epoch target over 40 epochs
    assert ctrl.q == pytest.approx(8 - 40 * 0.01)


def test_adrx_offset_mode_closed_loop():
    rng = np.random.default_rng(3)
    # QoS-first start: violation pressure dominates from the first update
    ctrl = AdrxController(frac_cfg(), psdb_us=5_000.0)
    ctrl.q = 2000.0
    cfg = ctrl.current
    epochs = []
    for _ in range(60):
        viols = 0
        for _ in range(16):
            phase = 9000.0 + float(rng.uniform(-2000, 2000))
            v = outcome_under(cfg, phase, 1500.0, 5_000.0)
            viols += v
            ctrl.observe_frame(phase, 1500.0)
        cfg = ctrl.update(viols)
        epochs.append(viols)
    # converges: later epochs violation-free, predictions agree
    assert sum(epochs[-10:]) == 0
    fv, _ = reference_predict(ctrl, float(cfg.start_offset_us % cfg.cycle_us),
                              cfg.on_duration_us)
    assert fv == 0.0
    # the window tracks the arrival phase
    off = float(cfg.start_offset_us % cfg.cycle_us)
    assert 5000.0 <= off <= 13_000.0


def test_adrx_choice_is_grid_argmin():
    rng = np.random.default_rng(11)
    ctrl = AdrxController(frac_cfg(), psdb_us=8_000.0)
    for _ in range(50):
        ctrl.observe_frame(float(rng.uniform(0, 16_000)),
                           float(rng.uniform(500, 4000)))
    ctrl.q = 37.0
    cfg = ctrl.update(violations_in_epoch=0)
    anchor = ctrl._expected_phase()
    costs = []
    for on_ms in ADRX_ON_GRID_MS:
        for d in ADRX_OFFSET_DELTA_MS:
            off = (anchor + d * 1000.0) % float(FRAC_CYCLE)
            fv, act = reference_predict(ctrl, off, on_ms * 1000.0)
            costs.append(ctrl.q * fv + ADRX_V * act / 1000.0)
    got_fv, got_act = reference_predict(
        ctrl, float(cfg.start_offset_us % cfg.cycle_us), cfg.on_duration_us)
    got = ctrl.q * got_fv + ADRX_V * got_act / 1000.0
    assert got == pytest.approx(min(costs))


def test_power_examples():
    assert power_for_run([(SLOT_PDCCH, 10)]) == pytest.approx(1.0)
    # a 5-slot gap is too short for deep sleep: 5 * 0.4 + 5 * 1.0 over 10
    runs = [(SLOT_SLEEP, 5), (SLOT_PDCCH, 5)]
    assert power_for_run(runs) == pytest.approx(0.7)
    with_data = [(SLOT_PDSCH, 1), (SLOT_SLEEP, 4), (SLOT_PDCCH, 5)]
    assert power_for_run(with_data) > power_for_run(runs)


def test_power_states_are_ordered():
    assert (PowerModel.deep_sleep < PowerModel.light_sleep
            < PowerModel.pdcch_only < PowerModel.pdcch_plus_pdsch)
    # power_for_run adds a run of monitoring slots at once only because
    # both monitoring terms are whole
    assert PowerModel.pdcch_only.is_integer()
    assert PowerModel.pdcch_plus_pdsch.is_integer()


def test_power_sleep_depth_rules():
    # deep sleep beats light only past the break-even run length:
    # 0.04 L + 4 < 0.4 L at L > 100/9, so a 12-slot gap goes deep
    runs = [(SLOT_PDCCH, 2), (SLOT_SLEEP, 12), (SLOT_PDCCH, 2)]
    expect = (2 * 1.0 + 12 * 0.04 + 4.0 + 2 * 1.0) / 16
    assert power_for_run(runs) == pytest.approx(expect)
    # a 10-slot gap may enter deep sleep but light is cheaper, so it doesn't
    runs = [(SLOT_PDCCH, 2), (SLOT_SLEEP, 10), (SLOT_PDCCH, 2)]
    expect = (2 * 1.0 + 10 * 0.4 + 2 * 1.0) / 14
    assert power_for_run(runs) == pytest.approx(expect)
    # 4-slot nap stays in light sleep
    runs = [(SLOT_PDCCH, 2), (SLOT_SLEEP, 4), (SLOT_PDCCH, 2)]
    expect = (2 * 1.0 + 4 * 0.4 + 2 * 1.0) / 8
    assert power_for_run(runs) == pytest.approx(expect)


def test_power_saving_gain():
    assert power_saving_gain(1.0, 1.0) == 0.0
    assert power_saving_gain(0.77, 1.0) == pytest.approx(23.0)
    assert power_saving_gain(0.75, 1.0) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        power_saving_gain(1.0, 0.0)


def test_sleep_slots_never_monitor():
    m = DrxMachine(frac_cfg())
    for slot in range(500):
        mode, mon = m.step(slot * 500)
        if mode is DrxMode.SLEEP:
            assert not mon
        else:
            assert mon
