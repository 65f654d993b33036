"""Connected-mode DRX, adaptive DRX control, and the UE power model."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Optional

from .engine import SLOT_US, to_ticks


class DrxMode(Enum):
    ON_DURATION = "on"
    INACTIVITY = "inactivity"
    SLEEP = "sleep"


@dataclass(frozen=True)
class DrxConfig:
    cycle_us: Fraction
    on_duration_us: int
    inactivity_us: int
    start_offset_us: Fraction = Fraction(0)
    short_cycle: Optional[tuple] = None  # accepted, not exercised by scenarios
    retx_monitoring: bool = True

    def __post_init__(self):
        if self.cycle_us <= 0 or self.on_duration_us <= 0 or self.inactivity_us < 0:
            raise ValueError("drx durations must be positive")
        if self.on_duration_us > self.cycle_us:
            raise ValueError("on-duration cannot exceed the cycle")

    def in_ticks(self, tpu: int) -> DrxConfig:
        """The same config with its times in ticks of 1/tpu µs."""
        return replace(self, cycle_us=to_ticks(self.cycle_us, tpu),
                       on_duration_us=to_ticks(self.on_duration_us, tpu),
                       inactivity_us=to_ticks(self.inactivity_us, tpu),
                       start_offset_us=to_ticks(self.start_offset_us, tpu))


def cycle_start_exact(cfg: DrxConfig, k: int) -> Fraction:
    return cfg.start_offset_us + k * cfg.cycle_us


def on_duration_starts(cfg: DrxConfig, n: int) -> list[int]:
    """First n window starts, exact rational grid floored to slot boundaries."""
    return [cycle_start_exact(cfg, k) // SLOT_US * SLOT_US for k in range(n)]


class DrxMachine:
    """Per-slot DRX bookkeeping, driven once per slot by the cell.

    Times are in µs with 500 µs slots by default. A cell on an integer
    clock passes its config and times in ticks and its slot length in
    ticks, and the machine then does integer arithmetic only.
    """

    def __init__(self, cfg: DrxConfig, now=0, slot=SLOT_US):
        self.cfg = cfg
        self.slot = slot
        self.next_start = cfg.start_offset_us
        self._align(now)
        self.on_expiry: float = -math.inf
        self.inactivity_expiry: float = -math.inf
        self.mode = DrxMode.SLEEP

    def _align(self, now):
        cfg = self.cfg
        if now > self.next_start:
            k = -((cfg.start_offset_us - now) // cfg.cycle_us)  # ceil
            self.next_start = cycle_start_exact(cfg, k)
        # slot-floored next_start, kept until next_start moves
        self._next_floor = self.next_start // self.slot * self.slot

    def retune(self, cfg: DrxConfig, now):
        """Adopt an adapted configuration; windows re-anchor to its grid.

        An already-open window serves out under its old expiry, and a
        new-grid window that would be open right now opens retroactively,
        so reconfiguration never creates a monitoring gap."""
        self.cfg = cfg
        self.next_start = cfg.start_offset_us
        self._align(now)
        prev = self.next_start - cfg.cycle_us
        if prev >= cfg.start_offset_us:
            floored = prev // self.slot * self.slot
            if floored + cfg.on_duration_us > now:
                self.on_expiry = max(self.on_expiry,
                                     floored + cfg.on_duration_us)

    def step(self, now, new_data: bool = False,
             scheduled_data: bool = False) -> tuple[DrxMode, bool]:
        """Advance one slot. new_data: PDCCH with a fresh grant this slot;
        scheduled_data: the slot carries PDSCH/PUSCH for this UE anyway."""
        floored = self._next_floor
        if floored <= now:
            cfg = self.cfg
            slot = self.slot
            while floored <= now:
                self.on_expiry = max(self.on_expiry,
                                     floored + cfg.on_duration_us)
                self.next_start = self.next_start + cfg.cycle_us
                floored = self.next_start // slot * slot
            self._next_floor = floored
        in_on = now < self.on_expiry
        if new_data:
            # timer runs from the end of the granting slot
            self.inactivity_expiry = now + self.slot + self.cfg.inactivity_us
        inactive_ext = now < self.inactivity_expiry
        monitoring = in_on or inactive_ext or scheduled_data
        if in_on:
            self.mode = DrxMode.ON_DURATION
        elif inactive_ext or scheduled_data:
            self.mode = DrxMode.INACTIVITY
        else:
            self.mode = DrxMode.SLEEP
        return self.mode, monitoring


@dataclass
class AdrxParams:
    on_grid_ms: tuple = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    offset_delta_ms: tuple = (-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0)
    v: float = 10.0
    target_violations: float = 0.01  # per update epoch
    adapt_offset: bool = True  # False adapts on-duration only
    history: int = 64
    # initial virtual-queue backlog; > 0 starts the controller QoS-first
    # instead of power-greedy
    q0: float = 0.0
    # a candidate window counts an arrival it would leave sleeping longer
    # than this as a predicted violation, keeping the window over the
    # arrival-uncertainty span instead of trading waits against the budget
    wait_tolerance_us: float = 1000.0
    # each observed phase defends this much slack on both sides, so the
    # window is not trimmed to the sample extremes of the jitter
    phase_guard_us: float = 1000.0

    def __post_init__(self):
        if not self.on_grid_ms:
            raise ValueError("empty candidate grid")


@dataclass
class FrameObservation:
    phase_us: float  # arrival time modulo the drx cycle
    service_us: float  # airtime from first grant to delivery
    violated: bool


class AdrxController:
    """Drift-plus-penalty tuning of the on-duration and window offset.

    A virtual queue integrates delivery violations; each update replays
    recently observed frame phases against a candidate grid and picks the
    cheapest configuration under Q * predicted_violations + V * active_time.
    """

    def __init__(self, params: AdrxParams, base: DrxConfig, psdb_us: float):
        self.params = params
        self.base = base
        self.psdb_us = psdb_us
        self.q = params.q0
        self.observations: deque[FrameObservation] = deque(maxlen=params.history)
        self.current = base

    def observe_frame(self, phase_us: float, service_us: float, violated: bool):
        self.observations.append(FrameObservation(phase_us, service_us, violated))

    def _expected_phase(self) -> float:
        period = float(self.current.cycle_us)
        ang = [2 * math.pi * o.phase_us / period for o in self.observations]
        s = sum(math.sin(a) for a in ang)
        c = sum(math.cos(a) for a in ang)
        if s == 0 and c == 0:
            return 0.0
        return (math.atan2(s, c) % (2 * math.pi)) * period / (2 * math.pi)

    def _shifted(self) -> list:
        """(phase - guard, phase + guard, service) of each observation."""
        guard = self.params.phase_guard_us
        return [(o.phase_us - guard, o.phase_us + guard, o.service_us)
                for o in self.observations]

    @staticmethod
    def _excess(shifted, on_dur_us) -> float:
        """Summed service time that overruns the on-duration."""
        excess = 0.0
        for _, _, service in shifted:
            excess += max(0.0, service - on_dur_us)
        return excess

    @staticmethod
    def _waits(shifted, period, offset_us) -> list:
        """Where each shifted phase falls in the cycle of one window offset:
        (rel lo, wait lo, rel hi, wait hi, service), a wait being the sleep
        until the next window when the phase misses the window."""
        out = []
        for lo, hi, service in shifted:
            rel_lo = (lo - offset_us) % period
            rel_hi = (hi - offset_us) % period
            out.append((rel_lo, period - rel_lo, rel_hi, period - rel_hi,
                        service))
        return out

    def _violations(self, waits, on_dur_us) -> int:
        """Observations that one candidate window would leave violated."""
        tol = self.params.wait_tolerance_us
        psdb = self.psdb_us
        viol = 0
        for rel_lo, wait_lo, rel_hi, wait_hi, service in waits:
            worst = 0.0 if rel_lo < on_dur_us else wait_lo
            if rel_hi >= on_dur_us and wait_hi > worst:
                worst = wait_hi
            if worst > tol or worst + service > psdb:
                viol += 1
        return viol

    def predict(self, offset_us: float, on_dur_us: float) -> tuple[float, float]:
        """(violation fraction, active µs per cycle) for one candidate."""
        if not self.observations:
            return 0.0, on_dur_us
        period = float(self.current.cycle_us)
        shifted = self._shifted()
        n = len(shifted)
        waits = self._waits(shifted, period, offset_us)
        return (self._violations(waits, on_dur_us) / n,
                on_dur_us + self._excess(shifted, on_dur_us) / n)

    def update(self, violations_in_epoch: int) -> DrxConfig:
        self.q = max(self.q + violations_in_epoch - self.params.target_violations, 0.0)
        if not self.observations:
            return self.current
        period = float(self.current.cycle_us)
        base_offset = float(self.current.start_offset_us % self.current.cycle_us)
        if self.params.adapt_offset:
            anchor = self._expected_phase()
            offsets = [(anchor + d * 1000.0) % period
                       for d in self.params.offset_delta_ms]
        else:
            offsets = [base_offset]
        # the candidates, costs and choice of a loop over predict, with the
        # offset-independent work done once per update: the least key wins,
        # and equal keys are the same candidate, so the loop order is free
        shifted = self._shifted()
        n = len(shifted)
        on_grid = [on_ms * 1000.0 for on_ms in self.params.on_grid_ms
                   if on_ms * 1000.0 <= period]
        power = [self.params.v * (on_us + self._excess(shifted, on_us) / n)
                 / 1000.0 for on_us in on_grid]
        best = None
        for off in offsets:
            waits = self._waits(shifted, period, off)
            dist = abs(off - base_offset)
            for on_us, pw in zip(on_grid, power):
                key = (self.q * (self._violations(waits, on_us) / n) + pw,
                       on_us, dist, off)
                if best is None or key < best:
                    best = key
        _, on_us, _, off = best
        self.current = DrxConfig(
            cycle_us=self.current.cycle_us,
            on_duration_us=int(round(on_us)),
            inactivity_us=self.current.inactivity_us,
            start_offset_us=Fraction(int(round(off))),
            short_cycle=self.current.short_cycle,
            retx_monitoring=self.current.retx_monitoring)
        return self.current


@dataclass(frozen=True)
class PowerModel:
    deep_sleep: float = 0.04
    light_sleep: float = 0.4
    pdcch_only: float = 1.0
    pdcch_plus_pdsch: float = 3.0
    transition_energy: float = 4.0  # per deep-sleep entry/exit pair, slot units
    min_deep_dwell_slots: int = 6

    def __post_init__(self):
        if not (self.deep_sleep < self.light_sleep < self.pdcch_only
                < self.pdcch_plus_pdsch):
            raise ValueError("power states must be strictly ordered")


SLOT_PDCCH = "pdcch"
SLOT_PDSCH = "pdsch"
SLOT_SLEEP = "sleep"


def power_for_run(trace, model: PowerModel) -> float:
    """Time-average relative power of a per-slot activity trace."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    total = 0.0
    i = 0
    n = len(trace)
    while i < n:
        label = trace[i]
        if label != SLOT_SLEEP:
            total += model.pdcch_plus_pdsch if label == SLOT_PDSCH else model.pdcch_only
            i += 1
            continue
        j = i
        while j < n and trace[j] == SLOT_SLEEP:
            j += 1
        run = j - i
        light = run * model.light_sleep
        if run >= model.min_deep_dwell_slots:
            # the UE picks the cheaper feasible depth for the gap
            total += min(light, run * model.deep_sleep + model.transition_energy)
        else:
            total += light
        i = j
    return total / n


def power_saving_gain(p_technique: float, p_always_on: float) -> float:
    if p_always_on <= 0:
        raise ValueError("baseline power must be positive")
    return (1.0 - p_technique / p_always_on) * 100.0
