"""Connected-mode DRX, adaptive DRX control, and the UE power model."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import add

import numpy as np

from .engine import SLOT_US, ConfigError, to_ticks


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

    def __post_init__(self):
        if self.cycle_us <= 0 or self.on_duration_us <= 0 or self.inactivity_us < 0:
            raise ConfigError("drx durations must be positive", "cycle_us",
                              "on_duration_us", "inactivity_us")
        if self.on_duration_us > self.cycle_us:
            raise ConfigError("on-duration cannot exceed the cycle",
                              "cycle_us", "on_duration_us")

    def in_ticks(self, tpu: int) -> DrxConfig:
        """The same config with its times in ticks of 1/tpu µs."""
        return replace(self, cycle_us=to_ticks(self.cycle_us, tpu),
                       on_duration_us=to_ticks(self.on_duration_us, tpu),
                       inactivity_us=to_ticks(self.inactivity_us, tpu),
                       start_offset_us=to_ticks(self.start_offset_us, tpu))


def cycle_start_exact(cfg: DrxConfig, k: int) -> Fraction:
    return cfg.start_offset_us + k * cfg.cycle_us


class DrxMachine:
    """Per-slot DRX bookkeeping, driven once per slot by the cell.

    Times are in µs with 500 µs slots by default. A cell on an integer
    clock passes its config and times in ticks and its slot length in
    ticks, and the machine then does integer arithmetic only.
    """

    def __init__(self, cfg: DrxConfig, slot=SLOT_US):
        self.cfg = cfg
        self.slot = slot
        self.next_start = cfg.start_offset_us
        self._align(0)
        self.on_expiry: float = -math.inf
        self.inactivity_expiry: float = -math.inf

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

    def _open_windows(self, now):
        """Open every window whose slot-floored start is at or before now."""
        cfg = self.cfg
        slot = self.slot
        floored = self._next_floor
        while floored <= now:
            self.on_expiry = max(self.on_expiry, floored + cfg.on_duration_us)
            self.next_start = self.next_start + cfg.cycle_us
            floored = self.next_start // slot * slot
        self._next_floor = floored

    def step(self, now, new_data: bool = False,
             scheduled_data: bool = False) -> tuple[DrxMode, bool]:
        """Advance one slot. new_data: PDCCH with a fresh grant this slot;
        scheduled_data: the slot carries PDSCH/PUSCH for this UE anyway."""
        if self._next_floor <= now:
            self._open_windows(now)
        in_on = now < self.on_expiry
        if new_data:
            # timer runs from the end of the granting slot
            self.inactivity_expiry = now + self.slot + self.cfg.inactivity_us
        inactive_ext = now < self.inactivity_expiry
        if in_on:
            return DrxMode.ON_DURATION, True
        if inactive_ext or scheduled_data:
            return DrxMode.INACTIVITY, True
        return DrxMode.SLEEP, False

    def skip(self, now, n: int) -> list:
        """Advance n slots from now with no grant and no data, as n calls of
        step(t, False, False) would, and return their monitoring flags as
        runs: [(monitoring, slots), ...]. Works a window at a time: the
        flag can only change at an expiry or at the next window start."""
        slot = self.slot
        end = now + n * slot
        runs = []
        t = now
        while t < end:
            if self._next_floor <= t:
                self._open_windows(t)
            floored = self._next_floor
            expiry = max(self.on_expiry, self.inactivity_expiry)
            monitoring = t < expiry
            until = min(floored, end)
            if monitoring and expiry < until:
                until = expiry
            k = -((t - until) // slot)  # slots that start before until
            if runs and runs[-1][0] == monitoring:
                runs[-1] = (monitoring, runs[-1][1] + k)
            else:
                runs.append((monitoring, k))
            t += k * slot
        return runs


# adaptive DRX: the candidate on-durations, the window offsets tried around
# the expected arrival phase, the power weight, the violations allowed per
# update epoch, the frames remembered and the initial virtual-queue backlog,
# which starts the controller QoS-first instead of power-greedy
ADRX_ON_GRID_MS = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
ADRX_OFFSET_DELTA_MS = (-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0)
ADRX_V = 10.0
ADRX_TARGET_VIOLATIONS = 0.01
ADRX_HISTORY = 64
ADRX_Q0 = 5000.0
# a window that would leave an arrival asleep longer than this predicts a
# violation, and each observed phase defends a guard on both of its sides,
# so the window spans the arrival jitter instead of its sample extremes
ADRX_WAIT_TOLERANCE_US = 1000.0
ADRX_PHASE_GUARD_US = 1000.0


def check_adrx_cycle(cycle_us):
    """Each on-duration picked from the grid is no longer than the cycle,
    so a cycle below the grid leaves none to pick."""
    shortest = min(ADRX_ON_GRID_MS)
    if shortest * 1000.0 > float(cycle_us):
        raise ConfigError(
            f"an adaptive cycle must last at least {shortest:g} ms, got "
            f"{float(cycle_us / 1000):g} ms", "cycle_us", "adaptive_drx")


class AdrxController:
    """Drift-plus-penalty tuning of the on-duration and window offset.

    A virtual queue integrates delivery violations; each update replays
    recently observed frame phases against a candidate grid and picks the
    cheapest configuration under Q * predicted_violations + V * active_time.
    """

    def __init__(self, base: DrxConfig, psdb_us: float):
        check_adrx_cycle(base.cycle_us)
        self.psdb_us = psdb_us
        self.q = ADRX_Q0
        self.current = base
        # adaptation moves the window, never the cycle
        self.period = float(base.cycle_us)
        # the last ADRX_HISTORY frames as plain floats: each one's arrival
        # time modulo the cycle and its airtime from first grant to delivery,
        # in µs, and the sine and cosine of its phase
        self.phases: deque = deque(maxlen=ADRX_HISTORY)
        self.services: deque = deque(maxlen=ADRX_HISTORY)
        self.sines: deque = deque(maxlen=ADRX_HISTORY)
        self.cosines: deque = deque(maxlen=ADRX_HISTORY)

    def observe_frame(self, phase_us: float, service_us: float):
        ang = 2 * math.pi * phase_us / self.period
        self.phases.append(phase_us)
        self.services.append(service_us)
        self.sines.append(math.sin(ang))
        self.cosines.append(math.cos(ang))

    def _expected_phase(self) -> float:
        """The circular mean of the kept phases, in µs into the cycle."""
        s = sum(self.sines)
        c = sum(self.cosines)
        if s == 0 and c == 0:
            return 0.0
        return (math.atan2(s, c) % (2 * math.pi)) * self.period / (2 * math.pi)

    def _violation_counts(self, phase, service, period, offsets, on_grid):
        """Observations that each candidate window would leave violated, for
        every offset (rows) and on-duration (columns) at once.

        An observation is checked at its phase minus and plus the guard. A
        shifted phase misses a window when it falls in the cycle at or past
        the on-duration, and then waits until the next window. The verdict
        only grows with the wait, and the wait only shrinks as the
        on-duration grows, so an observation is violated under each
        on-duration up to a threshold and under none above it: the latest
        such phase whose wait is too long, or infinity when its service
        alone overruns the budget. numpy's float % is fmod with Python's
        sign fix, and each comparison is one IEEE operation, so the counts
        equal a loop over the observations."""
        guard = ADRX_PHASE_GUARD_US
        shifted = np.array((phase - guard, phase + guard))[:, None, :]
        rel = (shifted - np.array(offsets)[:, None]) % period
        wait = period - rel
        late = ((wait > ADRX_WAIT_TOLERANCE_US)
                | (wait + service > self.psdb_us))
        thresholds = np.where(late, rel, -np.inf).max(axis=0)
        thresholds[:, service > self.psdb_us] = np.inf
        served = (thresholds < on_grid[:, None, None]).sum(axis=-1)
        return len(phase) - served.T

    def update(self, violations_in_epoch: int) -> DrxConfig:
        self.q = max(self.q + violations_in_epoch - ADRX_TARGET_VIOLATIONS, 0.0)
        if not self.phases:
            return self.current
        period = self.period
        base_offset = float(self.current.start_offset_us % self.current.cycle_us)
        anchor = self._expected_phase()
        offsets = [(anchor + d * 1000.0) % period for d in ADRX_OFFSET_DELTA_MS]
        phase = np.array(self.phases)
        service = np.array(self.services)
        n = len(phase)
        on_grid = np.array([on_ms * 1000.0 for on_ms in ADRX_ON_GRID_MS
                            if on_ms * 1000.0 <= period])
        # the service time that overruns each on-duration, summed left to
        # right as a loop would
        excess = np.add.accumulate(
            np.maximum(service - on_grid[:, None], 0.0), axis=1)[:, -1]
        power = ADRX_V * (on_grid + excess / n) / 1000.0
        # each (offset, on-duration) candidate costs its violation fraction
        # and its active µs per cycle; the least key (cost, on-duration,
        # offset move, offset) wins, and equal keys are the same candidate
        counts = self._violation_counts(phase, service, period, offsets,
                                        on_grid)
        cost = self.q * (counts / n) + power
        on_us, _, off = min(
            (float(on_grid[j]), abs(offsets[i] - base_offset), offsets[i])
            for i, j in np.argwhere(cost == cost.min()).tolist())
        self.current = replace(self.current, on_duration_us=int(round(on_us)),
                               start_offset_us=Fraction(int(round(off))))
        return self.current


class PowerModel:
    """Relative UE power per slot state, in units of a PDCCH-only slot."""

    deep_sleep = 0.04
    light_sleep = 0.4
    pdcch_only = 1.0
    pdcch_plus_pdsch = 3.0
    transition_energy = 4.0  # per deep-sleep entry/exit pair, slot units
    min_deep_dwell_slots = 6


SLOT_PDCCH = "pdcch"
SLOT_PDSCH = "pdsch"
SLOT_SLEEP = "sleep"


class ActivityLog:
    """A UE's per-slot activity from slot 0, held as runs: labels[i] for
    counts[i] slots. A run that repeats the last label merges into it, so
    the log is the same however its runs were fed."""

    __slots__ = ("labels", "counts")

    def __init__(self):
        self.labels: list = []
        self.counts: list = []

    def add(self, label, k=1):
        labels = self.labels
        if labels and labels[-1] == label:
            self.counts[-1] += k
        else:
            labels.append(label)
            self.counts.append(k)

    def runs(self, start=0):
        """The (label, slots) runs from slot start on."""
        for label, k in zip(self.labels, self.counts):
            if k > start:
                yield label, k - start
                start = 0
            else:
                start -= k


def power_for_run(runs) -> float:
    """Time-average relative power of an activity given as (label, slots)
    runs in slot order.

    Each monitoring slot adds its own term, so a run of k adds k terms one
    by one: k * term would round differently once a sleep run has left a
    fraction in the total. The monitoring terms are whole, so with a whole
    total every sum below 2**53 is exact in any grouping, and the run adds
    k * term at once. Each maximal sleep run, which may span several runs,
    adds one term."""
    pdsch, pdcch = PowerModel.pdcch_plus_pdsch, PowerModel.pdcch_only
    total = 0.0
    n = 0
    asleep = 0
    for label, k in runs:
        n += k
        if label == SLOT_SLEEP:
            asleep += k
            continue
        if asleep:
            total += _sleep_power(asleep)
            asleep = 0
        term = pdsch if label == SLOT_PDSCH else pdcch
        step = total + k * term
        if k == 1 or step < 2**53 and total.is_integer():
            total = step
        else:
            total = reduce(add, repeat(term, k), total)
    if asleep:
        total += _sleep_power(asleep)
    if n == 0:
        raise ValueError("no slots to average over")
    return total / n


def _sleep_power(run: int) -> float:
    """The energy of a gap of run sleep slots."""
    light = run * PowerModel.light_sleep
    if run >= PowerModel.min_deep_dwell_slots:
        # the UE picks the cheaper feasible depth for the gap
        return min(light, run * PowerModel.deep_sleep
                   + PowerModel.transition_energy)
    return light


def power_saving_gain(p_technique: float, p_always_on: float) -> float:
    if p_always_on <= 0:
        raise ValueError("baseline power must be positive")
    return (1.0 - p_technique / p_always_on) * 100.0
