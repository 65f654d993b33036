"""The slot clock: the TDD slot pattern, named random streams and ticks.

Time is kept in microseconds, and slot boundaries are integers. A cell runs
on an integer clock: one tick is 1/ticks_per_us µs, where ticks_per_us is
the least common multiple of the denominators of its rational times, so
every such time is a whole number of ticks. A cell steps its slots in a
plain loop and draws from its own ``RngStreams``, the streams it draws on
busy slots through ``block_draws``. The ``Engine`` event heap below is on
no path of the cell or the harness.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import Callable, Iterator, NamedTuple, Union

import numpy as np

Time = Union[int, Fraction]

SLOT_US = 500  # 30 kHz subcarrier spacing -> 0.5 ms slots

# values a block-drawn stream takes from its generator per numpy call: a
# longer block saves little time per value and holds more memory per stream
DRAW_BLOCK = 64

DOWNLINK = "D"
SPECIAL = "S"
UPLINK = "U"

# DDDSU repeating pattern: one UL slot per period
_TDD_PATTERN = (DOWNLINK, DOWNLINK, DOWNLINK, SPECIAL, UPLINK)
TDD_PERIOD = len(_TDD_PATTERN)


# non-uplink slots among the first k slots of a period, for k = 0..5
_DL_PREFIX = tuple(accumulate((kind != UPLINK for kind in _TDD_PATTERN),
                              initial=0))


def slot_type(slot_index: int) -> str:
    if slot_index < 0:
        raise ValueError("slot_index must be >= 0")
    return _TDD_PATTERN[slot_index % TDD_PERIOD]


def next_slot(start: int, ul: bool) -> int:
    """The first slot at or after start, a UL slot if ul, else a DL one."""
    while (slot_type(start) == UPLINK) != ul:
        start += 1
    return start


def dl_slots_before(slot_index: int) -> int:
    """The number of DL and special slots among slots 0..slot_index-1."""
    periods, rest = divmod(slot_index, len(_TDD_PATTERN))
    return periods * _DL_PREFIX[-1] + _DL_PREFIX[rest]


def ticks_per_us(*times) -> int:
    """Ticks per µs of the coarsest integer clock that holds every time."""
    return math.lcm(*(Fraction(t).denominator for t in times))


def to_ticks(time_us, tpu: int) -> int:
    """A time in µs as a whole number of ticks; it must be one."""
    num, den = time_us.as_integer_ratio()
    ticks, rest = divmod(num * tpu, den)
    if rest:
        raise ValueError(f"{time_us} us is not a whole number of ticks")
    return ticks


class ConfigError(ValueError):
    """A config value outside its domain: ``fields`` names the fields that
    the broken rule reads, and ``reason`` says what the rule requires."""

    def __init__(self, reason: str, *fields: str):
        self.reason, self.fields = reason, fields
        super().__init__(f"{reason} ({', '.join(fields)})")


class SchedulingInPastError(Exception):
    """An event was scheduled before the current simulation time."""


class SimClock:
    __slots__ = ("now",)

    def __init__(self):
        self.now: Time = 0

    @property
    def slot_index(self) -> int:
        return int(self.now // SLOT_US)


class Event(NamedTuple):
    time: Time
    sequence: int
    kind: str
    callback: Callable[[], None]


class SimStats:
    __slots__ = ("events_processed", "by_kind")

    def __init__(self):
        self.events_processed = 0
        self.by_kind: dict = {}

    def count(self, kind: str):
        self.events_processed += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


class RngStreams:
    """Named, independent random sub-streams derived from one root seed.

    Streams are keyed by name so adding a consumer never perturbs the draws
    of an existing one.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            entropy = [self.seed] + list(name.encode("utf-8"))
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
            self._streams[name] = gen
        return gen


def block_draws(fill: Callable[[int], np.ndarray]) -> Iterator[float]:
    """The values of fill(n), a ``Generator.random`` or
    ``Generator.standard_normal``, one by one as floats, DRAW_BLOCK per call.

    PCG64 fills an array with the routine a scalar call runs, so the k-th
    value served equals the k-th scalar draw. Nothing else may draw from the
    generator once the first value is served; the first block is drawn then.
    """
    return chain.from_iterable(map(np.ndarray.tolist,
                                   map(fill, repeat(DRAW_BLOCK))))


class Engine:
    """Min-heap event queue ordered by (time, insertion sequence)."""

    def __init__(self, seed: int = 0):
        self.clock = SimClock()
        self.rng = RngStreams(seed)
        self.stats = SimStats()
        self._heap: list[tuple[Time, int, Event]] = []
        self._seq = 0

    def schedule_event(self, time: Time, kind: str, callback: Callable[[], None]) -> int:
        if time < self.clock.now:
            raise SchedulingInPastError(
                f"event {kind!r} at t={time} us is before now={self.clock.now} us"
            )
        self._seq += 1
        ev = Event(time=time, sequence=self._seq, kind=kind, callback=callback)
        heapq.heappush(self._heap, (time, self._seq, ev))
        return self._seq

    def peek_time(self) -> Time | None:
        return self._heap[0][0] if self._heap else None

    def run_until(self, t_end: Time) -> SimStats:
        if t_end < self.clock.now:
            raise SchedulingInPastError(f"t_end={t_end} is before now={self.clock.now}")
        while self._heap and self._heap[0][0] <= t_end:
            time, _, ev = heapq.heappop(self._heap)
            assert time >= self.clock.now
            self.clock.now = time
            self.stats.count(ev.kind)
            ev.callback()
        self.clock.now = t_end
        return self.stats

    def every_slot(self, handler: Callable[[int], None], kind: str = "slot"):
        """Register a handler fired at each slot boundary, self-rescheduling."""

        def fire():
            slot = self.clock.slot_index
            handler(slot)
            self.schedule_event((slot + 1) * SLOT_US, kind, fire)

        first_slot = int(-(-self.clock.now // SLOT_US))  # ceil to next boundary
        self.schedule_event(first_slot * SLOT_US, kind, fire)
