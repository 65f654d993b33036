"""Traffic sources: XR video frames, pose/control, FTP model 3."""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import NamedTuple, Optional

import numpy as np

from .engine import ConfigError, block_draws

MTU_BYTES = 1500
# PDU ends MTU_BYTES, 2 * MTU_BYTES, ...: mtu_ends takes a set's ends but its
# last as a prefix of this one tuple, grown only to the largest set cut so far
_MTU_ENDS: tuple = ()

# pdu-set importance pattern, cycled over the sets of a frame
DEFAULT_PSI_PATTERN = (1, 0, 0, 1)

# video frame sizes, as fractions of the mean frame: a Gaussian of this
# std, kept strictly between the bounds; DL arrival jitter, in µs: a
# Gaussian, kept strictly between its bounds
FRAME_SIZE_STD_FRAC = 0.105
FRAME_SIZE_MIN_FRAC = 0.5
FRAME_SIZE_MAX_FRAC = 1.5
JITTER_STD_US = 2000.0
JITTER_MIN_US = -4000.0
JITTER_MAX_US = 4000.0


class Direction(Enum):
    DL = "dl"
    UL = "ul"


@dataclass(frozen=True)
class VideoStreamConfig:
    """Quasi-periodic video stream with truncated-Gaussian frame sizes."""

    rate_bps: float
    fps: Fraction
    direction: Direction = Direction.DL

    def __post_init__(self):
        # VideoSource redraws a frame size until it is a whole number of
        # bytes strictly within the bounds; without one it never returns
        mean = self.mean_frame_bytes
        lo, hi = FRAME_SIZE_MIN_FRAC * mean, FRAME_SIZE_MAX_FRAC * mean
        if not math.floor(lo) + 1 < hi:
            raise ConfigError(
                f"a mean video frame of {mean:.3g} bytes leaves no whole "
                f"frame size between {lo:.3g} and {hi:.3g} bytes",
                "rate_bps", "fps")

    @property
    def period_us(self) -> Fraction:
        return Fraction(1_000_000) / self.fps

    @property
    def mean_frame_bytes(self) -> float:
        return self.rate_bps / float(self.fps) / 8.0


class VideoFrame(NamedTuple):
    index: int
    arrival_time: int | Fraction  # µs or ticks, as VideoSource gives it
    byte_size: int


class PduSet:
    """PDUs of one frame slice that share arrival, deadline and importance.

    A set stores where its PDUs end: PDU i has id ``id + (i,)`` and its last
    byte is byte ``ends[i]`` of the set. The last PDU ends the set, and the
    burst too if ``end_of_burst``. ``sizes`` and ``pdus``, the PDU ids, are
    derived when read, off the simulation's hot path. Explicit ``sizes`` are
    checked; ``ends``, as ``mtu_ends`` builds them, are taken as given and
    may be shared. A set is its own flow-queue entry: ``taken`` counts the
    bytes MAC took. Times are ints or Fractions, in µs or in a cell's ticks.
    """

    __slots__ = ("id", "psi", "arrival_time", "deadline", "ends",
                 "total_bytes", "end_of_burst", "taken")

    def __init__(self, id: tuple, psi: int, arrival_time: int | Fraction,
                 sizes: Sequence[int] = (),
                 deadline: Optional[int | Fraction] = None,
                 end_of_burst: bool = False,
                 ends: Optional[tuple] = None):
        if ends is None:
            if not sizes or min(sizes) <= 0:
                raise ValueError("every pdu must carry payload")
            ends = tuple(accumulate(sizes))
        if deadline is not None and deadline <= arrival_time:
            raise ValueError("deadline must lie after arrival")
        self.id = id
        self.psi = psi
        self.arrival_time = arrival_time
        self.deadline = deadline
        self.ends = ends
        self.total_bytes = ends[-1]
        self.end_of_burst = end_of_burst
        self.taken = 0

    @property
    def sizes(self) -> tuple:
        return tuple(map(sub, self.ends, (0,) + self.ends[:-1]))

    @property
    def pdus(self) -> tuple:
        return tuple(self.id + (i,) for i in range(len(self.ends)))

    def __repr__(self):
        return (f"PduSet(id={self.id!r}, psi={self.psi}, "
                f"arrival_time={self.arrival_time!r}, sizes={self.sizes!r})")


def mtu_ends(total: int) -> tuple:
    """PDU ends of total bytes cut into PDUs of MTU_BYTES and a remainder."""
    global _MTU_ENDS
    ends, n = _MTU_ENDS, (total - 1) // MTU_BYTES  # n: the ends but the last
    if n > len(ends):
        ends = _MTU_ENDS = tuple(range(MTU_BYTES, (n + 1) * MTU_BYTES,
                                       MTU_BYTES))
    return ends[:n] + (total,)


def _whole(t):
    """A rational time as an int when it is whole, so sums of it stay ints."""
    return t.numerator if t.denominator == 1 else t


class VideoSource:
    """Draws successive frames of one video stream.

    Arrival times are in µs, or in ticks of 1/ticks_per_us µs for a caller
    on an integer clock; a start and a period that are whole in those units
    give int arrival times.
    """

    def __init__(self, config: VideoStreamConfig, rng: np.random.Generator,
                 start_us: Fraction | int = 0, ticks_per_us: int = 1):
        self.config = config
        # frame sizes and jitters, in the order of scalar rng.normal draws
        self._normals = block_draws(rng.standard_normal)
        self.frame_index = 0
        self.ticks_per_us = ticks_per_us
        self._start = _whole(Fraction(start_us) * ticks_per_us)
        self._period = _whole(Fraction(config.period_us) * ticks_per_us)
        mean = self._mean = config.mean_frame_bytes
        self._size_std = FRAME_SIZE_STD_FRAC * mean
        self._size_lo = FRAME_SIZE_MIN_FRAC * mean
        self._size_hi = FRAME_SIZE_MAX_FRAC * mean

    def next_frame(self) -> VideoFrame:
        mean, std, normals = self._mean, self._size_std, self._normals
        lo, hi = self._size_lo, self._size_hi
        while True:
            size = round(mean + std * next(normals))
            if lo < size < hi:
                break
        arrival = self._start + self.frame_index * self._period
        if self.config.direction is Direction.DL:
            while True:
                jitter = JITTER_STD_US * next(normals)
                if JITTER_MIN_US < jitter < JITTER_MAX_US:
                    break
            arrival += round(jitter) * self.ticks_per_us
        frame = VideoFrame(self.frame_index, arrival, size)
        self.frame_index += 1
        return frame


def fragment_frame(frame: VideoFrame, sets_per_frame: int = 1,
                   psdb_us: Optional[int] = None) -> list[PduSet]:
    """Split a frame into PDU sets and each set into MTU-bounded PDUs."""
    if frame.byte_size == 0:
        return []
    arrival = frame.arrival_time
    deadline = None if psdb_us is None else arrival + psdb_us
    if deadline is not None and deadline <= arrival:
        raise ValueError("deadline must lie after arrival")
    index, last = frame.index, sets_per_frame - 1
    base, rem = divmod(frame.byte_size, sets_per_frame)
    psi = DEFAULT_PSI_PATTERN
    # each set is built as an equal set, which share one tuple of ends, and
    # the last then finished; what PduSet.__init__ checks holds by now
    ends = mtu_ends(base) if base else None
    new = PduSet.__new__
    sets = []
    for k in range(0 if base else last, sets_per_frame):
        s = new(PduSet)
        s.id, s.psi = (index, k), psi[k % len(psi)]
        s.arrival_time, s.deadline, s.ends = arrival, deadline, ends
        s.total_bytes, s.end_of_burst, s.taken = base, False, 0
        sets.append(s)
    s.end_of_burst = True
    if rem:
        s.ends, s.total_bytes = mtu_ends(base + rem), base + rem
    return sets


def pose_source(ticks_per_us: int = 1) -> Iterator[PduSet]:
    """100-byte control packets every 4 ms from time 0, one single-PDU set
    each, without deadlines.

    Times are in µs, or in ticks of 1/ticks_per_us µs."""
    n = 0
    while True:
        yield PduSet(("pose", n), 0, n * 4000 * ticks_per_us, (100,),
                     end_of_burst=True)
        n += 1


def ftp3_source(rng: np.random.Generator,
                ticks_per_us: int = 1) -> Iterator[PduSet]:
    """Poisson arrivals of 125 kB files, 1 s apart on average, each file
    one set of plain PDUs without deadlines.

    Arrivals fall on whole µs and are given in ticks of 1/ticks_per_us µs."""
    ends = mtu_ends(125_000)  # shared by every file
    t = 0.0
    n = 0
    while True:
        t += rng.exponential(1.0) * 1e6
        yield PduSet(("ftp", n), 0, round(t) * ticks_per_us,
                     end_of_burst=True, ends=ends)
        n += 1
