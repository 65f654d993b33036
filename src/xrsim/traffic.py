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

from .engine import block_draws

MTU_BYTES = 1500

# pdu-set importance pattern, cycled over the sets of a frame
DEFAULT_PSI_PATTERN = (1, 0, 0, 1)


class Direction(Enum):
    DL = "dl"
    UL = "ul"


@dataclass(frozen=True)
class VideoStreamConfig:
    """Quasi-periodic video stream with truncated-Gaussian frame sizes."""

    avg_rate_bps: float
    fps: Fraction
    direction: Direction = Direction.DL
    size_std_frac: float = 0.105
    size_min_frac: float = 0.5
    size_max_frac: float = 1.5
    jitter_std_us: float = 2000.0
    jitter_min_us: float = -4000.0
    jitter_max_us: float = 4000.0
    psdb_us: Optional[int] = None
    sets_per_frame: int = 1
    mtu: int = MTU_BYTES
    psi_pattern: Sequence[int] = DEFAULT_PSI_PATTERN

    def __post_init__(self):
        if not (self.size_min_frac < 1 < self.size_max_frac):
            raise ValueError("size bounds must bracket the mean")
        if not (self.jitter_min_us <= 0 <= self.jitter_max_us):
            raise ValueError("jitter bounds must bracket zero")
        # VideoSource redraws a frame size until it is a whole number of
        # bytes strictly within the bounds; without one it never returns
        mean = self.mean_frame_bytes
        lo, hi = self.size_min_frac * mean, self.size_max_frac * mean
        if not math.floor(lo) + 1 < hi:
            raise ValueError(
                f"a mean video frame of {mean:.3g} bytes leaves no whole "
                f"frame size between {lo:.3g} and {hi:.3g} bytes")

    @property
    def period_us(self) -> Fraction:
        return Fraction(1_000_000) / self.fps

    @property
    def mean_frame_bytes(self) -> float:
        return self.avg_rate_bps / float(self.fps) / 8.0


class VideoFrame(NamedTuple):
    index: int
    arrival_time: Fraction
    byte_size: int


@dataclass
class Pdu:
    id: tuple
    pdu_set_id: tuple
    byte_size: int
    arrival_time: Fraction
    psi: int = 0
    is_last_of_set: bool = False
    is_end_of_burst: bool = False
    deadline: Optional[Fraction] = None

    def __post_init__(self):
        if self.byte_size <= 0:
            raise ValueError("pdu must carry payload")
        if self.deadline is not None and self.deadline <= self.arrival_time:
            raise ValueError("deadline must lie after arrival")


class PduSet:
    """PDUs of one frame slice that share arrival, deadline and importance.

    A set stores where its PDUs end: PDU i has id ``id + (i,)`` and its last
    byte is byte ``ends[i]`` of the set. ``sizes`` and ``pdus`` are derived
    when read, off the simulation's hot path. Explicit ``sizes``, or
    ``pdus`` whose set-level fields the set keeps, are checked; ``ends``,
    as ``mtu_ends`` builds them, are taken as given and may be shared. A
    set is its own flow-queue entry: ``taken`` counts the bytes MAC took.
    """

    __slots__ = ("id", "frame_id", "psi", "arrival_time", "deadline", "ends",
                 "total_bytes", "end_of_burst", "taken")

    def __init__(self, id: tuple, frame_id: int, psi: int,
                 arrival_time: Fraction, sizes: Sequence[int] = (),
                 deadline: Optional[Fraction] = None,
                 end_of_burst: bool = False,
                 pdus: Optional[Sequence[Pdu]] = None,
                 ends: Optional[tuple] = None):
        if ends is None:
            if pdus is not None:
                sizes = [p.byte_size for p in pdus]
                deadline = pdus[0].deadline
                end_of_burst = pdus[-1].is_end_of_burst
            if not sizes or min(sizes) <= 0:
                raise ValueError("every pdu must carry payload")
            ends = tuple(accumulate(sizes))
        if deadline is not None and deadline <= arrival_time:
            raise ValueError("deadline must lie after arrival")
        self.id = id
        self.frame_id = frame_id
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
    def pdus(self) -> PduView:
        return PduView(self)

    def __repr__(self):
        return (f"PduSet(id={self.id!r}, psi={self.psi}, "
                f"arrival_time={self.arrival_time!r}, sizes={self.sizes!r})")


class PduView(Sequence):
    """The PDUs of a set as a read-only sequence; each is built when read."""

    __slots__ = ("_set",)

    def __init__(self, pdu_set: PduSet):
        self._set = pdu_set

    def __len__(self) -> int:
        return len(self._set.ends)

    def __getitem__(self, i: int) -> Pdu:
        s = self._set
        ends = s.ends
        n = len(ends)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("pdu index out of range")
        last = i == n - 1
        return Pdu(id=s.id + (i,), pdu_set_id=s.id,
                   byte_size=ends[i] - (ends[i - 1] if i else 0),
                   arrival_time=s.arrival_time, psi=s.psi,
                   is_last_of_set=last, is_end_of_burst=s.end_of_burst and last,
                   deadline=s.deadline)


def mtu_ends(total: int, mtu: int) -> tuple:
    """PDU ends of total bytes cut into PDUs of mtu bytes and a remainder."""
    return tuple(range(mtu, total, mtu)) + (total,)


def sample_truncated_gaussian(normals: Iterator[float], mean: float,
                              std: float, lo: float, hi: float) -> float:
    """Rejection-sample a Gaussian restricted to the open interval (lo, hi)
    from a stream of standard normal draws."""
    while True:
        x = mean + std * next(normals)
        if lo < x < hi:
            return x


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
        self.start_us = Fraction(start_us)
        self.frame_index = 0
        self.ticks_per_us = ticks_per_us
        self._start = _whole(self.start_us * ticks_per_us)
        self._period = _whole(Fraction(config.period_us) * ticks_per_us)
        mean = self._mean = config.mean_frame_bytes
        self._size_std = config.size_std_frac * mean
        self._size_lo = config.size_min_frac * mean
        self._size_hi = config.size_max_frac * mean

    def next_frame(self) -> VideoFrame:
        cfg = self.config
        mean, std, normals = self._mean, self._size_std, self._normals
        lo, hi = self._size_lo, self._size_hi
        while True:
            size = int(round(mean + std * next(normals)))
            if lo < size < hi:
                break
        arrival = self._start + self.frame_index * self._period
        if cfg.direction is Direction.DL:
            jitter = sample_truncated_gaussian(
                normals, 0.0, cfg.jitter_std_us, cfg.jitter_min_us,
                cfg.jitter_max_us)
            arrival += int(round(jitter)) * self.ticks_per_us
        frame = VideoFrame(self.frame_index, arrival, size)
        self.frame_index += 1
        return frame


def fragment_frame(frame: VideoFrame, mtu: int = MTU_BYTES, sets_per_frame: int = 1,
                   psdb_us: Optional[int] = None,
                   psi_pattern: Sequence[int] = DEFAULT_PSI_PATTERN) -> list[PduSet]:
    """Split a frame into PDU sets and each set into MTU-bounded PDUs."""
    if mtu <= 0:
        raise ValueError("mtu must be positive")
    if sets_per_frame < 1:
        raise ValueError("need at least one set per frame")
    if frame.byte_size == 0:
        return []
    arrival = frame.arrival_time
    deadline = None if psdb_us is None else arrival + psdb_us
    index, last = frame.index, sets_per_frame - 1
    base, rem = divmod(frame.byte_size, sets_per_frame)
    # the equal sets share one tuple of PDU ends, and so does the last set
    # when the frame splits evenly
    ends = mtu_ends(base, mtu) if base else None
    sets = [PduSet((index, k), index, psi_pattern[k % len(psi_pattern)],
                   arrival, deadline=deadline, ends=ends)
            for k in range(last if base else 0)]
    sets.append(PduSet((index, last), index,
                       psi_pattern[last % len(psi_pattern)], arrival,
                       deadline=deadline, end_of_burst=True,
                       ends=mtu_ends(base + rem, mtu) if rem else ends))
    return sets


def pose_source(period_us: int = 4000, size: int = 100,
                psdb_us: Optional[int] = None,
                start_us: int = 0, ticks_per_us: int = 1) -> Iterator[PduSet]:
    """Periodic fixed-size control packets, one single-PDU set each.

    Times are in µs, or in ticks of 1/ticks_per_us µs."""
    n = 0
    while True:
        t = (start_us + n * period_us) * ticks_per_us
        yield PduSet(("pose", n), n, 0, t, (size,),
                     None if psdb_us is None else t + psdb_us * ticks_per_us,
                     end_of_burst=True)
        n += 1


def ftp3_source(rng: np.random.Generator, file_size: int = 125_000,
                mean_interarrival_s: float = 1.0,
                mtu: int = MTU_BYTES,
                ticks_per_us: int = 1) -> Iterator[PduSet]:
    """Poisson file arrivals, each file one set of plain PDUs without deadlines.

    Arrivals fall on whole µs and are given in ticks of 1/ticks_per_us µs."""
    t = 0.0
    n = 0
    while True:
        t += rng.exponential(mean_interarrival_s) * 1e6
        yield PduSet(("ftp", n), n, 0, int(round(t)) * ticks_per_us,
                     end_of_burst=True, ends=mtu_ends(file_size, mtu))
        n += 1
