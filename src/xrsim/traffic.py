"""Traffic sources: XR video frames, pose/control, FTP model 3."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Optional

import numpy as np

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

    @property
    def period_us(self) -> Fraction:
        return Fraction(1_000_000) / self.fps

    @property
    def mean_frame_bytes(self) -> float:
        return self.avg_rate_bps / float(self.fps) / 8.0


@dataclass(frozen=True)
class VideoFrame:
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
    ecn_ce: bool = False

    def __post_init__(self):
        if self.byte_size <= 0:
            raise ValueError("pdu must carry payload")
        if self.deadline is not None and self.deadline <= self.arrival_time:
            raise ValueError("deadline must lie after arrival")


class PduSet:
    """PDUs of one frame slice that share arrival, deadline and importance.

    A set stores its PDU sizes, not PDU objects: PDU i has id ``id + (i,)``
    and its last byte is byte ``ends[i]`` of the set, so queues locate PDU
    boundaries by arithmetic. ``pdus`` is a view that builds each Pdu when
    read, for callers off the simulation's hot path; a set may also be
    built from explicit ``pdus``, whose sizes and set-level fields it keeps.
    """

    __slots__ = ("id", "frame_id", "psi", "arrival_time", "deadline", "sizes",
                 "ends", "total_bytes", "end_of_burst")

    def __init__(self, id: tuple, frame_id: int, psi: int,
                 arrival_time: Fraction, sizes: Sequence[int] = (),
                 deadline: Optional[Fraction] = None,
                 end_of_burst: bool = False,
                 pdus: Optional[Sequence[Pdu]] = None):
        if pdus is not None:
            sizes = [p.byte_size for p in pdus]
            deadline = pdus[0].deadline
            end_of_burst = pdus[-1].is_end_of_burst
        if not sizes or min(sizes) <= 0:
            raise ValueError("every pdu must carry payload")
        if deadline is not None and deadline <= arrival_time:
            raise ValueError("deadline must lie after arrival")
        self.id = id
        self.frame_id = frame_id
        self.psi = psi
        self.arrival_time = arrival_time
        self.deadline = deadline
        self.sizes = tuple(sizes)
        self.ends = tuple(accumulate(self.sizes))
        self.total_bytes = self.ends[-1]
        self.end_of_burst = end_of_burst

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
        return len(self._set.sizes)

    def __getitem__(self, i: int) -> Pdu:
        s = self._set
        n = len(s.sizes)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("pdu index out of range")
        last = i == n - 1
        return Pdu(id=s.id + (i,), pdu_set_id=s.id, byte_size=s.sizes[i],
                   arrival_time=s.arrival_time, psi=s.psi,
                   is_last_of_set=last, is_end_of_burst=s.end_of_burst and last,
                   deadline=s.deadline)


def mtu_sizes(total: int, mtu: int) -> tuple:
    """PDU sizes of total bytes cut into MTU-bounded PDUs."""
    full, rem = divmod(total, mtu)
    return (mtu,) * full + ((rem,) if rem else ())


@dataclass
class DataBurst:
    id: int
    pdu_sets: list[PduSet] = field(default_factory=list)


def sample_truncated_gaussian(rng: np.random.Generator, mean: float, std: float,
                              lo: float, hi: float) -> float:
    """Rejection-sample a Gaussian restricted to the open interval (lo, hi)."""
    while True:
        x = rng.normal(mean, std)
        if lo < x < hi:
            return x


class VideoSource:
    """Draws successive frames of one video stream."""

    def __init__(self, config: VideoStreamConfig, rng: np.random.Generator,
                 start_us: Fraction | int = 0):
        self.config = config
        self.rng = rng
        self.start_us = Fraction(start_us)
        self.frame_index = 0

    def next_frame(self) -> VideoFrame:
        cfg = self.config
        mean = cfg.mean_frame_bytes
        lo = cfg.size_min_frac * mean
        hi = cfg.size_max_frac * mean
        while True:
            size = int(round(self.rng.normal(mean, cfg.size_std_frac * mean)))
            if lo < size < hi:
                break
        arrival = self.start_us + self.frame_index * cfg.period_us
        if cfg.direction is Direction.DL:
            jitter = sample_truncated_gaussian(
                self.rng, 0.0, cfg.jitter_std_us, cfg.jitter_min_us, cfg.jitter_max_us)
            arrival += int(round(jitter))
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
    base, rem = divmod(frame.byte_size, sets_per_frame)
    sets = []
    for k in range(sets_per_frame):
        set_bytes = base + (rem if k == sets_per_frame - 1 else 0)
        if set_bytes == 0:
            continue
        sets.append(PduSet((frame.index, k), frame.index,
                           psi_pattern[k % len(psi_pattern)], arrival,
                           mtu_sizes(set_bytes, mtu), deadline))
    sets[-1].end_of_burst = True
    return sets


def pose_source(period_us: int = 4000, size: int = 100,
                psdb_us: Optional[int] = None,
                start_us: int = 0) -> Iterator[PduSet]:
    """Periodic fixed-size control packets, one single-PDU set each."""
    n = 0
    while True:
        t = Fraction(start_us + n * period_us)
        yield PduSet(("pose", n), n, 0, t, (size,),
                     None if psdb_us is None else t + psdb_us,
                     end_of_burst=True)
        n += 1


def ftp3_source(rng: np.random.Generator, file_size: int = 125_000,
                mean_interarrival_s: float = 1.0,
                mtu: int = MTU_BYTES) -> Iterator[PduSet]:
    """Poisson file arrivals, each file one set of plain PDUs without deadlines."""
    t = 0.0
    n = 0
    while True:
        t += rng.exponential(mean_interarrival_s) * 1e6
        yield PduSet(("ftp", n), n, 0, Fraction(int(round(t))),
                     mtu_sizes(file_size, mtu), end_of_burst=True)
        n += 1
