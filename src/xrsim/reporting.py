"""UE-side buffer and delay status reporting."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .qos import QueuedSet

SHORT_BSR_CE_BYTES = 4
LONG_BSR_CE_BYTES = 8


class TableKind(Enum):
    SHORT = "short"
    LONG = "long"
    REFINED_LONG = "refined_long"


TABLE_DEFAULTS = {
    TableKind.SHORT: (32, 10, 150_000),
    TableKind.LONG: (256, 10, 81_000_000),
    TableKind.REFINED_LONG: (256, 10, 300_000),
}


@dataclass(frozen=True)
class BsTable:
    kind: TableKind
    entries: tuple[int, ...]

    @property
    def max_bytes(self) -> int:
        return self.entries[-1]

    @property
    def index_count(self) -> int:
        return len(self.entries)


def _geometric_entries(n: int, b_min: int, b_max: int) -> list[int]:
    # nearest-integer rounding can collide adjacent low entries; bump to
    # keep the table strictly increasing
    entries = [0]
    for k in range(1, n):
        v = round(b_min * (b_max / b_min) ** ((k - 1) / (n - 2)))
        entries.append(max(v, entries[-1] + 1))
    return entries


def _refined_entries(n: int, b_min: int, b_max: int, parent: list[int]) -> list[int]:
    """Refine the parent grid over [b_min, b_max] instead of regenerating.

    Keeping every parent entry in range guarantees the finer table never
    overshoots a buffer value by more than the parent does.
    """
    vals = sorted({e for e in parent if 0 < e <= b_max} | {b_min, b_max})
    while len(vals) < n - 1:
        splittable = [i for i in range(len(vals) - 1) if vals[i + 1] - vals[i] >= 2]
        if not splittable:
            break
        i = max(splittable, key=lambda j: (vals[j + 1] / vals[j], -vals[j]))
        mid = round(math.sqrt(vals[i] * vals[i + 1]))
        mid = min(max(mid, vals[i] + 1), vals[i + 1] - 1)
        vals.insert(i + 1, mid)
    return [0] + vals


def gen_bs_table(kind: TableKind, b_min: Optional[int] = None,
                 b_max: Optional[int] = None, n: Optional[int] = None) -> BsTable:
    dn, dmin, dmax = TABLE_DEFAULTS[kind]
    n = n if n is not None else dn
    b_min = b_min if b_min is not None else dmin
    b_max = b_max if b_max is not None else dmax
    if not (0 < b_min < b_max) or n < 2:
        raise ValueError("invalid table bounds")
    if kind is TableKind.REFINED_LONG:
        ln, lmin, lmax = TABLE_DEFAULTS[TableKind.LONG]
        entries = _refined_entries(n, b_min, b_max, _geometric_entries(ln, lmin, lmax))
    else:
        entries = _geometric_entries(n, b_min, b_max)
    return BsTable(kind, tuple(entries))


def quantize_bsr(buffer_bytes: int, table: BsTable) -> int:
    """Round up to the nearest index covering at least buffer_bytes."""
    if buffer_bytes < 0:
        raise ValueError("negative buffer")
    idx = bisect_left(table.entries, buffer_bytes)
    return min(idx, len(table.entries) - 1)


def select_table(buffer_bytes: int, refined_configured: bool,
                 refined_max: int = TABLE_DEFAULTS[TableKind.REFINED_LONG][2]) -> TableKind:
    if refined_configured and buffer_bytes <= refined_max:
        return TableKind.REFINED_LONG
    return TableKind.LONG


@dataclass(frozen=True)
class BsrReport:
    lcg_id: int
    index: int
    table_kind: TableKind
    timestamp: float

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("index out of bounds")


@dataclass(frozen=True)
class DsrReport:
    lcg_id: int
    smallest_remaining_ms: float
    buffered_bytes_below_threshold: int
    timestamp: float


@dataclass
class LcgState:
    """A logical channel group's buffer: the queued PDU sets of its flows."""

    lcg_id: int
    sets: Sequence[QueuedSet] = field(default_factory=list)
    dsr_reported: set = field(default_factory=set)  # ids of reported sets

    @property
    def buffered_bytes(self) -> int:
        return sum(e.remaining for e in self.sets)


def trigger_dsr(lcg: LcgState, threshold_us: int, ref_time_us) -> Optional[DsrReport]:
    """Fire a delay status report the first time a set crosses the threshold.

    ref_time_us is the slot the report would ride on, so remaining times are
    what the scheduler will see when the grant lands.
    """
    below = [e for e in lcg.sets
             if e.pdu_set.deadline is not None
             and e.pdu_set.deadline - ref_time_us < threshold_us]
    if not any(e.pdu_set.id not in lcg.dsr_reported for e in below):
        return None
    smallest = min(max(float(e.pdu_set.deadline - ref_time_us), 0.0)
                   for e in below)
    total = sum(e.remaining for e in below)
    lcg.dsr_reported.update(e.pdu_set.id for e in below)
    return DsrReport(lcg.lcg_id, smallest / 1000.0, total, float(ref_time_us))


def realized_overhead(allocation_bytes: int, served_bytes: int) -> int:
    """Padding added when the grant outsizes what the queue could fill."""
    return max(0, allocation_bytes - served_bytes)
