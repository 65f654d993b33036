"""UE-side buffer and delay status reporting."""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from functools import cache
from typing import Iterable, NamedTuple, Optional

from .traffic import PduSet

SHORT_BSR_CE_BYTES = 4
LONG_BSR_CE_BYTES = 8


class TableKind(Enum):
    SHORT = "short"
    LONG = "long"
    REFINED_LONG = "refined_long"


TABLE_PARAMS = {
    TableKind.SHORT: (32, 10, 150_000),
    TableKind.LONG: (256, 10, 81_000_000),
    TableKind.REFINED_LONG: (256, 10, 300_000),
}


class BsTable(NamedTuple):
    entries: tuple[int, ...]


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


@cache  # a table is fixed by its kind, so every cell shares one
def gen_bs_table(kind: TableKind) -> BsTable:
    n, b_min, b_max = TABLE_PARAMS[kind]
    if kind is TableKind.REFINED_LONG:
        ln, lmin, lmax = TABLE_PARAMS[TableKind.LONG]
        entries = _refined_entries(n, b_min, b_max, _geometric_entries(ln, lmin, lmax))
    else:
        entries = _geometric_entries(n, b_min, b_max)
    return BsTable(tuple(entries))


def quantize_bsr(buffer_bytes: int, table: BsTable) -> int:
    """Round up to the nearest index covering at least buffer_bytes."""
    if buffer_bytes < 0:
        raise ValueError("negative buffer")
    idx = bisect_left(table.entries, buffer_bytes)
    return min(idx, len(table.entries) - 1)


def trigger_dsr(sets: Iterable[PduSet], reported: set, threshold_us: int,
                ref_time_us, ticks_per_us: int = 1) -> Optional[float]:
    """Fire a delay status report the first time one of an LCG's queued
    sets crosses the threshold, and return its smallest remaining time in
    ms; None if no report fires. reported holds the ids of the sets already
    reported, and a report adds to it.

    ref_time_us is the slot the report would ride on, so remaining times are
    what the scheduler will see when the grant lands. It and the sets'
    deadlines are in ticks of 1/ticks_per_us µs.
    """
    limit = threshold_us * ticks_per_us
    below = [s for s in sets
             if s.deadline is not None and s.deadline - ref_time_us < limit]
    if not any(s.id not in reported for s in below):
        return None
    smallest = min(
        max(float((s.deadline - ref_time_us) / ticks_per_us), 0.0)
        for s in below)
    reported.update(s.id for s in below)
    return smallest / 1000.0


def realized_overhead(allocation_bytes: int, served_bytes: int) -> int:
    """Padding added when the grant outsizes what the queue could fill."""
    return max(0, allocation_bytes - served_bytes)
