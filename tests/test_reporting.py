from fractions import Fraction

import numpy as np
import pytest

from xrsim.reporting import (
    TableKind,
    gen_bs_table,
    quantize_bsr,
    realized_overhead,
    trigger_dsr,
)
from xrsim.traffic import PduSet


@pytest.fixture(scope="module")
def tables():
    return {k: gen_bs_table(k) for k in TableKind}


def test_table_shapes(tables):
    short = tables[TableKind.SHORT]
    assert len(short.entries) == 32
    assert short.entries[0] == 0 and short.entries[1] == 10
    assert short.entries[-1] == 150_000
    long_t = tables[TableKind.LONG]
    assert len(long_t.entries) == 256
    assert long_t.entries[-1] == 81_000_000
    refined = tables[TableKind.REFINED_LONG]
    assert len(refined.entries) == 256
    assert refined.entries[-1] == 300_000
    for t in tables.values():
        assert all(b > a for a, b in zip(t.entries, t.entries[1:]))


def test_short_step_ratio(tables):
    entries = tables[TableKind.SHORT].entries
    ratio = (entries[-1] / entries[1]) ** (1 / 30)
    assert ratio == pytest.approx(1.378, abs=0.001)


def test_refined_contains_long_entries_in_range(tables):
    long_in_range = {e for e in tables[TableKind.LONG].entries if e <= 300_000}
    assert long_in_range <= set(tables[TableKind.REFINED_LONG].entries)


def test_quantize_round_up_law(tables):
    t = tables[TableKind.LONG]
    assert quantize_bsr(0, t) == 0
    for k in (1, 17, 100, 255):
        assert quantize_bsr(t.entries[k], t) == k
        if k < 255:
            assert quantize_bsr(t.entries[k] + 1, t) == k + 1
    assert quantize_bsr(t.entries[-1] + 5000, t) == 255
    rng = np.random.default_rng(3)
    for b in rng.integers(0, t.entries[-1], size=2000):
        idx = quantize_bsr(int(b), t)
        assert t.entries[idx] >= b
        if idx > 0:
            assert t.entries[idx - 1] < b


def test_refined_never_overshoots_more_than_long(tables):
    long_t = tables[TableKind.LONG]
    refined = tables[TableKind.REFINED_LONG]
    rng = np.random.default_rng(9)
    for b in rng.integers(0, 300_001, size=2000):
        b = int(b)
        over_l = long_t.entries[quantize_bsr(b, long_t)] - b
        over_r = refined.entries[quantize_bsr(b, refined)] - b
        assert over_r <= over_l


def _queued(pid, size, arrival_us, deadline_us):
    return PduSet(("x", pid), 0, Fraction(arrival_us), (size,),
                  Fraction(deadline_us))


def test_dsr_crossing_time():
    # discard timer 30 ms, threshold 10 ms: crossing at arrival + 20 ms
    sets, reported = [_queued(0, 500, 0, 30_000)], set()
    assert trigger_dsr(sets, reported, 10_000, 19_999) is None
    assert trigger_dsr(sets, reported, 10_000, 20_000) is None
    assert reported == set()
    rep = trigger_dsr(sets, reported, 10_000, 20_500)
    assert rep is not None
    assert rep == pytest.approx(9.5)  # the smallest remaining time, in ms
    assert reported == {("x", 0)}


def test_dsr_fires_once_per_pdu():
    sets, reported = [_queued(0, 500, 0, 30_000)], set()
    assert trigger_dsr(sets, reported, 10_000, 21_000) is not None
    assert trigger_dsr(sets, reported, 10_000, 22_000) is None
    # fresh data crossing later re-triggers
    sets.append(_queued(1, 300, 5_000, 35_000))
    rep = trigger_dsr(sets, reported, 10_000, 26_000)
    assert rep is not None
    assert rep == pytest.approx(4.0)


def test_dsr_remaining_time_floored_at_zero():
    rep = trigger_dsr([_queued(0, 100, 0, 30_000)], set(), 10_000, 31_000)
    assert rep == 0.0


def test_realized_overhead(tables):
    t = tables[TableKind.LONG]
    k = 40
    buffered = t.entries[k] + 1
    grant = t.entries[quantize_bsr(buffered, t)]
    assert realized_overhead(grant, buffered) == t.entries[k + 1] - (t.entries[k] + 1)
    assert realized_overhead(t.entries[k], t.entries[k]) == 0
    # mid-burst: queue larger than the grant
    assert realized_overhead(1500, 4000) == 0
