"""Property test: the one-pass DL ranking against the ranking it replaced.

The reference below is the implementation that the one-pass ranking
replaced: an expiry check before every metric, a head-set tuple for the
pduset metric, a lambda sort key, two filtering passes in allocate_dl and
a second allocation block for the eMBB pick. Random UE records with
expired heads, heads without a deadline, partly sent heads and tied
metrics must rank the same under PF, M-LWDF and pduset, at 1, 3 or 7 ticks
per µs shared by every queue as in a cell, and allocate_dl must hand out
the same blocks. The pduset metric has no function of its own
in the package: _rank computes it in its loop, so the reference metric is
checked through the order it gives.
"""

import math
from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from xrsim.cellsim import UeCtx
from xrsim.engine import SLOT_US
from xrsim.qos import FlowQueue, QosFlowProfile
from xrsim.radio import DATA_SYMBOLS, MCS_SE, N_RB, SC_PER_RB, tb_bits
from xrsim.scheduling import (EPS_RATE_BPS, EPSILON_TIME_US,
                              EXPIRED_FLOOR_FACTOR, PDUSET_ALPHA, Allocation,
                              PolicyKind, SchedulerPolicy, _rank, allocate_dl,
                              reads_avg)
from xrsim.traffic import PduSet

# ---- the reference ranking ----


def _ref_pf_metric(cand, data_symbols):
    # the full-band rate at the UE's MCS, in bits per second
    rate = tb_bits(cand.mcs, N_RB, data_symbols) * (1_000_000 // SLOT_US)
    return rate / max(cand.avg_tput_bps, EPS_RATE_BPS)


def _ref_mlwdf_metric(cand, now, data_symbols, psdb_us):
    a_i = -math.log(0.01) / psdb_us
    return (a_i * cand.queue.hol_age_us(now)
            * _ref_pf_metric(cand, data_symbols))


def _ref_head_set(cand):
    head = cand.queue.entries[0]
    return head, head.taken * 8, head.total_bytes * 8


def _ref_pduset_metric(cand, now, psdb_us) -> Optional[float]:
    head, sent_bits, set_bits = _ref_head_set(cand)
    deadline = head.deadline
    tau = (float((deadline - now) / cand.queue.ticks_per_us)
           if deadline is not None else psdb_us)
    if tau <= 0:
        return None
    boost = math.exp(PDUSET_ALPHA * sent_bits / set_bits)
    return boost / max(tau, EPSILON_TIME_US)


def _ref_head_expired(cand, now) -> bool:
    deadline = cand.queue.entries[0].deadline
    return deadline is not None and deadline <= now


def _ref_rank(candidates, now, policy, data_symbols, psdb_us):
    raw = []
    for c in candidates:
        if _ref_head_expired(c, now):
            raw.append(None)
        elif policy.kind is PolicyKind.PF:
            raw.append(_ref_pf_metric(c, data_symbols))
        elif policy.kind is PolicyKind.MLWDF:
            raw.append(_ref_mlwdf_metric(c, now, data_symbols, psdb_us))
        else:
            raw.append(_ref_pduset_metric(c, now, psdb_us))
    positive = [m for m in raw if m is not None and m > 0]
    floor = (min(positive) if positive else 1.0) * EXPIRED_FLOOR_FACTOR
    scored = [(floor if m is None else m, c) for m, c in zip(raw, candidates)]
    scored.sort(key=lambda mc: (-mc[0], mc[1].ue_id))
    return [c for _, c in scored]


def _ref_rb_demand(queue_bits, mcs, data_symbols):
    bits_per_rb = MCS_SE[mcs] * SC_PER_RB * data_symbols
    return max(1, math.ceil(queue_bits / bits_per_rb))


def _ref_allocate_dl(now, candidates, policy, total_rb, data_symbols,
                     psdb_us):
    allocations = []
    rb_used = 0
    xr = [c for c in candidates
          if not c.is_embb and c.queue.queued_bytes > 0]
    if len(xr) > 1:
        xr = _ref_rank(xr, now, policy, data_symbols, psdb_us)
    for cand in xr:
        if rb_used >= total_rb:
            break
        need = _ref_rb_demand(cand.queue.queued_bytes * 8, cand.mcs,
                              data_symbols)
        rb = min(need, total_rb - rb_used)
        tb = tb_bits(cand.mcs, rb, data_symbols)
        segments = cand.queue.take(tb // 8)
        if not segments:
            continue
        allocations.append(Allocation(cand.ue_id, rb, cand.mcs, tb,
                                      segments))
        rb_used += rb
    embb = [c for c in candidates
            if c.is_embb and c.queue.queued_bytes > 0]
    if embb and rb_used < total_rb:
        embb.sort(key=lambda c: (-_ref_pf_metric(c, data_symbols), c.ue_id))
        best = embb[0]
        need = _ref_rb_demand(best.queue.queued_bytes * 8, best.mcs,
                              data_symbols)
        rb = min(need, total_rb - rb_used)
        tb = tb_bits(best.mcs, rb, data_symbols)
        segments = best.queue.take(tb // 8)
        if segments:
            allocations.append(Allocation(best.ue_id, rb, best.mcs,
                                          tb, segments))
            rb_used += rb
    return allocations


# ---- random UE records ----

NOW = 50_000  # ticks; deadlines are drawn around it

# few distinct values, so that metrics tie often
_AVGS = (0.0, 0.5, 1.0, 1e6, 4e6)
# NOW + 25_000 ticks is later than a head without a deadline at 1 tick
# per µs, and earlier at 7
_DEADLINES = (None, NOW - 3000, NOW, NOW + 1, NOW + 1500, NOW + 25_000,
              NOW + 90_000)


@st.composite
def _candidate_specs(draw):
    # ticks per µs, shared by every queue of a draw as in a cell
    tpu = draw(st.sampled_from((1, 3, 7)))
    n = draw(st.integers(1, 7))
    ue_ids = draw(st.permutations(range(12)))[:n]
    specs = []
    for ue_id in ue_ids:
        sets = draw(st.lists(
            st.tuples(st.lists(st.integers(1, 4000), min_size=1, max_size=4),
                      st.sampled_from(_DEADLINES),
                      # age at NOW in ticks; 0 and 1 give M-LWDF metrics
                      # of zero or below
                      st.sampled_from((0, 1, 1500, 30_000))),
            min_size=1, max_size=3))
        specs.append(dict(
            ue_id=ue_id, sets=sets,
            # bytes already sent of the head set, as a share of it: none,
            # one byte, some, or all of a one-set queue
            sent=draw(st.sampled_from((0.0, 1e-9, 0.25, 0.5, 0.999, 1.0))),
            avg=draw(st.sampled_from(_AVGS)),
            mcs=draw(st.sampled_from((0, 9, 20, 27))),
            is_embb=draw(st.booleans()), tpu=tpu))
    return specs


def _build(specs):
    """Fresh UE records, queues included, from the drawn specs."""
    ues = []
    for spec in specs:
        q = FlowQueue(QosFlowProfile(psdb_ms=10.0), ticks_per_us=spec["tpu"])
        for k, (sizes, deadline, age) in enumerate(spec["sets"]):
            arrival = NOW - age
            if deadline is not None and deadline <= arrival:
                deadline = arrival + 1
            q.enqueue_set(PduSet((spec["ue_id"], k), k % 2, arrival,
                                 tuple(sizes), deadline))
        if spec["sent"]:
            head = q.entries[0].total_bytes
            q.take(max(1, int(head * spec["sent"])))
        ue = UeCtx(spec["ue_id"], spec["is_embb"])
        ue.queue, ue.mcs, ue.avg_tput_bps = q, spec["mcs"], spec["avg"]
        ues.append(ue)
    return ues


def _blocks(allocations):
    return [(a.ue_id, a.rb_count, a.mcs, a.tb_bits,
             [(s.pdu_set.id, s.start, s.byte_size,
               # the PDUs whose last byte the segment carries
               sum(s.start < end <= s.start + s.byte_size
                   for end in s.pdu_set.ends))
              for s in a.segments]) for a in allocations]


_POLICIES = st.sampled_from([SchedulerPolicy(kind=k) for k in PolicyKind])


_NOWS = st.sampled_from((NOW - 1, NOW, NOW + 2000))
_SYMBOLS = st.sampled_from((10, 12))
_BUDGETS = st.sampled_from((5000.0, 10_000.0))


def _pair(tpu):
    """An untouched head due NOW + 25_000 ticks and one with no deadline."""
    return [dict(ue_id=i, sets=[([1000], deadline, 0)], sent=0.0, avg=1.0,
                 mcs=9, is_embb=False, tpu=tpu)
            for i, deadline in enumerate((NOW + 25_000, None))]


_PDUSET = SchedulerPolicy(kind=PolicyKind.PDUSET)


@settings(max_examples=200)
@given(specs=_candidate_specs(), policy=_POLICIES, now=_NOWS,
       data_symbols=_SYMBOLS, psdb_us=_BUDGETS)
# the head with a deadline ranks second at 1 tick per µs and first at 7
@example(specs=_pair(1), policy=_PDUSET, now=NOW, data_symbols=12,
         psdb_us=10_000.0)
@example(specs=_pair(7), policy=_PDUSET, now=NOW, data_symbols=12,
         psdb_us=5000.0)
def test_rank_matches_reference(specs, policy, now, data_symbols, psdb_us):
    ues = [ue for ue in _build(specs) if ue.queue.queued_bytes]
    if not ues:
        return
    got = [ue.ue_id for ue in _rank(ues, now, policy, data_symbols, psdb_us)]
    assert got == [ue.ue_id for ue in _ref_rank(ues, now, policy,
                                                data_symbols, psdb_us)]


@settings(max_examples=200)
@given(specs=_candidate_specs(), policy=_POLICIES, now=_NOWS,
       total_rb=st.sampled_from((1, 7, 60, N_RB)), data_symbols=_SYMBOLS,
       psdb_us=_BUDGETS)
def test_allocate_dl_matches_reference(specs, policy, now, total_rb,
                                       data_symbols, psdb_us):
    got = allocate_dl(now, _build(specs), policy, total_rb, data_symbols,
                      psdb_us=psdb_us)
    want = _ref_allocate_dl(now, _build(specs), policy, total_rb,
                            data_symbols, psdb_us)
    assert _blocks(got) == _blocks(want)
    # the blocks of one slot fit its RB budget together
    assert sum(a.rb_count for a in got) <= total_rb


@settings(max_examples=200)
@given(specs=_candidate_specs(), policy=_POLICIES, now=_NOWS,
       total_rb=st.sampled_from((1, 7, 60, N_RB)))
def test_allocate_dl_reads_no_average_reads_avg_rules_out(specs, policy, now,
                                                          total_rb):
    # the cell refreshes only the averages that reads_avg names, so a stale
    # (here NaN) average anywhere else must leave every block unchanged
    want = allocate_dl(now, _build(specs), policy, total_rb, DATA_SYMBOLS,
                       psdb_us=10_000.0)
    ues = _build(specs)
    n_embb = sum(ue.is_embb for ue in ues)
    for ue in ues:
        if not reads_avg(policy, not ue.is_embb, n_embb):
            ue.avg_tput_bps = math.nan
    got = allocate_dl(now, ues, policy, total_rb, DATA_SYMBOLS,
                      psdb_us=10_000.0)
    assert _blocks(got) == _blocks(want)
