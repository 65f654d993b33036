"""MAC schedulers: DL policies, UL grants, configured grants with UTO-UCI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from .engine import SLOT_US
from .qos import FlowQueue, Segment
from .radio import DATA_SYMBOLS, MCS_SE, N_RB, SC_PER_RB, tb_bits

EPS_RATE_BPS = 1.0
EXPIRED_FLOOR_FACTOR = 1e-3


class PolicyKind(Enum):
    PF = "pf"
    MLWDF = "mlwdf"
    PDUSET = "pduset"


@dataclass(frozen=True)
class SchedulerPolicy:
    kind: PolicyKind = PolicyKind.PF
    pf_avg_window: int = 100
    pduset_alpha: float = 1.0
    epsilon_time_us: float = 1000.0

    def __post_init__(self):
        if self.pf_avg_window <= 0 or self.pduset_alpha <= 0 \
                or self.epsilon_time_us <= 0:
            raise ValueError("policy parameters must be positive")


@dataclass
class DlCandidate:
    ue_id: int
    queue: FlowQueue
    inst_rate_bps: float
    avg_tput_bps: float
    mcs: int
    is_xr: bool = True
    psdb_us: Optional[float] = None


@dataclass
class Allocation:
    ue_id: int
    direction: str
    slot: int
    rb_start: int
    rb_count: int
    mcs: int
    tb_bits: int
    segments: list[Segment] = field(default_factory=list)

    @property
    def carried_bytes(self) -> int:
        return sum(s.byte_size for s in self.segments)


def pf_update(avg_bps: float, served_bps: float, window_slots: int) -> float:
    w = 1.0 / window_slots
    return (1.0 - w) * avg_bps + w * served_bps


def pf_metric(cand: DlCandidate) -> float:
    return cand.inst_rate_bps / max(cand.avg_tput_bps, EPS_RATE_BPS)


def mlwdf_metric(cand: DlCandidate, now) -> float:
    a_i = -math.log(0.01) / (cand.psdb_us)
    return a_i * cand.queue.hol_age_us(now) * pf_metric(cand)


def _head_set(cand: DlCandidate):
    head = cand.queue.entries[0]
    return head.pdu_set, head.taken * 8, head.pdu_set.total_bytes * 8


def pduset_metric(cand: DlCandidate, now,
                  policy: SchedulerPolicy) -> Optional[float]:
    """Urgency score of the head PDU set; None flags an expired budget."""
    head, sent_bits, set_bits = _head_set(cand)
    deadline = head.deadline
    tau = (float((deadline - now) / cand.queue.ticks_per_us)
           if deadline is not None else cand.psdb_us)
    if tau <= 0:
        return None
    boost = math.exp(policy.pduset_alpha * sent_bits / set_bits)
    return boost / max(tau, policy.epsilon_time_us)


def _head_expired(cand: DlCandidate, now) -> bool:
    deadline = cand.queue.entries[0].pdu_set.deadline
    return deadline is not None and deadline <= now


def _rank(candidates: list[DlCandidate], now,
          policy: SchedulerPolicy) -> list[DlCandidate]:
    raw = []
    for c in candidates:
        # data held beyond its budget drops to a floor priority under
        # every policy; it is only served when nothing fresh wants the slot
        if _head_expired(c, now):
            raw.append(None)
        elif policy.kind is PolicyKind.PF:
            raw.append(pf_metric(c))
        elif policy.kind is PolicyKind.MLWDF:
            raw.append(mlwdf_metric(c, now))
        else:
            raw.append(pduset_metric(c, now, policy))
    positive = [m for m in raw if m is not None and m > 0]
    floor = (min(positive) if positive else 1.0) * EXPIRED_FLOOR_FACTOR
    scored = [(floor if m is None else m, c) for m, c in zip(raw, candidates)]
    scored.sort(key=lambda mc: (-mc[0], mc[1].ue_id))
    return [c for _, c in scored]


def _rb_demand(queue_bits: int, mcs: int, data_symbols: int) -> int:
    bits_per_rb = MCS_SE[mcs] * SC_PER_RB * data_symbols
    return max(1, math.ceil(queue_bits / bits_per_rb))


def allocate_dl(slot: int, candidates: list[DlCandidate], now,
                policy: SchedulerPolicy, total_rb: int = N_RB,
                data_symbols: int = DATA_SYMBOLS) -> list[Allocation]:
    """One slot of DL allocation: XR first by policy metric, then eMBB by PF."""
    allocations = []
    rb_used = 0
    xr = [c for c in candidates if c.is_xr and c.queue.queued_bytes > 0]
    for cand in _rank(xr, now, policy):
        if rb_used >= total_rb:
            break
        need = _rb_demand(cand.queue.queued_bytes * 8, cand.mcs, data_symbols)
        rb = min(need, total_rb - rb_used)
        tb = tb_bits(cand.mcs, rb, data_symbols)
        segments = cand.queue.take(tb // 8, now)
        if not segments:
            continue
        allocations.append(Allocation(cand.ue_id, "dl", slot, rb_used, rb,
                                      cand.mcs, tb, segments))
        rb_used += rb
    embb = [c for c in candidates if not c.is_xr and c.queue.queued_bytes > 0]
    if embb and rb_used < total_rb:
        embb.sort(key=lambda c: (-pf_metric(c), c.ue_id))
        best = embb[0]
        need = _rb_demand(best.queue.queued_bytes * 8, best.mcs, data_symbols)
        rb = min(need, total_rb - rb_used)
        tb = tb_bits(best.mcs, rb, data_symbols)
        segments = best.queue.take(tb // 8, now)
        if segments:
            allocations.append(Allocation(best.ue_id, "dl", slot, rb_used, rb,
                                          best.mcs, tb, segments))
            rb_used += rb
    assert rb_used <= total_rb
    return allocations


@dataclass
class UlCandidate:
    ue_id: int
    reported_bytes: int
    mcs: int
    max_rb_unlimited: int = N_RB  # adaptive bandwidth cap from power headroom
    urgency_us: Optional[float] = None  # smallest remaining time via DSR


def allocate_ul(slot: int, candidates: list[UlCandidate], total_rb: int = N_RB,
                data_symbols: int = DATA_SYMBOLS,
                rb_offset: int = 0) -> list[Allocation]:
    """Grant UL RBs proportionally to reported buffers, urgent UEs first."""
    active = [c for c in candidates if c.reported_bytes > 0]
    if not active:
        return []
    total_bytes = sum(c.reported_bytes for c in active)
    active.sort(key=lambda c: (c.urgency_us if c.urgency_us is not None
                               else math.inf, c.ue_id))
    grants = []
    rb_used = rb_offset
    remaining = total_rb - rb_offset
    for c in active:
        if remaining <= 0:
            break
        share = max(1, round(remaining * c.reported_bytes / total_bytes))
        demand = _rb_demand(c.reported_bytes * 8, c.mcs, data_symbols)
        rb = min(share, demand, remaining, c.max_rb_unlimited)
        tb = tb_bits(c.mcs, rb, data_symbols)
        grants.append(Allocation(c.ue_id, "ul", slot, rb_used, rb, c.mcs, tb))
        rb_used += rb
        remaining -= rb
    return grants


@dataclass(frozen=True)
class CgConfig:
    periodicity_us: Fraction
    occasions_per_period: int = 1
    rb_per_occasion: int = 50
    mcs: Optional[int] = None  # None tracks CSI at grant time
    uto_uci_window: int = 4

    def __post_init__(self):
        if self.occasions_per_period < 1:
            raise ValueError("need at least one occasion")
        # DDDSU has one UL slot each 5 slots, so the train spans 5 slots per occasion
        if self.occasions_per_period * 5 * SLOT_US > self.periodicity_us:
            raise ValueError("period cannot fit the occasion train")


@dataclass(frozen=True)
class CgOccasion:
    period: int
    slot: int
    rb_count: int
    mcs: Optional[int]


def _ul_slot_at_or_after(slot: int) -> int:
    return slot + (4 - slot % 5)


def cg_occasions(cfg: CgConfig, horizon_us) -> list[CgOccasion]:
    """Occasion train per period, drift-free for rational periodicities."""
    out = []
    n = 0
    while n * cfg.periodicity_us < horizon_us:
        start = n * cfg.periodicity_us
        first_slot = math.ceil(start / SLOT_US)
        u = _ul_slot_at_or_after(first_slot)
        for k in range(cfg.occasions_per_period):
            slot = u + 5 * k
            if slot * SLOT_US < horizon_us:
                out.append(CgOccasion(n, slot, cfg.rb_per_occasion, cfg.mcs))
        n += 1
    return out


def build_uto_uci(buffer_bytes: int, occasion_capacities: list[int],
                  n_window: int) -> str:
    """Bitmap over the next N occasions, 1 meaning the occasion goes unused."""
    caps = occasion_capacities[:n_window]
    rem = buffer_bytes
    bits = []
    for cap in caps:
        carried = min(rem, cap)
        bits.append("1" if carried == 0 else "0")
        rem -= carried
    return "".join(bits)


def reclaim_unused(bitmap: str, occasions: list[CgOccasion],
                   current_slot: int) -> list[CgOccasion]:
    """Future occasions flagged unused; their RBs return to the dynamic pool."""
    out = []
    for bit, occ in zip(bitmap, occasions):
        if bit == "1" and occ.slot > current_slot:
            out.append(occ)
    return out
