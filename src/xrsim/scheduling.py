"""MAC schedulers: DL policies, UL grants, configured grants with UTO-UCI."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import mul
from typing import NamedTuple, Optional

from .engine import SLOT_US, TDD_PERIOD, ConfigError, next_slot
from .qos import Segment
from .radio import DATA_SYMBOLS, MCS_SE, N_RB, SC_PER_RB, tb_bits

EPS_RATE_BPS = 1.0
EXPIRED_FLOOR_FACTOR = 1e-3
PF_WINDOW_SLOTS = 100  # the PF average's window, in DL slots
# the pduset metric: boost exponent of a partly sent head set, and the
# floor of its remaining time in µs
PDUSET_ALPHA = 1.0
EPSILON_TIME_US = 1000.0


class PolicyKind(Enum):
    PF = "pf"
    MLWDF = "mlwdf"
    PDUSET = "pduset"


class SchedulerPolicy(NamedTuple):
    kind: PolicyKind = PolicyKind.PF


class Allocation:
    """A transport block, and its HARQ state once it is sent: the attempts
    made so far and the last attempt's outcome. A UL grant has no segments
    until the UE fills it."""

    __slots__ = ("ue_id", "rb_count", "mcs", "tb_bits", "segments",
                 "attempts", "acked")

    def __init__(self, ue_id: int, rb_count: int, mcs: int, tb_bits: int,
                 segments: list[Segment] | tuple = ()):
        self.ue_id = ue_id
        self.rb_count = rb_count
        self.mcs = mcs
        self.tb_bits = tb_bits
        self.segments = segments
        self.attempts = 0
        self.acked = False


def pf_update(avg_bps: float, served_bps: float) -> float:
    w = 1.0 / PF_WINDOW_SLOTS
    return (1.0 - w) * avg_bps + w * served_bps


def pf_idle(avg_bps: float, slots: int) -> float:
    """pf_update over slots that serve nothing, bit for bit: the update is
    then (1 - w) * avg + 0.0, and x + 0.0 == x for x >= 0. One product per
    slot, since a power rounds differently; reduce runs the products in C,
    and avg * keep is keep * avg exactly."""
    return reduce(mul, repeat(1.0 - 1.0 / PF_WINDOW_SLOTS, slots), avg_bps)


def pf_metric(ue, data_symbols: int) -> float:
    """The UE's full-band rate on a slot of data_symbols PDSCH symbols over
    its PF average."""
    rate = tb_bits(ue.mcs, N_RB, data_symbols) * (1_000_000 // SLOT_US)
    return rate / max(ue.avg_tput_bps, EPS_RATE_BPS)


def mlwdf_metric(ue, now, data_symbols: int, psdb_us: float) -> float:
    a_i = -math.log(0.01) / psdb_us
    return a_i * ue.queue.hol_age_us(now) * pf_metric(ue, data_symbols)


def reads_avg(policy: SchedulerPolicy, is_xr: bool, n_embb: int) -> bool:
    """Whether allocate_dl may read a UE's avg_tput_bps: the PF and M-LWDF
    metrics read an XR UE's, the pduset metric does not, and the eMBB pick
    reads them only to choose between several UEs."""
    if is_xr:
        return policy.kind is not PolicyKind.PDUSET
    return n_embb > 1


def _head_expired(ue, now) -> bool:
    deadline = ue.queue.entries[0].deadline
    return deadline is not None and deadline <= now


def _rank(ues: list, now, policy: SchedulerPolicy, data_symbols: int,
          psdb_us: float) -> list:
    kind = policy.kind
    keyed = []  # (-metric, ue_id, index, ue) of each UE with a metric
    expired = []
    # data held beyond its budget drops to a floor priority under every
    # policy; it is only served when nothing fresh wants the slot
    if kind is PolicyKind.PDUSET:
        # the pduset metric: the head set's urgency, boosted as it is sent;
        # a cell's queues share one tick scale, and ticks over it are floats
        tpu = ues[0].queue.ticks_per_us
        for i, ue in enumerate(ues):
            head = ue.queue.entries[0]
            deadline = head.deadline
            tau = (deadline - now) / tpu if deadline is not None else psdb_us
            if tau <= 0:
                expired.append(i)
                continue
            taken = head.taken
            # exp(0.0) is exactly 1.0: an untouched head set has no boost
            boost = (math.exp(PDUSET_ALPHA * (taken * 8)
                              / (head.total_bytes * 8)) if taken else 1.0)
            keyed.append((-(boost / (EPSILON_TIME_US if EPSILON_TIME_US > tau
                                     else tau)), ue.ue_id, i, ue))
    else:
        for i, ue in enumerate(ues):
            if _head_expired(ue, now):
                expired.append(i)
            elif kind is PolicyKind.PF:
                keyed.append((-pf_metric(ue, data_symbols), ue.ue_id, i, ue))
            else:
                keyed.append((-mlwdf_metric(ue, now, data_symbols, psdb_us),
                              ue.ue_id, i, ue))
    if expired:
        positive = [-k[0] for k in keyed if k[0] < 0]
        floor = (min(positive) if positive else 1.0) * EXPIRED_FLOOR_FACTOR
        for i in expired:
            ue = ues[i]
            keyed.append((-floor, ue.ue_id, i, ue))
    # the index breaks ties in input order, as a stable sort would, so the
    # UE itself is never compared
    keyed.sort()
    return [k[3] for k in keyed]


def _rb_demand(queue_bits: int, mcs: int, data_symbols: int) -> int:
    need = math.ceil(queue_bits / (MCS_SE[mcs] * SC_PER_RB * data_symbols))
    return need if need > 1 else 1


def allocate_dl(now, ues: list, policy: SchedulerPolicy, total_rb: int,
                data_symbols: int, *, psdb_us: float) -> list[Allocation]:
    """One slot of DL allocation to UE records: XR UEs first by policy
    metric, then the eMBB UE with the highest PF metric. Only the UEs for
    which reads_avg holds need an up-to-date avg_tput_bps."""
    xr, embb = [], []
    for ue in ues:
        if ue.queue.queued_bytes > 0:
            (embb if ue.is_embb else xr).append(ue)
    if len(xr) > 1:  # one UE ranks as itself
        xr = _rank(xr, now, policy, data_symbols, psdb_us)
    if len(embb) > 1:  # the highest PF metric, then the lowest ue_id
        embb = [embb[min((-pf_metric(ue, data_symbols), ue.ue_id, i)
                         for i, ue in enumerate(embb))[2]]]
    allocations = []
    rb_used = 0
    xr += embb  # xr is a list of this call's own
    for ue in xr:
        rb = total_rb - rb_used
        if rb <= 0:
            break
        queue, mcs = ue.queue, ue.mcs
        need = _rb_demand(queue.queued_bytes * 8, mcs, data_symbols)
        if need < rb:
            rb = need
        tb = tb_bits(mcs, rb, data_symbols)
        segments = queue.take(tb // 8)
        if not segments:
            continue
        allocations.append(Allocation(ue.ue_id, rb, mcs, tb, segments))
        rb_used += rb
    return allocations


class UlCandidate(NamedTuple):
    ue_id: int
    reported_bytes: int
    mcs: int
    urgency_us: Optional[float] = None  # smallest remaining time via DSR


def allocate_ul(candidates: list[UlCandidate],
                total_rb: int) -> list[Allocation]:
    """Grant UL RBs proportionally to reported buffers, urgent UEs first."""
    active = [c for c in candidates if c.reported_bytes > 0]
    if not active:
        return []
    total_bytes = sum(c.reported_bytes for c in active)
    active.sort(key=lambda c: (c.urgency_us if c.urgency_us is not None
                               else math.inf, c.ue_id))
    grants = []
    remaining = total_rb
    for c in active:
        if remaining <= 0:
            break
        share = max(1, round(remaining * c.reported_bytes / total_bytes))
        demand = _rb_demand(c.reported_bytes * 8, c.mcs, DATA_SYMBOLS)
        rb = min(share, demand, remaining)
        grants.append(Allocation(c.ue_id, rb, c.mcs, tb_bits(c.mcs, rb)))
        remaining -= rb
    return grants


@dataclass(frozen=True)
class CgConfig:
    periodicity_us: Fraction
    occasions_per_period: int = 1
    rb_per_occasion: int = 50
    uto_uci_window: int = 4

    def __post_init__(self):
        train = ("periodicity_us", "occasions_per_period")
        if self.occasions_per_period < 1:
            raise ConfigError("need at least one occasion", *train)
        # one UL slot per TDD period, so the train spans a period per occasion
        if (self.occasions_per_period * TDD_PERIOD * SLOT_US
                > self.periodicity_us):
            raise ConfigError("period cannot fit the occasion train", *train)
        for name in ("rb_per_occasion", "uto_uci_window"):
            if getattr(self, name) < 1:
                raise ConfigError("must be positive", name)


class CgOccasion(NamedTuple):
    slot: int
    rb_count: int


def cg_occasions(cfg: CgConfig, horizon_us) -> list[CgOccasion]:
    """Occasion train per period, drift-free for rational periodicities."""
    out = []
    n = 0
    while n * cfg.periodicity_us < horizon_us:
        start = n * cfg.periodicity_us
        first_slot = math.ceil(start / SLOT_US)
        u = next_slot(first_slot, True)
        for k in range(cfg.occasions_per_period):
            slot = u + TDD_PERIOD * k
            if slot * SLOT_US < horizon_us:
                out.append(CgOccasion(slot, cfg.rb_per_occasion))
        n += 1
    return out


def build_uto_uci(buffer_bytes: int, occasion_capacities: list[int]) -> str:
    """Bitmap over the given occasions, 1 meaning the occasion goes unused."""
    rem = buffer_bytes
    bits = []
    for cap in occasion_capacities:
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
