"""System-level cell simulation binding traffic, radio, MAC and DRX.

One instance simulates one cell of a deployment drop slot by slot;
run_drop runs every cell of the drop in turn. Cells share no state from
slot to slot: each UE's SINR is fixed at set-up, with every other cell
interfering at full load. In a cell, video frames arrive as PDU sets,
downlink slots run the configured scheduler with HARQ, uplink slots run
the report-then-grant pipeline, and per-UE DRX machines gate scheduling.
The power model reads each UE's activity as runs of slots: a DRX UE keeps a
run-length log, and its machine is stepped only on slots where it has data
queued or is sent to; the slots between are caught up a window at a time.
A UE without DRX monitors PDCCH on every slot and keeps only the slots that
carried its data.

The cell runs on one integer clock: a tick is 1/ticks_per_us µs, where
ticks_per_us is the least common multiple of the denominators of the
config's rational times (the frame period and the DRX times), so every time
the cell holds is an int and no rational arithmetic runs per slot. Times
leave the cell as µs floats.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Integral
from typing import ClassVar, NamedTuple, Optional

from .drx import (SLOT_PDCCH, SLOT_PDSCH, SLOT_SLEEP, ActivityLog,
                  AdrxController, DrxConfig, DrxMachine,
                  PowerModel, check_adrx_cycle, power_for_run)
from .engine import (DOWNLINK, SLOT_US, SPECIAL, UPLINK, ConfigError,
                     RngStreams, block_draws, dl_slots_before, next_slot,
                     slot_type, ticks_per_us)
from .qos import FlowQueue, QosFlowProfile
from .radio import (DATA_SYMBOLS, HARQ_RTT_SLOTS, N_RB, S_SLOT_DATA_SYMBOLS,
                    Deployment, dl_sinr_db, harq_attempt, harq_exhausted,
                    select_mcs, tb_bits, ul_sinr_db)
from .reporting import (LONG_BSR_CE_BYTES, SHORT_BSR_CE_BYTES, TableKind,
                        gen_bs_table, quantize_bsr, realized_overhead,
                        trigger_dsr)
from .scheduling import (PF_WINDOW_SLOTS, Allocation, CgConfig,
                         SchedulerPolicy, UlCandidate, allocate_dl,
                         allocate_ul, build_uto_uci, cg_occasions, pf_idle,
                         pf_update, reads_avg, reclaim_unused)
from .traffic import (Direction, PduSet, VideoSource, VideoStreamConfig,
                      fragment_frame, ftp3_source, pose_source)

# PDSCH symbols of each DL slot kind
_DATA_SYMBOLS = {DOWNLINK: DATA_SYMBOLS, SPECIAL: S_SLOT_DATA_SYMBOLS}

# the PDU ends of a full-buffer eMBB set: one PDU of 150 kB
_FB_ENDS = (150_000,)

# pf_idle's factor for one slot, which the candidate loop inlines
_PF_KEEP = 1.0 - 1.0 / PF_WINDOW_SLOTS


def _drop(config, rng):
    """Every UE link of the drop, drawn from rng's drop stream."""
    return Deployment(config.n_cells).drop_ues(
        config.ues_per_cell + config.embb_ues, rng.stream("drop"))


def _always_on_power(pdsch_slots, start, end) -> float:
    """The power of a UE without DRX over slots start..end-1: PDCCH on
    every slot but its PDSCH slots, given in ascending order. Both terms are
    whole, so the two runs sum as the per-slot trace does."""
    k = len(pdsch_slots) - bisect_left(pdsch_slots, start)
    return power_for_run(((SLOT_PDSCH, k), (SLOT_PDCCH, end - start - k)))


@dataclass
class CellConfig:
    ues_per_cell: int = 1
    n_cells: int = 1
    direction: Direction = Direction.DL
    rate_bps: float = 30e6
    fps: Fraction = Fraction(60)
    psdb_ms: float = 10.0
    sets_per_frame: int = 1
    policy: SchedulerPolicy = SchedulerPolicy()
    duration_s: float = 10.0
    warmup_s: float = 1.0
    embb_ues: int = 0
    # full-buffer background traffic instead of FTP file arrivals
    embb_full_buffer: bool = False
    drx: Optional[DrxConfig] = None
    # "traffic" phase-aligns each UE's DRX grid to its own frame arrivals,
    # "common" keeps the configured start offset for every UE
    drx_offset_mode: str = "traffic"
    adaptive_drx: bool = False
    adrx_epoch_frames: int = 16
    bsr_table: TableKind = TableKind.LONG
    dsr_enabled: bool = False
    dsr_threshold_ms: float = 10.0
    psihi: bool = True
    psi_discard_enabled: bool = False
    # "psdb" ties the queue discard timer to the delay budget
    discard_timer_ms: object = "psdb"
    pose_cg: Optional[CgConfig] = None
    stagger: bool = True
    # the one power model, for readers outside the cell; not a field
    power_model: ClassVar[type[PowerModel]] = PowerModel

    def __post_init__(self):
        # the cell holds its times in whole µs; a zero rate or frame rate has
        # no frame to draw, a negative eMBB count takes XR UEs from the load,
        # a negative warm-up spreads the bits over more time than was run,
        # and a DSR threshold is a time left before a deadline
        for name in ("ues_per_cell", "n_cells", "embb_ues", "sets_per_frame",
                     "adrx_epoch_frames"):
            if not isinstance(getattr(self, name), Integral):
                raise ConfigError("must be a whole number", name)
        positive = ("ues_per_cell", "n_cells", "rate_bps", "fps", "psdb_ms",
                    "sets_per_frame", "adrx_epoch_frames")
        for name in positive + ("embb_ues", "warmup_s", "dsr_threshold_ms",
                                "duration_s"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:
                raise ConfigError("must be finite", name)
            sign = "positive" if name in positive else "non-negative"
            if not (value > 0 if name in positive else value >= 0):
                raise ConfigError(f"must be {sign}", name)
        # a budget of no whole µs puts each set's deadline on its arrival
        if self.psdb_us < 1:
            raise ConfigError("must round to at least 1 us", "psdb_ms")
        # the KPIs count from the first slot that starts at or after the
        # warm-up's end, so some slot of the run must start there
        if not -(-self.duration_us // SLOT_US) > -(-self.warmup_us // SLOT_US):
            raise ConfigError("a slot of the run must start after its warm-up",
                              "duration_s", "warmup_s")
        cg = self.pose_cg
        if cg is not None and self.ues_per_cell * cg.rb_per_occasion > N_RB:
            raise ConfigError(f"per-UE CG occasions must fit in {N_RB} RBs",
                              "ues_per_cell", "rb_per_occasion")
        if self.drx_offset_mode not in ("traffic", "common"):
            raise ConfigError("must be traffic or common", "drx_offset_mode")
        if self.adaptive_drx:
            if self.drx is None:
                raise ConfigError("needs a DRX config to adapt",
                                  "adaptive_drx", "drx")
            check_adrx_cycle(self.drx.cycle_us)
        if self.discard_timer_ms != "psdb":  # else the budget is the timer
            QosFlowProfile(self.psdb_ms,
                           discard_timer_ms=self.discard_timer_ms)
        VideoStreamConfig(rate_bps=self.rate_bps, fps=self.fps)

    @property
    def psdb_us(self) -> int:
        return int(round(self.psdb_ms * 1000))

    @property
    def duration_us(self) -> int:
        return int(round(self.duration_s * 1e6))

    @property
    def warmup_us(self) -> int:
        return int(round(self.warmup_s * 1e6))


class FrameProgress:
    __slots__ = ("index", "arrival", "deadline", "left", "lost", "done_time",
                 "first_service")

    def __init__(self, index, arrival, deadline, left):
        self.index = index
        self.arrival = arrival
        self.deadline = deadline
        self.left = left  # the frame's bytes not yet delivered
        self.lost = False
        self.done_time = None
        self.first_service = None


class UeCtx:
    """Mutable per-UE simulation state."""

    def __init__(self, ue_id, is_embb=False):
        self.ue_id = ue_id
        self.is_embb = is_embb
        self.sinr_db = 0.0
        self.ul_sinr_db = 0.0
        self.mcs = 0
        self.ul_mcs = 0
        self.queue: Optional[FlowQueue] = None
        self.pose_queue: Optional[FlowQueue] = None
        self.source = None
        self.next_sets = None
        # tick from which the next frame is due: 0 until the first is drawn,
        # the end of the run once no frame is left
        self.next_at = 0
        self.frames: dict = {}
        self.undecided: deque = deque()
        self.outcomes: list = []
        # PF average throughput, up to date over the first pf_slots DL slots
        # of the run; CellSim._pf_avg brings it up to date when it is read
        self.avg_tput_bps = 1.0
        self.pf_slots = 0
        self.pf_read = False  # whether the cell reads it; else it stays 1.0
        self.drx: Optional[DrxMachine] = None
        # PDCCH monitored in the current DL slot; read only while the UE
        # has data queued, and a DRX UE is stepped on each such DL slot
        self.monitoring = True
        self.adrx: Optional[AdrxController] = None
        self.epoch_frames = 0
        self.epoch_viols = 0
        # a DRX UE's activity log and the first slot not yet in it; a UE
        # without DRX keeps only its PDSCH slots
        self.activity: Optional[ActivityLog] = None
        self.drx_slot = 0
        self.pdsch_slots = array("l")
        self.padding_samples: list = []
        self.grants = 0
        self.delivered_bits = 0
        self.events_seen = 0
        self.dsr_reported: set = set()  # ids of the sets a DSR reported
        self.fb_count = 0
        # a pose CG's live occasions (slot -> index), source and next packet
        self.cg_live: dict = {}
        self.pose_src = None
        self.pose_next = None


class UeKpi(NamedTuple):
    ue_id: int
    is_embb: bool
    padding_samples: list
    grants: int
    delivered_bits: int
    avg_power: float
    pser: float
    outcomes: list  # (arrival_us, in_budget) per frame

    @property
    def frames_total(self) -> int:
        return len(self.outcomes)

    @property
    def frames_in_budget(self) -> int:
        return sum(1 for _, ok in self.outcomes if ok)


class CellResult(NamedTuple):
    ues: list
    rb_utilization: list

    def xr_ues(self) -> list:
        return [u for u in self.ues if not u.is_embb]


class CellSim:
    def __init__(self, config: CellConfig, seed: int = 0, cell: int = 0,
                 links=None):
        self.cfg = config
        self.rng = RngStreams(seed)
        # the uniforms that decide HARQ attempts, in the order of scalar
        # Generator.random draws; each cell has its own stream, and cell 0
        # keeps the one-cell stream's name so one-cell outputs do not move
        self.phy_uniforms = block_draws(self.rng.stream(
            "phy" if cell == 0 else f"phy.{cell}").random)
        # the cell's own UE links, drawn from the whole drop unless run_drop
        # hands them over
        if links is None:
            links = [u for u in _drop(config, self.rng) if u.cell_id == cell]

        timer = (config.psdb_ms if config.discard_timer_ms == "psdb"
                 else config.discard_timer_ms)
        profile = QosFlowProfile(psdb_ms=config.psdb_ms, psihi=config.psihi,
                                 discard_timer_ms=timer)
        # the eMBB and pose queues' best-effort profile
        best_effort = QosFlowProfile(psdb_ms=10_000.0, psihi=False)

        self.stream_cfg = VideoStreamConfig(
            rate_bps=config.rate_bps, fps=config.fps,
            direction=config.direction)

        drx = config.drx
        self.ticks_per_us = tpu = ticks_per_us(
            self.stream_cfg.period_us,
            *(() if drx is None else (drx.cycle_us, drx.on_duration_us,
                                      drx.inactivity_us, drx.start_offset_us)))
        self.slot_t = SLOT_US * tpu
        self.psdb_t = config.psdb_us * tpu
        self.warmup_t = config.warmup_us * tpu
        # the first slot that starts at or after the warm-up's end: the
        # RB samples, padding, delivered bits and power count from it
        self.warm_slot = -(-self.warmup_t // self.slot_t)
        self.end_t = config.duration_us * tpu
        # every slot that starts before the end, the last one maybe partial
        self.n_slots = -(-self.end_t // self.slot_t)

        self.ues: list[UeCtx] = []
        self.by_id: dict = {}
        per_cell = config.ues_per_cell + config.embb_ues
        for link in links:
            rank = link.ue_id % per_cell
            is_embb = rank >= config.ues_per_cell
            ue = UeCtx(link.ue_id, is_embb)
            ue.sinr_db = dl_sinr_db(link.serving_coupling_db,
                                    link.interferer_couplings())
            ue.ul_sinr_db = ul_sinr_db(50, link.serving_coupling_db)
            ue.ul_mcs = select_mcs(ue.ul_sinr_db)
            # SINR is static, so every CSI report repeats it and the MCS
            # chosen here holds for the whole run
            ue.mcs = select_mcs(ue.sinr_db)
            if is_embb:
                ue.queue = FlowQueue(best_effort, ticks_per_us=tpu)
                ue.source = ftp3_source(
                    self.rng.stream(f"embb.{link.ue_id}"),
                    ticks_per_us=tpu)
                ue.next_sets = None
            else:
                ue.queue = FlowQueue(profile, ticks_per_us=tpu)
                video_rng = self.rng.stream(f"video.{link.ue_id}")
                start = 0
                if config.stagger:
                    start = int(video_rng.uniform(
                        0.0, float(self.stream_cfg.period_us)))
                ue.source = VideoSource(self.stream_cfg, video_rng,
                                        start_us=start, ticks_per_us=tpu)
                if config.drx is not None:
                    if config.drx_offset_mode == "traffic":
                        offset = Fraction(start)
                    else:
                        offset = config.drx.start_offset_us
                    base = replace(config.drx, start_offset_us=offset)
                    ue.drx = DrxMachine(base.in_ticks(tpu),
                                        slot=self.slot_t)
                    ue.activity = ActivityLog()
                    if config.adaptive_drx:
                        ue.adrx = AdrxController(base, config.psdb_us)
            self.ues.append(ue)
            self.by_id[ue.ue_id] = ue

        self.xr = [u for u in self.ues if not u.is_embb]
        self.embb = [u for u in self.ues if u.is_embb]
        self.drx_ues = [u for u in self.ues if u.drx is not None]
        self.next_at = 0  # the earliest ue.next_at
        # DL slots run so far; each UE's PF average catches up to it lazily
        self.dl_slots = 0
        # only XR frames arrive in a cell with no eMBB UE and no pose CG,
        # so only such a cell can fall idle until the next frame, and it has
        # no arrival before self.next_at
        self.can_idle = not self.embb and config.pose_cg is None
        # the frames in every XR UE's undecided deque
        self.n_undecided = 0
        # a DL cell without CG grants no UL block, so its UL slots carry none
        self.bare_ul = (config.direction is Direction.DL
                        and config.pose_cg is None)
        # a DL cell serves every UE on its DL slots, a UL cell its eMBB UEs
        dl_ues = self.ues if config.direction is Direction.DL else self.embb
        self.dl_ues = dl_ues
        # the UEs whose PF average allocate_dl may read
        self.avg_ues = [u for u in dl_ues
                        if reads_avg(config.policy, not u.is_embb,
                                     len(self.embb))]
        # and PSI discard reads an XR UE's; no other UE keeps an average
        for u in self.avg_ues + self.xr * config.psi_discard_enabled:
            u.pf_read = True
        # the delay budget in whole µs, as the DL metrics read it
        self.psdb_us = float(config.psdb_us)
        # the first time at which _discards can act: never in a cell with no
        # discard rule, on every slot with PSI discard, and else no earlier
        # than the least expires_at of the XR queues, which the arrivals
        # lower and each timer scan brings up to date
        self.discard_at = (0 if timer is not None
                           or config.psi_discard_enabled else math.inf)
        self.table = gen_bs_table(config.bsr_table)
        self.ce_bytes = (SHORT_BSR_CE_BYTES
                         if config.bsr_table is TableKind.SHORT
                         else LONG_BSR_CE_BYTES)
        # truncated to whole µs, as the DSR threshold has always been
        self.dsr_threshold_us = int(config.dsr_threshold_ms * 1000)
        # the blocks due on each slot, (ue, queue, block) each; a DL slot and
        # a UL slot never share an index
        self.retx: dict = {}
        self.ul_grants: dict = {}
        self.rb_utilization: list = []
        # the CG occasion train; each XR UE has its own and keeps the index of
        # each by its slot (no two share a slot) until it declares it unused
        self.cg_occasions = ([] if config.pose_cg is None else
                             cg_occasions(config.pose_cg, config.duration_us))
        self.cg_ues = [] if config.pose_cg is None else self.xr
        self.cg_window = config.pose_cg and config.pose_cg.uto_uci_window
        live = {o.slot: i for i, o in enumerate(self.cg_occasions)}
        for u in self.cg_ues:
            u.cg_live = dict(live)
            u.pose_queue = FlowQueue(best_effort, ticks_per_us=tpu)
            u.pose_src = pose_source(ticks_per_us=tpu)
            u.pose_next = next(u.pose_src)

    # ---- traffic ----

    def _arrivals(self, now):
        if self.next_at <= now:
            nxt = self.end_t  # no UE's next_at lies past it
            for ue in self.xr:
                if ue.next_at <= now:
                    self._video_arrivals(ue, now)
                    if ue.queue.expires_at < self.discard_at:
                        self.discard_at = ue.queue.expires_at
                if ue.next_at < nxt:
                    nxt = ue.next_at
            self.next_at = nxt
        full_buffer = self.cfg.embb_full_buffer
        for ue in self.embb:
            if full_buffer:
                # keep a deep backlog so the queue never drains; the sets
                # share one tuple of PDU ends
                queue = ue.queue
                while queue.queued_bytes < 1_000_000:
                    sid = ("fb", ue.ue_id, ue.fb_count)
                    queue.enqueue_set(PduSet(sid, 0, now, (), None, False,
                                             _FB_ENDS))
                    ue.fb_count += 1
                continue
            if ue.next_sets is None:
                ue.next_sets = next(ue.source)
            while ue.next_sets.arrival_time <= now:
                ue.queue.enqueue_set(ue.next_sets)
                ue.next_sets = next(ue.source)
        for ue in self.cg_ues:
            while ue.pose_next.arrival_time <= now:
                ue.pose_queue.enqueue_set(ue.pose_next)
                ue.pose_next = next(ue.pose_src)

    def _video_arrivals(self, ue, now):
        """Enqueue every frame due by now and draw the next pending one."""
        while True:
            if ue.next_sets is None:
                frame = ue.source.next_frame()
                if frame.arrival_time > self.end_t:
                    # no further frame arrives before the end of the run
                    ue.next_at = self.end_t
                    return
                sets = fragment_frame(frame,
                                      sets_per_frame=self.cfg.sets_per_frame,
                                      psdb_us=self.psdb_t)
                ue.next_sets = (frame, sets)
                ue.next_at = frame.arrival_time
            if ue.next_at > now:
                return
            frame, sets = ue.next_sets
            ue.next_sets = None
            fp = FrameProgress(frame.index, frame.arrival_time,
                               frame.arrival_time + self.psdb_t,
                               frame.byte_size)
            ue.frames[frame.index] = fp
            ue.undecided.append(fp)
            self.n_undecided += 1
            ue.queue.enqueue_set(*sets)

    def _discards(self, now):
        psi = self.cfg.psi_discard_enabled
        # an empty queue has nothing to expire until an arrival lowers the
        # bound again
        discard_at = math.inf
        for ue in self.xr:
            queue = ue.queue
            if not queue.entries:
                continue  # nothing to expire or to drop
            queue.discard_expired(now)
            if psi:
                queue.psi_discard(now, max(self._pf_avg(ue), 1e6))
            # a discard that empties the queue is synced too
            if len(queue.events) > ue.events_seen:
                self._sync_events(ue)
            if queue.expires_at < discard_at:
                discard_at = queue.expires_at
        self.discard_at = 0 if psi else discard_at

    def _sync_events(self, ue):
        evs = ue.queue.events
        while ue.events_seen < len(evs):
            e = evs[ue.events_seen]
            ue.events_seen += 1
            fp = ue.frames.get(e.set_id[0])
            if fp is not None:
                fp.lost = True

    # ---- delivery ----

    def _deliver(self, ue, queue, segments, now):
        lost = queue.lost_sets
        frames = ue.frames
        n_bytes = 0
        for seg in segments:
            sid = seg.pdu_set.id
            if lost and sid in lost:
                continue
            n_bytes += seg.byte_size
            fp = frames.get(sid[0])
            if fp is not None:
                # each byte is delivered at most once, so a frame's last
                # byte completes it; decoding ends with the carrying slot
                fp.left -= seg.byte_size
                if not fp.left and not fp.lost:
                    fp.done_time = now + self.slot_t
        if now >= self.warmup_t:
            ue.delivered_bits += n_bytes * 8

    def _mark_first_service(self, ue, segments, now):
        for seg in segments:
            fp = ue.frames.get(seg.pdu_set.id[0])
            if fp is not None and fp.first_service is None:
                fp.first_service = now

    # ---- downlink ----

    def _pf_avg(self, ue) -> float:
        """The UE's PF average, first decayed over the DL slots since it was
        last brought up to date: those slots served it nothing."""
        n = self.dl_slots
        if ue.pf_slots != n:
            ue.avg_tput_bps = pf_idle(ue.avg_tput_bps, n - ue.pf_slots)
            ue.pf_slots = n
        return ue.avg_tput_bps

    def _send_due(self, slot, now, limit, tx_ues, ul) -> int:
        """Send the blocks due on this slot, a UL slot if ul, and return
        their RBs. Before the first is sent, every due block is cut to the
        sets of its queue not lost since it was last sent; one left with
        none is dropped. A block that would take the slot past limit RBs
        waits for the next slot of this direction, ahead of the blocks due
        there."""
        due = self.retx.pop(slot)
        for _, queue, block in due:
            lost = queue.lost_sets
            block.segments = [s for s in block.segments
                              if s.pdu_set.id not in lost]
        rb_used = 0
        deferred = []
        for entry in due:
            ue, queue, block = entry
            if not block.segments:
                continue
            if rb_used + block.rb_count > limit:
                deferred.append(entry)
                continue
            tx_ues.add(ue)
            rb_used += block.rb_count
            self._transmit(ue, queue, block, ul, slot, now)
        if deferred:
            self.retx.setdefault(next_slot(slot + 1, ul), [])[:0] = deferred
        return rb_used

    def _transmit(self, ue, queue, block, ul, slot, now):
        """One HARQ attempt of a block from queue, on a UL slot if ul: deliver
        it on an ACK, lose its sets once HARQ gives up on it, or else queue
        its retransmission on the first slot of its direction a HARQ round
        trip later. The callers know the direction, so no slot is looked up
        on the DL per-block path."""
        if harq_attempt(block, ue.ul_sinr_db if ul else ue.sinr_db,
                        self.phy_uniforms):
            self._deliver(ue, queue, block.segments, now)
        elif harq_exhausted(block):
            queue.on_block_lost(block.segments, now)
            self._sync_events(ue)
        else:
            self.retx.setdefault(next_slot(slot + HARQ_RTT_SLOTS, ul),
                                 []).append((ue, queue, block))

    def _dl_slot(self, slot, now, kind):
        sym = _DATA_SYMBOLS[kind]
        cfg = self.cfg
        tx_ues = set()
        rb_used = 0

        # due blocks take RBs first
        if slot in self.retx:
            rb_used = self._send_due(slot, now, N_RB, tx_ues, False)

        # a DRX UE with no data and nothing sent to it is no candidate, and
        # its slot is logged when it is next caught up
        stepped = ([ue for ue in self.drx_ues
                    if ue in tx_ues or ue.queue.queued_bytes]
                   if self.drx_ues else ())
        for ue in stepped:
            if ue.drx_slot < slot:
                self._catch_up(ue, slot)
            ue.monitoring = ue.drx.step(now, False, ue in tx_ues)[1]
            ue.drx_slot = slot + 1
        cands = [ue for ue in self.dl_ues
                 if ue.monitoring and ue.queue.queued_bytes]
        n_dl = self.dl_slots
        for ue in self.avg_ues:
            if ue.monitoring and ue.queue.queued_bytes:
                # _pf_avg, inlined: a busy UE is most often one slot behind
                gap = n_dl - ue.pf_slots
                if gap == 1:
                    ue.avg_tput_bps *= _PF_KEEP
                elif gap:
                    ue.avg_tput_bps = pf_idle(ue.avg_tput_bps, gap)
                ue.pf_slots = n_dl

        allocs = (allocate_dl(now, cands, cfg.policy, N_RB - rb_used, sym,
                              psdb_us=self.psdb_us) if cands else ())
        for a in allocs:
            ue = self.by_id[a.ue_id]
            rb_used += a.rb_count
            tx_ues.add(ue)
            ue.grants += 1
            if ue.pf_read:  # this slot's PF update, the only one serving it
                ue.avg_tput_bps = pf_update(self._pf_avg(ue), a.tb_bits * 2000)
                ue.pf_slots = n_dl + 1
            if ue.adrx is not None:  # only the ADRX controller reads it
                self._mark_first_service(ue, a.segments, now)
            self._transmit(ue, ue.queue, a, False, slot, now)
            if ue.drx is not None:
                ue.drx.step(now, True, True)
        self.dl_slots = n_dl + 1

        if now >= self.warmup_t:
            self.rb_utilization.append(rb_used / N_RB)
        for ue in stepped:
            ue.activity.add(SLOT_PDSCH if ue in tx_ues
                            else SLOT_PDCCH if ue.monitoring else SLOT_SLEEP)
        for ue in tx_ues:
            if ue.drx is None:
                ue.pdsch_slots.append(slot)

    # ---- uplink ----

    def _ul_slot(self, slot, now):
        cfg = self.cfg
        tx_ues = set()
        rb_used = 0

        # due blocks take RBs first, up to what the live CG occasions leave;
        # the grants for this slot were sized without their RBs
        if slot in self.retx:
            rb_used = self._send_due(slot, now, N_RB - self._cg_rb(slot),
                                     tx_ues, True)

        for a in self.ul_grants.pop(slot, ()):
            ue = self.by_id[a.ue_id]
            tx_ues.add(ue)
            rb_used += a.rb_count
            cap = max(0, a.tb_bits // 8 - self.ce_bytes)
            segs = ue.queue.take(cap)
            served = sum(s.byte_size for s in segs)
            if now >= self.warmup_t:
                ue.padding_samples.append(
                    realized_overhead(a.tb_bits // 8 - self.ce_bytes, served))
            ue.grants += 1
            if ue.adrx is not None:
                self._mark_first_service(ue, segs, now)
            if not segs:
                continue
            a.segments = segs
            self._transmit(ue, ue.queue, a, True, slot, now)

        if self.cg_ues:
            rb_used += self._cg_serve(slot, now, tx_ues)

        if cfg.direction is Direction.UL:
            cands = []
            for ue in self.xr:
                buf = ue.queue.queued_bytes
                if buf == 0:
                    continue
                reported = self.table.entries[quantize_bsr(buf, self.table)]
                urgency = None
                if cfg.dsr_enabled:
                    sets, sent = ue.queue.entries, ue.dsr_reported
                    rep = trigger_dsr(sets, sent, self.dsr_threshold_us, now,
                                      ticks_per_us=self.ticks_per_us)
                    if rep is not None:
                        urgency = rep * 1000.0
                    elif sent:
                        live = [s for s in sets if s.id in sent]
                        if live:
                            urgency = min(
                                (s.deadline - now) / self.ticks_per_us
                                for s in live)
                cands.append(UlCandidate(ue.ue_id, reported + self.ce_bytes,
                                         ue.ul_mcs, urgency_us=urgency))
            # the next UL slot; every block due there is already known
            target = next_slot(slot + 1, True)
            due = self.retx.get(target, ())
            budget = (N_RB - self._cg_rb(target)
                      - sum(b.rb_count for _, _, b in due))
            if cands and budget > 0:
                grants = allocate_ul(cands, budget)
                for g in grants:
                    self.ul_grants.setdefault(target, []).append(g)

        if now >= self.warmup_t:
            self.rb_utilization.append(rb_used / N_RB)
        # a UE sent to is logged on PDSCH without a DRX step; the others'
        # slots are logged when they are next caught up
        for ue in tx_ues:
            if ue.drx is None:
                ue.pdsch_slots.append(slot)
            else:
                if ue.drx_slot < slot:
                    self._catch_up(ue, slot)
                ue.activity.add(SLOT_PDSCH)
                ue.drx_slot = slot + 1

    def _cg_rb(self, slot) -> int:
        """The RBs of every XR UE's live CG occasion on this slot."""
        return sum(self.cg_occasions[u.cg_live[slot]].rb_count
                   for u in self.cg_ues if slot in u.cg_live)

    def _cg_serve(self, slot, now, tx_ues) -> int:
        """Send each XR UE's pose traffic on its own live CG occasion of this
        slot, and return the RBs of the blocks sent.

        At the first occasion of each window, the UE's UTO-UCI bitmap, from
        its own pose buffer against occasions sized at its own MCS, declares
        its later occasions of the window unused that would carry nothing;
        their RBs return to the dynamic pool of their slot. A block is sized
        at the UE's MCS and goes through HARQ against its pose queue.
        """
        occasions, window = self.cg_occasions, self.cg_window
        rb_used = 0
        for u in self.cg_ues:
            i = u.cg_live.get(slot)
            if i is None:
                continue
            mcs = u.ul_mcs  # the grant tracks CSI
            if i % window == 0:
                w = occasions[i:i + window]
                caps = [tb_bits(mcs, o.rb_count) // 8 for o in w]
                bitmap = build_uto_uci(u.pose_queue.queued_bytes, caps)
                # only later occasions are declared unused, none of them the
                # first of a window
                for o in reclaim_unused(bitmap, w, slot):
                    del u.cg_live[o.slot]
            rb = occasions[i].rb_count
            tb = tb_bits(mcs, rb)
            segs = u.pose_queue.take(tb // 8)
            if segs:
                rb_used += rb
                tx_ues.add(u)
                self._transmit(u, u.pose_queue,
                               Allocation(u.ue_id, rb, mcs, tb, segs),
                               True, slot, now)
        return rb_used

    # ---- frame bookkeeping ----

    def _decide_frames(self, now):
        if not self.n_undecided:
            return
        warmup_t, end_t = self.warmup_t, self.end_t
        for ue in self.xr:
            dq = ue.undecided
            while dq:
                fp = dq[0]
                done_time, deadline = fp.done_time, fp.deadline
                # most often the head frame is still in flight
                if done_time is None and now <= deadline and not fp.lost:
                    break
                dq.popleft()
                self.n_undecided -= 1
                in_budget = (done_time is not None and not fp.lost
                             and done_time <= deadline)
                if fp.arrival >= warmup_t and deadline <= end_t:
                    ue.outcomes.append((fp.arrival / self.ticks_per_us,
                                        in_budget))
                if ue.adrx is not None:
                    self._adrx_observe(ue, fp, in_budget, now)
                ue.frames.pop(fp.index, None)

    def _adrx_observe(self, ue, fp, in_budget, now):
        cfg = self.cfg
        tpu = self.ticks_per_us
        phase = (fp.arrival % ue.drx.cfg.cycle_us) / tpu
        if fp.first_service is not None and fp.done_time is not None:
            service = (fp.done_time - fp.first_service) / tpu
        else:
            service = self.psdb_us
        ue.adrx.observe_frame(phase, service)
        ue.epoch_frames += 1
        ue.epoch_viols += int(not in_budget)
        if ue.epoch_frames >= cfg.adrx_epoch_frames:
            # the machine retunes as it stands at the end of this slot
            self._catch_up(ue, min(now // self.slot_t + 1, self.n_slots))
            new_cfg = ue.adrx.update(ue.epoch_viols)
            ue.drx.retune(new_cfg.in_ticks(tpu), now)
            ue.epoch_frames = 0
            ue.epoch_viols = 0

    # ---- main loop ----

    def _on_slot(self, slot):
        now = slot * self.slot_t
        if now >= self.next_at or not self.can_idle:
            self._arrivals(now)
        if now >= self.discard_at:
            self._discards(now)
        kind = slot_type(slot)
        if kind == UPLINK:
            if not self.bare_ul:
                self._ul_slot(slot, now)
            elif now >= self.warmup_t:  # it logs its idle RBs, and no more
                self.rb_utilization.append(0.0)
        else:
            self._dl_slot(slot, now, kind)
        self._decide_frames(now)

    def _idle(self) -> bool:
        """No byte is queued, no HARQ process or UL grant is pending and no
        frame is undecided, so nothing happens before the next arrival."""
        if self.n_undecided or self.retx or self.ul_grants:
            return False
        for ue in self.xr:
            if ue.queue.entries:
                return False
        return True

    def _catch_up(self, ue, slot):
        """Step a DRX UE's machine with no data through slots
        ue.drx_slot..slot-1, if any, a window at a time, and log them."""
        log = ue.activity
        for monitoring, k in ue.drx.skip(ue.drx_slot * self.slot_t,
                                         slot - ue.drx_slot):
            log.add(SLOT_PDCCH if monitoring else SLOT_SLEEP, k)
        ue.drx_slot = slot

    def _skip(self, a, b):
        """Do in bulk what _on_slot does on idle slots a..b-1: log zero
        utilisation and count the DL slots. PF averages decay and DRX UEs
        catch up when next read or stepped."""
        self.rb_utilization.extend([0.0] * max(0, b - max(a, self.warm_slot)))
        self.dl_slots += dl_slots_before(b) - dl_slots_before(a)

    def run(self) -> CellResult:
        slot_t = self.slot_t
        n_slots = self.n_slots
        slot = 0
        while slot < n_slots:
            self._on_slot(slot)
            slot += 1
            if self.can_idle and self._idle():
                # the next slot that can hold work is the next arrival's
                nxt = min(n_slots, -(-self.next_at // slot_t))
                if nxt > slot:
                    self._skip(slot, nxt)
                    slot = nxt
        self._decide_frames(self.end_t)
        kpis = []
        for ue in self.ues:
            if ue.drx is None:
                avg_power = _always_on_power(ue.pdsch_slots, self.warm_slot,
                                             n_slots)
            else:
                self._catch_up(ue, n_slots)
                avg_power = power_for_run(ue.activity.runs(self.warm_slot))
            # eMBB flows carry no PDU-set error rate target
            pser = 0.0 if ue.is_embb else ue.queue.pser()
            kpis.append(UeKpi(ue.ue_id, ue.is_embb, ue.padding_samples,
                              ue.grants, ue.delivered_bits, avg_power, pser,
                              ue.outcomes))
        return CellResult(kpis, self.rb_utilization)


def run_drop(config: CellConfig, seed: int) -> CellResult:
    """Simulate cells 0..n_cells-1 of one drop, one after another, and join
    their results: the UEs in cell order, which is id order, and the RB
    series cell after cell."""
    links = _drop(config, RngStreams(seed))
    results = [CellSim(config, seed, cell,
                       [u for u in links if u.cell_id == cell]).run()
               for cell in range(config.n_cells)]
    return CellResult([u for r in results for u in r.ues],
                      [x for r in results for x in r.rb_utilization])
