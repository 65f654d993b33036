"""System-level cell simulation binding traffic, radio, MAC and DRX.

One instance simulates a single deployment drop slot by slot: video
frames arrive as PDU sets, downlink slots run the configured scheduler
with HARQ, uplink slots run the report-then-grant pipeline, and per-UE
DRX machines gate scheduling while a per-slot activity trace feeds the
power model.

The cell runs on one integer clock: a tick is 1/ticks_per_us µs, where
ticks_per_us is the least common multiple of the denominators of the
config's rational times (the frame period and the DRX times), so every time
the cell holds is an int and no rational arithmetic runs per slot. Times
leave the cell as µs floats.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import attrgetter
from typing import Optional

from .drx import (SLOT_PDCCH, SLOT_PDSCH, SLOT_SLEEP, AdrxController,
                  AdrxParams, DrxConfig, DrxMachine, PowerModel,
                  power_for_run)
from .engine import (DOWNLINK, SLOT_US, SPECIAL, UPLINK, RngStreams,
                     block_draws, dl_slots_before, slot_type, ticks_per_us)
from .qos import FlowQueue, QosFlowProfile
from .radio import (DATA_SYMBOLS, HARQ_RTT_SLOTS, N_RB, S_SLOT_DATA_SYMBOLS,
                    Deployment, HarqProcess, dl_sinr_db,
                    harq_attempt, select_mcs, tb_bits, ul_sinr_db)
from .reporting import (LONG_BSR_CE_BYTES, SHORT_BSR_CE_BYTES, LcgState,
                        TableKind, gen_bs_table, quantize_bsr,
                        realized_overhead, trigger_dsr)
from .scheduling import (CgConfig, DlCandidate, SchedulerPolicy, UlCandidate,
                         allocate_dl, allocate_ul, build_uto_uci,
                         cg_occasions, pf_idle, pf_update, reads_avg,
                         reclaim_unused)
from .traffic import (Direction, PduSet, VideoSource, VideoStreamConfig,
                      fragment_frame, ftp3_source, pose_source)

# PDSCH symbols of each DL slot kind
_DATA_SYMBOLS = {DOWNLINK: DATA_SYMBOLS, SPECIAL: S_SLOT_DATA_SYMBOLS}

_ENDS = attrgetter("ends")


def _next_dl_slot(slot):
    while slot_type(slot) == UPLINK:
        slot += 1
    return slot


def _next_ul_slot(slot):
    while slot_type(slot) != UPLINK:
        slot += 1
    return slot


@dataclass
class CellConfig:
    ues_per_cell: int = 1
    n_cells: int = 1
    direction: Direction = Direction.DL
    rate_bps: float = 30e6
    fps: Fraction = Fraction(60)
    psdb_ms: float = 10.0
    sets_per_frame: int = 1
    policy: SchedulerPolicy = field(default_factory=SchedulerPolicy)
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
    adrx_params: Optional[AdrxParams] = None
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
    power_model: PowerModel = field(default_factory=PowerModel)

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
    __slots__ = ("index", "arrival", "deadline", "n_pdus", "delivered",
                 "lost", "done_time", "first_service")

    def __init__(self, index, arrival, deadline, n_pdus):
        self.index = index
        self.arrival = arrival
        self.deadline = deadline
        self.n_pdus = n_pdus
        self.delivered = 0
        self.lost = False
        self.done_time = None
        self.first_service = None


class UeCtx:
    """Mutable per-UE simulation state."""

    def __init__(self, ue_id, link, is_embb=False):
        self.ue_id = ue_id
        self.link = link
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
        self.drx: Optional[DrxMachine] = None
        self.monitoring = True  # PDCCH monitored in the current DL slot
        # DL candidate per DL slot kind; None for a UE with no DL data
        self.dl_cands: Optional[dict] = None
        self.adrx: Optional[AdrxController] = None
        self.epoch_frames = 0
        self.epoch_viols = 0
        # per-slot activity labels; a UE without DRX logs only its PDSCH
        # slots, and the run builds its trace from them at the end
        self.trace: list = []
        self.pdsch_slots: list = []
        self.padding_samples: list = []
        self.grants = 0
        self.delivered_bits = 0
        self.events_seen = 0
        self.lcg = LcgState()
        self.fb_count = 0


@dataclass
class UeKpi:
    ue_id: int
    is_embb: bool
    frames_total: int
    frames_in_budget: int
    padding_samples: list
    grants: int
    delivered_bits: int
    avg_power: float
    pser: float
    outcomes: list = field(default_factory=list)  # (arrival_us, in_budget) per frame


@dataclass
class CellResult:
    ues: list
    rb_utilization: list
    duration_s: float

    def xr_ues(self) -> list:
        return [u for u in self.ues if not u.is_embb]


class CellSim:
    def __init__(self, config: CellConfig, seed: int = 0):
        self.cfg = config
        self.rng = RngStreams(seed)
        # the uniforms that decide HARQ attempts, in the order of scalar
        # Generator.random draws
        self.phy_uniforms = block_draws(self.rng.stream("phy").random)
        drop_rng = self.rng.stream("drop")
        self.deployment = Deployment(n_cells=config.n_cells)
        links = self.deployment.drop_ues(
            config.ues_per_cell + config.embb_ues, drop_rng)
        cells = range(config.n_cells)

        timer = (config.psdb_ms if config.discard_timer_ms == "psdb"
                 else config.discard_timer_ms)
        profile = QosFlowProfile(psdb_ms=config.psdb_ms, psihi=config.psihi,
                                 discard_timer_ms=timer)
        embb_profile = QosFlowProfile(psdb_ms=10_000.0, psihi=False)

        self.stream_cfg = VideoStreamConfig(
            avg_rate_bps=config.rate_bps, fps=config.fps,
            direction=config.direction, psdb_us=config.psdb_us,
            sets_per_frame=config.sets_per_frame)

        drx = config.drx
        self.ticks_per_us = tpu = ticks_per_us(
            self.stream_cfg.period_us,
            *(() if drx is None else (drx.cycle_us, drx.on_duration_us,
                                      drx.inactivity_us, drx.start_offset_us)))
        self.slot_t = SLOT_US * tpu
        self.psdb_t = config.psdb_us * tpu
        self.warmup_t = config.warmup_us * tpu
        self.end_t = config.duration_us * tpu

        self.ues: list[UeCtx] = []
        self.by_id: dict = {}
        per_cell = config.ues_per_cell + config.embb_ues
        for link in links:
            rank = link.ue_id % per_cell
            is_embb = rank >= config.ues_per_cell
            ue = UeCtx(link.ue_id, link, is_embb)
            ue.sinr_db = dl_sinr_db(link.serving_coupling_db,
                                    link.interferer_couplings(cells))
            ue.ul_sinr_db = ul_sinr_db(50, link.serving_coupling_db)
            ue.ul_mcs, _ = select_mcs(ue.ul_sinr_db)
            # SINR is static, so every CSI report repeats it and the MCS
            # chosen here holds for the whole run
            ue.mcs, _ = select_mcs(ue.sinr_db)
            if is_embb:
                ue.queue = FlowQueue(embb_profile, ue_id=link.ue_id,
                                     ticks_per_us=tpu)
                ue.source = ftp3_source(
                    self.rng.stream(f"embb.{link.ue_id}"),
                    ticks_per_us=tpu)
                ue.next_sets = None
            else:
                ue.queue = FlowQueue(profile, ue_id=link.ue_id,
                                     ticks_per_us=tpu)
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
                    if config.adaptive_drx:
                        params = config.adrx_params or AdrxParams(q0=5000.0)
                        ue.adrx = AdrxController(params, base, config.psdb_us)
            self.ues.append(ue)
            self.by_id[ue.ue_id] = ue

        self.xr = [u for u in self.ues if not u.is_embb]
        self.embb = [u for u in self.ues if u.is_embb]
        self.drx_ues = [u for u in self.ues if u.drx is not None]
        self.next_at = 0  # the earliest ue.next_at
        # DL slots run so far; each UE's PF average catches up to it lazily
        self.dl_slots = 0
        self.pf_window = config.policy.pf_avg_window
        # pf_idle's factor for one slot, which the candidate loop inlines
        self.pf_keep = 1.0 - 1.0 / self.pf_window
        # only XR frames arrive in a cell with no eMBB UE and no pose CG,
        # so only such a cell can fall idle until the next frame
        self.can_idle = not self.embb and config.pose_cg is None
        # a DL cell serves every UE on its DL slots, a UL cell its eMBB UEs
        dl_ues = self.ues if config.direction is Direction.DL else self.embb
        self.dl_ues = dl_ues
        # the UEs whose DL candidate's PF average allocate_dl may read
        self.avg_ues = [u for u in dl_ues
                        if reads_avg(config.policy, not u.is_embb,
                                     len(self.embb))]
        rate_scale = 1_000_000 // SLOT_US
        for ue in dl_ues:
            # the MCS is static, so is the full-band rate on each slot kind
            ue.dl_cands = {
                kind: DlCandidate(ue.ue_id, ue.queue,
                                  tb_bits(ue.mcs, N_RB, sym) * rate_scale,
                                  1.0, ue.mcs, is_xr=not ue.is_embb,
                                  psdb_us=float(config.psdb_us))
                for kind, sym in _DATA_SYMBOLS.items()}
        self.timer_discard = timer is not None
        # a cell with no discard rule has no discard work on any slot
        self.discards = self.timer_discard or config.psi_discard_enabled
        self.table = gen_bs_table(config.bsr_table)
        self.ce_bytes = (SHORT_BSR_CE_BYTES
                         if config.bsr_table is TableKind.SHORT
                         else LONG_BSR_CE_BYTES)
        self.dl_retx: dict = {}
        self.ul_retx: dict = {}
        self.ul_grants: dict = {}
        self.rb_utilization: list = []
        self.cg_by_slot: dict = {}
        self.cg_index: dict = {}
        self.cg_freed: dict = {}
        self.cg_skip: set = set()
        self._cg_all = []
        if config.pose_cg is not None:
            self._cg_all = cg_occasions(config.pose_cg, config.duration_us)
            for i, occ in enumerate(self._cg_all):
                self.cg_by_slot.setdefault(occ.slot, []).append(occ)
                self.cg_index[occ] = i
            for u in self.xr:
                u.pose_queue = FlowQueue(
                    QosFlowProfile(psdb_ms=10_000.0, psihi=False),
                    ue_id=u.ue_id, ticks_per_us=tpu)
                u.pose_src = pose_source(ticks_per_us=tpu)
                u.pose_next = next(u.pose_src)

    # ---- traffic ----

    def _arrivals(self, now):
        cfg = self.cfg
        if self.next_at <= now:
            for ue in self.xr:
                if ue.next_at <= now:
                    self._video_arrivals(ue, now)
            self.next_at = min([ue.next_at for ue in self.xr],
                               default=self.end_t)
        for ue in self.embb:
            if cfg.embb_full_buffer:
                # keep a deep backlog so the queue never drains
                while ue.queue.queued_bytes < 1_000_000:
                    sid = ("fb", ue.ue_id, ue.fb_count)
                    ue.queue.enqueue_set(PduSet(sid, ue.fb_count, 0, now,
                                                (150_000,)))
                    ue.fb_count += 1
                continue
            if ue.next_sets is None:
                ue.next_sets = next(ue.source)
            while ue.next_sets.arrival_time <= now:
                ue.queue.enqueue_set(ue.next_sets)
                ue.next_sets = next(ue.source)
        if self.cfg.pose_cg is not None:
            for ue in self.xr:
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
            n_pdus = sum(map(len, map(_ENDS, sets)))
            fp = FrameProgress(frame.index, frame.arrival_time,
                               frame.arrival_time + self.psdb_t, n_pdus)
            ue.frames[frame.index] = fp
            ue.undecided.append(fp)
            for s in sets:
                ue.queue.enqueue_set(s)

    def _discards(self, now):
        timer, psi = self.timer_discard, self.cfg.psi_discard_enabled
        for ue in self.xr:
            queue = ue.queue
            if not queue.entries:
                continue  # nothing to expire or to drop
            if timer:
                queue.discard_expired(now)
            if psi:
                queue.psi_discard(now, max(self._pf_avg(ue), 1e6))
            if len(queue.events) > ue.events_seen:
                self._sync_events(ue)

    def _sync_events(self, ue):
        evs = ue.queue.events
        while ue.events_seen < len(evs):
            e = evs[ue.events_seen]
            ue.events_seen += 1
            fid = e.set_id[0] if isinstance(e.set_id, tuple) else e.set_id
            if isinstance(fid, int):
                fp = ue.frames.get(fid)
                if fp is not None:
                    fp.lost = True

    # ---- delivery ----

    def _deliver(self, ue, segments, now):
        post_warmup = now >= self.warmup_t
        lost = ue.queue.lost_sets
        for seg in segments:
            sid = seg.pdu_set.id
            if lost and sid in lost:
                continue
            if post_warmup:
                ue.delivered_bits += seg.byte_size * 8
            if not seg.completed:
                continue
            fid = sid[0]
            if not isinstance(fid, int):
                continue
            fp = ue.frames.get(fid)
            if fp is None:
                continue
            fp.delivered += seg.completed
            if (fp.delivered >= fp.n_pdus and not fp.lost
                    and fp.done_time is None):
                # decoding completes at the end of the carrying slot
                fp.done_time = now + self.slot_t

    def _mark_first_service(self, ue, segments, now):
        for seg in segments:
            fid = seg.pdu_set.id[0]
            if isinstance(fid, int):
                fp = ue.frames.get(fid)
                if fp is not None and fp.first_service is None:
                    fp.first_service = now

    # ---- downlink ----

    def _pf_avg(self, ue) -> float:
        """The UE's PF average, first decayed over the DL slots since it was
        last brought up to date: those slots served it nothing."""
        n = self.dl_slots
        if ue.pf_slots != n:
            ue.avg_tput_bps = pf_idle(ue.avg_tput_bps, n - ue.pf_slots,
                                      self.pf_window)
            ue.pf_slots = n
        return ue.avg_tput_bps

    def _retx_due(self, retx, slot):
        """Yield the blocks of a retransmission table that are due on this
        slot, each cut to the sets not lost since it was last sent; a block
        left with none is dropped. Each block is checked when it is reached,
        so the check sees the sets lost by the blocks sent before it."""
        for ue, proc, alloc in retx.pop(slot, ()):
            lost = ue.queue.lost_sets
            segs = [s for s in alloc.segments if s.pdu_set.id not in lost]
            if segs:
                alloc.segments = segs
                yield ue, proc, alloc

    def _transmit(self, ue, proc, alloc, sinr_db, retx, next_slot, slot, now):
        """One HARQ attempt of a block: deliver it on an ACK, lose its sets
        once HARQ gives up on it, or else queue its retransmission on the
        first slot that next_slot allows a HARQ round trip later."""
        if harq_attempt(proc, sinr_db, self.phy_uniforms):
            self._deliver(ue, alloc.segments, now)
        elif proc.exhausted:
            ue.queue.on_block_lost(alloc.segments, now)
            self._sync_events(ue)
        else:
            retx.setdefault(next_slot(slot + HARQ_RTT_SLOTS), []).append(
                (ue, proc, alloc))

    def _dl_slot(self, slot, now, kind):
        sym = _DATA_SYMBOLS[kind]
        cfg = self.cfg
        tx_ues = set()
        rb_used = 0

        # a DL slot checks every due block before it sends the first one
        if slot in self.dl_retx:
            for ue, proc, alloc in list(self._retx_due(self.dl_retx, slot)):
                tx_ues.add(ue)
                rb_used += alloc.rb_count
                self._transmit(ue, proc, alloc, ue.sinr_db, self.dl_retx,
                               _next_dl_slot, slot, now)

        for ue in self.drx_ues:
            ue.monitoring = ue.drx.step(now, False, ue in tx_ues)[1]
        cands = [ue.dl_cands[kind] for ue in self.dl_ues
                 if ue.monitoring and ue.queue.queued_bytes]
        n_dl = self.dl_slots
        for ue in self.avg_ues:
            if ue.monitoring and ue.queue.queued_bytes:
                # _pf_avg, inlined: a busy UE is most often one slot behind
                gap = n_dl - ue.pf_slots
                if gap == 1:
                    ue.avg_tput_bps *= self.pf_keep
                elif gap:
                    ue.avg_tput_bps = pf_idle(ue.avg_tput_bps, gap,
                                              self.pf_window)
                ue.pf_slots = n_dl
                ue.dl_cands[kind].avg_tput_bps = ue.avg_tput_bps

        if cands:
            allocs = allocate_dl(slot, cands, now, cfg.policy,
                                 total_rb=N_RB - rb_used, data_symbols=sym)
        else:
            # allocate_dl's budget check of a slot with no new data
            assert rb_used <= N_RB
            allocs = ()
        for a in allocs:
            ue = self.by_id[a.ue_id]
            rb_used += a.rb_count
            tx_ues.add(ue)
            ue.grants += 1
            # this slot's PF update, the only one that serves the UE
            ue.avg_tput_bps = pf_update(self._pf_avg(ue), a.tb_bits * 2000,
                                        self.pf_window)
            ue.pf_slots = n_dl + 1
            if ue.adrx is not None:  # only the ADRX controller reads it
                self._mark_first_service(ue, a.segments, now)
            self._transmit(ue, HarqProcess(a.mcs, a.tb_bits), a, ue.sinr_db,
                           self.dl_retx, _next_dl_slot, slot, now)
            if ue.drx is not None:
                ue.drx.step(now, True, True)
        self.dl_slots = n_dl + 1

        if now >= self.warmup_t:
            self.rb_utilization.append(rb_used / N_RB)
        for ue in self.drx_ues:
            if ue in tx_ues:
                ue.trace.append(SLOT_PDSCH)
            elif ue.monitoring:
                ue.trace.append(SLOT_PDCCH)
            else:
                ue.trace.append(SLOT_SLEEP)
        for ue in tx_ues:
            if ue.drx is None:
                ue.pdsch_slots.append(slot)

    # ---- uplink ----

    def _ul_slot(self, slot, now):
        cfg = self.cfg
        tx_ues = set()
        rb_used = 0

        if slot in self.ul_retx:
            for ue, proc, alloc in self._retx_due(self.ul_retx, slot):
                tx_ues.add(ue)
                rb_used += alloc.rb_count
                self._transmit(ue, proc, alloc, ue.ul_sinr_db, self.ul_retx,
                               _next_ul_slot, slot, now)

        for a in self.ul_grants.pop(slot, ()):
            ue = self.by_id[a.ue_id]
            tx_ues.add(ue)
            rb_used += a.rb_count
            cap = max(0, a.tb_bits // 8 - self.ce_bytes)
            segs = ue.queue.take(cap, now)
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
            self._transmit(ue, HarqProcess(a.mcs, a.tb_bits), a, ue.ul_sinr_db,
                           self.ul_retx, _next_ul_slot, slot, now)

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
                    ue.lcg.sets = ue.queue.entries
                    rep = trigger_dsr(ue.lcg, int(cfg.dsr_threshold_ms * 1000),
                                      now, ticks_per_us=self.ticks_per_us)
                    if rep is not None:
                        urgency = rep.smallest_remaining_ms * 1000.0
                    elif ue.lcg.dsr_reported:
                        live = [s for s in ue.lcg.sets
                                if s.id in ue.lcg.dsr_reported]
                        if live:
                            urgency = min(
                                (s.deadline - now) / self.ticks_per_us
                                for s in live)
                cands.append(UlCandidate(ue.ue_id, reported + self.ce_bytes,
                                         ue.ul_mcs, urgency_us=urgency))
            target = slot + 5
            budget = (N_RB - self._cg_rb(target)
                      + self.cg_freed.get(target, 0))
            if cands and budget > 0:
                grants = allocate_ul(target, cands, total_rb=budget)
                for g in grants:
                    self.ul_grants.setdefault(target, []).append(g)

        if now >= self.warmup_t:
            self.rb_utilization.append(rb_used / N_RB)
        for ue in self.drx_ues:
            if ue in tx_ues:
                ue.trace.append(SLOT_PDSCH)
            elif ue.drx.step(now, False, False)[1]:
                ue.trace.append(SLOT_PDCCH)
            else:
                ue.trace.append(SLOT_SLEEP)
        for ue in tx_ues:
            if ue.drx is None:
                ue.pdsch_slots.append(slot)

    def _cg_rb(self, slot) -> int:
        return sum(o.rb_count for o in self.cg_by_slot.get(slot, ()))

    def _cg_serve(self, slot, now, tx_ues) -> int:
        """Serve pose traffic on this slot's configured-grant occasions.

        The grant region is shared by the cell's pose flows; at each
        window boundary the aggregate buffer decides which upcoming
        occasions are declared unused, and their blocks return to the
        dynamic pool of that slot.
        """
        cfg = self.cfg
        if cfg.pose_cg is None:
            return 0
        window = cfg.pose_cg.uto_uci_window
        rb = 0
        for occ in self.cg_by_slot.get(slot, ()):
            idx = self.cg_index[occ]
            if idx % window == 0:
                w = self._cg_all[idx:idx + window]
                caps = [tb_bits(self._cg_mcs(o), o.rb_count) // 8 for o in w]
                buf = sum(u.pose_queue.queued_bytes for u in self.xr)
                bitmap = build_uto_uci(buf, caps, len(w))
                for freed in reclaim_unused(bitmap, w, slot):
                    self.cg_freed[freed.slot] = (
                        self.cg_freed.get(freed.slot, 0) + freed.rb_count)
                    self.cg_skip.add(freed)
            if occ in self.cg_skip:
                continue
            cap = tb_bits(self._cg_mcs(occ), occ.rb_count) // 8
            for u in self.xr:
                segs = u.pose_queue.take(cap, now)
                if segs:
                    rb += occ.rb_count
                    tx_ues.add(u)
                    if now >= self.warmup_t:
                        u.delivered_bits += sum(s.byte_size for s in segs) * 8
                    break
        return rb

    def _cg_mcs(self, occ) -> int:
        return occ.mcs if occ.mcs is not None else self.xr[0].ul_mcs

    # ---- frame bookkeeping ----

    def _decide_frames(self, now):
        for ue in self.xr:
            dq = ue.undecided
            while dq:
                fp = dq[0]
                done = fp.done_time is not None
                if not (fp.lost or done or now > fp.deadline):
                    break
                dq.popleft()
                in_budget = (not fp.lost and done
                             and fp.done_time <= fp.deadline)
                if fp.arrival >= self.warmup_t and fp.deadline <= self.end_t:
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
            service = float(cfg.psdb_us)
        ue.adrx.observe_frame(phase, service, not in_budget)
        ue.epoch_frames += 1
        ue.epoch_viols += int(not in_budget)
        if ue.epoch_frames >= cfg.adrx_epoch_frames:
            new_cfg = ue.adrx.update(ue.epoch_viols)
            ue.drx.retune(new_cfg.in_ticks(tpu), now)
            ue.epoch_frames = 0
            ue.epoch_viols = 0

    # ---- main loop ----

    def _on_slot(self, slot):
        now = slot * self.slot_t
        self._arrivals(now)
        if self.discards:
            self._discards(now)
        kind = slot_type(slot)
        if kind == UPLINK:
            self._ul_slot(slot, now)
        else:
            self._dl_slot(slot, now, kind)
        self._decide_frames(now)

    def _idle(self) -> bool:
        """No byte is queued, no HARQ process or UL grant is pending and no
        frame is undecided, so nothing happens before the next arrival."""
        if self.dl_retx or self.ul_retx or self.ul_grants:
            return False
        for ue in self.xr:
            if ue.queue.entries or ue.undecided:
                return False
        return True

    def _skip(self, a, b):
        """Do in bulk what _on_slot does on idle slots a..b-1: log zero
        utilisation, count the DL slots and step DRX with no data."""
        slot_t = self.slot_t
        first = max(a, -(-self.warmup_t // slot_t))  # first post-warm-up slot
        self.rb_utilization.extend([0.0] * max(0, b - first))
        # PF averages decay when next read, a UE without DRX logs PDCCH
        self.dl_slots += dl_slots_before(b) - dl_slots_before(a)
        for ue in self.drx_ues:
            for monitoring, k in ue.drx.skip(a * slot_t, b - a):
                ue.trace.extend([SLOT_PDCCH if monitoring else SLOT_SLEEP] * k)

    def run(self) -> CellResult:
        cfg = self.cfg
        slot_t = self.slot_t
        # every slot that starts before the end, the last one maybe partial
        n_slots = -(-self.end_t // slot_t)
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
        warm_slot = cfg.warmup_us // SLOT_US
        kpis = []
        for ue in self.ues:
            if ue.drx is None:
                # PDCCH on every slot but the PDSCH ones
                ue.trace = [SLOT_PDCCH] * n_slots
                for s in ue.pdsch_slots:
                    ue.trace[s] = SLOT_PDSCH
            out = ue.outcomes
            total = len(out)
            in_budget = sum(1 for _, ok in out if ok)
            trace = ue.trace[warm_slot:]
            avg_power = power_for_run(trace, cfg.power_model) if trace else 0.0
            # eMBB flows carry no PDU-set error rate target
            pser = 0.0 if ue.is_embb else ue.queue.pser()
            kpis.append(UeKpi(ue.ue_id, ue.is_embb, total, in_budget,
                              ue.padding_samples, ue.grants,
                              ue.delivered_bits, avg_power, pser, out))
        return CellResult(kpis, self.rb_utilization, cfg.duration_s)
