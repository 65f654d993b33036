"""System-level cell simulation binding traffic, radio, MAC and DRX.

One instance simulates a single deployment drop slot by slot: video
frames arrive as PDU sets, downlink slots run the configured scheduler
with HARQ, uplink slots run the report-then-grant pipeline, and per-UE
DRX machines gate scheduling while a per-slot activity trace feeds the
power model.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .drx import (SLOT_PDCCH, SLOT_PDSCH, SLOT_SLEEP, AdrxController,
                  AdrxParams, DrxConfig, DrxMachine, PowerModel,
                  power_for_run)
from .engine import (DOWNLINK, SLOT_US, SPECIAL, UPLINK, Engine, slot_type)
from .qos import FlowQueue, MappingConfig, QosFlowProfile
from .radio import (DATA_SYMBOLS, HARQ_RTT_SLOTS, N_RB, S_SLOT_DATA_SYMBOLS,
                    Deployment, HarqProcess, dl_sinr_db,
                    harq_attempt, select_mcs, tb_bits, ul_sinr_db)
from .reporting import (LONG_BSR_CE_BYTES, SHORT_BSR_CE_BYTES, LcgState,
                        TableKind, gen_bs_table, quantize_bsr,
                        realized_overhead, trigger_dsr)
from .scheduling import (CgConfig, DlCandidate, PolicyKind, SchedulerPolicy,
                         UlCandidate, allocate_dl, allocate_ul,
                         build_uto_uci, cg_occasions, pf_update,
                         reclaim_unused)
from .traffic import (Direction, PduSet, VideoSource, VideoStreamConfig,
                      fragment_frame, ftp3_source, pose_source)


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
        self.frames: dict = {}
        self.undecided: deque = deque()
        self.outcomes: list = []
        self.avg_tput_bps = 1.0
        self.served_bits_slot = 0
        self.drx: Optional[DrxMachine] = None
        self.adrx: Optional[AdrxController] = None
        self.epoch_frames = 0
        self.epoch_viols = 0
        self.trace: list = []
        self.padding_samples: list = []
        self.grants = 0
        self.delivered_bits = 0
        self.events_seen = 0
        self.lcg = LcgState(lcg_id=0)
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

    @property
    def in_budget_fraction(self) -> Optional[float]:
        if self.frames_total == 0:
            return None
        return self.frames_in_budget / self.frames_total


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
        self.engine = Engine(seed)
        self.phy_rng = self.engine.rng.stream("phy")
        drop_rng = self.engine.rng.stream("drop")
        self.deployment = Deployment(n_cells=config.n_cells)
        links = self.deployment.drop_ues(
            config.ues_per_cell + config.embb_ues, drop_rng)
        cells = range(config.n_cells)

        mapping = (MappingConfig.ONE_ONE_ONE if config.sets_per_frame == 1
                   else MappingConfig.N_ONE_ONE)
        timer = (config.psdb_ms if config.discard_timer_ms == "psdb"
                 else config.discard_timer_ms)
        profile = QosFlowProfile(psdb_ms=config.psdb_ms, psihi=config.psihi,
                                 discard_timer_ms=timer)
        embb_profile = QosFlowProfile(psdb_ms=10_000.0, psihi=False)

        self.stream_cfg = VideoStreamConfig(
            avg_rate_bps=config.rate_bps, fps=config.fps,
            direction=config.direction, psdb_us=config.psdb_us,
            sets_per_frame=config.sets_per_frame)

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
                ue.queue = FlowQueue(embb_profile, ue_id=link.ue_id)
                ue.source = ftp3_source(
                    self.engine.rng.stream(f"embb.{link.ue_id}"))
                ue.next_sets = None
            else:
                ue.queue = FlowQueue(profile, mapping, ue_id=link.ue_id)
                start = 0
                if config.stagger:
                    video_rng = self.engine.rng.stream(f"video.{link.ue_id}")
                    start = int(video_rng.uniform(
                        0.0, float(self.stream_cfg.period_us)))
                else:
                    video_rng = self.engine.rng.stream(f"video.{link.ue_id}")
                ue.source = VideoSource(self.stream_cfg, video_rng,
                                        start_us=start)
                if config.drx is not None:
                    if config.drx_offset_mode == "traffic":
                        offset = Fraction(start)
                    else:
                        offset = config.drx.start_offset_us
                    base = DrxConfig(
                        cycle_us=config.drx.cycle_us,
                        on_duration_us=config.drx.on_duration_us,
                        inactivity_us=config.drx.inactivity_us,
                        start_offset_us=offset,
                        short_cycle=config.drx.short_cycle,
                        retx_monitoring=config.drx.retx_monitoring)
                    ue.drx = DrxMachine(base)
                    if config.adaptive_drx:
                        params = config.adrx_params or AdrxParams(q0=5000.0)
                        ue.adrx = AdrxController(params, base, config.psdb_us)
            self.ues.append(ue)
            self.by_id[ue.ue_id] = ue

        self.xr = [u for u in self.ues if not u.is_embb]
        self.embb = [u for u in self.ues if u.is_embb]
        self.table = gen_bs_table(config.bsr_table)
        self.ce_bytes = (SHORT_BSR_CE_BYTES
                         if config.bsr_table is TableKind.SHORT
                         else LONG_BSR_CE_BYTES)
        self.dl_retx: dict = {}
        self.ul_retx: dict = {}
        self.ul_grants: dict = {}
        self.ul_reserved: dict = {}
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
                    ue_id=u.ue_id)
                u.pose_src = pose_source()
                u.pose_next = next(u.pose_src)

    # ---- traffic ----

    def _arrivals(self, now):
        cfg = self.cfg
        for ue in self.xr:
            while True:
                if ue.next_sets is None:
                    frame = ue.source.next_frame()
                    if frame.arrival_time > cfg.duration_us:
                        ue.next_sets = ()
                        break
                    sets = fragment_frame(frame, sets_per_frame=cfg.sets_per_frame,
                                          psdb_us=cfg.psdb_us)
                    ue.next_sets = (frame, sets)
                if ue.next_sets == () or ue.next_sets[0].arrival_time > now:
                    break
                frame, sets = ue.next_sets
                ue.next_sets = None
                n_pdus = sum(len(s.sizes) for s in sets)
                fp = FrameProgress(frame.index, frame.arrival_time,
                                   frame.arrival_time + cfg.psdb_us, n_pdus)
                ue.frames[frame.index] = fp
                ue.undecided.append(fp)
                for s in sets:
                    ue.queue.enqueue_set(s)
        for ue in self.embb:
            if cfg.embb_full_buffer:
                # keep a deep backlog so the queue never drains
                while ue.queue.queued_bytes < 1_000_000:
                    sid = ("fb", ue.ue_id, ue.fb_count)
                    ue.queue.enqueue_set(PduSet(sid, ue.fb_count, 0,
                                                Fraction(now), (150_000,)))
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

    def _discards(self, now):
        cfg = self.cfg
        for ue in self.xr:
            ue.queue.discard_expired(now)
            if cfg.psi_discard_enabled:
                rate = max(ue.avg_tput_bps, 1e6)
                ue.queue.psi_discard(now, rate)
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
        post_warmup = now >= self.cfg.warmup_us
        lost = ue.queue.lost_sets
        for seg in segments:
            sid = seg.pdu_set.id
            if sid in lost:
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
                fp.done_time = now + SLOT_US

    def _harq_lose(self, ue, segments, now):
        ue.queue.on_block_lost(segments, now)
        self._sync_events(ue)

    def _mark_first_service(self, ue, segments, now):
        for seg in segments:
            fid = seg.pdu_set.id[0]
            if isinstance(fid, int):
                fp = ue.frames.get(fid)
                if fp is not None and fp.first_service is None:
                    fp.first_service = now

    # ---- downlink ----

    def _dl_retx_due(self, slot, now):
        entries = self.dl_retx.pop(slot, ())
        live = []
        rb = 0
        for ue, proc, alloc in entries:
            lost = ue.queue.lost_sets
            segs = [s for s in alloc.segments if s.pdu_set.id not in lost]
            if not segs:
                continue
            alloc.segments = segs
            live.append((ue, proc, alloc))
            rb += alloc.rb_count
        return live, rb

    def _next_dl_slot(self, slot):
        while slot_type(slot) == UPLINK:
            slot += 1
        return slot

    def _next_ul_slot(self, slot):
        while slot_type(slot) != UPLINK:
            slot += 1
        return slot

    def _dl_slot(self, slot, now, retx_entries):
        st = slot_type(slot)
        sym = DATA_SYMBOLS if st == DOWNLINK else S_SLOT_DATA_SYMBOLS
        cfg = self.cfg
        tx_ues = set()
        rb_used = 0

        for ue, proc, alloc in retx_entries:
            tx_ues.add(ue.ue_id)
            rb_used += alloc.rb_count
            ack = harq_attempt(proc, ue.sinr_db, self.phy_rng)
            if ack:
                self._deliver(ue, alloc.segments, now)
            elif proc.exhausted:
                self._harq_lose(ue, alloc.segments, now)
            else:
                nxt = self._next_dl_slot(slot + HARQ_RTT_SLOTS)
                self.dl_retx.setdefault(nxt, []).append((ue, proc, alloc))

        monitoring = {}
        for ue in self.ues:
            if ue.drx is None:
                monitoring[ue.ue_id] = True
            else:
                _, mon = ue.drx.step(now, False, ue.ue_id in tx_ues)
                monitoring[ue.ue_id] = mon

        if cfg.direction is Direction.DL or self.embb:
            cands = []
            rate_scale = 1_000_000 // SLOT_US
            for ue in self.ues:
                if not ue.is_embb and cfg.direction is not Direction.DL:
                    continue
                if not monitoring[ue.ue_id] or ue.queue.queued_bytes == 0:
                    continue
                inst = tb_bits(ue.mcs, N_RB, sym) * rate_scale
                cands.append(DlCandidate(ue.ue_id, ue.queue, inst,
                                         max(ue.avg_tput_bps, 1.0), ue.mcs,
                                         is_xr=not ue.is_embb,
                                         psdb_us=float(cfg.psdb_us)))
            allocs = allocate_dl(slot, cands, now, cfg.policy,
                                 total_rb=N_RB - rb_used, data_symbols=sym)
            for a in allocs:
                ue = self.by_id[a.ue_id]
                rb_used += a.rb_count
                tx_ues.add(ue.ue_id)
                ue.grants += 1
                ue.served_bits_slot += a.tb_bits
                self._mark_first_service(ue, a.segments, now)
                proc = HarqProcess(a.mcs, a.tb_bits)
                ack = harq_attempt(proc, ue.sinr_db, self.phy_rng)
                if ack:
                    self._deliver(ue, a.segments, now)
                elif proc.exhausted:
                    self._harq_lose(ue, a.segments, now)
                else:
                    nxt = self._next_dl_slot(slot + HARQ_RTT_SLOTS)
                    self.dl_retx.setdefault(nxt, []).append((ue, proc, a))
                if ue.drx is not None:
                    ue.drx.step(now, True, True)
                    monitoring[ue.ue_id] = True

        if now >= cfg.warmup_us:
            self.rb_utilization.append(rb_used / N_RB)
        for ue in self.ues:
            if ue.ue_id in tx_ues:
                ue.trace.append(SLOT_PDSCH)
            elif monitoring[ue.ue_id]:
                ue.trace.append(SLOT_PDCCH)
            else:
                ue.trace.append(SLOT_SLEEP)
            ue.avg_tput_bps = pf_update(ue.avg_tput_bps,
                                        ue.served_bits_slot * 2000,
                                        cfg.policy.pf_avg_window)
            ue.served_bits_slot = 0

    # ---- uplink ----

    def _ul_slot(self, slot, now):
        cfg = self.cfg
        tx_ues = set()
        rb_used = 0

        for ue, proc, alloc in self.ul_retx.pop(slot, ()):
            lost = ue.queue.lost_sets
            segs = [s for s in alloc.segments if s.pdu_set.id not in lost]
            if not segs:
                continue
            alloc.segments = segs
            tx_ues.add(ue.ue_id)
            rb_used += alloc.rb_count
            ack = harq_attempt(proc, ue.ul_sinr_db, self.phy_rng)
            if ack:
                self._deliver(ue, alloc.segments, now)
            elif proc.exhausted:
                self._harq_lose(ue, alloc.segments, now)
            else:
                nxt = self._next_ul_slot(slot + HARQ_RTT_SLOTS)
                self.ul_retx.setdefault(nxt, []).append((ue, proc, alloc))

        for a in self.ul_grants.pop(slot, ()):
            ue = self.by_id[a.ue_id]
            tx_ues.add(ue.ue_id)
            rb_used += a.rb_count
            cap = max(0, a.tb_bits // 8 - self.ce_bytes)
            segs = ue.queue.take(cap, now)
            served = sum(s.byte_size for s in segs)
            if now >= cfg.warmup_us:
                ue.padding_samples.append(
                    realized_overhead(a.tb_bits // 8 - self.ce_bytes, served))
            ue.grants += 1
            self._mark_first_service(ue, segs, now)
            if not segs:
                continue
            a.segments = segs
            proc = HarqProcess(a.mcs, a.tb_bits)
            ack = harq_attempt(proc, ue.ul_sinr_db, self.phy_rng)
            if ack:
                self._deliver(ue, segs, now)
            elif proc.exhausted:
                self._harq_lose(ue, segs, now)
            else:
                nxt = self._next_ul_slot(slot + HARQ_RTT_SLOTS)
                self.ul_retx.setdefault(nxt, []).append((ue, proc, a))

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
                                      now)
                    if rep is not None:
                        urgency = rep.smallest_remaining_ms * 1000.0
                    elif ue.lcg.dsr_reported:
                        live = [e.pdu_set for e in ue.lcg.sets
                                if e.pdu_set.id in ue.lcg.dsr_reported]
                        if live:
                            urgency = min(float(s.deadline - now)
                                          for s in live)
                cands.append(UlCandidate(ue.ue_id, reported + self.ce_bytes,
                                         ue.ul_mcs, urgency_us=urgency))
            target = slot + 5
            budget = (N_RB - self.ul_reserved.pop(target, 0)
                      - self._cg_rb(target) + self.cg_freed.get(target, 0))
            if cands and budget > 0:
                grants = allocate_ul(target, cands, total_rb=budget)
                for g in grants:
                    self.ul_grants.setdefault(target, []).append(g)

        if now >= cfg.warmup_us:
            self.rb_utilization.append(rb_used / N_RB)
        for ue in self.ues:
            if ue.ue_id in tx_ues:
                ue.trace.append(SLOT_PDSCH)
            elif ue.drx is None or ue.drx.step(now, False, False)[1]:
                ue.trace.append(SLOT_PDCCH)
            else:
                ue.trace.append(SLOT_SLEEP)

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
                    tx_ues.add(u.ue_id)
                    if now >= cfg.warmup_us:
                        u.delivered_bits += sum(s.byte_size for s in segs) * 8
                    break
        return rb

    def _cg_mcs(self, occ) -> int:
        return occ.mcs if occ.mcs is not None else self.xr[0].ul_mcs

    # ---- frame bookkeeping ----

    def _decide_frames(self, now):
        cfg = self.cfg
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
                if (fp.arrival >= cfg.warmup_us
                        and fp.deadline <= cfg.duration_us):
                    ue.outcomes.append((float(fp.arrival), in_budget))
                if ue.adrx is not None:
                    self._adrx_observe(ue, fp, in_budget, now)
                ue.frames.pop(fp.index, None)

    def _adrx_observe(self, ue, fp, in_budget, now):
        cfg = self.cfg
        cycle = ue.adrx.current.cycle_us
        phase = float(Fraction(fp.arrival) % cycle)
        if fp.first_service is not None and fp.done_time is not None:
            service = float(fp.done_time - fp.first_service)
        else:
            service = float(cfg.psdb_us)
        ue.adrx.observe_frame(phase, service, not in_budget)
        ue.epoch_frames += 1
        ue.epoch_viols += int(not in_budget)
        if ue.epoch_frames >= cfg.adrx_epoch_frames:
            new_cfg = ue.adrx.update(ue.epoch_viols)
            ue.drx.retune(new_cfg, now)
            ue.epoch_frames = 0
            ue.epoch_viols = 0

    # ---- main loop ----

    def _on_slot(self, slot):
        now = slot * SLOT_US
        if now >= self.cfg.duration_us:
            return
        self._arrivals(now)
        self._discards(now)
        if slot_type(slot) == UPLINK:
            self._ul_slot(slot, now)
        else:
            retx, _ = self._dl_retx_due(slot, now)
            self._dl_slot(slot, now, retx)
        self._decide_frames(now)

    def run(self) -> CellResult:
        cfg = self.cfg
        self.engine.every_slot(self._on_slot)
        self.engine.run_until(cfg.duration_us)
        self._decide_frames(cfg.duration_us)
        warm_slot = cfg.warmup_us // SLOT_US
        kpis = []
        for ue in self.ues:
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


def run_cell(config: CellConfig, seed: int = 0) -> CellResult:
    return CellSim(config, seed).run()
