"""Invariants that hold for every config: output bytes that do not depend on
the interpreter's hash seed, per-cell bounds and frame decisions over drawn
DL and UL cells, and a DRX that never sleeps giving the cell of a UE without
DRX."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim.cellsim import CellConfig, run_drop
from xrsim.drx import DrxConfig
from xrsim.engine import SLOT_US, RngStreams
from xrsim.scheduling import CgConfig, PolicyKind, SchedulerPolicy
from xrsim.traffic import Direction, VideoSource, VideoStreamConfig

SRC = Path(__file__).resolve().parents[1] / "src"

# a DL sweep that reaches eMBB FTP, M-LWDF, PDU sets, adaptive DRX with its
# always-on baselines and PSI discard; a UL cell with DSR, a pose CG and
# fixed DRX
HASH_SEED_CONFIGS = {
    "dl": "[scenario]\nues_per_cell = 2,4\nembb_ues = 1\n\n"
          "[traffic]\nsets_per_frame = 4\n\n"
          "[scheduler]\npolicy = mlwdf\n\n"
          "[drx]\nmode = adaptive\n\n"
          "[qos]\npsi_discard = true\n\n"
          "[run]\nduration_s = 1.0\nwarmup_s = 0.2\nseeds = 1,2\n",
    "ul": "[scenario]\nues_per_cell = 3\ndirection = ul\n\n"
          "[traffic]\nrate_mbps = 10\npsdb_ms = 30\n\n"
          "[reporting]\ndsr_enabled = true\n\n"
          "[cg]\nenabled = true\n\n"
          "[drx]\nmode = fixed\n\n"
          "[run]\nduration_s = 1.0\nwarmup_s = 0.2\nseeds = 1\n",
}


def _output_hashes(ini: Path, out: Path, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "xrsim.cli", "--config", str(ini),
                    "--out", str(out)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(HASH_SEED_CONFIGS))
def test_output_bytes_do_not_depend_on_the_hash_seed(name, tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text(HASH_SEED_CONFIGS[name])
    runs = [_output_hashes(ini, tmp_path / f"out{seed}", seed)
            for seed in ("0", "1")]
    assert len(runs[0]) == 5  # kpi.csv, three CDFs and the frame log
    assert runs[0] == runs[1]


_FIXED_DRX = DrxConfig(cycle_us=Fraction(50_000, 3), on_duration_us=8000,
                       inactivity_us=8000)


@st.composite
def dl_cells(draw):
    drx_mode = draw(st.sampled_from(["off", "fixed", "adaptive"]))
    embb = draw(st.sampled_from(["none", "ftp", "full-buffer"]))
    return CellConfig(
        ues_per_cell=draw(st.integers(1, 4)),
        n_cells=draw(st.integers(1, 2)),
        rate_bps=draw(st.sampled_from([10e6, 30e6, 45e6])),
        sets_per_frame=draw(st.integers(1, 4)),
        policy=SchedulerPolicy(kind=draw(st.sampled_from(list(PolicyKind)))),
        duration_s=0.3, warmup_s=0.1,
        embb_ues=0 if embb == "none" else 1,
        embb_full_buffer=embb == "full-buffer",
        drx=None if drx_mode == "off" else _FIXED_DRX,
        adaptive_drx=drx_mode == "adaptive",
        psi_discard_enabled=draw(st.booleans()))


@st.composite
def ul_cells(draw):
    # 3 s runs: a UL slot over 273 RBs needs a retransmission due on a full
    # slot, which shorter runs seldom reach
    cg_rb = draw(st.sampled_from([None, 10, 50]))
    # a 4 ms period with one occasion, or a frame period with two or three
    period, occasions = draw(st.sampled_from([
        (Fraction(4000), 1), (Fraction(50_000, 3), 2),
        (Fraction(50_000, 3), 3)]))
    return CellConfig(
        ues_per_cell=draw(st.integers(1, 4)),
        n_cells=draw(st.integers(1, 3)),
        direction=Direction.UL,
        rate_bps=draw(st.sampled_from([5e6, 10e6, 20e6])),
        psdb_ms=30.0, duration_s=3.0, warmup_s=0.2,
        embb_ues=draw(st.integers(0, 1)),
        dsr_enabled=draw(st.booleans()), dsr_threshold_ms=25.0,
        drx=draw(st.sampled_from([None, _FIXED_DRX])),
        pose_cg=None if cg_rb is None else CgConfig(
            periodicity_us=period, occasions_per_period=occasions,
            rb_per_occasion=cg_rb))


def _decided_arrivals(cfg, seed, ue_id):
    """The arrivals, in µs, of the frames that UE ue_id's video stream gives
    inside the KPI window: at or after the warm-up, with the deadline by
    the end of the run. Replays the stream: its stagger draw, then its
    frames."""
    rng = RngStreams(seed).stream(f"video.{ue_id}")
    stream = VideoStreamConfig(rate_bps=cfg.rate_bps, fps=cfg.fps,
                               direction=cfg.direction)
    start = int(rng.uniform(0.0, float(stream.period_us))) if cfg.stagger \
        else 0
    source = VideoSource(stream, rng, start_us=start)
    arrivals = []
    while (arrival := source.next_frame().arrival_time) <= cfg.duration_us:
        if cfg.warmup_us <= arrival <= cfg.duration_us - cfg.psdb_us:
            arrivals.append(float(arrival))
    return arrivals


def _check_cell(cfg, seed):
    result = run_drop(cfg, seed)
    # one RB sample per cell and post-warm-up slot, and no slot of a cell
    # uses more than 273 RBs
    slots = -(-cfg.duration_us // SLOT_US) - -(-cfg.warmup_us // SLOT_US)
    assert len(result.rb_utilization) == cfg.n_cells * slots
    assert all(0.0 <= u <= 1.0 for u in result.rb_utilization)
    model = cfg.power_model
    for ue in result.ues:
        assert ue.frames_in_budget <= ue.frames_total == len(ue.outcomes)
        assert model.deep_sleep <= ue.avg_power <= model.pdcch_plus_pdsch
        arrivals = [arrival for arrival, _ in ue.outcomes]
        assert len(set(arrivals)) == len(arrivals)
        # every frame of the window is decided, and exactly once
        assert arrivals == ([] if ue.is_embb else
                            _decided_arrivals(cfg, seed, ue.ue_id))


@settings(max_examples=40)
@given(cfg=dl_cells(), seed=st.integers(0, 50))
def test_dl_cell_invariants(cfg, seed):
    _check_cell(cfg, seed)


@settings(max_examples=60)
@given(cfg=ul_cells(), seed=st.integers(0, 50))
def test_ul_cell_invariants(cfg, seed):
    _check_cell(cfg, seed)


@pytest.mark.parametrize("cycle_ms, policy, kw", [
    (Fraction(50, 3), PolicyKind.PF, {}),
    (Fraction(16), PolicyKind.MLWDF,
     dict(n_cells=2, psi_discard_enabled=True)),
    (Fraction(10), PolicyKind.PDUSET,
     dict(embb_ues=1, psi_discard_enabled=True)),
    (Fraction(50, 3), PolicyKind.PF,
     dict(direction=Direction.UL, dsr_enabled=True)),
    (Fraction(16), PolicyKind.PDUSET, dict(direction=Direction.UL, n_cells=2)),
    (Fraction(10), PolicyKind.MLWDF,
     dict(direction=Direction.UL, embb_ues=1, psi_discard_enabled=True)),
], ids=["dl-pf", "dl-mlwdf-2cells-psi", "dl-pduset-embb-psi", "ul-dsr",
        "ul-2cells", "ul-embb-psi"])
def test_drx_that_never_sleeps_is_drx_off(cycle_ms, policy, kw):
    # an on-duration as long as the cycle, no inactivity timer and one
    # common grid: the UEs monitor PDCCH on every slot, so the DRX UEs' run
    # log must give the results of UEs without DRX, power included
    cfg = CellConfig(ues_per_cell=3, rate_bps=20e6, psdb_ms=30.0,
                     duration_s=1.0, warmup_s=0.2,
                     policy=SchedulerPolicy(kind=policy), **kw)
    cycle = cycle_ms * 1000
    always_on = replace(cfg, drx=DrxConfig(
        cycle_us=cycle, on_duration_us=cycle, inactivity_us=Fraction(0)),
        drx_offset_mode="common")
    assert run_drop(always_on, 2) == run_drop(cfg, 2)
