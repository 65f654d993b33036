"""Golden outputs: byte-identity gate for changes that must not move results.

A change that is meant to keep outputs identical (a speed-up, a refactor)
must leave every hash below unchanged; a change that moves outputs on
purpose must re-capture them and say so in CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from xrsim.cellsim import CellConfig, run_drop
from xrsim.cli import main
from xrsim.drx import DrxConfig
from xrsim.reporting import TableKind
from xrsim.scheduling import CgConfig, PolicyKind, SchedulerPolicy
from xrsim.traffic import Direction

SWEEP_FILES = ("kpi.csv", "cdf_padding_bytes.csv",
               "cdf_ue_throughput_mbps.csv", "cdf_rb_utilization.csv",
               "events.csv.gz")

SWEEP_SHA256 = {
    "kpi.csv":
        "ca312cdd95e3529964cd6ea651e6722614161a0c3d7820866bb02644166e64f4",
    "cdf_padding_bytes.csv":
        "095284f375cdc6637170e7034f444b35c6d30e080e6edd6f84c905636fe00367",
    "cdf_ue_throughput_mbps.csv":
        "bf29232c1cf5e07b5f489aacc98bf6c435a7c2b2576fca5d3ea8b7c27ae4ff4e",
    "cdf_rb_utilization.csv":
        "0f9b99afc68c33dd77e2c6b99e8a6b6c2e089998aadb611ae101352de793b10a",
    "events.csv.gz":
        "8d12b17e0b7bbf7ffdf3def5477188e298481134db80e1029f5cabac1000df44",
}

UL_SWEEP_SHA256 = {
    "kpi.csv":
        "a958963eeb17dca9dc89e17c84c80a66f4f1ffa67595a01196a7b2b6784edcb2",
    "cdf_padding_bytes.csv":
        "186a062d43043cc7920cd91fc0f59fb41fe24784fff765a701561174c24630a7",
    "cdf_ue_throughput_mbps.csv":
        "ad3b46263132635775a516888b309f24ba89faace52267de81da0d88121a754f",
    "cdf_rb_utilization.csv":
        "27f9a17846b11e9dad49b9405ea36350a80d58d5f85ca46d5536011e8f149380",
    "events.csv.gz":
        "64f5fc7f705775893cf0003173a66b39b08cd0a7950038dcf38df25e60fe831e",
}

CELL_DIGESTS = {
    "pduset-fullbuffer":
        "2c43f22ed051ec460a90f25de32f06bb2bb2dd9d88b1d7f88d07132fd1b2accf",
    "mlwdf-ftp-psi":
        "1f6a2e8bdb2ac75b066401bc024ba31069e72b9eafde384faa70acc02ce75f53",
    "ul-long-bsr-cg":
        "e3cb825d1785598ddf1fbc5e19466f6abaaff578e545d57f0c6cd2911cd84e78",
    "fixed-drx-90fps-mlwdf":
        "e1232021c3e5299b44e6dd32521b5fdc2fc4d7f4880990a5c7e0ca00ad4ecd7b",
    "adrx-2997-50fps":
        "c4c5c17d4cc063f0e9925cce6eb7ec0c7ef3a6f6be69906be87cbe68eac195e5",
    "ul-long-bsr-dsr":
        "720338a9938b0ff31e8ba21d5057d43475c5e8e5362940a728a7a8fb9fcf80f6",
    "pf-2cells-ftp":
        "ea0bb21fb8971da6170efdaac09b6b0d1502b8b6b025ad7759c3f53620f1321b",
    "ul-dl-embb":
        "4b30c6798983de10f5f35f50e2c4ee33d17f8377011f78b29b43d77a23425407",
    "pf-drx-idle":
        "5326c09adac526ada8e6dd8e65a7fdb0e4bd07fe6416de6d4434a461d4a4302f",
    "mlwdf-psi-idle":
        "514527a1f9d6b138d07f82304b0fcd3f77ee0a04537169c99a598a5f1c129deb",
    "ul-drx-dsr-idle":
        "6af6975adcbcda3907cc7e5c54b0b2aca127f61ee7a4d9a23d995154a9ddf0d5",
    "pf-fullbuffer-drx-psi":
        "35131cb492c7f308f7d6839e04cec3be0424cabbc1d450a8f49056f17e876d3c",
    "pduset-fullbuffer-timer-off":
        "a0909919da38558cb16479a4e7471d959be3196c9ce40547277f0ecfb589a849",
}


def _sweep_ini(out_dir) -> str:
    # two loads, adaptive DRX (each cell is followed by its always-on
    # baseline), the PSDB discard timer and four PDU sets per frame
    return ("[scenario]\nues_per_cell = 2,6\n\n"
            "[traffic]\nrate_mbps = 45\npsdb_ms = 10\nsets_per_frame = 4\n\n"
            "[scheduler]\npolicy = pduset\n\n"
            "[drx]\nmode = adaptive\ninactivity_ms = 2\n\n"
            "[qos]\ndiscard_timer = psdb\n\n"
            f"[run]\nduration_s = 2\nwarmup_s = 0.5\nseeds = 1\n"
            f"out = {out_dir}\n")


def _ul_sweep_ini(out_dir) -> str:
    # UL with DSR, an FTP eMBB UE and fixed DRX over two seeds: the sweep
    # that fills the padding CDF and pools seeds; no PSI discard, CG or
    # second cell. At load 6 each cell NACKs 5-6 UL blocks, whose
    # retransmissions come off the grant budget of their slot
    return ("[scenario]\ndirection = ul\nues_per_cell = 2,6\nembb_ues = 1\n\n"
            "[traffic]\nrate_mbps = 10\npsdb_ms = 30\n\n"
            "[reporting]\ndsr_enabled = true\ndsr_threshold_ms = 25\n\n"
            "[drx]\nmode = fixed\n\n"
            f"[run]\nduration_s = 1.5\nwarmup_s = 0.5\nseeds = 1,2\n"
            f"out = {out_dir}\n")


def _cells() -> dict:
    short = dict(duration_s=1.0, warmup_s=0.2)
    idle_drx = dict(cycle_us=Fraction(50_000, 3), on_duration_us=Fraction(4000),
                    inactivity_us=Fraction(2000))
    return {
        "pduset-fullbuffer": (CellConfig(
            ues_per_cell=11, rate_bps=45e6, psdb_ms=10.0, sets_per_frame=4,
            embb_ues=1, embb_full_buffer=True,
            policy=SchedulerPolicy(kind=PolicyKind.PDUSET), **short), 1),
        # the cell above without the discard timer, as the benchmark's DL
        # cell runs: expired heads stay queued and rank at the floor, 1,573
        # of them over 1,557 rankings (the timer drops each as it expires)
        "pduset-fullbuffer-timer-off": (CellConfig(
            ues_per_cell=11, rate_bps=45e6, psdb_ms=10.0, sets_per_frame=4,
            embb_ues=1, embb_full_buffer=True, discard_timer_ms=None,
            policy=SchedulerPolicy(kind=PolicyKind.PDUSET), **short), 1),
        "mlwdf-ftp-psi": (CellConfig(
            ues_per_cell=6, rate_bps=45e6, psdb_ms=10.0, sets_per_frame=4,
            embb_ues=2, psi_discard_enabled=True,
            policy=SchedulerPolicy(kind=PolicyKind.MLWDF), **short), 2),
        # a pose CG per XR UE, whose blocks go through HARQ like any other;
        # the due blocks and the UEs' live occasions of a UL slot come off
        # its grant budget
        "ul-long-bsr-cg": (CellConfig(
            ues_per_cell=4, direction=Direction.UL, rate_bps=10e6,
            psdb_ms=30.0, bsr_table=TableKind.LONG, dsr_enabled=False,
            pose_cg=CgConfig(periodicity_us=Fraction(4000),
                             occasions_per_period=1, rb_per_occasion=50,
                             uto_uci_window=4), **short), 3),
        # the cells below run at other time scales than 60 fps: 90 fps
        # with a fixed 16 ms cycle and a common offset in sevenths of a µs
        "fixed-drx-90fps-mlwdf": (CellConfig(
            ues_per_cell=5, rate_bps=30e6, fps=Fraction(90), psdb_ms=10.0,
            sets_per_frame=2, embb_ues=1, psi_discard_enabled=True,
            discard_timer_ms="psdb",
            drx=DrxConfig(cycle_us=Fraction(16000), on_duration_us=6000,
                          inactivity_us=Fraction(2500),
                          start_offset_us=Fraction(1250, 7)),
            drx_offset_mode="common",
            policy=SchedulerPolicy(kind=PolicyKind.MLWDF), **short), 4),
        # 59.94 fps, and a base on-duration with a power-of-two denominator
        "adrx-2997-50fps": (CellConfig(
            ues_per_cell=4, rate_bps=30e6, fps=Fraction(2997, 50),
            psdb_ms=10.0, sets_per_frame=4,
            drx=DrxConfig(cycle_us=Fraction(50_000_000, 2997),
                          on_duration_us=Fraction(8333.3),
                          inactivity_us=Fraction(2000)),
            adaptive_drx=True, adrx_epoch_frames=8,
            policy=SchedulerPolicy(kind=PolicyKind.PDUSET), **short), 5),
        "ul-long-bsr-dsr": (CellConfig(
            ues_per_cell=4, direction=Direction.UL, rate_bps=10e6,
            psdb_ms=30.0, bsr_table=TableKind.LONG, dsr_enabled=True,
            dsr_threshold_ms=25.0, **short), 6),
        # PF over the two cells of one drop, each with its own UEs, RB pool
        # and HARQ stream and each series in turn; simultaneous frame
        # arrivals and FTP eMBB; the run ends 300 µs into its last slot
        "pf-2cells-ftp": (CellConfig(
            ues_per_cell=3, n_cells=2, rate_bps=20e6, embb_ues=1,
            stagger=False, policy=SchedulerPolicy(kind=PolicyKind.PF),
            duration_s=1.0013, warmup_s=0.2), 7),
        # a UL cell whose full-buffer eMBB UE is served on the DL slots
        "ul-dl-embb": (CellConfig(
            ues_per_cell=3, direction=Direction.UL, rate_bps=10e6,
            embb_ues=1, embb_full_buffer=True,
            policy=SchedulerPolicy(kind=PolicyKind.PDUSET), **short), 8),
        # the cells below have no eMBB UE and no pose CG, so they idle
        # between frames; PF with fixed DRX, the run and its warm-up ending
        # mid-slot
        "pf-drx-idle": (CellConfig(
            ues_per_cell=3, rate_bps=10e6, drx=DrxConfig(**idle_drx),
            policy=SchedulerPolicy(kind=PolicyKind.PF),
            duration_s=1.0013, warmup_s=0.2003), 9),
        # M-LWDF with PSI discard and the PSDB timer. This pins the PSI
        # defect of ROADMAP item 4: PSI discard fires on every frame, so 0
        # of its 95 frames are in budget
        "mlwdf-psi-idle": (CellConfig(
            ues_per_cell=2, rate_bps=20e6, sets_per_frame=4,
            psi_discard_enabled=True, discard_timer_ms="psdb",
            policy=SchedulerPolicy(kind=PolicyKind.MLWDF), **short), 10),
        # UL with DSR and fixed DRX
        "ul-drx-dsr-idle": (CellConfig(
            ues_per_cell=3, direction=Direction.UL, rate_bps=5e6,
            psdb_ms=30.0, dsr_enabled=True, dsr_threshold_ms=25.0,
            drx=DrxConfig(**idle_drx), **short), 11),
        # a busy cell that reads the PF average everywhere: the PF metric of
        # the XR UEs, PSI discard, and the PF pick between two full-buffer
        # eMBB UEs; the XR UEs run fixed DRX
        "pf-fullbuffer-drx-psi": (CellConfig(
            ues_per_cell=5, rate_bps=30e6, sets_per_frame=2, embb_ues=2,
            embb_full_buffer=True, psi_discard_enabled=True,
            drx=DrxConfig(**idle_drx),
            policy=SchedulerPolicy(kind=PolicyKind.PF), **short), 12),
    }


def cell_digest(result) -> str:
    ues = [{"ue_id": u.ue_id, "outcomes": u.outcomes,
            "delivered_bits": u.delivered_bits, "avg_power": u.avg_power,
            "grants": u.grants, "padding_samples": u.padding_samples,
            "pser": u.pser} for u in result.ues]
    blob = json.dumps({"ues": ues, "rb_utilization": result.rb_utilization},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _sweep_hashes(tmp_path, make_ini) -> dict:
    out = tmp_path / "out"
    ini = tmp_path / "sweep.ini"
    ini.write_text(make_ini(out))
    assert main(["--config", str(ini)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in SWEEP_FILES}


def test_golden_sweep_outputs(tmp_path):
    assert _sweep_hashes(tmp_path, _sweep_ini) == SWEEP_SHA256


def test_golden_ul_sweep_outputs(tmp_path):
    assert _sweep_hashes(tmp_path, _ul_sweep_ini) == UL_SWEEP_SHA256


@pytest.mark.parametrize("name", sorted(CELL_DIGESTS))
def test_golden_cell_results(name):
    cfg, seed = _cells()[name]
    assert cell_digest(run_drop(cfg, seed)) == CELL_DIGESTS[name]
