"""Golden outputs: byte-identity gate for changes that must not move results.

A change that is meant to keep outputs identical (a speed-up, a refactor)
must leave every hash below unchanged; a change that moves outputs on
purpose must re-capture them and say so in CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from xrsim.cellsim import CellConfig, CellSim
from xrsim.cli import main
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
        "763f84ca60d860c3ac6284554c32dae7f5bb9fa18a6ea6829c98bf4c8cb00fd3",
    "events.csv.gz":
        "8d12b17e0b7bbf7ffdf3def5477188e298481134db80e1029f5cabac1000df44",
}

CELL_DIGESTS = {
    "pduset-fullbuffer":
        "2c43f22ed051ec460a90f25de32f06bb2bb2dd9d88b1d7f88d07132fd1b2accf",
    "mlwdf-ftp-psi":
        "1f6a2e8bdb2ac75b066401bc024ba31069e72b9eafde384faa70acc02ce75f53",
    "ul-long-bsr-cg":
        "0f3e27a207109a9395af5f7dd2a6418135bb0737b01e71aaf643ec63cfa3174c",
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


def _cells() -> dict:
    short = dict(duration_s=1.0, warmup_s=0.2)
    return {
        "pduset-fullbuffer": (CellConfig(
            ues_per_cell=11, rate_bps=45e6, psdb_ms=10.0, sets_per_frame=4,
            embb_ues=1, embb_full_buffer=True,
            policy=SchedulerPolicy(kind=PolicyKind.PDUSET), **short), 1),
        "mlwdf-ftp-psi": (CellConfig(
            ues_per_cell=6, rate_bps=45e6, psdb_ms=10.0, sets_per_frame=4,
            embb_ues=2, psi_discard_enabled=True,
            policy=SchedulerPolicy(kind=PolicyKind.MLWDF), **short), 2),
        "ul-long-bsr-cg": (CellConfig(
            ues_per_cell=4, direction=Direction.UL, rate_bps=10e6,
            psdb_ms=30.0, bsr_table=TableKind.LONG, dsr_enabled=False,
            pose_cg=CgConfig(periodicity_us=Fraction(4000),
                             occasions_per_period=1, rb_per_occasion=50,
                             uto_uci_window=4), **short), 3),
    }


def cell_digest(result) -> str:
    ues = [{"ue_id": u.ue_id, "outcomes": u.outcomes,
            "delivered_bits": u.delivered_bits, "avg_power": u.avg_power,
            "grants": u.grants, "padding_samples": u.padding_samples,
            "pser": u.pser} for u in result.ues]
    blob = json.dumps({"ues": ues, "rb_utilization": result.rb_utilization},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_golden_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    ini = tmp_path / "sweep.ini"
    ini.write_text(_sweep_ini(out))
    assert main(["--config", str(ini)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in SWEEP_FILES}
    assert got == SWEEP_SHA256


@pytest.mark.parametrize("name", ["pduset-fullbuffer", "mlwdf-ftp-psi",
                                  "ul-long-bsr-cg"])
def test_golden_cell_results(name):
    cfg, seed = _cells()[name]
    assert cell_digest(CellSim(cfg, seed=seed).run()) == CELL_DIGESTS[name]
