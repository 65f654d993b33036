"""Invariants that hold for every config: output bytes that do not depend on
the interpreter's hash seed, and per-cell bounds over drawn DL cells."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim.cellsim import CellConfig, CellSim
from xrsim.drx import DrxConfig
from xrsim.scheduling import PolicyKind, SchedulerPolicy

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


@settings(max_examples=40)
@given(cfg=dl_cells(), seed=st.integers(0, 50))
def test_dl_cell_invariants(cfg, seed):
    result = CellSim(cfg, seed=seed).run()
    assert all(0.0 <= u <= 1.0 for u in result.rb_utilization)
    model = cfg.power_model
    for ue in result.ues:
        assert ue.frames_in_budget <= ue.frames_total == len(ue.outcomes)
        assert model.deep_sleep <= ue.avg_power <= model.pdcch_plus_pdsch
        arrivals = [arrival for arrival, _ in ue.outcomes]
        assert len(set(arrivals)) == len(arrivals)
