"""Indoor-hotspot deployment, link budget, MCS selection, and HARQ."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

FC_GHZ = 4.0
N_RB = 273
SC_PER_RB = 12
SCS_HZ = 30_000.0
DATA_SYMBOLS = 12        # of 14, two reserved for control and DMRS
S_SLOT_DATA_SYMBOLS = 10

BS_TX_DBM = 31.0
BS_GAIN_DBI = 5.0
UE_GAIN_DBI = 0.0
BS_NF_DB = 5.0
UE_NF_DB = 9.0
NOISE_PSD_DBM_HZ = -174.0
SHADOW_STD_DB = 3.0

P0_DBM = -93.0
PC_ALPHA = 1.0
PCMAX_DBM = 23.0

HARQ_RTT_SLOTS = 8
MAX_RETX = 3
CHASE_GAIN_DB = 3.0

SE_CAP = 7.8  # 8 bits/symbol at ~0.975 effective rate
_SE_MIN = 0.2344
MCS_SE = tuple(round(_SE_MIN * (SE_CAP / _SE_MIN) ** (i / 27), 4) for i in range(28))

# SINR where the Shannon fit reaches each ladder entry; doubles as the
# 10% first-transmission BLER point of that MCS
MCS_THRESHOLD_DB = tuple(10.0 * math.log10(2.0 ** (se / 0.75) - 1.0) for se in MCS_SE)

_BLER_SLOPE = 1.0 / math.log(10.0)  # one dB per decade of error
_BLER_OFFSET = _BLER_SLOPE * math.log(9.0)


def pathloss_db(distance_3d_m: float, fc_ghz: float = FC_GHZ) -> float:
    d = max(distance_3d_m, 1.0)
    return 32.4 + 17.3 * math.log10(d) + 20.0 * math.log10(fc_ghz)


def coupling_loss_db(pl_db: float, shadow_db: float = 0.0) -> float:
    return pl_db + shadow_db - BS_GAIN_DBI - UE_GAIN_DBI


def noise_dbm(n_rb: int, nf_db: float) -> float:
    return NOISE_PSD_DBM_HZ + 10.0 * math.log10(n_rb * SC_PER_RB * SCS_HZ) + nf_db


def dl_sinr_db(coupling_db: float, interferer_couplings_db: tuple = ()) -> float:
    """Wideband DL SINR from per-RB power spectral densities."""
    psd_tx = BS_TX_DBM - 10.0 * math.log10(N_RB)
    s = 10.0 ** ((psd_tx - coupling_db) / 10.0)
    n = 10.0 ** (noise_dbm(1, UE_NF_DB) / 10.0)
    i = sum(10.0 ** ((psd_tx - c) / 10.0) for c in interferer_couplings_db)
    return 10.0 * math.log10(s / (i + n))


def ul_tx_power_dbm(n_rb: int, pathloss_db_: float) -> float:
    if not 1 <= n_rb <= N_RB:
        raise ValueError("rb count out of range")
    return min(PCMAX_DBM, P0_DBM + 10.0 * math.log10(n_rb) + PC_ALPHA * pathloss_db_)


def ul_sinr_db(n_rb: int, coupling_db: float,
               interference_dbm_per_rb: float | None = None) -> float:
    p = ul_tx_power_dbm(n_rb, coupling_db)
    rx_psd = p - coupling_db - 10.0 * math.log10(n_rb)
    n = 10.0 ** (noise_dbm(1, BS_NF_DB) / 10.0)
    if interference_dbm_per_rb is not None:
        n += 10.0 ** (interference_dbm_per_rb / 10.0)
    return rx_psd - 10.0 * math.log10(n)


def select_mcs(csi_sinr_db: float) -> tuple[int, float]:
    """Highest ladder entry whose 10% BLER point lies at or below the CSI SINR."""
    idx = 0
    for i, thr in enumerate(MCS_THRESHOLD_DB):
        if thr <= csi_sinr_db + 1e-9:
            idx = i
        else:
            break
    return idx, MCS_SE[idx]


# tb_bits and bler are pure, and a cell asks them the same few questions
# (its SINRs are static) on every slot, so both are memoised, within a
# bound that holds every question of a realistic cell
@lru_cache(maxsize=8192)
def tb_bits(mcs: int, n_rb: int, data_symbols: int = DATA_SYMBOLS) -> int:
    if n_rb <= 0 or data_symbols <= 0:
        raise ValueError("rb and symbol counts must be positive")
    return int(math.floor(MCS_SE[mcs] * n_rb * SC_PER_RB * data_symbols))


@lru_cache(maxsize=8192)
def bler(sinr_db: float, mcs: int) -> float:
    center = MCS_THRESHOLD_DB[mcs] - _BLER_OFFSET
    return 1.0 / (1.0 + math.exp((sinr_db - center) / _BLER_SLOPE))


@dataclass(slots=True)
class HarqProcess:
    mcs: int
    tb_bits: int
    max_retx: int = MAX_RETX
    attempts: int = 0
    acked: bool = False  # the last attempt's outcome

    @property
    def exhausted(self) -> bool:
        return not self.acked and self.attempts >= self.max_retx + 1


def harq_attempt(process: HarqProcess, sinr_db: float,
                 uniforms: Iterator[float]) -> bool:
    """One attempt, ACKed when the next uniform draw is at least the BLER."""
    if process.attempts > process.max_retx:
        raise RuntimeError("harq process already exhausted")
    process.attempts += 1
    effective = sinr_db + CHASE_GAIN_DB * (process.attempts - 1)
    process.acked = ack = next(uniforms) >= bler(effective, process.mcs)
    return ack


@dataclass
class UeLink:
    ue_id: int
    cell_id: int
    position: tuple[float, float, float]
    couplings_db: np.ndarray  # to every cell, shadowing included

    @property
    def serving_coupling_db(self) -> float:
        return float(self.couplings_db[self.cell_id])

    def interferer_couplings(self, active_cells) -> tuple:
        return tuple(float(self.couplings_db[c]) for c in active_cells
                     if c != self.cell_id)


class Deployment:
    """Cells on a 20 m grid inside a hall, UEs dropped uniformly."""

    def __init__(self, n_cells: int = 1, isd_m: float = 20.0,
                 fc_ghz: float = FC_GHZ, bs_height_m: float = 3.0,
                 ue_height_m: float = 1.5, margin_m: float = 10.0,
                 cols: int = 6):
        self.n_cells = n_cells
        self.fc_ghz = fc_ghz
        self.ue_height_m = ue_height_m
        ncols = min(n_cells, cols)
        nrows = math.ceil(n_cells / ncols)
        self.cell_pos = np.array([
            ((i % ncols) * isd_m, (i // ncols) * isd_m, bs_height_m)
            for i in range(n_cells)])
        self.hall_x = (-margin_m, (ncols - 1) * isd_m + margin_m)
        self.hall_y = (-margin_m, (nrows - 1) * isd_m + margin_m)

    def _candidate(self, rng: np.random.Generator):
        x = rng.uniform(*self.hall_x)
        y = rng.uniform(*self.hall_y)
        pos = np.array([x, y, self.ue_height_m])
        d3d = np.linalg.norm(self.cell_pos - pos, axis=1)
        pl = np.array([pathloss_db(d, self.fc_ghz) for d in d3d])
        shadow = rng.normal(0.0, SHADOW_STD_DB, size=self.n_cells)
        couplings = np.array([coupling_loss_db(p, s) for p, s in zip(pl, shadow)])
        return (x, y, self.ue_height_m), couplings

    def drop_ues(self, ues_per_cell: int, rng: np.random.Generator) -> list[UeLink]:
        """Placement conditioned so each cell serves exactly ues_per_cell UEs."""
        links = []
        ue_id = 0
        for cell in range(self.n_cells):
            accepted = 0
            while accepted < ues_per_cell:
                pos, couplings = self._candidate(rng)
                if int(np.argmin(couplings)) == cell:
                    links.append(UeLink(ue_id, cell, pos, couplings))
                    ue_id += 1
                    accepted += 1
        return links
