"""Indoor-hotspot deployment, link budget, MCS selection, and HARQ."""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

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

# the hall: cells ISD_M apart in rows of up to GRID_COLS, a margin around
ISD_M = 20.0
GRID_COLS = 6
HALL_MARGIN_M = 10.0
BS_HEIGHT_M = 3.0
UE_HEIGHT_M = 1.5

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


def pathloss_db(distance_3d_m: float) -> float:
    d = max(distance_3d_m, 1.0)
    return 32.4 + 17.3 * math.log10(d) + 20.0 * math.log10(FC_GHZ)


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


def ul_sinr_db(n_rb: int, coupling_db: float) -> float:
    p = ul_tx_power_dbm(n_rb, coupling_db)
    rx_psd = p - coupling_db - 10.0 * math.log10(n_rb)
    return rx_psd - noise_dbm(1, BS_NF_DB)


def select_mcs(csi_sinr_db: float) -> int:
    """Highest ladder entry whose 10% BLER point lies at or below the CSI SINR."""
    idx = 0
    for i, thr in enumerate(MCS_THRESHOLD_DB):
        if thr <= csi_sinr_db + 1e-9:
            idx = i
        else:
            break
    return idx


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


def harq_attempt(block, sinr_db: float, uniforms: Iterator[float]) -> bool:
    """One attempt of a transport block (a scheduling.Allocation), ACKed when
    the next uniform draw is at least the BLER; the block counts its
    attempts and keeps the last outcome."""
    done = block.attempts  # the attempts before this one
    if done > MAX_RETX:
        raise RuntimeError("the block has used up its HARQ attempts")
    block.attempts = done + 1
    effective = sinr_db + CHASE_GAIN_DB * done
    block.acked = ack = next(uniforms) >= bler(effective, block.mcs)
    return ack


def harq_exhausted(block) -> bool:
    """HARQ gives up on the block: its last attempt NACKed, and it has had
    its 1 + MAX_RETX."""
    return not block.acked and block.attempts > MAX_RETX


class UeLink(NamedTuple):
    ue_id: int
    cell_id: int
    couplings_db: np.ndarray  # to every cell, shadowing included

    @property
    def serving_coupling_db(self) -> float:
        return float(self.couplings_db[self.cell_id])

    def interferer_couplings(self) -> tuple:
        """The couplings to every cell but the serving one, in cell order."""
        return tuple(float(c) for i, c in enumerate(self.couplings_db)
                     if i != self.cell_id)


class Deployment:
    """Cells on a 20 m grid inside a hall, UEs dropped uniformly."""

    def __init__(self, n_cells: int = 1):
        self.n_cells = n_cells
        ncols = min(n_cells, GRID_COLS)
        nrows = math.ceil(n_cells / ncols)
        self.cell_pos = np.array([
            ((i % ncols) * ISD_M, (i // ncols) * ISD_M, BS_HEIGHT_M)
            for i in range(n_cells)])
        self.hall_x = (-HALL_MARGIN_M, (ncols - 1) * ISD_M + HALL_MARGIN_M)
        self.hall_y = (-HALL_MARGIN_M, (nrows - 1) * ISD_M + HALL_MARGIN_M)

    def _candidate(self, rng: np.random.Generator) -> np.ndarray:
        """The couplings of a uniformly drawn UE position to every cell."""
        x = rng.uniform(*self.hall_x)
        y = rng.uniform(*self.hall_y)
        pos = np.array([x, y, UE_HEIGHT_M])
        d3d = np.linalg.norm(self.cell_pos - pos, axis=1)
        pl = np.array([pathloss_db(d) for d in d3d])
        shadow = rng.normal(0.0, SHADOW_STD_DB, size=self.n_cells)
        return np.array([coupling_loss_db(p, s) for p, s in zip(pl, shadow)])

    def drop_ues(self, ues_per_cell: int, rng: np.random.Generator) -> list[UeLink]:
        """Placement conditioned so each cell serves exactly ues_per_cell UEs."""
        links = []
        ue_id = 0
        for cell in range(self.n_cells):
            accepted = 0
            while accepted < ues_per_cell:
                couplings = self._candidate(rng)
                if int(np.argmin(couplings)) == cell:
                    links.append(UeLink(ue_id, cell, couplings))
                    ue_id += 1
                    accepted += 1
        return links
