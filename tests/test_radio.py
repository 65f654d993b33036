import math

import numpy as np
import pytest

from xrsim import radio
from xrsim.engine import DRAW_BLOCK, block_draws
from xrsim.radio import (
    Deployment,
    MCS_SE,
    MCS_THRESHOLD_DB,
    bler,
    dl_sinr_db,
    harq_attempt,
    harq_exhausted,
    pathloss_db,
    select_mcs,
    tb_bits,
    ul_sinr_db,
    ul_tx_power_dbm,
)
from xrsim.scheduling import Allocation


def _block(mcs, tb_bits):
    """A transport block not yet sent, which carries its own HARQ state."""
    return Allocation(ue_id=0, rb_count=1, mcs=mcs, tb_bits=tb_bits)


def test_pathloss_reference_points():
    assert pathloss_db(1.0) == pytest.approx(44.44, abs=0.01)
    assert pathloss_db(10.0) == pytest.approx(61.74, abs=0.01)
    assert pathloss_db(20.0) - pathloss_db(10.0) == pytest.approx(17.3 * math.log10(2), abs=1e-9)
    assert pathloss_db(0.2) == pathloss_db(1.0)


def test_ul_power_control():
    assert ul_tx_power_dbm(1, 93.0) == pytest.approx(0.0)
    assert ul_tx_power_dbm(100, 100.0) == pytest.approx(23.0)
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 274))
        pl = float(rng.uniform(40, 130))
        p = ul_tx_power_dbm(n, pl)
        assert p <= 23.0
        if p < 23.0:
            # exact compensation: received density hits the target per RB
            assert p - pl - 10 * math.log10(n) == pytest.approx(-93.0)
    with pytest.raises(ValueError):
        ul_tx_power_dbm(0, 90.0)


def test_mcs_ladder_shape():
    assert len(MCS_SE) == 28
    assert all(b > a for a, b in zip(MCS_SE, MCS_SE[1:]))
    assert MCS_SE[-1] == 7.8
    assert all(b > a for a, b in zip(MCS_THRESHOLD_DB, MCS_THRESHOLD_DB[1:]))


def test_select_mcs_floor_cap_monotone():
    assert select_mcs(-30.0) == 0
    assert select_mcs(60.0) == 27
    prev = -1
    for s in np.linspace(-20, 50, 400):
        idx = select_mcs(float(s))
        assert idx >= prev
        prev = idx
    # defining property: threshold of the choice is affordable, next one is not
    for s in (-3.0, 4.5, 11.0, 22.0):
        idx = select_mcs(s)
        assert MCS_THRESHOLD_DB[idx] <= s + 1e-9
        if idx < 27:
            assert MCS_THRESHOLD_DB[idx + 1] > s


def test_tb_bits_examples_and_linearity():
    se_one = MCS_SE.index(min(MCS_SE, key=lambda x: abs(x - 1.0)))
    assert tb_bits(se_one, 1, 12) == int(MCS_SE[se_one] * 144)
    assert tb_bits(27, 273, 12) == 306_633
    for n in (1, 7, 50):
        assert 0 <= tb_bits(14, 2 * n, 12) - 2 * tb_bits(14, n, 12) <= 1
    assert tb_bits(10, 40, 12) >= tb_bits(10, 39, 12)


def test_bler_anchored_at_ten_percent():
    for mcs in (0, 9, 27):
        assert bler(MCS_THRESHOLD_DB[mcs], mcs) == pytest.approx(0.10, abs=1e-9)
        assert bler(MCS_THRESHOLD_DB[mcs] + 20.0, mcs) < 1e-4
        assert bler(MCS_THRESHOLD_DB[mcs] + 3.0, mcs) < bler(MCS_THRESHOLD_DB[mcs], mcs)
    # one dB per decade in the tail
    m = 12
    p1 = bler(MCS_THRESHOLD_DB[m] + 5.0, m)
    p2 = bler(MCS_THRESHOLD_DB[m] + 6.0, m)
    assert p1 / p2 == pytest.approx(10.0, rel=0.01)


def test_first_transmission_ack_rate():
    rng = np.random.default_rng(31)
    mcs = 15
    p = bler(MCS_THRESHOLD_DB[mcs], mcs)
    acks = rng.random(100_000) >= p
    assert acks.mean() == pytest.approx(0.90, abs=0.01)


def test_harq_process_lifecycle():
    uniforms = block_draws(np.random.default_rng(5).random)
    block = _block(mcs=10, tb_bits=1000)
    # far above threshold: first attempt acks
    assert harq_attempt(block, MCS_THRESHOLD_DB[10] + 30.0, uniforms)
    assert block.acked and not harq_exhausted(block)

    block = _block(mcs=10, tb_bits=1000)
    for _ in range(4):
        assert not harq_exhausted(block)  # HARQ gives up only after 4
        harq_attempt(block, -100.0, uniforms)
    assert block.attempts == 4
    assert harq_exhausted(block)
    with pytest.raises(RuntimeError):
        harq_attempt(block, -100.0, uniforms)


@pytest.mark.parametrize("seed", [0, 4])
def test_uniform_blocks_equal_scalar_draws(seed):
    scalar = np.random.default_rng(seed)
    uniforms = block_draws(np.random.default_rng(seed).random)
    for _ in range(3 * DRAW_BLOCK + DRAW_BLOCK // 2):
        value = next(uniforms)
        assert type(value) is float
        assert value == scalar.random()


def test_harq_attempts_decide_on_scalar_draws():
    # each attempt compares the next draw of the stream with its BLER, as a
    # scalar rng.random() call would
    scalar = np.random.default_rng(3)
    uniforms = block_draws(np.random.default_rng(3).random)
    mcs = 12
    s = MCS_THRESHOLD_DB[mcs] - 1.0
    for _ in range(2 * DRAW_BLOCK):
        block = _block(mcs=mcs, tb_bits=100)
        while not (block.acked or harq_exhausted(block)):
            want = scalar.random() >= bler(
                s + radio.CHASE_GAIN_DB * block.attempts, mcs)
            assert harq_attempt(block, s, uniforms) is want
            assert block.acked is want


def test_chase_combining_raises_ack_rate():
    uniforms = block_draws(np.random.default_rng(7).random)
    mcs = 12
    s = MCS_THRESHOLD_DB[mcs]
    first, second = [], []
    for _ in range(4000):
        block = _block(mcs=mcs, tb_bits=100)
        first.append(harq_attempt(block, s, uniforms))
        if not first[-1]:
            second.append(harq_attempt(block, s, uniforms))
    assert np.mean(second) > np.mean(first)


def test_dl_sinr_reference_and_monotonicity():
    psd_tx = radio.BS_TX_DBM - 10 * math.log10(radio.N_RB)
    noise = radio.noise_dbm(1, radio.UE_NF_DB)
    coupling_at_noise = psd_tx - noise
    assert dl_sinr_db(coupling_at_noise) == pytest.approx(0.0, abs=1e-9)
    # one interferer as strong as the signal, noise negligible
    assert dl_sinr_db(40.0, (40.0,)) == pytest.approx(0.0, abs=0.01)
    assert dl_sinr_db(60.0, (80.0,)) > dl_sinr_db(60.0, (80.0, 90.0))
    assert dl_sinr_db(60.0) > dl_sinr_db(61.0)


def test_ul_sinr_noise_limited_value():
    # unconstrained power control pins the received density at P0
    expected = radio.P0_DBM - radio.noise_dbm(1, radio.BS_NF_DB)
    assert ul_sinr_db(50, 80.0) == pytest.approx(expected)
    # power-limited links fall below that
    assert ul_sinr_db(200, 130.0) < expected


def test_deployment_drop():
    dep = Deployment(n_cells=3)
    rng = np.random.default_rng(11)
    links = dep.drop_ues(4, rng)
    assert len(links) == 12
    for cell in range(3):
        assert sum(1 for l in links if l.cell_id == cell) == 4
    for l in links:
        assert int(np.argmin(l.couplings_db)) == l.cell_id
