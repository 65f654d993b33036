from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from scipy import stats

from xrsim.traffic import (
    Direction,
    VideoFrame,
    VideoSource,
    VideoStreamConfig,
    fragment_frame,
    ftp3_source,
    pose_source,
)


def make_source(seed=1, **overrides):
    kw = dict(avg_rate_bps=30e6, fps=Fraction(60), direction=Direction.DL)
    kw.update(overrides)
    cfg = VideoStreamConfig(**kw)
    return VideoSource(cfg, np.random.default_rng(seed))


def test_frame_size_moments_match_truncated_oracle():
    src = make_source(seed=7)
    sizes = np.array([src.next_frame().byte_size for _ in range(20_000)])
    mean = 62500.0
    assert abs(sizes.mean() - mean) / mean < 0.01
    assert sizes.min() > 31250 and sizes.max() < 93750
    std = 0.105 * mean
    a, b = (31250 - mean) / std, (93750 - mean) / std
    oracle_std = stats.truncnorm.std(a, b, loc=mean, scale=std)
    assert abs(sizes.std() - oracle_std) / oracle_std < 0.10


def test_jitter_std_matches_truncated_oracle():
    src = make_source(seed=11)
    period = src.config.period_us
    jit = np.array([float(src.next_frame().arrival_time - n * period)
                    for n in range(20_000)])
    assert np.all(np.abs(jit) <= 4000)
    oracle_std = stats.truncnorm.std(-2.0, 2.0, loc=0.0, scale=2000.0)
    assert abs(jit.std() - oracle_std) / oracle_std < 0.10


def test_ul_arrivals_are_exact_rationals():
    src = make_source(seed=3, direction=Direction.UL, avg_rate_bps=10e6)
    for n in range(200):
        assert src.next_frame().arrival_time == n * Fraction(50_000, 3)


def test_dl_arrivals_strictly_increasing():
    src = make_source(seed=5)
    times = [src.next_frame().arrival_time for _ in range(2_000)]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_mean_frame_bytes_formula():
    assert make_source().config.mean_frame_bytes == 62500.0
    assert make_source(avg_rate_bps=10e6).config.mean_frame_bytes == pytest.approx(20833.33, abs=0.01)


def test_fragment_single_set_example():
    frame = VideoFrame(0, Fraction(0), 62500)
    sets = fragment_frame(frame, mtu=1500, sets_per_frame=1)
    assert len(sets) == 1
    sizes = [p.byte_size for p in sets[0].pdus]
    assert sizes == [1500] * 41 + [1000]
    assert sets[0].pdus[-1].is_end_of_burst
    assert sum(1 for p in sets[0].pdus if p.is_last_of_set) == 1


def test_fragment_ten_sets_example():
    frame = VideoFrame(4, Fraction(1000), 62500)
    sets = fragment_frame(frame, mtu=1500, sets_per_frame=10)
    assert len(sets) == 10
    assert all(s.total_bytes == 6250 for s in sets)
    assert all(len(s.pdus) == 5 for s in sets)
    assert sum(1 for s in sets for p in s.pdus if p.is_end_of_burst) == 1
    assert sets[-1].pdus[-1].is_end_of_burst


def test_fragment_lossless_for_random_frames():
    rng = np.random.default_rng(19)
    for _ in range(300):
        size = int(rng.integers(1, 200_000))
        nsets = int(rng.integers(1, 12))
        mtu = int(rng.integers(200, 3000))
        sets = fragment_frame(VideoFrame(0, Fraction(0), size), mtu=mtu,
                              sets_per_frame=nsets)
        assert sum(s.total_bytes for s in sets) == size
        assert all(p.byte_size <= mtu for s in sets for p in s.pdus)
        for s in sets:
            assert sum(1 for p in s.pdus if p.is_last_of_set) == 1
            assert s.pdus[-1].is_last_of_set
        assert sum(1 for s in sets for p in s.pdus if p.is_end_of_burst) == 1


def test_fragment_zero_byte_frame():
    assert fragment_frame(VideoFrame(0, Fraction(0), 0)) == []


def test_fragment_assigns_psi_pattern_and_deadline():
    frame = VideoFrame(2, Fraction(500), 10_000)
    sets = fragment_frame(frame, mtu=1500, sets_per_frame=6, psdb_us=10_000,
                          psi_pattern=(1, 0, 0, 1))
    assert [s.psi for s in sets] == [1, 0, 0, 1, 1, 0]
    for s in sets:
        assert all(p.psi == s.psi for p in s.pdus)
        assert all(p.deadline == Fraction(500) + 10_000 for p in s.pdus)


def test_pose_source_defaults():
    sets = list(islice(pose_source(), 2500))
    assert sets[-1].arrival_time == Fraction(4000 * 2499)
    assert all(s.total_bytes == 100 for s in sets)
    assert all(s.pdus[0].is_end_of_burst for s in sets)
    # 10 s of stream is exactly 2500 packets
    assert sets[2499].arrival_time < 10_000_000 <= Fraction(4000 * 2500)


def test_ftp3_interarrival_and_fragmentation():
    rng = np.random.default_rng(23)
    files = list(islice(ftp3_source(rng), 10_000))
    times = np.array([float(f.arrival_time) for f in files])
    gaps = np.diff(times) / 1e6
    assert abs(gaps.mean() - 1.0) < 0.03
    first = files[0]
    assert first.sizes == (1500,) * 83 + (500,)
    assert first.deadline is None
    assert first.pdus[-1].is_end_of_burst
