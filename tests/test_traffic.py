from fractions import Fraction
from itertools import accumulate, islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from xrsim.engine import DRAW_BLOCK
from xrsim.traffic import (
    Direction,
    PduSet,
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


def _scalar_frames(cfg, seed, n):
    """The first n frames of a source, each value drawn with a scalar
    rng.normal(mean, std) call, and the number of draws they took."""
    rng = np.random.default_rng(seed)
    mean = cfg.mean_frame_bytes
    lo, hi = cfg.size_min_frac * mean, cfg.size_max_frac * mean
    frames, draws = [], 0
    for i in range(n):
        while True:
            draws += 1
            size = int(round(rng.normal(mean, cfg.size_std_frac * mean)))
            if lo < size < hi:
                break
        arrival = i * cfg.period_us
        if cfg.direction is Direction.DL:
            while True:
                draws += 1
                jitter = rng.normal(0.0, cfg.jitter_std_us)
                if cfg.jitter_min_us < jitter < cfg.jitter_max_us:
                    break
            arrival += int(round(jitter))
        frames.append(VideoFrame(i, arrival, size))
    return frames, draws


@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("direction", [Direction.DL, Direction.UL])
def test_frames_equal_scalar_normal_draws(seed, direction):
    # tight bounds reject about a third of the sizes and most jitters, so
    # rejection loops run across the boundaries of the blocks drawn
    cfg = VideoStreamConfig(avg_rate_bps=30e6, fps=Fraction(60),
                            direction=direction, size_min_frac=0.9,
                            size_max_frac=1.1, jitter_min_us=-1000.0,
                            jitter_max_us=1000.0)
    n = 3 * DRAW_BLOCK
    want, draws = _scalar_frames(cfg, seed, n)
    assert draws >= 3 * DRAW_BLOCK
    src = VideoSource(cfg, np.random.default_rng(seed))
    assert [src.next_frame() for _ in range(n)] == want


def test_mean_frame_bytes_formula():
    assert make_source().config.mean_frame_bytes == 62500.0
    assert make_source(avg_rate_bps=10e6).config.mean_frame_bytes == pytest.approx(20833.33, abs=0.01)


@pytest.mark.parametrize("rate_bps", [0.0, 100.0, 300.0])
def test_mean_frame_without_a_whole_size_is_rejected(rate_bps):
    # at 60 fps these means are 0, 0.21 and 0.625 B: no whole frame size
    # lies strictly within half and one and a half times the mean
    with pytest.raises(ValueError, match="no whole frame size"):
        VideoStreamConfig(avg_rate_bps=rate_bps, fps=Fraction(60))


def test_sub_byte_mean_frame_with_a_whole_size_draws_it():
    # a 0.71 B mean keeps 1 B within its bounds, and every draw lands there
    src = make_source(avg_rate_bps=340.0)
    assert {src.next_frame().byte_size for _ in range(200)} == {1}


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


def _reference_sets(frame, mtu, sets_per_frame, psdb_us, psi_pattern):
    """The sets of a frame as each was once cut on its own: every set's PDU
    sizes are mtu-byte PDUs and a remainder, its ends their running sum."""
    base, rem = divmod(frame.byte_size, sets_per_frame)
    last = sets_per_frame - 1
    sets = []
    for k in range(sets_per_frame):
        set_bytes = base + (rem if k == last else 0)
        if set_bytes == 0:
            continue
        full, part = divmod(set_bytes, mtu)
        sizes = (mtu,) * full + ((part,) if part else ())
        sets.append({
            "id": (frame.index, k),
            "psi": psi_pattern[k % len(psi_pattern)],
            "deadline": (None if psdb_us is None
                         else frame.arrival_time + psdb_us),
            "sizes": sizes, "ends": tuple(accumulate(sizes)),
            "total_bytes": set_bytes, "end_of_burst": k == last})
    return sets


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 30_000), nsets=st.integers(1, 12),
       mtu=st.one_of(st.just(1), st.integers(1, 3000)),
       psdb_us=st.one_of(st.none(), st.integers(1, 50_000)),
       psi_pattern=st.lists(st.integers(0, 3), min_size=1, max_size=5))
@example(size=3, nsets=5, mtu=1500, psdb_us=None, psi_pattern=[1, 0, 0, 1])
@example(size=6000, nsets=4, mtu=1400, psdb_us=10_000, psi_pattern=[1, 0])
@example(size=6002, nsets=4, mtu=500, psdb_us=10_000, psi_pattern=[1, 0])
@example(size=17, nsets=3, mtu=1, psdb_us=7, psi_pattern=[2])
def test_fragment_frame_matches_per_set_cutting(size, nsets, mtu, psdb_us,
                                                psi_pattern):
    # the cases above: a frame smaller than its set count, a zero remainder,
    # an mtu that divides the set size, and one-byte PDUs
    frame = VideoFrame(9, 123_457, size)
    sets = fragment_frame(frame, mtu=mtu, sets_per_frame=nsets,
                          psdb_us=psdb_us, psi_pattern=psi_pattern)
    got = [{"id": s.id, "psi": s.psi, "deadline": s.deadline,
            "sizes": s.sizes, "ends": s.ends, "total_bytes": s.total_bytes,
            "end_of_burst": s.end_of_burst} for s in sets]
    assert got == _reference_sets(frame, mtu, nsets, psdb_us, psi_pattern)
    # the equal sets share one tuple of PDU ends
    if len(sets) > 1:
        assert all(s.ends is sets[0].ends for s in sets[:-1])
    assert all(s.taken == 0 and s.frame_id == 9 for s in sets)


def test_pdu_set_checks_explicit_sizes():
    s = PduSet(("x",), 0, 0, 0, (100, 1500, 7), deadline=10)
    assert s.sizes == (100, 1500, 7)
    assert s.ends == (100, 1600, 1607) and s.total_bytes == 1607
    assert [p.byte_size for p in s.pdus] == [100, 1500, 7]
    for sizes in ((), (100, 0), (-1,)):
        with pytest.raises(ValueError, match="payload"):
            PduSet(("x",), 0, 0, 0, sizes)
    with pytest.raises(ValueError, match="deadline"):
        PduSet(("x",), 0, 0, 10, (100,), deadline=10)


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
