from fractions import Fraction
from itertools import accumulate, islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from xrsim import traffic
from xrsim.engine import DRAW_BLOCK
from xrsim.traffic import (
    DEFAULT_PSI_PATTERN,
    FRAME_SIZE_MAX_FRAC,
    FRAME_SIZE_MIN_FRAC,
    FRAME_SIZE_STD_FRAC,
    JITTER_MAX_US,
    JITTER_MIN_US,
    JITTER_STD_US,
    MTU_BYTES,
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
    kw = dict(rate_bps=30e6, fps=Fraction(60), direction=Direction.DL)
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
    src = make_source(seed=3, direction=Direction.UL, rate_bps=10e6)
    for n in range(200):
        assert src.next_frame().arrival_time == n * Fraction(50_000, 3)


def test_dl_arrivals_strictly_increasing():
    src = make_source(seed=5)
    times = [src.next_frame().arrival_time for _ in range(2_000)]
    assert all(b > a for a, b in zip(times, times[1:]))


def _scalar_frames(cfg, seed, n):
    """The first n frames of a source, each value drawn with a scalar
    rng.normal(mean, std) call, the number of draws they took, and the
    0-based index of each draw a rejection loop threw away."""
    rng = np.random.default_rng(seed)
    mean = cfg.mean_frame_bytes
    lo, hi = FRAME_SIZE_MIN_FRAC * mean, FRAME_SIZE_MAX_FRAC * mean
    frames, draws, rejected = [], 0, []
    for i in range(n):
        while True:
            draws += 1
            size = int(round(rng.normal(mean, FRAME_SIZE_STD_FRAC * mean)))
            if lo < size < hi:
                break
            rejected.append(draws - 1)
        arrival = i * cfg.period_us
        if cfg.direction is Direction.DL:
            while True:
                draws += 1
                jitter = rng.normal(0.0, JITTER_STD_US)
                if JITTER_MIN_US < jitter < JITTER_MAX_US:
                    break
                rejected.append(draws - 1)
            arrival += int(round(jitter))
        frames.append(VideoFrame(i, arrival, size))
    return frames, draws, rejected


@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("direction", [Direction.DL, Direction.UL])
def test_frames_equal_scalar_normal_draws(seed, direction):
    # a rejection loop that runs across the boundary of the blocks drawn
    # must go on with the next block: DL jitters fall outside their bounds
    # about 4.6 % of the time, and the sizes of a 2-byte mean frame (UL at
    # 960 bps) about 1.7 %, so 64 blocks of frames reject a block's last draw
    rate_bps = 30e6 if direction is Direction.DL else 960.0
    cfg = VideoStreamConfig(rate_bps=rate_bps, fps=Fraction(60),
                            direction=direction)
    n = 64 * DRAW_BLOCK
    want, draws, rejected = _scalar_frames(cfg, seed, n)
    assert draws >= n
    assert any(i % DRAW_BLOCK == DRAW_BLOCK - 1 for i in rejected)
    src = VideoSource(cfg, np.random.default_rng(seed))
    assert [src.next_frame() for _ in range(n)] == want


def test_mean_frame_bytes_formula():
    assert make_source().config.mean_frame_bytes == 62500.0
    assert make_source(rate_bps=10e6).config.mean_frame_bytes == pytest.approx(20833.33, abs=0.01)


@pytest.mark.parametrize("rate_bps", [0.0, 100.0, 300.0])
def test_mean_frame_without_a_whole_size_is_rejected(rate_bps):
    # at 60 fps these means are 0, 0.21 and 0.625 B: no whole frame size
    # lies strictly within half and one and a half times the mean
    with pytest.raises(ValueError, match="no whole frame size"):
        VideoStreamConfig(rate_bps=rate_bps, fps=Fraction(60))


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("fps, ticks_per_us", [(Fraction(50), 1),
                                               (Fraction(60), 3)])
def test_frames_on_a_tick_clock_are_ints(direction, fps, ticks_per_us):
    # a period whole in ticks gives int arrivals, and sizes are ints, so an
    # output built from them never turns an int into a float
    cfg = VideoStreamConfig(rate_bps=45e6, fps=fps, direction=direction)
    src = VideoSource(cfg, np.random.default_rng(2),
                      ticks_per_us=ticks_per_us)
    for _ in range(300):
        frame = src.next_frame()
        assert type(frame.byte_size) is int
        assert type(frame.arrival_time) is int


def test_sub_byte_mean_frame_with_a_whole_size_draws_it():
    # a 0.71 B mean keeps 1 B within its bounds, and every draw lands there
    src = make_source(rate_bps=340.0)
    assert {src.next_frame().byte_size for _ in range(200)} == {1}


def pdus(s):
    """The PDUs of a set, stated from its ends: PDU i has id ``id + (i,)``
    and ends at byte ``ends[i]``, every PDU carries the set's importance
    and deadline, and the last PDU ends the set, and the burst too when the
    set does."""
    last = len(s.ends) - 1
    return [SimpleNamespace(id=s.id + (i,), byte_size=end - start,
                            psi=s.psi, deadline=s.deadline,
                            is_last_of_set=i == last,
                            is_end_of_burst=s.end_of_burst and i == last)
            for i, (start, end) in enumerate(zip((0,) + s.ends[:-1],
                                                 s.ends))]


def test_fragment_single_set_example():
    frame = VideoFrame(0, Fraction(0), 62500)
    sets = fragment_frame(frame, sets_per_frame=1)  # 1500-byte PDUs
    assert len(sets) == 1
    sizes = [p.byte_size for p in pdus(sets[0])]
    assert sizes == [1500] * 41 + [1000]
    assert pdus(sets[0])[-1].is_end_of_burst
    assert sum(1 for p in pdus(sets[0]) if p.is_last_of_set) == 1
    # the set's PDU ids are those of the reference
    assert sets[0].pdus == tuple(p.id for p in pdus(sets[0]))


def test_fragment_ten_sets_example():
    frame = VideoFrame(4, Fraction(1000), 62500)
    sets = fragment_frame(frame, sets_per_frame=10)
    assert len(sets) == 10
    assert all(s.total_bytes == 6250 for s in sets)
    assert all(len(s.pdus) == 5 for s in sets)
    assert sum(1 for s in sets for p in pdus(s) if p.is_end_of_burst) == 1
    assert pdus(sets[-1])[-1].is_end_of_burst


def test_fragment_lossless_for_random_frames():
    rng = np.random.default_rng(19)
    for _ in range(300):
        size = int(rng.integers(1, 200_000))
        nsets = int(rng.integers(1, 12))
        sets = fragment_frame(VideoFrame(0, Fraction(0), size),
                              sets_per_frame=nsets)
        assert sum(s.total_bytes for s in sets) == size
        assert all(p.byte_size <= MTU_BYTES for s in sets for p in pdus(s))
        for s in sets:
            assert sum(1 for p in pdus(s) if p.is_last_of_set) == 1
            assert pdus(s)[-1].is_last_of_set
        assert sum(1 for s in sets for p in pdus(s) if p.is_end_of_burst) == 1


def test_fragment_zero_byte_frame():
    assert fragment_frame(VideoFrame(0, Fraction(0), 0)) == []


def test_fragment_assigns_psi_pattern_and_deadline():
    frame = VideoFrame(2, Fraction(500), 10_000)
    sets = fragment_frame(frame, sets_per_frame=6, psdb_us=10_000)
    assert [s.psi for s in sets] == [1, 0, 0, 1, 1, 0]  # (1, 0, 0, 1) cycled
    for s in sets:
        assert all(p.psi == s.psi for p in pdus(s))
        assert all(p.deadline == Fraction(500) + 10_000 for p in pdus(s))
    with pytest.raises(ValueError, match="deadline"):
        fragment_frame(frame, sets_per_frame=6, psdb_us=0)


def _reference_sets(frame, sets_per_frame, psdb_us):
    """The sets of a frame as each was once cut on its own: every set's PDU
    sizes are MTU-byte PDUs and a remainder, its ends their running sum,
    and its importance is the default pattern cycled."""
    mtu, psi_pattern = MTU_BYTES, DEFAULT_PSI_PATTERN
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
@given(size=st.integers(1, 4_000_000), nsets=st.integers(1, 12),
       psdb_us=st.one_of(st.none(), st.integers(1, 50_000)),
       edge=st.sampled_from((None, None, 0, 1, 2)))
@example(size=3, nsets=5, psdb_us=None, edge=None)
@example(size=6000, nsets=4, psdb_us=10_000, edge=None)
@example(size=6002, nsets=4, psdb_us=10_000, edge=None)
@example(size=17, nsets=3, psdb_us=7, edge=None)
@example(size=27_001, nsets=6, psdb_us=None, edge=None)
@example(size=3_999_999, nsets=1, psdb_us=None, edge=None)
@example(size=12, nsets=4, psdb_us=None, edge=1)
@example(size=12, nsets=4, psdb_us=None, edge=2)
@example(size=15, nsets=4, psdb_us=None, edge=2)
def test_fragment_frame_matches_per_set_cutting(size, nsets, psdb_us, edge):
    # the cases above: a frame smaller than its set count, sets of one whole
    # MTU, a non-zero remainder, sets under one MTU, a last set of several
    # PDUs and a remainder, and a set of a few MB
    cached = len(traffic._MTU_ENDS)
    if edge is not None:
        # equal sets of exactly k MTUs at the shared tuple's growth edge:
        # k = cached + 1 takes every end it holds and k = cached + 2 one
        # more; a last set with a remainder takes one end more again
        size = nsets * (cached + edge) * MTU_BYTES + size % nsets
    frame = VideoFrame(9, 123_457, size)
    sets = fragment_frame(frame, sets_per_frame=nsets, psdb_us=psdb_us)
    got = [{"id": s.id, "psi": s.psi, "deadline": s.deadline,
            "sizes": s.sizes, "ends": s.ends, "total_bytes": s.total_bytes,
            "end_of_burst": s.end_of_burst} for s in sets]
    want = _reference_sets(frame, nsets, psdb_us)
    assert got == want
    # every slot holds what the public constructor would store
    for s, w in zip(sets, want):
        ref = PduSet(w["id"], w["psi"], frame.arrival_time, w["sizes"],
                     w["deadline"], w["end_of_burst"])
        assert ([getattr(s, a) for a in PduSet.__slots__]
                == [getattr(ref, a) for a in PduSet.__slots__])
    # the equal sets share one tuple of PDU ends
    if len(sets) > 1:
        assert all(s.ends is sets[0].ends for s in sets[:-1])
    # the shared MTU ends grow only as far as the largest set needs
    need = max((len(s.ends) - 1 for s in sets), default=0)
    assert len(traffic._MTU_ENDS) == max(cached, need)
    assert traffic._MTU_ENDS == tuple(
        range(MTU_BYTES, (len(traffic._MTU_ENDS) + 1) * MTU_BYTES, MTU_BYTES))


def test_pdu_set_checks_explicit_sizes():
    s = PduSet(("x",), 0, 0, (100, 1500, 7), deadline=10)
    assert s.sizes == (100, 1500, 7)
    assert s.ends == (100, 1600, 1607) and s.total_bytes == 1607
    assert [p.byte_size for p in pdus(s)] == [100, 1500, 7]
    assert s.pdus == (("x", 0), ("x", 1), ("x", 2))
    for sizes in ((), (100, 0), (-1,)):
        with pytest.raises(ValueError, match="payload"):
            PduSet(("x",), 0, 0, sizes)
    with pytest.raises(ValueError, match="deadline"):
        PduSet(("x",), 0, 10, (100,), deadline=10)


def test_pose_source_defaults():
    sets = list(islice(pose_source(), 2500))
    assert sets[-1].arrival_time == Fraction(4000 * 2499)
    assert all(s.total_bytes == 100 for s in sets)
    assert all(pdus(s)[0].is_end_of_burst for s in sets)
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
    assert pdus(first)[-1].is_end_of_burst


@pytest.mark.parametrize("ticks_per_us", [1, 3])
def test_ftp3_arrivals_are_int_ticks(ticks_per_us):
    rng = np.random.default_rng(5)
    for f in islice(ftp3_source(rng, ticks_per_us), 500):
        assert type(f.arrival_time) is int
        assert f.arrival_time % ticks_per_us == 0
