"""Acceptance checklist: one test per numbered criterion.

Runs the scaled quantitative scenarios and property suites end to end;
each test prints a single verdict line with the measured numbers.
"""

import math
import random
from fractions import Fraction

import numpy as np

from xrsim.cellsim import CellConfig, CellSim
from xrsim.drx import DrxConfig, cycle_start_exact, power_saving_gain
from xrsim.harness import ExperimentConfig, run_experiment, ue_satisfied, xr_capacity
from xrsim.l4s import AdaptiveSource, Method2Marker, closed_loop_run, mark_method1
from xrsim.qos import FlowQueue, QosFlowProfile
from xrsim.reporting import TableKind, gen_bs_table, quantize_bsr
from xrsim.scheduling import (CgConfig, PolicyKind, SchedulerPolicy, UlCandidate,
                              allocate_ul, build_uto_uci, cg_occasions,
                              reclaim_unused)
from xrsim.traffic import Direction, PduSet, VideoSource, VideoStreamConfig

_trapz = getattr(np, "trapezoid", None) or np.trapz


def _truncated_gaussian_std(mu, sigma, lo, hi, n=200_001):
    # independent oracle: numeric integration of the truncated moments
    xs = np.linspace(lo, hi, n)
    pdf = np.exp(-0.5 * ((xs - mu) / sigma) ** 2)
    z = _trapz(pdf, xs)
    mean = _trapz(xs * pdf, xs) / z
    var = _trapz((xs - mean) ** 2 * pdf, xs) / z
    return math.sqrt(var)


def _satisfied_count(result) -> int:
    return sum(1 for u in result.xr_ues()
               if ue_satisfied(ok for _, ok in u.outcomes))


def test_criterion_01_traffic_statistics():
    cfg = VideoStreamConfig(rate_bps=30e6, fps=Fraction(60))
    src = VideoSource(cfg, np.random.default_rng(7))
    n = 100_000
    sizes = np.empty(n)
    jitters = np.empty(n)
    for k in range(n):
        f = src.next_frame()
        sizes[k] = f.byte_size
        jitters[k] = float(f.arrival_time - k * cfg.period_us)
    mean_err = abs(sizes.mean() - 62_500) / 62_500
    assert mean_err < 0.01
    assert sizes.min() >= 31_250 and sizes.max() <= 93_750
    assert jitters.min() >= -4000.0 and jitters.max() <= 4000.0
    oracle = _truncated_gaussian_std(0.0, 2000.0, -4000.0, 4000.0)
    std_err = abs(jitters.std() - oracle) / oracle
    assert std_err < 0.10
    print(f"criterion 1: PASS  mean {sizes.mean():.1f} B (err {mean_err:.4f}), "
          f"size range [{sizes.min():.0f}, {sizes.max():.0f}], "
          f"jitter std {jitters.std():.1f} vs oracle {oracle:.1f} µs")


def test_criterion_02_bsr_round_up_law():
    rng = random.Random(11)
    tables = {kind: gen_bs_table(kind) for kind in TableKind}
    for kind, table in tables.items():
        for _ in range(10_000):
            b = rng.randint(0, table.entries[-1])
            idx = quantize_bsr(b, table)
            assert table.entries[idx] >= b
    long_t = tables[TableKind.LONG]
    ref_t = tables[TableKind.REFINED_LONG]
    top = ref_t.entries[-1]
    probes = [rng.randint(0, top) for _ in range(10_000)]
    probes += [0, 1, 10, top - 1, top]
    worst = 0
    for b in probes:
        over_ref = ref_t.entries[quantize_bsr(b, ref_t)] - b
        over_long = long_t.entries[quantize_bsr(b, long_t)] - b
        assert over_ref <= over_long
        worst = max(worst, over_long - over_ref)
    print(f"criterion 2: PASS  round-up holds on all tables; refined saves "
          f"up to {worst} B vs long on sampled buffers")


def test_criterion_03_realized_overhead_ordering():
    def padding_and_satisfaction(kind):
        pads, sat, total = [], 0, 0
        for seed in (1, 2, 3):
            cfg = CellConfig(ues_per_cell=4, direction=Direction.UL,
                             rate_bps=10e6, psdb_ms=30.0, duration_s=10.0,
                             warmup_s=1.0, bsr_table=kind)
            r = CellSim(cfg, seed=seed).run()
            for u in r.xr_ues():
                pads.extend(u.padding_samples)
                total += 1
            sat += _satisfied_count(r)
        return sum(pads) / len(pads), sat / total

    pad_short, sat_short = padding_and_satisfaction(TableKind.SHORT)
    pad_long, _ = padding_and_satisfaction(TableKind.LONG)
    pad_ref, sat_ref = padding_and_satisfaction(TableKind.REFINED_LONG)
    assert pad_short > pad_long >= pad_ref
    assert sat_short <= sat_ref
    print(f"criterion 3: PASS  mean padding short {pad_short:.1f} > "
          f"long {pad_long:.1f} >= refined {pad_ref:.1f} B; satisfaction "
          f"{sat_short:.2f} <= {sat_ref:.2f}")


def test_criterion_04_scheduler_ordering():
    def satisfied(policy, psdb, seed):
        cfg = CellConfig(ues_per_cell=11, rate_bps=45e6, psdb_ms=psdb,
                         sets_per_frame=4, duration_s=10.0, warmup_s=1.0,
                         embb_ues=1, embb_full_buffer=True,
                         discard_timer_ms=None,
                         policy=SchedulerPolicy(kind=policy))
        return _satisfied_count(CellSim(cfg, seed=seed).run())

    lines = []
    for psdb in (10.0, 15.0, 20.0):
        counts = {p: sum(satisfied(p, psdb, s) for s in (1, 2, 3))
                  for p in PolicyKind}
        assert counts[PolicyKind.PDUSET] >= counts[PolicyKind.MLWDF] \
            >= counts[PolicyKind.PF]
        lines.append(f"psdb {psdb:.0f}: pduset {counts[PolicyKind.PDUSET]} >= "
                     f"mlwdf {counts[PolicyKind.MLWDF]} >= "
                     f"pf {counts[PolicyKind.PF]}")
    print("criterion 4: PASS  " + "; ".join(lines))


def test_criterion_05_drx_drift_exact():
    frame_period = Fraction(50_000, 3)  # 60 fps in µs
    int_cfg = DrxConfig(cycle_us=Fraction(16_000), on_duration_us=8000,
                        inactivity_us=8000)
    frac_cfg = DrxConfig(cycle_us=Fraction(50_000, 3), on_duration_us=8000,
                         inactivity_us=8000)
    per_cycle = Fraction(2000, 3)  # 2/3 ms in µs
    for k in (1, 2, 3, 100, 9_999, 10_000):
        arrival = k * frame_period
        drift_int = arrival - cycle_start_exact(int_cfg, k)
        assert drift_int == k * per_cycle
        assert arrival - cycle_start_exact(frac_cfg, k) == 0
    step = (cycle_start_exact(int_cfg, 10_000)
            - cycle_start_exact(int_cfg, 9_999))
    assert (frame_period - step) == per_cycle
    acc = Fraction(0)
    for _ in range(10_000):
        acc += frame_period - frac_cfg.cycle_us
    assert acc == 0
    print("criterion 5: PASS  16 ms cycle drifts exactly 2/3 ms per cycle; "
          "50/3 ms cycle accumulates exactly 0 over 10^4 cycles")


def test_criterion_06_drx_satisfaction_and_gain():
    def run(drx=None, mode="traffic", adaptive=False, seed=1):
        cfg = CellConfig(ues_per_cell=2, rate_bps=30e6, psdb_ms=10.0,
                         duration_s=10.0, warmup_s=1.0, drx=drx,
                         drx_offset_mode=mode, adaptive_drx=adaptive)
        return CellSim(cfg, seed=seed).run()

    def tally(results):
        sat = tot = 0
        powers = []
        for r in results:
            sat += _satisfied_count(r)
            tot += len(r.xr_ues())
            powers.extend(u.avg_power for u in r.xr_ues())
        return sat / tot, sum(powers) / len(powers)

    seeds = (1, 2, 3, 4, 5)
    int16 = DrxConfig(cycle_us=Fraction(16_000), on_duration_us=8000,
                      inactivity_us=8000)
    frac = DrxConfig(cycle_us=Fraction(50_000, 3), on_duration_us=8000,
                     inactivity_us=8000)
    base = DrxConfig(cycle_us=Fraction(50_000, 3), on_duration_us=8000,
                     inactivity_us=2000)
    sat_on, p_on = tally([run(seed=s) for s in seeds])
    sat_int, _ = tally([run(int16, "common", seed=s) for s in seeds])
    sat_frac, _ = tally([run(frac, "traffic", seed=s) for s in seeds])
    sat_adrx, p_adrx = tally([run(base, "traffic", True, seed=s)
                              for s in seeds])
    assert sat_int < sat_frac
    gain = power_saving_gain(p_adrx, p_on)
    assert 0.0 < gain <= 25.0
    assert abs(sat_adrx - sat_on) <= 0.05
    print(f"criterion 6: PASS  integer-cycle satisfaction {sat_int:.2f} < "
          f"fractional {sat_frac:.2f}; adaptive gain {gain:.1f}% in (0, 25] "
          f"with satisfaction {sat_adrx:.2f} vs always-on {sat_on:.2f}")


def test_criterion_07_pdu_set_discard_correctness():
    n_sets = 1000
    summaries = {}
    for psihi in (True, False):
        rng = random.Random(13)
        q = FlowQueue(QosFlowProfile(psdb_ms=1000.0, psihi=psihi))
        for s in range(n_sets):
            sizes = [rng.randint(500, 1500)
                     for _ in range(rng.randint(2, 5))]
            q.enqueue_set(PduSet(id=(s,), psi=0, arrival_time=Fraction(0),
                                 sizes=sizes))
        lost_sets = set()
        survivors_served = set()
        now = 0.0
        while q.queued_bytes > 0:
            now += 1.0
            segs = q.take(rng.randint(800, 4000))
            for seg in segs:
                sid = seg.pdu_set.id
                if sid in lost_sets:
                    assert not psihi, \
                        "PDU of a lost set served after the loss under PSIHI"
                    survivors_served.add(sid)
            if rng.random() < 0.03:  # HARQ gives up on the block
                q.on_block_lost(segs, now)
                lost_sets.update(seg.pdu_set.id for seg in segs)
        assert q.pser() == q.recount_pser_from_log()
        assert q.pser() == len(lost_sets) / n_sets
        summaries[psihi] = (len(lost_sets), len(survivors_served))
    assert summaries[False][1] > 0  # PSIHI off keeps serving survivors
    print(f"criterion 7: PASS  {summaries[True][0]} lost sets fully "
          f"suppressed under PSIHI; {summaries[False][1]} damaged sets "
          f"served survivors with PSIHI off; PSER recount exact")


def test_criterion_08_uto_uci_reclamation():
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(1, 8)
        caps = [rng.randint(1, 3000) for _ in range(n)]
        buf = rng.randint(0, sum(caps) + 2000)
        bitmap = build_uto_uci(buf, caps)
        rem = buf
        expect = []
        for cap in caps:  # brute-force drain
            used = min(rem, cap)
            expect.append("1" if used == 0 else "0")
            rem -= used
        assert bitmap == "".join(expect)
    cg = CgConfig(periodicity_us=Fraction(5000), rb_per_occasion=40)
    occasions = cg_occasions(cg, horizon_us=40_000)
    caps = [1200] * len(occasions)
    bitmap = build_uto_uci(2500, caps)
    assert "1" in bitmap
    current = occasions[0].slot
    freed = reclaim_unused(bitmap, occasions, current)
    marked = [o for b, o in zip(bitmap, occasions)
              if b == "1" and o.slot > current]
    assert freed == marked and freed
    for occ in freed:
        other = UlCandidate(ue_id=99, reported_bytes=10**6, mcs=10)
        grants = allocate_ul([other], occ.rb_count)
        assert grants and grants[0].rb_count == occ.rb_count
    print(f"criterion 8: PASS  bitmap equals brute-force drain on 3000 "
          f"random cases; {len(freed)} flagged occasions re-grantable "
          f"({freed[0].rb_count} RBs each)")


def test_criterion_09_l4s_loop():
    def loop(seed, marking=True, method=1, delay=0.0):
        src = AdaptiveSource(rate_bps=30e6, min_bps=5e6, max_bps=100e6,
                             step_bps=1e6, feedback_delay_ms=20.0)
        return closed_loop_run(src, capacity_bps=50e6, duration_ms=4000.0,
                               rng=np.random.default_rng(seed), method=method,
                               signaling_delay_ms=delay, marking_enabled=marking)

    res = loop(seed=9)
    assert all(5e6 <= r <= 100e6 for r in res.rates_bps)
    tail = res.rates_bps[len(res.rates_bps) // 2:]
    mean = sum(tail) / len(tail)
    assert 0.8 * 50e6 <= mean <= 1.1 * 50e6
    assert min(tail) >= 0.6 * 50e6 and max(tail) <= 1.2 * 50e6
    off = loop(seed=9, marking=False)
    assert res.p95_sojourn_ms() <= off.p95_sojourn_ms()
    rng = np.random.default_rng(31)
    marker2 = Method2Marker(signaling_delay_ms=0.0)
    marker2.publish(0.0, 0.3)
    n = 200_000
    f1 = sum(mark_method1(0.3, rng) for _ in range(n)) / n
    f2 = sum(marker2.mark(1.0, rng) for _ in range(n)) / n
    assert abs(f1 - f2) <= 0.01
    print(f"criterion 9: PASS  rate stays in bounds, settles at "
          f"{mean / 1e6:.1f} Mbps around the 50 Mbps bottleneck; p95 sojourn "
          f"{res.p95_sojourn_ms():.2f} <= {off.p95_sojourn_ms():.2f} ms "
          f"unmarked; mark fractions {f1:.4f} vs {f2:.4f}")


def test_criterion_10_kpi_oracle():
    rng = random.Random(17)
    psdb = 10_000.0
    logs = [[5000.0] * 99 + [None],       # exactly 0.99, not satisfied
            [5000.0] * 991 + [None] * 9,  # 0.991, satisfied
            [5000.0] * 100,
            [10_000.0] * 100,             # on-budget boundary counts as good
            [10_000.5] * 100]
    for _ in range(300):
        n = rng.randint(1, 400)
        logs.append([rng.choice([4000.0, 9999.5, 10_000.0, 10_000.5, None])
                     for _ in range(n)])
    for log in logs:
        flags = [x is not None and x <= psdb for x in log]
        # the bar in exact integers: more than 99 % of the frames in budget
        assert ue_satisfied(flags) is (100 * sum(flags) > 99 * len(log))
    assert ue_satisfied([]) is None
    tables = [{4: 0.9}, {2: 1.0, 4: 0.89999}, {}, {1: 0.0}, {7: 0.9, 3: 0.2}]
    for _ in range(300):
        picks = rng.sample(range(1, 30), rng.randint(0, 8))
        tables.append({n: rng.random() for n in picks})
    for table in tables:
        brute = 0
        for n, ratio in table.items():
            if ratio >= 0.90:
                brute = max(brute, n)
        assert xr_capacity(table) == brute
    assert xr_capacity({4: 0.9}) == 4
    for _ in range(200):
        p_on = rng.uniform(0.5, 3.0)
        p = rng.uniform(0.0, p_on)
        assert power_saving_gain(p, p_on) == (1.0 - p / p_on) * 100.0
    print("criterion 10: PASS  ue_satisfied, xr_capacity, and "
          "power_saving_gain match brute-force recomputation exactly, "
          "boundaries included")


def test_criterion_11_determinism(tmp_path):
    def build(out):
        cfg = ExperimentConfig()
        cfg.set("scenario", "ues_per_cell", "2")
        cfg.set("run", "duration_s", "1.5")
        cfg.set("run", "warmup_s", "0.5")
        cfg.set("run", "seeds", "1,2")
        cfg.set("run", "out", str(out))
        return cfg

    import os
    report_a = run_experiment(build(tmp_path / "a"))
    report_b = run_experiment(build(tmp_path / "b"))
    names_a = sorted(os.listdir(tmp_path / "a"))
    assert names_a == sorted(os.listdir(tmp_path / "b"))
    for name in names_a:
        with open(tmp_path / "a" / name, "rb") as fa, \
                open(tmp_path / "b" / name, "rb") as fb:
            assert fa.read() == fb.read(), f"{name} differs between runs"
    assert report_a.satisfaction_by_load == report_b.satisfaction_by_load
    print(f"criterion 11: PASS  {len(names_a)} output files byte-identical "
          "across re-runs with the same config and seeds")
