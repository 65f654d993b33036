import csv
import gzip
import os
import random
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from xrsim.cellsim import CellConfig, CellSim
from xrsim.drx import DrxConfig
from xrsim.engine import UPLINK, slot_type
from xrsim.harness import (ExperimentConfig, KpiReport, _write_outputs,
                           aggregate, cdf_points, emit_cdf, parse_loads,
                           parse_seeds, run_experiment, run_pair, ue_satisfied,
                           xr_capacity)
from xrsim.reporting import TableKind
from xrsim.scheduling import CgConfig, PolicyKind
from xrsim.traffic import Direction


# ---- satisfaction and capacity ----

def test_ue_satisfied_all_in_budget():
    assert ue_satisfied([True] * 100) is True


def test_ue_satisfied_strict_bar():
    # 99/100 is exactly 0.99, and the bar is strictly above
    assert ue_satisfied([True] * 99 + [False]) is False
    assert ue_satisfied([True] * 991 + [False] * 9) is True


def test_ue_satisfied_counts_late_and_lost():
    # the cell flags a late and a lost frame alike: not in budget
    # (tests/test_cellsim.py pins where the cell draws that line)
    assert ue_satisfied([True, True, False, False]) is False
    assert ue_satisfied(iter([True] * 200)) is True


def test_ue_satisfied_zero_frames_excluded():
    # no flag and no warning: run_pair names the UE, its load and seed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ue_satisfied([]) is None


def test_synthetic_three_ue_log():
    # hand-built log: one clean UE, one exactly at the bar, one clearly failing
    psdb = 10_000.0
    ue_a = [4000.0] * 100
    ue_b = [4000.0] * 99 + [12_000.0]
    ue_c = [4000.0] * 95 + [None] * 5
    flags = [ue_satisfied(x is not None and x <= psdb for x in u)
             for u in (ue_a, ue_b, ue_c)]
    assert flags == [True, False, False]
    ratio = sum(flags) / len(flags)
    assert ratio == pytest.approx(1 / 3)
    assert xr_capacity({3: ratio}) == 0


def test_xr_capacity_inclusive_bar():
    assert xr_capacity({2: 1.0, 4: 0.95, 6: 0.90, 8: 0.85}) == 6


def test_xr_capacity_none_qualify():
    assert xr_capacity({1: 0.5, 2: 0.0}) == 0
    assert xr_capacity({}) == 0


def test_xr_capacity_takes_largest():
    # a dip at a lower load does not disqualify a higher one
    assert xr_capacity({2: 0.8, 4: 0.95}) == 4


# ---- CDF emission ----

def test_cdf_points_collapses_duplicates():
    assert cdf_points(Counter([0, 0, 0, 5])) == [(0, 0.75), (5, 1.0)]


def test_cdf_points_single_sample():
    assert cdf_points(Counter([7.5])) == [(7.5, 1.0)]


def test_cdf_points_reaches_exactly_one():
    pts = cdf_points(Counter([3, 1, 2, 2, 9]))
    assert pts[-1][1] == 1.0
    assert [v for v, _ in pts] == [1, 2, 3, 9]


def test_emit_cdf_empty_header_only(tmp_path):
    path = emit_cdf([], "empty", str(tmp_path))
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows == [["value", "cum_fraction"]]


# ---- config parsing ----

def test_parse_loads_forms():
    assert parse_loads("4") == [4]
    assert parse_loads("1-4") == [1, 2, 3, 4]
    assert parse_loads("2,4,6") == [2, 4, 6]


def test_parse_loads_rejects_garbage():
    with pytest.raises(ValueError):
        parse_loads("0")
    with pytest.raises(ValueError):
        parse_loads("")


def test_parse_seeds():
    assert parse_seeds("1,2,3") == [1, 2, 3]
    with pytest.raises(ValueError):
        parse_seeds("")


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.loads == [1]
    assert cfg.seeds == [1, 2, 3, 4, 5]
    assert cfg[("drx", "mode")] == "off"
    assert cfg[("traffic", "fps")] == Fraction(60)


def test_schema_defaults_are_the_model_defaults():
    # each default is written twice, as SCHEMA text and as a dataclass
    # default; the two must build the same configs
    assert ExperimentConfig().cell_config(1) == CellConfig()
    cfg = ExperimentConfig()
    cfg.set("drx", "mode", "fixed")
    cfg.set("cg", "enabled", "true")
    cell = cfg.cell_config(1)
    # README's documented defaults: a 50/3 ms cycle, 8 ms on, 8 ms
    # inactivity; a 4 ms CG period, 1 occasion of 50 RBs, a window of 4
    assert cell.drx == DrxConfig(cycle_us=Fraction(50_000, 3),
                                 on_duration_us=8000, inactivity_us=8000)
    assert cell.pose_cg == CgConfig(Fraction(4000), occasions_per_period=1,
                                    rb_per_occasion=50, uto_uci_window=4)
    assert cell.adaptive_drx is False


def test_config_unknown_section(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[trafic]\nrate_mbps = 30\n")
    with pytest.raises(ValueError, match=r"\[trafic\]"):
        ExperimentConfig.from_ini(str(p))


def test_config_unknown_key_named(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[traffic]\nrate_mbs = 30\n")
    with pytest.raises(ValueError, match="rate_mbs"):
        ExperimentConfig.from_ini(str(p))


def test_config_bad_value_names_key(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[run]\nduration_s = fast\n")
    with pytest.raises(ValueError, match="duration_s"):
        ExperimentConfig.from_ini(str(p))


def test_config_choice_enforced():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError, match="policy"):
        cfg.set("scheduler", "policy", "edf")


def test_config_roundtrip(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("""
[scenario]
ues_per_cell = 2,4
direction = ul

[traffic]
rate_mbps = 10
psdb_ms = 30

[scheduler]
policy = mlwdf

[reporting]
bsr_table = refined_long

[drx]
mode = adaptive
cycle_ms = 50/3

[run]
seeds = 7
""")
    cfg = ExperimentConfig.from_ini(str(p))
    assert cfg.loads == [2, 4]
    assert cfg.seeds == [7]
    assert cfg[("drx", "cycle_ms")] == Fraction(50, 3)
    cell = cfg.cell_config(4)
    assert isinstance(cell, CellConfig)
    assert cell.ues_per_cell == 4
    assert cell.direction is Direction.UL
    assert cell.rate_bps == 10e6
    assert cell.policy.kind is PolicyKind.MLWDF
    assert cell.bsr_table is TableKind.REFINED_LONG
    assert cell.adaptive_drx is True
    assert cell.drx.cycle_us == Fraction(50_000, 3)


def test_config_discard_timer_forms():
    cfg = ExperimentConfig()
    assert cfg.cell_config(1).discard_timer_ms == "psdb"
    cfg.set("qos", "discard_timer", "off")
    assert cfg.cell_config(1).discard_timer_ms is None
    cfg.set("qos", "discard_timer", "12.5")
    assert cfg.cell_config(1).discard_timer_ms == 12.5


def test_config_drx_times_are_exact_decimals():
    # on_ms and inactivity_ms are read as fractions of their text, like
    # cycle_ms: 8.3333 ms is 8333.3 µs, not the binary float nearest it
    cfg = ExperimentConfig()
    cfg.set("drx", "mode", "fixed")
    cfg.set("drx", "on_ms", "8.3333")
    cfg.set("drx", "inactivity_ms", "2.5")
    drx = cfg.cell_config(1).drx
    assert drx.on_duration_us == Fraction(83_333, 10)
    assert drx.inactivity_us == Fraction(2500)
    # ticks of 1/30 µs: the 50/3 ms cycle and the 8333.3 µs on-duration
    assert CellSim(cfg.cell_config(1), seed=1).ticks_per_us == 30
    # whole values keep the times they had as floats
    cfg.set("drx", "on_ms", "8")
    cfg.set("drx", "inactivity_ms", "2")
    drx = cfg.cell_config(1).drx
    assert drx.on_duration_us == Fraction(8.0 * 1000) == 8000
    assert drx.inactivity_us == Fraction(2.0 * 1000) == 2000


def test_config_bad_drx_time_names_key():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError, match="key 'on_ms'"):
        cfg.set("drx", "on_ms", "nan")


def test_baseline_is_the_drop_run_with_drx_off():
    # the always-on baseline of a DRX pair is the same drop with mode = off
    cfg = ExperimentConfig()
    for key, value in [("ues_per_cell", "2"), ("cells", "2")]:
        cfg.set("scenario", key, value)
    cfg.set("run", "duration_s", "1.0")
    cfg.set("run", "warmup_s", "0.2")
    cfg.set("drx", "mode", "fixed")
    drx = run_pair(cfg, 2, 1)
    cfg.set("drx", "mode", "off")
    off = run_pair(cfg, 2, 1)
    assert off.base_power == []
    assert drx.base_power == [u.avg_power for u in off.ues]
    assert [u.avg_power for u in drx.ues] != drx.base_power


# ---- report validation ----

def test_kpi_report_checks_capacity():
    with pytest.raises(ValueError):
        KpiReport(satisfaction_by_load={4: 1.0}, capacity=0,
                  gain_by_load={}, cdfs={}, by_load={})


def test_kpi_report_checks_ratio_range():
    with pytest.raises(ValueError):
        KpiReport(satisfaction_by_load={4: 1.2}, capacity=4,
                  gain_by_load={}, cdfs={}, by_load={})


# ---- end to end ----

def _tiny_config(tmp_path, overrides=()) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.set("run", "duration_s", "1.5")
    cfg.set("run", "warmup_s", "0.5")
    cfg.set("run", "seeds", "1,2")
    cfg.set("run", "out", str(tmp_path / "out"))
    cfg.set("scenario", "ues_per_cell", "2")
    for section, key, text in overrides:
        cfg.set(section, key, text)
    return cfg


def test_run_experiment_pools_ues_across_seeds(tmp_path):
    cfg = _tiny_config(tmp_path)
    report = run_experiment(cfg)
    assert report.by_load[2].ues == 4  # 2 UEs x 2 seeds in one load bucket
    rows = [u for p in _pairs(cfg) for u in p.ues]
    flags = [r.satisfied for r in rows if r.satisfied is not None]
    assert report.satisfaction_by_load[2] == sum(flags) / len(flags)


def test_run_experiment_outputs(tmp_path):
    cfg = _tiny_config(tmp_path)
    report = run_experiment(cfg)
    out = cfg.out_dir
    names = sorted(os.listdir(out))
    assert names == ["cdf_padding_bytes.csv", "cdf_rb_utilization.csv",
                     "cdf_ue_throughput_mbps.csv", "events.csv.gz", "kpi.csv"]
    with open(os.path.join(out, "kpi.csv"), newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["load", "metric", "value"]
    assert rows[-1][1] == "xr_capacity"
    assert rows[-1][2] == str(report.capacity)
    with gzip.open(os.path.join(out, "events.csv.gz"), "rt") as f:
        ev = list(csv.reader(f))
    assert ev[0] == ["load", "seed", "ue_id", "arrival_us", "in_budget"]
    assert len(ev) > 1
    for name, points in report.cdfs.items():
        if points:
            assert points[-1][1] == 1.0
    assert report.cdfs["rb_utilization"]


def test_run_experiment_gain_only_with_drx(tmp_path):
    cfg = _tiny_config(tmp_path)
    assert run_experiment(cfg).gain_by_load == {}
    cfg2 = _tiny_config(tmp_path, [("drx", "mode", "fixed"),
                                   ("run", "out", str(tmp_path / "out2"))])
    report = run_experiment(cfg2)
    assert 0.0 < report.gain_by_load[2] < 100.0


def test_run_experiment_warns_of_a_ue_without_frames(tmp_path):
    # 5 ms past warm-up is shorter than the 10 ms delay budget, so no frame
    # of either UE is counted; each UE is named in a warning and none is
    # satisfied
    cfg = _tiny_config(tmp_path, [("run", "duration_s", "1.005"),
                                  ("run", "warmup_s", "1.0"),
                                  ("run", "seeds", "7")])
    with pytest.warns(UserWarning) as caught:
        report = run_experiment(cfg)
    messages = [str(w.message) for w in caught]
    for ue in (0, 1):
        assert any(f"UE {ue} " in m and "load 2" in m and "seed 7" in m
                   for m in messages)
    assert report.by_load[2].ues == 2
    with pytest.warns(UserWarning):
        assert [u.satisfied for u in run_pair(cfg, 2, 7).ues] == [None, None]
    with open(os.path.join(cfg.out_dir, "kpi.csv"), newline="") as f:
        rows = list(csv.reader(f))
    assert ["2", "satisfied_ues", "0"] in rows


# ---- the pair records behind the sweep ----

def _pairs(cfg):
    return [run_pair(cfg, load, seed)
            for load in cfg.loads for seed in cfg.seeds]


def test_run_pair_is_repeatable(tmp_path):
    cfg = _tiny_config(tmp_path, [("drx", "mode", "fixed")])
    first, again = run_pair(cfg, 2, 1), run_pair(cfg, 2, 1)
    assert first == again
    assert [u.ue_id for u in first.ues] == [0, 1]
    assert len(first.base_power) == 2


def test_aggregate_ignores_the_order_of_the_pairs(tmp_path):
    cfg = _tiny_config(tmp_path, [("scenario", "ues_per_cell", "3,1"),
                                  ("drx", "mode", "adaptive")])
    pairs = _pairs(cfg)
    report = aggregate(cfg, pairs)
    os.makedirs(cfg.out_dir)
    _write_outputs(cfg, report, pairs)
    written = {p.name: p.read_bytes() for p in Path(cfg.out_dir).iterdir()}
    shuffled = pairs[:]
    random.Random(3).shuffle(shuffled)
    for order in (pairs[::-1], shuffled):
        again = aggregate(cfg, order)
        assert again == report
        _write_outputs(cfg, again, order)
        assert {p.name: p.read_bytes()
                for p in Path(cfg.out_dir).iterdir()} == written
    # loads are reported in the config's order, not sorted
    assert list(report.by_load) == [3, 1]
    assert [k.ues for k in report.by_load.values()] == [6, 2]


def test_rb_cdf_counts_every_post_warm_up_slot(tmp_path):
    # a UL cell uses RBs on its UL slots, one slot in five; the RB CDF is
    # that of the pooled series of every post-warm-up slot
    cfg = _tiny_config(tmp_path, [("scenario", "direction", "ul"),
                                  ("traffic", "rate_mbps", "10"),
                                  ("traffic", "psdb_ms", "30")])
    report = aggregate(cfg, _pairs(cfg))
    first = 1000  # the first slot after the 0.5 s warm-up
    pooled, ul = [], []
    for seed in cfg.seeds:
        series = CellSim(cfg.cell_config(2), seed=seed).run().rb_utilization
        pooled += series
        ul += [x for i, x in enumerate(series)
               if slot_type(first + i) == UPLINK]
    assert report.cdfs["rb_utilization"] == cdf_points(Counter(pooled))
    values = {v for v, _ in report.cdfs["rb_utilization"]}
    assert set(ul) <= values and max(ul) > 0
