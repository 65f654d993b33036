import os
import signal

import pytest

import xrsim.cli as cli
from xrsim.harness import KpiReport


GOOD_INI = """
[scenario]
ues_per_cell = 2

[run]
duration_s = 1.5
warmup_s = 0.5
seeds = 1
"""


def test_main_runs_and_reports(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(GOOD_INI)
    out = tmp_path / "res"
    rc = cli.main(["--config", str(cfg), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "xr capacity:" in captured
    assert os.path.exists(out / "kpi.csv")


def test_main_missing_config(tmp_path, capsys):
    rc = cli.main(["--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "simulate:" in capsys.readouterr().err


def test_main_bad_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[scheduler]\npolcy = pf\n")
    rc = cli.main(["--config", str(cfg)])
    assert rc == 2
    assert "polcy" in capsys.readouterr().err


def test_cg_config_the_cell_rejects_exits_two(tmp_path, capsys):
    # a 2 ms CG period cannot hold one occasion's 5-slot train; the cell
    # config rejects it before any cell runs
    cfg = tmp_path / "exp.ini"
    cfg.write_text(GOOD_INI + "\n[cg]\nenabled = true\nperiod_ms = 2\n")
    out = tmp_path / "res"
    rc = cli.main(["--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "simulate: period cannot fit the occasion train" in err
    assert not out.exists()


def test_cg_defaults_run(tmp_path, capsys):
    # the documented CG defaults (the 4 ms pose period) are a config that
    # runs
    cfg = tmp_path / "exp.ini"
    cfg.write_text(GOOD_INI + "\n[cg]\nenabled = true\n")
    out = tmp_path / "res"
    rc = cli.main(["--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert "xr capacity:" in capsys.readouterr().out
    assert os.path.exists(out / "kpi.csv")


def test_overrides_reach_config(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(GOOD_INI)
    seen = {}

    def fake_run(config):
        seen["config"] = config
        return KpiReport(per_ue=[], satisfaction_by_load={}, capacity=0,
                         gain_by_load={}, cdfs={})

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    rc = cli.main(["--config", str(cfg), "--seeds", "9", "--ues-per-cell",
                   "1-3", "--scheduler", "mlwdf", "--drx", "fixed",
                   "--duration", "4.0", "--out", str(tmp_path / "o")])
    assert rc == 0
    c = seen["config"]
    assert c.seeds == [9]
    assert c.loads == [1, 2, 3]
    assert c[("scheduler", "policy")] == "mlwdf"
    assert c[("drx", "mode")] == "fixed"
    assert c[("run", "duration_s")] == 4.0


def test_rejected_cli_choice(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(GOOD_INI)
    with pytest.raises(SystemExit):
        cli.main(["--config", str(cfg), "--scheduler", "edf"])
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("rate_mbps", "0"),
                                        ("rate_mbps", "-5"), ("fps", "0")])
def test_non_positive_rate_or_fps_exits_two(key, value, tmp_path, capsys):
    # a zero rate used to hang the frame-size draw, so one alarm bounds the
    # run; it raises in this thread and starts no thread or process
    def timed_out(signum, frame):
        raise TimeoutError(f"{key} = {value} did not return")

    cfg = tmp_path / "exp.ini"
    cfg.write_text(GOOD_INI + f"\n[traffic]\n{key} = {value}\n")
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    try:
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "res")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"key '{key}' in section [traffic] must be positive" in err


def _main_within_alarm(tmp_path, traffic):
    # a mean frame with no whole size within its bounds used to hang the
    # frame-size draw, so one alarm bounds the run; it raises in this
    # thread and starts no thread or process
    def timed_out(signum, frame):
        raise TimeoutError(f"{traffic!r} did not return")

    cfg = tmp_path / "exp.ini"
    cfg.write_text(GOOD_INI + f"\n[traffic]\n{traffic}\n")
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(20)
    try:
        return cli.main(["--config", str(cfg), "--out", str(tmp_path / "res")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("traffic", [
    "rate_mbps = 0.0001",  # 0.21 B at 60 fps
    "rate_mbps = 0.0005\nfps = 120",  # 0.52 B
    "fps = 120\nrate_mbps = 0.0005",
    "rate_mbps = 0.0003"])  # 0.625 B: no whole size in (0.31, 0.94)
def test_frame_size_out_of_reach_exits_two(traffic, tmp_path, capsys):
    assert _main_within_alarm(tmp_path, traffic) == 2
    err = capsys.readouterr().err
    assert "keys 'rate_mbps' and 'fps' in section [traffic]" in err
    assert "leaves no whole frame size" in err


@pytest.mark.parametrize("traffic", [
    # checked against the final fps, not the default 60 met on the way
    "rate_mbps = 0.0003\nfps = 10",  # 3.75 B
    "rate_mbps = 0.00034"])  # 0.71 B: a frame of 1 byte lies in the bounds
def test_small_mean_frame_with_a_whole_size_runs(traffic, tmp_path, capsys):
    assert _main_within_alarm(tmp_path, traffic) == 0
    assert "xr capacity:" in capsys.readouterr().out


def _ini(sections):
    """GOOD_INI's keys, each section updated by the given ones."""
    merged = {"scenario": {"ues_per_cell": "2"},
              "run": {"duration_s": "1.5", "warmup_s": "0.5", "seeds": "1"}}
    for section, keys in sections.items():
        merged.setdefault(section, {}).update(keys)
    return "".join(f"[{section}]\n"
                   + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for section, keys in merged.items())


@pytest.mark.parametrize("sections, key", [
    ({"traffic": {"sets_per_frame": "0"}}, "sets_per_frame"),
    ({"traffic": {"psdb_ms": "0"}}, "psdb_ms"),
    ({"scenario": {"cells": "0"}}, "cells"),
    ({"cg": {"enabled": "true", "window": "0"}}, "window"),
    ({"cg": {"enabled": "true", "rb": "0"}}, "rb"),
    ({"run": {"duration_s": "0.5"}}, "duration_s"),  # equal to warmup_s
    ({"run": {"duration_s": "0"}}, "duration_s"),
    ({"scenario": {"embb_ues": "-1"}}, "embb_ues"),
    ({"traffic": {"psdb_ms": "0.0001"}}, "psdb_ms"),  # rounds to 0 us
    ({"run": {"warmup_s": "-1"}}, "warmup_s"),
    ({"reporting": {"dsr_threshold_ms": "-1"}}, "dsr_threshold_ms"),
], ids=["sets_per_frame=0", "psdb_ms=0", "cells=0", "cg.window=0", "cg.rb=0",
        "duration_s=warmup_s", "duration_s=0", "embb_ues=-1",
        "psdb_ms=0.0001", "warmup_s=-1", "dsr_threshold_ms=-1"])
def test_config_out_of_domain_exits_two(sections, key, tmp_path, capsys):
    # each of these used to raise mid-sweep, or ran to a wrong report: a
    # negative eMBB count simulated fewer XR UEs than the load it reported,
    # a negative warm-up under-reported throughput
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_ini(sections))
    out = tmp_path / "res"
    rc = cli.main(["--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sections", [
    {"run": {"warmup_s": "0"}},
    {"scenario": {"direction": "ul"},
     "reporting": {"dsr_enabled": "true", "dsr_threshold_ms": "0"}},
    {"traffic": {"psdb_ms": "0.0006"}},  # rounds to 1 us
], ids=["warmup_s=0", "dsr_threshold_ms=0", "psdb_ms=0.0006"])
def test_config_at_the_domain_edge_runs(sections, tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_ini(sections))
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "res")])
    assert rc == 0
    assert "xr capacity:" in capsys.readouterr().out
