import os

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
    # the default 2 ms CG period cannot hold one occasion's 5-slot train;
    # the cell config rejects it before any cell runs
    cfg = tmp_path / "exp.ini"
    cfg.write_text(GOOD_INI + "\n[cg]\nenabled = true\n")
    out = tmp_path / "res"
    rc = cli.main(["--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "simulate: period cannot fit the occasion train" in err
    assert not out.exists()


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
