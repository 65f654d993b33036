"""The config contract: a model config checks its fields when it is built,
and every config file the CLI accepts runs to completion, while one it
rejects is named by key.

The property test calls ``cli.main`` in this process under one alarm per
example; it starts no thread or process.
"""

import contextlib
import io
import math
import signal
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xrsim.cli as cli
from xrsim.cellsim import CellConfig
from xrsim.drx import DrxConfig
from xrsim.qos import QosFlowProfile
from xrsim.scheduling import CgConfig


@pytest.mark.parametrize("build, field", [
    (lambda: CellConfig(n_cells=0), "n_cells"),
    (lambda: CellConfig(ues_per_cell=-2, embb_ues=3), "ues_per_cell"),
    (lambda: CellConfig(fps=0), "fps"),
    (lambda: CellConfig(warmup_s=10.0), "warmup_s"),  # the default duration
    (lambda: CellConfig(warmup_s=5.0, duration_s=0.3), "duration_s"),
    # the warm-up ends inside the last slot, so no slot starts after it
    (lambda: CellConfig(warmup_s=1.0012, duration_s=1.0013), "warmup_s"),
    (lambda: CellConfig(embb_ues=-1), "embb_ues"),
    (lambda: CellConfig(discard_timer_ms=-5.0), "discard_timer_ms"),
    (lambda: CellConfig(discard_timer_ms=math.nan), "discard_timer_ms"),
    (lambda: CellConfig(psdb_ms=0.0001), "psdb_ms"),  # rounds to 0 us
    (lambda: CellConfig(psdb_ms=math.inf), "psdb_ms"),
    (lambda: CellConfig(rate_bps=math.inf), "rate_bps"),
    (lambda: CellConfig(dsr_threshold_ms=-1.0), "dsr_threshold_ms"),
    (lambda: CgConfig(Fraction(4000), rb_per_occasion=0), "rb_per_occasion"),
    (lambda: CgConfig(Fraction(4000), uto_uci_window=0), "uto_uci_window"),
    (lambda: CellConfig(ues_per_cell=6, pose_cg=CgConfig(Fraction(4000))),
     "ues_per_cell, rb_per_occasion"),
    (lambda: CellConfig(sets_per_frame=2.5), "sets_per_frame"),
    (lambda: CellConfig(ues_per_cell=1.5), "ues_per_cell"),
    (lambda: CellConfig(n_cells=1.5), "n_cells"),
    (lambda: CellConfig(embb_ues=0.5), "embb_ues"),
    (lambda: CellConfig(drx_offset_mode="Traffic"), "drx_offset_mode"),
    (lambda: CellConfig(adrx_epoch_frames=0), "adrx_epoch_frames"),
    (lambda: CellConfig(adaptive_drx=True), "adaptive_drx"),
    (lambda: CellConfig(discard_timer_ms="off"), "discard_timer_ms"),
    (lambda: CellConfig(discard_timer_ms=True), "discard_timer_ms"),
    (lambda: QosFlowProfile(10.0, discard_timer_ms=0), "discard_timer_ms"),
    (lambda: QosFlowProfile(10.0, discard_timer_ms=-1.0), "discard_timer_ms"),
    (lambda: QosFlowProfile(10.0, discard_timer_ms=math.nan),
     "discard_timer_ms"),
    (lambda: QosFlowProfile(math.nan), "psdb_ms"),
    (lambda: QosFlowProfile(math.inf), "psdb_ms"),
    (lambda: QosFlowProfile("10"), "psdb_ms"),
    (lambda: CellConfig(adaptive_drx=True,
                        drx=DrxConfig(cycle_us=Fraction(1900),
                                      on_duration_us=Fraction(1500),
                                      inactivity_us=Fraction(1000))),
     "cycle_us"),
], ids=["n_cells=0", "ues_per_cell=-2", "fps=0", "warmup_s=duration_s",
        "warmup_s>duration_s", "warmup_s_in_the_last_slot", "embb_ues=-1", "discard_timer_ms=-5", "discard_timer_ms=nan",
        "psdb_ms=0.0001", "psdb_ms=inf", "rate_bps=inf", "dsr_threshold_ms=-1",
        "rb_per_occasion=0", "uto_uci_window=0", "cg_rb_over_273",
        "sets_per_frame=2.5", "ues_per_cell=1.5", "n_cells=1.5",
        "embb_ues=0.5", "drx_offset_mode=Traffic", "adrx_epoch_frames=0",
        "adaptive_drx_without_drx", "discard_timer_ms=off",
        "discard_timer_ms=True", "profile_timer=0", "profile_timer=-1",
        "profile_timer=nan", "profile_psdb=nan", "profile_psdb=inf",
        "profile_psdb=str", "adaptive_cycle=1.9ms"])
def test_out_of_domain_field_fails_when_the_config_is_built(build, field):
    # each of these used to build: a zero cell count or frame rate then
    # raised ZeroDivisionError, a negative load or eMBB count simulated
    # fewer UEs than asked, a run no longer than its warm-up returned no RB
    # samples, a negative timer discarded every frame, a budget of no whole
    # µs failed at the first frame, and a zero CG size or window failed
    # mid-run; six XR UEs, each with its own 50 RBs on every CG occasion,
    # would hold 300 of their slot's 273 RBs; a fractional set count failed
    # mid-run, a fractional UE or cell count was rounded up, an unknown DRX
    # offset mode ran the common grid, a zero ADRX epoch acted as one
    # frame, and adaptive DRX without DRX ran with no DRX; a timer given as
    # a string other than "psdb" raised TypeError, True ran a 1 ms timer,
    # a queue profile took a timer of 0, below 0 or NaN and a budget of NaN
    # or infinity and raised TypeError for a budget given as text, and an
    # adaptive cycle below the controller's grid failed when the cell was
    # built
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        build()


def test_per_ue_cg_occasions_may_fill_one_slot():
    # 3 x 91 RBs: the XR UEs' occasions take all 273 RBs of their slot
    CellConfig(ues_per_cell=3, pose_cg=CgConfig(Fraction(4000),
                                                rb_per_occasion=91))
    CellConfig(ues_per_cell=6)  # no CG holds no RBs


def test_a_rule_over_two_sections_names_each_key_in_its_own(tmp_path,
                                                            capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text("[scenario]\nues_per_cell = 6\n\n[cg]\nenabled = true\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(ini), "--out", str(out)]) == 2
    assert ("simulate: per-UE CG occasions must fit in 273 RBs (keys "
            "'ues_per_cell' in section [scenario] and 'rb' in section [cg])"
            in capsys.readouterr().err)
    assert not out.exists()


# ---- every config either runs or is rejected by key ----

# key -> strategy of in-domain texts, within the README's documented ranges
# and small enough that a run lasts well under a second
_IN_DOMAIN = {
    ("scenario", "cells"): st.sampled_from(["1", "2"]),
    ("scenario", "ues_per_cell"): st.sampled_from(["1", "2", "3", "1-2",
                                                   "1,3"]),
    ("scenario", "embb_ues"): st.sampled_from(["0", "1"]),
    ("scenario", "embb_full_buffer"): st.sampled_from(["true", "false"]),
    ("scenario", "direction"): st.sampled_from(["dl", "ul"]),
    ("traffic", "rate_mbps"): st.sampled_from(["2", "10", "30", "45.5"]),
    ("traffic", "fps"): st.sampled_from(["30", "60", "90", "60000/1001"]),
    ("traffic", "psdb_ms"): st.sampled_from(["5", "10", "30"]),
    ("traffic", "sets_per_frame"): st.sampled_from(["1", "2", "4"]),
    ("scheduler", "policy"): st.sampled_from(["pf", "mlwdf", "pduset"]),
    ("reporting", "bsr_table"): st.sampled_from(["short", "long",
                                                 "refined_long"]),
    ("reporting", "dsr_enabled"): st.sampled_from(["true", "false"]),
    ("reporting", "dsr_threshold_ms"): st.sampled_from(["0", "2.5", "10"]),
    ("drx", "mode"): st.sampled_from(["off", "fixed", "adaptive"]),
    ("drx", "cycle_ms"): st.sampled_from(["50/3", "10", "20"]),
    ("drx", "on_ms"): st.sampled_from(["2", "4.5", "8"]),
    ("drx", "inactivity_ms"): st.sampled_from(["0", "2", "8"]),
    ("drx", "offset_mode"): st.sampled_from(["traffic", "common"]),
    ("qos", "psihi"): st.sampled_from(["true", "false"]),
    ("qos", "psi_discard"): st.sampled_from(["true", "false"]),
    ("qos", "discard_timer"): st.sampled_from(["psdb", "off", "12.5"]),
    ("cg", "enabled"): st.sampled_from(["true", "false"]),
    ("cg", "period_ms"): st.sampled_from(["4", "50/3"]),
    ("cg", "occasions"): st.just("1"),
    ("cg", "rb"): st.sampled_from(["10", "50"]),
    ("cg", "window"): st.sampled_from(["1", "4"]),
    ("run", "duration_s"): st.sampled_from(["0.3", "0.4", "0.5"]),
    ("run", "warmup_s"): st.sampled_from(["0", "0.1", "0.2"]),
    ("run", "seeds"): st.sampled_from(["0", "1", "7"]),
}

# a value at a key's boundary or outside its domain
_EDGES = ["0", "-1", "inf", "nan", "", "garbage"]


@st.composite
def _configs(draw):
    """(sections, the out-of-domain key or None): each key set to an
    in-domain text, and at most one key then set to an edge value."""
    values = {sk: draw(texts) for sk, texts in _IN_DOMAIN.items()}
    bad = draw(st.none() | st.sampled_from(
        sorted(_IN_DOMAIN) + [("run", "out")]))
    if bad is not None:
        # any text but the empty one is a path the run would write to
        values[bad] = draw(st.sampled_from(
            [""] if bad == ("run", "out") else _EDGES))
    return values, bad


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_configs())
def test_every_config_runs_or_is_rejected_by_key(config):
    values, bad = config

    def timed_out(signum, frame):
        raise TimeoutError(f"{values!r} did not return")

    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "exp.ini"
        sections = {}
        for (section, key), text in values.items():
            sections.setdefault(section, []).append(f"{key} = {text}\n")
        ini.write_text("".join(f"[{s}]\n" + "".join(lines)
                               for s, lines in sections.items()))
        argv = ["--config", str(ini)]
        if bad != ("run", "out"):
            argv += ["--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(30)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    if bad is None:
        assert rc == 0, err.getvalue()
    else:
        assert rc == 0 or (rc == 2 and f"'{bad[1]}'" in err.getvalue()), \
            (rc, err.getvalue())
