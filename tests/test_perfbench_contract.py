"""The names the benchmark hooks and patches still exist with their shapes.

``perfbench/tracer.py`` wraps xrsim's functions from the outside and
``perfbench/op.py`` patches a few of them; a renamed function or a changed
call or return shape silently drops per-layer metrics or breaks the op's
output. This test installs the benchmark's own tracer (loaded from its
file, unchanged) around three short cells that reach every hooked layer.
"""

import importlib.util
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

import xrsim.cellsim
from xrsim.cellsim import CellConfig, CellSim
from xrsim.drx import DrxConfig
from xrsim.harness import ExperimentConfig
from xrsim.scheduling import CgConfig, PolicyKind, SchedulerPolicy
from xrsim.traffic import MTU_BYTES, Direction

ROOT = Path(__file__).resolve().parents[1]

# hooks that the three cells below must reach, so their metrics are not zeros
# left by a hook whose target is no longer called
CALLED = ("cellsim.init", "cellsim.run", "cellsim.slot", "traffic.next_frame",
          "traffic.fragment_frame", "qos.enqueue_set", "qos.take",
          "qos.discard_expired", "scheduling.allocate_dl",
          "scheduling.allocate_ul", "scheduling.pf_update",
          "scheduling.cg_occasions", "scheduling.build_uto_uci",
          "radio.harq_attempt", "radio.select_mcs", "reporting.quantize_bsr",
          "reporting.trigger_dsr", "drx.step", "drx.adrx_update",
          "drx.power_for_run")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _cells():
    short = dict(duration_s=0.5, warmup_s=0.1)
    dl = CellConfig(
        ues_per_cell=2, rate_bps=30e6, embb_ues=1,
        drx=DrxConfig(cycle_us=Fraction(50_000, 3),
                      on_duration_us=Fraction(8000),
                      inactivity_us=Fraction(2000)),
        adaptive_drx=True, adrx_epoch_frames=8,
        policy=SchedulerPolicy(kind=PolicyKind.PDUSET), **short)
    ul = CellConfig(
        ues_per_cell=3, direction=Direction.UL, rate_bps=10e6, psdb_ms=30.0,
        dsr_enabled=True, dsr_threshold_ms=25.0,
        pose_cg=CgConfig(periodicity_us=Fraction(4000),
                         occasions_per_period=1, rb_per_occasion=50,
                         uto_uci_window=4), **short)
    # the PF metric reads every XR UE's average, so its grants update them;
    # the cells above read no average
    pf = CellConfig(ues_per_cell=2, rate_bps=30e6,
                    policy=SchedulerPolicy(kind=PolicyKind.PF), **short)
    return [(dl, 1), (ul, 2), (pf, 3)]


def _current(owner, cls, attr):
    return vars(owner).get(attr) if cls is not None else getattr(owner, attr)


def test_tracer_hooks_every_benchmark_metric():
    tracer_mod = _load_tracer()
    originals = {}
    for name, (module, cls, attr, _) in tracer_mod.HOOKS.items():
        owner = tracer_mod.Tracer._owner(module, cls)
        originals[name] = (owner, cls, attr, _current(owner, cls, attr))

    # the sets every frame was cut into, seen under the tracer's hook
    fragment_frame = xrsim.cellsim.fragment_frame
    built = []

    def recording(*args, **kwargs):
        sets = fragment_frame(*args, **kwargs)
        built.extend(sets)
        return sets

    xrsim.cellsim.fragment_frame = recording
    try:
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            # an observer that cannot read a call's arguments or result
            # raises out of the wrapped call, so every run completing means
            # none did
            for cfg, seed in _cells():
                CellSim(cfg, seed=seed).run()
        finally:
            tracer.uninstall()
    finally:
        xrsim.cellsim.fragment_frame = fragment_frame

    metrics = tracer.metrics()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in bench["per_layer"]
              if not m["name"].startswith("trace.")
              and m["name"] != "harness.output_bytes"]
    assert [n for n in wanted if n not in metrics] == []
    assert [n for n in CALLED if metrics[f"{n}.calls"] == 0] == []
    assert metrics["traffic.pdus"] > 0
    # the PDU count is the frames' PDU ends, one per started MTU of a set
    assert metrics["traffic.pdus"] == sum(len(s.ends) for s in built)
    assert metrics["traffic.pdus"] == sum(-(-s.total_bytes // MTU_BYTES)
                                          for s in built)
    assert metrics["scheduling.allocate_dl.cands_per_call"] > 0

    for name, (owner, cls, attr, fn) in originals.items():
        assert _current(owner, cls, attr) is fn, name


def test_op_patch_targets():
    # op.py patches these in the class's own namespace and wraps
    # CellSim.run with a one-argument function
    assert "cell_config" in vars(ExperimentConfig)
    assert "__init__" in vars(CellSim)
    assert "run" in vars(CellSim)
    assert list(inspect.signature(CellSim.run).parameters) == ["self"]


@pytest.mark.parametrize("name", ["run_experiment", "main"])
def test_cli_names(name):
    import xrsim.cli
    assert inspect.isfunction(getattr(xrsim.cli, name))
