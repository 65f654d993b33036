"""Per-layer tracer that wraps xrsim's public functions from the outside.

Each hook replaces one name where the simulator looks it up: a method on
its class, or a function in the namespace of the module that calls it
(cellsim binds its collaborators with ``from ... import``, so those are
patched in ``xrsim.cellsim``). Spans nest on one stack, so a span's self
time is its duration minus the durations of the spans it encloses, and the
self times of all spans add up to the time spent under the outermost spans.
Nothing inside ``src/`` is changed; ``uninstall`` restores every original.

A hook whose module, class or function no longer exists is skipped and its
metrics are absent from the result.
"""

from __future__ import annotations

import importlib
import inspect
import time


def _items_events(args, result):
    return False, getattr(result, "events_processed", None)


def _items_pdus(args, result):
    return False, sum(len(s.pdus) for s in result)


def _discarded(args, result):
    return bool(result), len(result)


def _candidates(args, result):
    return False, len(args[1])


def _nack(args, result):
    return not result, 0


def _fired(args, result):
    return result is not None, 0


def _asleep(args, result):
    return not result[1], 0


# span name -> (module, class or None, attribute, observe). observe(args,
# result) returns (hit, items): hits count calls with a useful or notable
# outcome, items sum a per-call count; derived metrics read both below.
HOOKS = {
    "engine.run_until": ("xrsim.engine", "Engine", "run_until", _items_events),
    "cellsim.init": ("xrsim.cellsim", "CellSim", "__init__", None),
    "cellsim.run": ("xrsim.cellsim", "CellSim", "run", None),
    "cellsim.slot": ("xrsim.cellsim", "CellSim", "_on_slot", None),
    "traffic.next_frame": ("xrsim.traffic", "VideoSource", "next_frame", None),
    "traffic.fragment_frame": ("xrsim.cellsim", None, "fragment_frame",
                               _items_pdus),
    "qos.enqueue_set": ("xrsim.qos", "FlowQueue", "enqueue_set", None),
    "qos.take": ("xrsim.qos", "FlowQueue", "take", None),
    "qos.discard_expired": ("xrsim.qos", "FlowQueue", "discard_expired",
                            _discarded),
    "scheduling.allocate_dl": ("xrsim.cellsim", None, "allocate_dl",
                               _candidates),
    "scheduling.allocate_ul": ("xrsim.cellsim", None, "allocate_ul", None),
    "scheduling.pf_update": ("xrsim.cellsim", None, "pf_update", None),
    "scheduling.cg_occasions": ("xrsim.cellsim", None, "cg_occasions", None),
    "scheduling.build_uto_uci": ("xrsim.cellsim", None, "build_uto_uci", None),
    "scheduling.reclaim_unused": ("xrsim.cellsim", None, "reclaim_unused",
                                  None),
    "radio.harq_attempt": ("xrsim.cellsim", None, "harq_attempt", _nack),
    "radio.select_mcs": ("xrsim.cellsim", None, "select_mcs", None),
    "reporting.quantize_bsr": ("xrsim.cellsim", None, "quantize_bsr", None),
    "reporting.trigger_dsr": ("xrsim.cellsim", None, "trigger_dsr", _fired),
    "drx.step": ("xrsim.drx", "DrxMachine", "step", _asleep),
    "drx.adrx_update": ("xrsim.drx", "AdrxController", "update", None),
    "drx.power_for_run": ("xrsim.cellsim", None, "power_for_run", None),
    "harness.run_experiment": ("xrsim.cli", None, "run_experiment", None),
    "cli.main": ("xrsim.cli", None, "main", None),
}

CG_SPANS = ("scheduling.cg_occasions", "scheduling.build_uto_uci",
            "scheduling.reclaim_unused")


def _ratio(num, den):
    return num / den if den else 0.0


# derived metric -> (span it reads, value from that span's Stat)
DERIVED = {
    "engine.events": ("engine.run_until", lambda s: s.items),
    "traffic.pdus": ("traffic.fragment_frame", lambda s: s.items),
    "qos.discard_expired.hit_ratio": ("qos.discard_expired",
                                      lambda s: _ratio(s.hits, s.calls)),
    "qos.discarded_pdus": ("qos.discard_expired", lambda s: s.items),
    "scheduling.allocate_dl.cands_per_call": (
        "scheduling.allocate_dl", lambda s: _ratio(s.items, s.calls)),
    "radio.harq_attempt.nack_ratio": ("radio.harq_attempt",
                                      lambda s: _ratio(s.hits, s.calls)),
    "reporting.trigger_dsr.fire_ratio": ("reporting.trigger_dsr",
                                         lambda s: _ratio(s.hits, s.calls)),
    "drx.step.sleep_ratio": ("drx.step", lambda s: _ratio(s.hits, s.calls)),
    "harness.self_s": ("harness.run_experiment", lambda s: s.self_s),
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "hits", "items")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.items = 0  # None once the result stops carrying the count


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.root_s = 0.0  # time under outermost spans
        self._stack: list[float] = []  # child time of each open span
        self._saved: list[tuple] = []  # (owner, attribute, original)

    def install(self):
        for name, (module, cls, attr, observe) in HOOKS.items():
            owner = self._owner(module, cls)
            fn = None
            if owner is not None:
                fn = (vars(owner).get(attr) if cls is not None
                      else getattr(owner, attr, None))
            if not inspect.isfunction(fn):
                continue  # hook gone: its metrics are absent
            stat = self.stats[name] = Stat()
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(stat, fn, observe))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
            if getattr(owner, attr) is not fn:
                raise RuntimeError(f"could not restore {attr}")

    @staticmethod
    def _owner(module, cls):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return None
        return mod if cls is None else getattr(mod, cls, None)

    def _wrap(self, stat, fn, observe):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    self.root_s += dur
            if observe is not None:
                hit, items = observe(args, result)
                stat.hits += hit
                if items is None or stat.items is None:
                    stat.items = None
                else:
                    stat.items += items
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        """Per-span and derived metrics; absent hooks give absent keys."""
        out = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.total_s"] = s.total_s
            out[f"{name}.self_s"] = s.self_s
        for metric, (span, value) in DERIVED.items():
            s = self.stats.get(span)
            if s is not None and value(s) is not None:
                out[metric] = value(s)
        cg = [self.stats[n].self_s for n in CG_SPANS if n in self.stats]
        if cg:
            out["scheduling.cg.self_s"] = sum(cg)
        return out
