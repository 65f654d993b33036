"""Experiment orchestration: config files, KPI aggregation, CSV emission."""

from __future__ import annotations

import configparser
import csv
import gzip
import io
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .cellsim import CellConfig, CellSim
from .drx import DrxConfig, check_adrx_cycle, power_saving_gain
from .reporting import TableKind
from .scheduling import CgConfig, PolicyKind, SchedulerPolicy
from .traffic import Direction, VideoStreamConfig

SATISFACTION_BAR = 0.99  # strictly more than 99% of frames in budget
CAPACITY_BAR = 0.90  # at least 90% of UEs satisfied
RB_CDF_STRIDE = 10


def ue_satisfied(frame_outcomes, psdb_us) -> Optional[bool]:
    """Per-UE satisfaction flag from a per-frame latency log.

    Each outcome is the frame's delivery latency in µs, or None if it never
    completed. Zero observed frames leaves the flag undefined; the UE is
    excluded from ratios and a warning is raised.
    """
    outcomes = list(frame_outcomes)
    if not outcomes:
        warnings.warn("UE with zero observed frames excluded from satisfaction")
        return None
    good = sum(1 for lat in outcomes if lat is not None and lat <= psdb_us)
    return good / len(outcomes) > SATISFACTION_BAR


def xr_capacity(satisfaction_by_load: dict) -> int:
    """Largest load with at least 90% of UEs satisfied; 0 if none qualifies."""
    best = 0
    for n in sorted(satisfaction_by_load):
        if satisfaction_by_load[n] >= CAPACITY_BAR:
            best = max(best, n)
    return best


def parse_loads(text: str) -> list:
    """Load range syntax: "4", "1-8", or "2,4,6"."""
    text = text.strip()
    loads = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            loads.extend(range(int(lo), int(hi) + 1))
        else:
            loads.append(int(part))
    if not loads or any(n < 1 for n in loads):
        raise ValueError(f"invalid load range: {text!r}")
    if len(set(loads)) < len(loads):
        raise ValueError(f"a load is repeated in {text!r}")
    return loads


def parse_seeds(text: str) -> list:
    seeds = [int(s) for s in text.split(",") if s.strip()]
    if not seeds:
        raise ValueError(f"invalid seed list: {text!r}")
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must be non-negative and distinct, got "
                         f"{text!r}")
    return seeds


def _to_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# section -> key -> (parser, default). The schema is the documentation of
# record for config files; anything outside it is rejected.
SCHEMA = {
    "scenario": {
        "cells": (int, "1"),
        "ues_per_cell": (parse_loads, "1"),
        "embb_ues": (int, "0"),
        "embb_full_buffer": (_to_bool, "false"),
        "direction": (str, "dl"),
    },
    "traffic": {
        "rate_mbps": (float, "30.0"),
        "fps": (Fraction, "60"),
        "psdb_ms": (float, "10.0"),
        "sets_per_frame": (int, "1"),
    },
    "scheduler": {
        "policy": (str, "pf"),
    },
    "reporting": {
        "bsr_table": (str, "long"),
        "dsr_enabled": (_to_bool, "false"),
        "dsr_threshold_ms": (float, "10.0"),
    },
    "drx": {
        "mode": (str, "off"),
        "cycle_ms": (Fraction, "50/3"),
        "on_ms": (Fraction, "8.0"),
        "inactivity_ms": (Fraction, "8.0"),
        "offset_mode": (str, "traffic"),
    },
    "qos": {
        "psihi": (_to_bool, "true"),
        "psi_discard": (_to_bool, "false"),
        "discard_timer": (str, "psdb"),
    },
    "cg": {
        "enabled": (_to_bool, "false"),
        "period_ms": (Fraction, "4"),
        "occasions": (int, "1"),
        "rb": (int, "50"),
        "window": (int, "4"),
    },
    "run": {
        "duration_s": (float, "10.0"),
        "warmup_s": (float, "1.0"),
        "seeds": (parse_seeds, "1,2,3,4,5"),
        "out": (str, "out"),
    },
}

_CHOICES = {
    ("scenario", "direction"): ("dl", "ul"),
    ("scheduler", "policy"): ("pf", "mlwdf", "pduset"),
    ("reporting", "bsr_table"): ("short", "long", "refined_long"),
    ("drx", "mode"): ("off", "fixed", "adaptive"),
    ("drx", "offset_mode"): ("traffic", "common"),
}

# the sign each key's value must have: a zero rate makes every frame size
# draw retry forever, a zero frame rate has no frame period, each other zero
# fails mid-sweep, a negative eMBB count takes XR UEs from the load, a
# negative warm-up spreads the delivered bits over more time than was
# simulated, and a DSR threshold is a time left before a deadline
_SIGN = dict.fromkeys([("traffic", "rate_mbps"), ("traffic", "fps"),
                       ("traffic", "psdb_ms"), ("traffic", "sets_per_frame"),
                       ("scenario", "cells"), ("cg", "rb"), ("cg", "window")],
                      "positive")
_SIGN.update(dict.fromkeys([("scenario", "embb_ues"), ("run", "warmup_s"),
                            ("reporting", "dsr_threshold_ms")],
                           "non-negative"))


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        for section, keys in SCHEMA.items():
            for key, (parse, default) in keys.items():
                self.values.setdefault((section, key), parse(default))
        for sk, allowed in _CHOICES.items():
            if self.values[sk] not in allowed:
                raise ValueError(
                    f"key '{sk[1]}' in section [{sk[0]}] must be one of "
                    f"{'|'.join(allowed)}, got {self.values[sk]!r}")

    def __getitem__(self, sk):
        return self.values[sk]

    def set(self, section, key, text):
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ValueError(f"unknown key '{key}' in section [{section}]")
        parse = SCHEMA[section][key][0]
        try:
            self.values[(section, key)] = parse(text)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(
                f"bad value for key '{key}' in section [{section}]: {e}")
        sign, value = _SIGN.get((section, key)), self.values[(section, key)]
        if sign and not (value > 0 if sign == "positive" else value >= 0):
            raise ValueError(
                f"key '{key}' in section [{section}] must be {sign}, "
                f"got {text!r}")
        if (section, key) in _CHOICES \
                and self.values[(section, key)] not in _CHOICES[(section, key)]:
            raise ValueError(
                f"key '{key}' in section [{section}] must be one of "
                f"{'|'.join(_CHOICES[(section, key)])}, got {text!r}")

    @classmethod
    def from_ini(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        with open(path) as f:
            parser.read_file(f)
        cfg = cls()
        for section in parser.sections():
            if section not in SCHEMA:
                raise ValueError(f"unknown section [{section}] in {path}")
            for key, text in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ValueError(
                        f"unknown key '{key}' in section [{section}] of {path}")
                cfg.set(section, key, text)
        return cfg

    @property
    def loads(self) -> list:
        return self[("scenario", "ues_per_cell")]

    @property
    def seeds(self) -> list:
        return self[("run", "seeds")]

    @property
    def out_dir(self) -> str:
        return self[("run", "out")]

    def _drx_config(self) -> Optional[DrxConfig]:
        if self[("drx", "mode")] == "off":
            return None
        ms = 1000
        try:
            drx = DrxConfig(
                cycle_us=self[("drx", "cycle_ms")] * ms,
                on_duration_us=self[("drx", "on_ms")] * ms,
                inactivity_us=self[("drx", "inactivity_ms")] * ms)
        except ValueError as e:
            raise ValueError(f"{e} (keys 'cycle_ms', 'on_ms' and "
                             f"'inactivity_ms' in section [drx])")
        if self[("drx", "mode")] == "adaptive":
            try:
                check_adrx_cycle(drx.cycle_us)
            except ValueError as e:
                raise ValueError(
                    f"keys 'cycle_ms' and 'mode' in section [drx]: {e}")
        return drx

    def cell_config(self, load: int, drx_override=...) -> CellConfig:
        """CellConfig for one load point; drx_override=None forces always-on."""
        timer = self[("qos", "discard_timer")]
        if timer == "off":
            timer = None
        elif timer != "psdb":
            timer = float(timer)
        cg = None
        if self[("cg", "enabled")]:
            try:
                cg = CgConfig(
                    periodicity_us=self[("cg", "period_ms")] * 1000,
                    occasions_per_period=self[("cg", "occasions")],
                    rb_per_occasion=self[("cg", "rb")],
                    uto_uci_window=self[("cg", "window")])
            except ValueError as e:
                raise ValueError(f"{e} (keys 'period_ms' and 'occasions' "
                                 f"in section [cg])")
        drx = self._drx_config() if drx_override is ... else drx_override
        rate_bps = self[("traffic", "rate_mbps")] * 1e6
        fps = self[("traffic", "fps")]
        # the rate and the frame rate together must leave a frame size to
        # draw; checked here, once both keys hold their final values
        try:
            VideoStreamConfig(avg_rate_bps=rate_bps, fps=fps)
        except ValueError as e:
            raise ValueError(
                f"keys 'rate_mbps' and 'fps' in section [traffic]: {e}")
        # the cell holds the budget in whole µs: one that rounds to none
        # puts each set's deadline on its arrival
        psdb_ms = self[("traffic", "psdb_ms")]
        if round(psdb_ms * 1000) <= 0:
            raise ValueError(
                f"key 'psdb_ms' in section [traffic] must round to at least "
                f"1 us, got {psdb_ms!r} ms")
        if not self[("run", "duration_s")] > self[("run", "warmup_s")]:
            raise ValueError("keys 'duration_s' and 'warmup_s' in section "
                             "[run]: the run must last beyond its warm-up")
        return CellConfig(
            ues_per_cell=load,
            n_cells=self[("scenario", "cells")],
            direction=Direction(self[("scenario", "direction")]),
            rate_bps=rate_bps,
            fps=fps,
            psdb_ms=psdb_ms,
            sets_per_frame=self[("traffic", "sets_per_frame")],
            policy=SchedulerPolicy(kind=PolicyKind(self[("scheduler", "policy")])),
            duration_s=self[("run", "duration_s")],
            warmup_s=self[("run", "warmup_s")],
            embb_ues=self[("scenario", "embb_ues")],
            embb_full_buffer=self[("scenario", "embb_full_buffer")],
            drx=drx,
            drx_offset_mode=self[("drx", "offset_mode")],
            adaptive_drx=(drx is not None
                          and self[("drx", "mode")] == "adaptive"),
            bsr_table=TableKind(self[("reporting", "bsr_table")]),
            dsr_enabled=self[("reporting", "dsr_enabled")],
            dsr_threshold_ms=self[("reporting", "dsr_threshold_ms")],
            psihi=self[("qos", "psihi")],
            psi_discard_enabled=self[("qos", "psi_discard")],
            discard_timer_ms=timer,
            pose_cg=cg)


@dataclass
class KpiReport:
    per_ue: list  # (load, seed, ue_id, frames_total, frames_in_budget,
    #                satisfied, tput_mbps, avg_power, mean_padding)
    satisfaction_by_load: dict
    capacity: int
    gain_by_load: dict
    cdfs: dict

    def __post_init__(self):
        for n, r in self.satisfaction_by_load.items():
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"satisfaction ratio out of range at {n}")
        if self.capacity != xr_capacity(self.satisfaction_by_load):
            raise ValueError("capacity inconsistent with satisfaction table")


def cdf_points(samples) -> list:
    """Sorted (value, cumulative fraction) pairs, one per distinct value."""
    xs = sorted(samples)
    n = len(xs)
    out = []
    for i, v in enumerate(xs):
        if i + 1 == n or xs[i + 1] != v:
            out.append((v, (i + 1) / n))
    return out


def emit_cdf(points, name, out_dir) -> str:
    """Write cdf_points' (value, cumulative fraction) pairs as a CSV."""
    path = os.path.join(out_dir, f"cdf_{name}.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["value", "cum_fraction"])
        w.writerows(points)
    return path


def run_experiment(config: ExperimentConfig) -> KpiReport:
    """Sweep loads x seeds, pool UEs across seeds, write the CSV outputs."""
    os.makedirs(config.out_dir, exist_ok=True)
    per_ue = []
    events = []
    padding = []
    tputs = []
    rb_samples = []
    power = {}  # (load, "on"|"drx") -> [avg powers]
    drx_on = config[("drx", "mode")] != "off"
    span_s = config[("run", "duration_s")] - config[("run", "warmup_s")]
    psdb_us = config[("traffic", "psdb_ms")] * 1000
    for load in config.loads:
        for seed in config.seeds:
            result = CellSim(config.cell_config(load), seed=seed).run()
            for kpi in result.xr_ues():
                sat = None
                if not kpi.outcomes:
                    warnings.warn(
                        f"UE {kpi.ue_id} (load {load}, seed {seed}) saw zero "
                        "frames; excluded from satisfaction")
                else:
                    # a frame in budget counts as delivered with no delay,
                    # any other as never completed
                    sat = ue_satisfied([0 if ok else None
                                        for _, ok in kpi.outcomes], psdb_us)
                tput = kpi.delivered_bits / span_s / 1e6
                pad = (sum(kpi.padding_samples) / len(kpi.padding_samples)
                       if kpi.padding_samples else 0.0)
                per_ue.append((load, seed, kpi.ue_id, kpi.frames_total,
                               kpi.frames_in_budget, sat, tput,
                               kpi.avg_power, pad))
                padding.extend(kpi.padding_samples)
                tputs.append(tput)
                power.setdefault((load, "drx" if drx_on else "on"),
                                 []).append(kpi.avg_power)
            rb_samples.extend(result.rb_utilization[::RB_CDF_STRIDE])
            for kpi in result.xr_ues():
                for arrival, ok in kpi.outcomes:
                    events.append((load, seed, kpi.ue_id, arrival, int(ok)))
            if drx_on:
                base = CellSim(config.cell_config(load, drx_override=None),
                               seed=seed).run()
                power.setdefault((load, "on"), []).extend(
                    k.avg_power for k in base.xr_ues())

    satisfaction = {}
    for load in config.loads:
        flags = [row[5] for row in per_ue if row[0] == load and row[5] is not None]
        satisfaction[load] = (sum(flags) / len(flags)) if flags else 0.0
    gains = {}
    if drx_on:
        for load in config.loads:
            p = power[(load, "drx")]
            p_on = power[(load, "on")]
            gains[load] = power_saving_gain(sum(p) / len(p),
                                            sum(p_on) / len(p_on))
    cdfs = {"padding_bytes": cdf_points(padding),
            "ue_throughput_mbps": cdf_points(tputs),
            "rb_utilization": cdf_points(rb_samples)}
    report = KpiReport(per_ue=per_ue,
                       satisfaction_by_load=satisfaction,
                       capacity=xr_capacity(satisfaction),
                       gain_by_load=gains, cdfs=cdfs)
    _write_outputs(config, report, events)
    return report


def _write_outputs(config, report: KpiReport, events):
    out = config.out_dir
    with open(os.path.join(out, "kpi.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["load", "metric", "value"])
        for load in config.loads:
            rows = [r for r in report.per_ue if r[0] == load]
            sat_flags = [r[5] for r in rows if r[5] is not None]
            w.writerow([load, "ues", len(rows)])
            w.writerow([load, "satisfied_ues", sum(sat_flags)])
            w.writerow([load, "satisfaction_ratio",
                        report.satisfaction_by_load[load]])
            w.writerow([load, "mean_ue_throughput_mbps",
                        sum(r[6] for r in rows) / len(rows) if rows else 0.0])
            w.writerow([load, "mean_padding_bytes",
                        sum(r[8] for r in rows) / len(rows) if rows else 0.0])
            w.writerow([load, "mean_power",
                        sum(r[7] for r in rows) / len(rows) if rows else 0.0])
            if load in report.gain_by_load:
                w.writerow([load, "power_saving_gain_pct",
                            report.gain_by_load[load]])
        w.writerow(["", "xr_capacity", report.capacity])
    for name, points in report.cdfs.items():
        emit_cdf(points, name, out)
    # mtime pinned to zero so identical runs give identical bytes
    raw = io.BytesIO()
    with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        text = io.TextIOWrapper(gz, encoding="utf-8", newline="")
        w = csv.writer(text)
        w.writerow(["load", "seed", "ue_id", "arrival_us", "in_budget"])
        for row in sorted(events):
            w.writerow(row)
        text.flush()
        text.detach()
    with open(os.path.join(out, "events.csv.gz"), "wb") as f:
        f.write(raw.getvalue())
