"""Experiment orchestration: config files, KPI aggregation, CSV emission."""

from __future__ import annotations

import configparser
import csv
import gzip
import io
import math
import os
import warnings
from collections import Counter
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .cellsim import CellConfig, run_drop
from .drx import DrxConfig, power_saving_gain
from .engine import ConfigError
from .reporting import TableKind
from .scheduling import CgConfig, PolicyKind, SchedulerPolicy
from .traffic import Direction

SATISFACTION_BAR = 0.99  # strictly more than 99% of frames in budget
CAPACITY_BAR = 0.90  # at least 90% of UEs satisfied


def ue_satisfied(in_budget) -> Optional[bool]:
    """Per-UE satisfaction from the cell's per-frame in-budget flags; None
    for a UE with zero frames, which the satisfaction ratio excludes."""
    flags = list(in_budget)
    return sum(flags) / len(flags) > SATISFACTION_BAR if flags else None


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
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _finite(kind):
    """kind's parser, rejecting inf, nan and a rational beyond a float."""
    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {text!r}")
        return value
    return parse


_real, _rational = _finite(float), _finite(Fraction)


def _discard_timer(text: str):
    """"psdb", None for "off", or a time in ms."""
    return text if text == "psdb" else None if text == "off" else _real(text)


def _values(kind) -> tuple:
    return tuple(member.value for member in kind)


def _ms_to_us(ms):
    return ms * 1000


class _Key(NamedTuple):
    parse: Callable  # text -> the value the config holds
    default: str
    field: Optional[str] = None  # the model config field the key sets
    to_field: Callable = lambda value: value  # in the field's unit and type
    choices: tuple = ()


# section -> key -> row. The schema is the documentation of record for
# config files; anything outside it is rejected. A parser checks a value's
# syntax, and the model config that a field belongs to checks its domain
# when cell_config builds it.
SCHEMA = {
    "scenario": {
        "cells": _Key(int, "1", "n_cells"),
        "ues_per_cell": _Key(parse_loads, "1", "ues_per_cell"),
        "embb_ues": _Key(int, "0", "embb_ues"),
        "embb_full_buffer": _Key(_to_bool, "false", "embb_full_buffer"),
        "direction": _Key(str, "dl", "direction", Direction,
                          _values(Direction)),
    },
    "traffic": {
        "rate_mbps": _Key(_real, "30.0", "rate_bps", lambda mbps: mbps * 1e6),
        "fps": _Key(_rational, "60", "fps"),
        "psdb_ms": _Key(_real, "10.0", "psdb_ms"),
        "sets_per_frame": _Key(int, "1", "sets_per_frame"),
    },
    "scheduler": {
        "policy": _Key(str, "pf", "policy",
                       lambda kind: SchedulerPolicy(kind=PolicyKind(kind)),
                       _values(PolicyKind)),
    },
    "reporting": {
        "bsr_table": _Key(str, "long", "bsr_table", TableKind,
                          _values(TableKind)),
        "dsr_enabled": _Key(_to_bool, "false", "dsr_enabled"),
        "dsr_threshold_ms": _Key(_real, "10.0", "dsr_threshold_ms"),
    },
    "drx": {
        "mode": _Key(str, "off", "adaptive_drx",
                     choices=("off", "fixed", "adaptive")),
        "cycle_ms": _Key(_rational, "50/3", "cycle_us", _ms_to_us),
        "on_ms": _Key(_rational, "8.0", "on_duration_us", _ms_to_us),
        "inactivity_ms": _Key(_rational, "8.0", "inactivity_us", _ms_to_us),
        "offset_mode": _Key(str, "traffic", "drx_offset_mode",
                            choices=("traffic", "common")),
    },
    "qos": {
        "psihi": _Key(_to_bool, "true", "psihi"),
        "psi_discard": _Key(_to_bool, "false", "psi_discard_enabled"),
        "discard_timer": _Key(_discard_timer, "psdb", "discard_timer_ms"),
    },
    "cg": {
        "enabled": _Key(_to_bool, "false", "pose_cg"),
        "period_ms": _Key(_rational, "4", "periodicity_us", _ms_to_us),
        "occasions": _Key(int, "1", "occasions_per_period"),
        "rb": _Key(int, "50", "rb_per_occasion"),
        "window": _Key(int, "4", "uto_uci_window"),
    },
    "run": {
        "duration_s": _Key(_real, "10.0", "duration_s"),
        "warmup_s": _Key(_real, "1.0", "warmup_s"),
        "seeds": _Key(parse_seeds, "1,2,3,4,5"),
        "out": _Key(str, "out"),
    },
}

def _and(items: list) -> str:  # "a", "a and b", "a, b and c"
    return f"{', '.join(items[:-1])} and {items[-1]}" if items[1:] else items[0]


def _key_message(e: ConfigError) -> str:
    """A model config's rejection, naming the keys that set its fields,
    each in its own section."""
    keys = {section: [repr(key) for key, row in rows.items()
                      if row.field in e.fields]
            for section, rows in SCHEMA.items()}
    where = _and([f"{_and(names)} in section [{section}]"
                  for section, names in keys.items() if names])
    if sum(map(len, keys.values())) == 1:
        return f"key {where} {e.reason}"
    return f"{e.reason} (keys {where})"


class ExperimentConfig:
    def __init__(self):
        self.values = {(section, key): row.parse(row.default)
                       for section, rows in SCHEMA.items()
                       for key, row in rows.items()}

    def __getitem__(self, sk):
        return self.values[sk]

    def set(self, section, key, text):
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ValueError(f"unknown key '{key}' in section [{section}]")
        row = SCHEMA[section][key]
        try:
            if not text:
                raise ValueError("the value is empty")
            value = row.parse(text)
            if row.choices and value not in row.choices:
                raise ValueError(f"must be one of {'|'.join(row.choices)}, "
                                 f"got {text!r}")
        except (ValueError, ArithmeticError) as e:
            raise ValueError(
                f"bad value for key '{key}' in section [{section}]: {e}")
        self.values[(section, key)] = value

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

    def _build(self, cls, **given):
        """A model config, each field not given set from its key."""
        names = {f.name for f in fields(cls)} - given.keys()
        return cls(**given, **{
            row.field: row.to_field(self[(section, key)])
            for section, rows in SCHEMA.items() for key, row in rows.items()
            if row.field in names})

    def cell_config(self, load: int) -> CellConfig:
        """CellConfig for one load point. Every key is checked, also when
        its feature is off, and a rejection names the keys that set the
        rejected fields."""
        mode = self[("drx", "mode")]
        try:
            drx = self._build(DrxConfig)
            cg = self._build(CgConfig)
            if mode == "off":
                drx = None
            return self._build(
                CellConfig, ues_per_cell=load, drx=drx,
                adaptive_drx=mode == "adaptive",
                pose_cg=cg if self[("cg", "enabled")] else None)
        except ConfigError as e:
            raise ValueError(_key_message(e)) from None


class UeRecord(NamedTuple):  # one XR UE of one (load, seed) pair
    ue_id: int
    satisfied: Optional[bool]  # None with zero frames
    tput_mbps: float  # delivered bits over duration_s - warmup_s
    avg_power: float
    mean_padding: float  # bytes per UL grant; 0 without a grant


class PairResult(NamedTuple):
    """One drop and, with DRX on, its always-on baseline."""

    load: int
    seed: int
    ues: list  # UeRecord per XR UE
    events: list  # (load, seed, ue_id, arrival_us, in_budget) per frame
    padding: Counter  # padding bytes -> UL grants
    rb_use: Counter  # RB utilisation -> post-warm-up slots
    base_power: list  # the always-on baseline's per-UE power; [] without DRX


class LoadKpis(NamedTuple):
    ues: int  # UEs with zero frames included
    satisfied_ues: int
    mean_tput_mbps: float
    mean_padding_bytes: float  # the mean of per-UE means
    mean_power: float


@dataclass
class KpiReport:
    satisfaction_by_load: dict
    capacity: int
    gain_by_load: dict
    cdfs: dict  # name -> cdf_points
    by_load: dict  # load -> LoadKpis

    def __post_init__(self):
        for n, r in self.satisfaction_by_load.items():
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"satisfaction ratio out of range at {n}")
        if self.capacity != xr_capacity(self.satisfaction_by_load):
            raise ValueError("capacity inconsistent with satisfaction table")


def cdf_points(counts: Counter) -> list:
    """Sorted (value, cumulative fraction) pairs from value -> count."""
    n = sum(counts.values())
    out, cum = [], 0
    for v in sorted(counts):
        cum += counts[v]
        out.append((v, cum / n))
    return out


def emit_cdf(points, name, out_dir) -> str:
    """Write cdf_points' (value, cumulative fraction) pairs as a CSV."""
    path = os.path.join(out_dir, f"cdf_{name}.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["value", "cum_fraction"])
        w.writerows(points)
    return path


def run_pair(config: ExperimentConfig, load: int, seed: int) -> PairResult:
    """Run one (load, seed) drop and, with DRX on, its always-on baseline."""
    cell = config.cell_config(load)
    result = run_drop(cell, seed)
    span_s = config[("run", "duration_s")] - config[("run", "warmup_s")]
    ues, events, padding = [], [], Counter()
    for kpi in result.xr_ues():
        sat = ue_satisfied(ok for _, ok in kpi.outcomes)
        if sat is None:
            warnings.warn(f"UE {kpi.ue_id} (load {load}, seed {seed}) saw "
                          "zero frames; excluded from satisfaction")
        pad = kpi.padding_samples
        ues.append(UeRecord(kpi.ue_id, sat,
                            kpi.delivered_bits / span_s / 1e6, kpi.avg_power,
                            sum(pad) / len(pad) if pad else 0.0))
        padding.update(pad)
        events.extend((load, seed, kpi.ue_id, arrival, int(ok))
                      for arrival, ok in kpi.outcomes)
    base = []
    if cell.drx is not None:
        base = [k.avg_power for k in run_drop(
            replace(cell, drx=None, adaptive_drx=False), seed).xr_ues()]
    return PairResult(load, seed, ues, events, padding,
                      Counter(result.rb_utilization), base)


def aggregate(config: ExperimentConfig, pairs) -> KpiReport:
    """Fold the pairs in the config's (load, seed) order, whatever order
    they are given in; each UE is pooled into its load across seeds."""
    by_key = {(p.load, p.seed): p for p in pairs}
    per_ue, by_load, satisfaction, gains = [], {}, {}, {}
    padding, rb_use = Counter(), Counter()
    for load in config.loads:
        runs = [by_key[(load, seed)] for seed in config.seeds]
        rows = [u for p in runs for u in p.ues]
        flags = [u.satisfied for u in rows if u.satisfied is not None]
        satisfaction[load] = sum(flags) / len(flags) if flags else 0.0
        kpis = by_load[load] = LoadKpis(
            len(rows), sum(flags), sum(u.tput_mbps for u in rows) / len(rows),
            sum(u.mean_padding for u in rows) / len(rows),
            sum(u.avg_power for u in rows) / len(rows))
        base = [w for p in runs for w in p.base_power]
        if base:
            gains[load] = power_saving_gain(kpis.mean_power,
                                            sum(base) / len(base))
        per_ue += rows
        for p in runs:
            padding.update(p.padding)
            rb_use.update(p.rb_use)
    cdfs = {"padding_bytes": cdf_points(padding),
            "ue_throughput_mbps": cdf_points(Counter(u.tput_mbps
                                                     for u in per_ue)),
            "rb_utilization": cdf_points(rb_use)}
    return KpiReport(satisfaction, xr_capacity(satisfaction), gains, cdfs,
                     by_load)


def run_experiment(config: ExperimentConfig) -> KpiReport:
    """Sweep loads x seeds, pool UEs across seeds, write the CSV outputs."""
    os.makedirs(config.out_dir, exist_ok=True)
    pairs = [run_pair(config, load, seed)
             for load in config.loads for seed in config.seeds]
    report = aggregate(config, pairs)
    _write_outputs(config, report, pairs)
    return report


def _write_outputs(config, report: KpiReport, pairs):
    """kpi.csv and the CDFs from the report, the frame log from the pairs."""
    out = config.out_dir
    with open(os.path.join(out, "kpi.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["load", "metric", "value"])
        for load in config.loads:
            k = report.by_load[load]
            w.writerows([[load, "ues", k.ues],
                         [load, "satisfied_ues", k.satisfied_ues],
                         [load, "satisfaction_ratio",
                          report.satisfaction_by_load[load]],
                         [load, "mean_ue_throughput_mbps", k.mean_tput_mbps],
                         [load, "mean_padding_bytes", k.mean_padding_bytes],
                         [load, "mean_power", k.mean_power]])
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
        w.writerows(sorted(e for p in pairs for e in p.events))
        text.flush()
        text.detach()
    with open(os.path.join(out, "events.csv.gz"), "wb") as f:
        f.write(raw.getvalue())
