"""Command line front end for the experiment harness."""

from __future__ import annotations

import argparse
import configparser
import sys

from .harness import ExperimentConfig, run_experiment

# CLI flag -> (section, key) it overrides in the config file
_OVERRIDES = [
    ("seeds", ("run", "seeds")),
    ("ues_per_cell", ("scenario", "ues_per_cell")),
    ("scheduler", ("scheduler", "policy")),
    ("drx", ("drx", "mode")),
    ("duration", ("run", "duration_s")),
    ("out", ("run", "out")),
]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Run an XR cell simulation sweep and write KPI CSVs.")
    p.add_argument("--config", required=True, help="INI experiment config")
    p.add_argument("--seeds", help="comma separated seed list, e.g. 1,2,3")
    p.add_argument("--ues-per-cell", dest="ues_per_cell",
                   help='load sweep: "4", "1-8", or "2,4,6"')
    p.add_argument("--scheduler", choices=["pf", "mlwdf", "pduset"])
    p.add_argument("--drx", choices=["off", "fixed", "adaptive"])
    p.add_argument("--duration", help="simulated seconds per run")
    p.add_argument("--out", help="output directory")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_ini(args.config)
        for flag, (section, key) in _OVERRIDES:
            value = getattr(args, flag)
            if value is not None:
                config.set(section, key, value)
        # build every load's cell config now, so that a value only the
        # cell validates is reported here and not mid-sweep
        for load in config.loads:
            config.cell_config(load)
    except (OSError, ValueError, configparser.Error) as e:
        print(f"simulate: {e}", file=sys.stderr)
        return 2
    report = run_experiment(config)
    for load in sorted(report.satisfaction_by_load):
        ratio = report.satisfaction_by_load[load]
        line = f"load {load}: satisfaction {ratio:.3f}"
        if load in report.gain_by_load:
            line += f", power saving {report.gain_by_load[load]:.1f}%"
        print(line)
    print(f"xr capacity: {report.capacity}")
    print(f"outputs written to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
