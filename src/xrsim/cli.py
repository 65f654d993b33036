"""Command line front end for the experiment harness."""

from __future__ import annotations

import argparse
import configparser
import sys

from .harness import SCHEMA, ExperimentConfig, run_experiment

# CLI flag -> the (section, key) it overrides in the config file, and help
_OVERRIDES = {
    "--seeds": ("run", "seeds", "comma separated seed list, e.g. 1,2,3"),
    "--ues-per-cell": ("scenario", "ues_per_cell",
                       'load sweep: "4", "1-8", or "2,4,6"'),
    "--scheduler": ("scheduler", "policy", None),
    "--drx": ("drx", "mode", None),
    "--duration": ("run", "duration_s", "simulated seconds per run"),
    "--out": ("run", "out", "output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Run an XR cell simulation sweep and write KPI CSVs.")
    p.add_argument("--config", required=True, help="INI experiment config")
    for flag, (section, key, text) in _OVERRIDES.items():
        p.add_argument(flag, dest=key, help=text,
                       choices=SCHEMA[section][key].choices or None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_ini(args.config)
        for section, key, _ in _OVERRIDES.values():
            value = getattr(args, key)
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
