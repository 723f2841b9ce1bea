"""
Command-line scenario runner.

    shearlab run CONFIG [--output DIR] [--override key=value ...] [--jobs N]
    shearlab list-scenarios [--json]

Exit codes: 0 all in-config assertions pass; 1 assertions failed;
2 configuration error; 3 hypothesis violation; 4 numerical failure.
Failures leave a machine-readable error.json in the output directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig, load_config
from .report import emit_report, write_summary
from .scenarios import catalog, run_scenario

EXIT_CHECKS_FAILED = 1
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERICAL = 4


def _error_json(out_dir: Path, kind: str, message: str) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "error.json").write_text(
            json.dumps({"error_type": kind, "message": message},
                       sort_keys=True, indent=2) + "\n")
    except OSError:
        pass


def _execute(cfg: ScenarioConfig) -> int:
    out_dir = Path(cfg.output)
    params = dict(cfg.params)
    params.setdefault("seed", cfg.seed)
    try:
        series, summary = run_scenario(cfg.scenario, params)
    except KeyError as exc:
        _error_json(out_dir, "config", str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        _error_json(out_dir, "hypothesis", str(exc))
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (RuntimeError, FloatingPointError) as exc:
        _error_json(out_dir, "numerical", str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    checkpoints = summary.pop("_checkpoint_fields", {})
    emit_report(out_dir, series, summary)
    if checkpoints:
        from .core import save_field
        for name in sorted(checkpoints):
            save_field(checkpoints[name], out_dir / f"{name}.field")
    for name, ok in summary.get("checks", {}).items():
        print(f"[{'PASS' if ok else 'FAIL'}] {cfg.scenario}: {name}")
    return 0 if summary["ok"] else EXIT_CHECKS_FAILED


def _sweep_configs(cfg: ScenarioConfig) -> list[ScenarioConfig]:
    if not cfg.sweep:
        return [cfg]
    keys = sorted(cfg.sweep)
    combos = list(itertools.product(*(cfg.sweep[k] for k in keys)))
    out = []
    for combo in combos:
        params = dict(cfg.params)
        tag = []
        for key, value in zip(keys, combo):
            params[key] = value
            tag.append(f"{key}-{value}")
        out.append(ScenarioConfig(cfg.scenario,
                                  str(Path(cfg.output) / "_".join(tag)),
                                  cfg.seed, params, {}))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shearlab",
                                     description="spectral shear-flow "
                                                 "experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None,
                       help="override the output directory")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config value")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for parameter sweeps")

    p_list = sub.add_parser("list-scenarios", help="print the catalog")
    p_list.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        entries = catalog()
        if args.json:
            print(json.dumps(entries, indent=2, sort_keys=True))
        else:
            width = max(len(e["name"]) for e in entries)
            for e in entries:
                print(f"{e['name']:<{width}}  {e['claim']}")
        return 0

    try:
        cfg = load_config(args.config)
        if args.output:
            cfg = ScenarioConfig(cfg.scenario, args.output, cfg.seed,
                                 cfg.params, cfg.sweep)
        cfg = cfg.with_overrides(args.override)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    runs = _sweep_configs(cfg)
    if len(runs) == 1:
        return _execute(runs[0])

    if args.jobs > 1:
        import multiprocessing as mp
        with mp.Pool(args.jobs) as pool:
            codes = pool.map(_execute, runs)
    else:
        codes = [_execute(r) for r in runs]
    write_summary(Path(cfg.output) / "sweep.json",
                  {"runs": [{"output": r.output, "exit": c}
                            for r, c in zip(runs, codes)]})
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
