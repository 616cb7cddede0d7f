"""Batch experiment runner.

Subcommands map one-to-one onto the verification sweeps; every run reads a
single JSON config (defaults apply when omitted), writes a CSV or JSON
table with 12-significant-digit floats in a fixed row order, and exits
with 0 (all criteria met), 1 (a criterion failed) or 2 (bad config).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import config as cfgmod
from . import experiments

__all__ = ["main"]

_COMMANDS = {
    "defect-sweep": (experiments.run_defect_sweep, cfgmod.defect_sweep_cfg),
    "index-compare": (experiments.run_index_compare, cfgmod.index_cfg),
    "ch-compare": (experiments.run_ch_compare, cfgmod.ch_compare_cfg),
    "homotopy-verify": (experiments.run_homotopy_verify, cfgmod.homotopy_cfg),
}


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _round_floats(obj):
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _columns(rows):
    cols = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    return cols


def write_csv(rows, path):
    """Header plus one line per row; a field holding a comma or quote is quoted."""
    cols = _columns(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([_fmt(row.get(c)) for c in cols] for row in rows)


def write_json(rows, checks, path):
    payload = {
        "rows": _round_floats(rows),
        "checks": [{"name": n, "passed": bool(p), "detail": _round_floats(d)}
                   for n, p, d in checks],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psilab",
        description="quantization, deformation and index experiments on the circle")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} suite")
        p.add_argument("--config", default=None, help="JSON config path (defaults apply)")
        p.add_argument("--out", default=None, help=f"output path (default {name}.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    runner, section_cfg = _COMMANDS[args.command]
    try:
        cfg = cfgmod.load_config(args.config)
        grid = cfgmod.build_grid(cfg)
        run_cfg = section_cfg(cfg)
    except cfgmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    rows, checks = runner(grid, run_cfg)

    out = args.out or f"{args.command}.{args.format}"
    if args.format == "csv":
        write_csv(rows, out)
    else:
        write_json(rows, checks, out)

    failed = [(n, d) for n, ok, d in checks if not ok]
    for name, detail in failed:
        print(f"criterion failed: {name}: {_round_floats(detail)}", file=sys.stderr)
    passed = len(checks) - len(failed)
    print(f"wrote {out} ({len(rows)} rows); criteria passed: {passed}/{len(checks)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
