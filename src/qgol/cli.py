"""Command line front end: one subcommand per experiment kind.

Each subcommand reads an optional key-value config file and applies flag
overrides on top.  Success exits 0 and prints the manifest (``-h`` exits 0
too); any failure, a bad flag included, prints a machine-readable JSON
error record to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .runner import FIELD_TYPES, KINDS, MEASURES, TUPLE_FIELDS, RunConfig, run

_FLAGS = {
    "--length": ("L", "lattice size L"),
    "--initial": ("initial", "initial bitstring, site 1 leftmost"),
    "--density": ("rho0", "initial alive density for random Fock states"),
    "--tmax": ("t_max", "integration time"),
    "--dt": ("dt", "integrator step (default 0.01)"),
    "--sample-every": ("sample_every", "steps between snapshots"),
    "--steps": ("steps", "discrete steps for classical/strobe runs"),
    "--samples": ("samples", "ensemble size"),
    "--seed": ("seed", "master random seed"),
    "--measures": ("measures", "comma list: " + ",".join(MEASURES) + " or 'all'"),
    "--window": ("window", "averaging window 't_a,t_b'"),
    "--distances": ("concurrence_distances", "comma list of concurrence distances"),
    "--bonds": ("bonds", "comma list of bonds for bond entropy"),
    "--out": ("out_dir", "output directory"),
    "--workers": ("workers", "parallel workers for ensembles"),
    "--period": ("period", "ring size n for circulant runs"),
    "--hopping": ("hopping", "ring hopping energy J"),
    "--k0": ("k0", "initial ring configuration index"),
    "--qmax": ("q_max", "largest denominator considered rational"),
    "--tolerance": ("tolerance", "continued-fraction termination tolerance"),
}


def _parse_value(origin: str, key: str, raw: str):
    """Convert one raw value, from a flag or a config-file line; an error names ``origin``."""
    try:
        if key not in FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        type_ = FIELD_TYPES[key]
        if key not in TUPLE_FIELDS:
            return type_(raw)
        items = tuple(type_(v.strip()) for v in raw.split(",") if v.strip())
        if key == "measures" and items == ("all",):
            return MEASURES
        if key == "window" and len(items) != 2:
            raise ValueError(f"window needs two comma-separated times, got {raw!r}")
        return items
    except ValueError as exc:
        raise ValueError(f"{origin}: {exc}") from exc


def read_config_file(path: str) -> dict:
    """Parse a `key = value` text file; '#' starts a comment."""
    values, lines = {}, {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if lines.setdefault(key, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: {key} repeats {path}:{lines[key]}")
            values[key] = _parse_value(f"{path}:{lineno}", key, raw)
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # `main` reports it as it reports any other failure
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qgol",
        description="Exact simulation of the quantum Game of Life spin chain.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", help="key-value config file; flags override it")
        for flag, (dest, help_) in _FLAGS.items():
            p.add_argument(flag, dest=dest, help=help_)  # a raw string until `_parse_value`
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = read_config_file(args.config) if args.config else {}
    if values.setdefault("kind", args.kind) != args.kind:  # the subcommand owns the kind
        raise ValueError(f"{args.config}: kind = {values['kind']} is not the subcommand")
    for flag, (dest, _) in _FLAGS.items():
        if getattr(args, dest) is not None:
            values[dest] = _parse_value(flag, dest, getattr(args, dest))
    return RunConfig(**values)


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
        manifest = run(config)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, never crashes
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    print(json.dumps(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
