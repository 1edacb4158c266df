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

from .runner import KINDS, MEASURES, RunConfig, run

_FLAGS = {
    "--length": ("L", int, "lattice size L"),
    "--initial": ("initial", str, "initial bitstring, site 1 leftmost"),
    "--density": ("rho0", float, "initial alive density for random Fock states"),
    "--tmax": ("t_max", float, "integration time"),
    "--dt": ("dt", float, "integrator step (default 0.01)"),
    "--sample-every": ("sample_every", int, "steps between snapshots"),
    "--steps": ("steps", int, "discrete steps for classical/strobe runs"),
    "--samples": ("samples", int, "ensemble size"),
    "--seed": ("seed", int, "master random seed"),
    "--measures": ("measures", str, "comma list: " + ",".join(MEASURES) + " or 'all'"),
    "--window": ("window", str, "averaging window 't_a,t_b'"),
    "--distances": ("concurrence_distances", str, "comma list of concurrence distances"),
    "--bonds": ("bonds", str, "comma list of bonds for bond entropy"),
    "--out": ("out_dir", str, "output directory"),
    "--workers": ("workers", int, "parallel workers for ensembles"),
    "--period": ("period", int, "ring size n for circulant runs"),
    "--hopping": ("hopping", float, "ring hopping energy J"),
    "--k0": ("k0", int, "initial ring configuration index"),
    "--qmax": ("q_max", int, "largest denominator considered rational"),
    "--tolerance": ("tolerance", float, "continued-fraction termination tolerance"),
}

#: Type of every config key and flag; the structured ones are parsed in `_parse_value`.
_KEY_TYPES = {"kind": str, **{dest: type_ for dest, type_, _ in _FLAGS.values()}}


def _parse_value(origin: str, key: str, raw: str):
    """Convert one raw value, from a flag or a config-file line; an error names ``origin``."""
    try:
        if key == "measures":
            names = tuple(v.strip() for v in raw.split(",") if v.strip())
            return tuple(MEASURES) if names == ("all",) else names
        if key == "window":
            parts = [float(v) for v in raw.split(",")]
            if len(parts) != 2:
                raise ValueError(f"window needs two comma-separated times, got {raw!r}")
            return (parts[0], parts[1])
        if key in ("concurrence_distances", "bonds"):
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if key not in _KEY_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        return _KEY_TYPES[key](raw)
    except ValueError as exc:
        raise ValueError(f"{origin}: {exc}") from exc


def read_config_file(path: str) -> dict:
    """Parse a `key = value` text file; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
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
        for flag, (dest, _, help_) in _FLAGS.items():
            p.add_argument(flag, dest=dest, help=help_)  # a raw string until `_parse_value`
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = read_config_file(args.config) if args.config else {}
    if values.setdefault("kind", args.kind) != args.kind:  # the subcommand owns the kind
        raise ValueError(f"{args.config}: kind = {values['kind']} is not the subcommand")
    for flag, (dest, *_) in _FLAGS.items():
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
    print(json.dumps(manifest, indent=2, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
