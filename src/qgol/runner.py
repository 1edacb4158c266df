"""Experiment runner: validated configurations, seeded ensembles, CSV and
manifest output.

Every run is deterministic given (config, seed): per-sample random streams
are derived from (master seed, sample index), aggregation follows sample
order, and floats are printed at full precision, so numeric output is
byte-identical regardless of the worker count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from math import floor, inf, isfinite
from numbers import Integral, Real
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .circulant import commensurability_check, ring_eigensystem, ring_evolution
from .dynamics import (
    CLASSICAL_STEP,
    classical_trajectory,
    evolve_rk4,
    snapshot_grid,
    stroboscopic_quantum,
)
from .hamiltonian import build_hamiltonian
from .lattice import SpinConfig, make_fock_state
from .observables import (
    alive_cluster_function,
    dead_cluster_function,
    density,
    discretize,
    diversity,
    improved_diversity,
    local_population,
)
from .quantum_info import (
    average_concurrence,
    bond_entropy,
    mutual_information_matrix,
    single_site_entropies,
)

MAX_SITES = 24  # largest L whose amplitudes `evolve` and `ensemble` will hold
MAX_PERIOD = 64  # largest ring `circulant` checks: about period**4 / 64 gap ratios

QUANTUM_WINDOW = (25.0, 30.0)
CLASSICAL_WINDOW = (83.0, 100.0)

#: The type of every `RunConfig` value, or of each item of a `TUPLE_FIELDS` value.
FIELD_TYPES = {
    **dict.fromkeys(("kind", "initial", "measures", "out_dir"), str),
    **dict.fromkeys(("L", "sample_every", "steps", "samples", "seed", "concurrence_distances",
                     "bonds", "workers", "period", "k0", "q_max"), int),
    **dict.fromkeys(("rho0", "t_max", "dt", "window", "hopping", "tolerance"), float),
}
#: The `RunConfig` fields that hold a tuple; a list given for one is held as a tuple.
TUPLE_FIELDS = ("measures", "window", "concurrence_distances", "bonds")
#: What an item must be to take each `FIELD_TYPES` type (never a bool), and its name.
_ACCEPTS = {int: (Integral, "integers"), float: (Real, "real numbers"), str: (str, "strings")}

#: Scalars of a discretized profile, in the order `_discrete_scalars` returns them.
_DISCRETE = ("density", "diversity", "improved_diversity")


def _discrete_scalars(d) -> list:
    """Density, diversity and improved diversity of a discretized profile."""
    return [density(d), diversity(d), improved_diversity(d)]


# ---------------------------------------------------------------------------
# the measures of a quantum trajectory, one CSV each


class _Snapshot:
    """One observed state; its profiles are computed on first use, at most once."""

    def __init__(self, state):
        self.state = state

    @functools.cached_property
    def profile(self) -> np.ndarray:
        return local_population(self.state)

    @functools.cached_property
    def discrete(self) -> np.ndarray:
        return discretize(self.profile)


def _site_labels(prefix: str, L: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, L + 1)]


def _bonds(config):
    """The bonds a run records: its bond list, or every bond when there is none."""
    return range(1, config.L) if config.bonds is None else config.bonds


def _mi_rows(config, snapshot) -> list[list]:
    mi = mutual_information_matrix(snapshot.state)
    return [[i + 1, j + 1, mi[i, j]] for i in range(config.L) for j in range(i + 1, config.L)]


class _Measure(NamedTuple):
    header: Callable  # config -> column labels after "time"
    rows: Callable  # (config, snapshot) -> that snapshot's rows, each after its time


#: Every measure `evolve` records, in the order its files are written.  The
#: entries look the observables up as module globals when called.
_MEASURE_TABLE = {
    "populations": _Measure(lambda c: _site_labels("n_", c.L), lambda c, s: [s.profile]),
    "clusters": _Measure(
        lambda c: _site_labels("alive_", c.L) + _site_labels("dead_", c.L),
        lambda c, s: [
            [fn(s.discrete, l) for fn in (alive_cluster_function, dead_cluster_function)
             for l in range(1, c.L + 1)]
        ],
    ),
    "diversity": _Measure(lambda c: _DISCRETE, lambda c, s: [_discrete_scalars(s.discrete)]),
    "entropies": _Measure(
        lambda c: _site_labels("S_", c.L), lambda c, s: [single_site_entropies(s.state)]
    ),
    "mi": _Measure(lambda c: ["i", "j", "value"], _mi_rows),
    "concurrence": _Measure(
        lambda c: [f"C_{d}" for d in c.concurrence_distances],
        lambda c, s: [[average_concurrence(s.state, d) for d in c.concurrence_distances]],
    ),
    "bonds": _Measure(
        lambda c: [f"bond_{j}" for j in _bonds(c)],
        lambda c, s: [[bond_entropy(s.state, j) for j in _bonds(c)]],
    ),
}
MEASURES = tuple(_MEASURE_TABLE)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, checked when it is built; `dataclasses.replace` checks a variant."""

    kind: str
    L: int = 11
    initial: str | None = None
    rho0: float | None = None
    t_max: float = 30.0
    dt: float = 0.01
    sample_every: int = 25
    steps: int = 20
    samples: int = 16
    seed: int | None = None
    measures: tuple[str, ...] = ("populations",)
    window: tuple[float, float] = QUANTUM_WINDOW
    concurrence_distances: tuple[int, ...] = (1,)
    bonds: tuple[int, ...] | None = None
    out_dir: str = "runs"
    workers: int = 1
    # ring-model parameters
    period: int = 4
    hopping: float = 1.0
    k0: int = 0
    q_max: int = 10**6
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; choose from {KINDS}")
        _, reads = _KINDS[self.kind]
        for field in fields(self):  # each value in its one form; one a run ignores is refused
            value = getattr(self, field.name)
            if value is not None or field.default is not None:
                type_, listed = FIELD_TYPES[field.name], field.name in TUPLE_FIELDS
                accepts, noun = _ACCEPTS[type_]
                if listed and (isinstance(value, str) or not np.iterable(value)):
                    raise ValueError(f"{field.name} must hold {noun} in a list or tuple, "
                                     f"got {value!r}")
                items = tuple(value) if listed else (value,)
                if not all(isinstance(v, accepts) and not isinstance(v, bool) for v in items):
                    raise ValueError(f"{field.name} must hold {noun}, got {value!r}")
                value = tuple(map(type_, items)) if listed else type_(value)
                object.__setattr__(self, field.name, value)
            if field.name not in ("kind", *reads) and value != field.default:
                raise ValueError(f"{self.kind} runs do not read {field.name}: got {value!r}, "
                                 f"leave it at its default {field.default!r}")
        if self.initial is not None and (self.rho0 is not None or self.seed is not None):
            raise ValueError("a bitstring start reads neither rho0 nor seed")
        if not 0 < self.dt < inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0 <= self.t_max < inf:
            raise ValueError(f"t_max must be finite and nonnegative, got {self.t_max}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if "sample_every" in reads and self.L > MAX_SITES:  # the kinds that hold amplitudes
            raise ValueError(f"L = {self.L} exceeds the memory bound (L <= {MAX_SITES})")
        if "L" in reads:  # every kind but circulant starts from a configuration
            if self.initial is None and (self.rho0 is None or self.seed is None):
                either = "a bitstring, or " if "initial" in reads else ""
                raise ValueError(f"{self.kind} runs need {either}a density rho0 and a seed")
            _initial_config(self)
        for label, values in (("bond", _bonds(self)),
                              ("concurrence distance", self.concurrence_distances)):
            outside = [v for v in values if not 1 <= v <= self.L - 1]
            if outside:
                raise ValueError(f"{label} {outside} outside [1, {self.L - 1}]")
            if len(set(values)) != len(values):  # each value is one CSV column
                raise ValueError(f"repeated {label} in {list(values)}")
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if self.samples < 1:
            raise ValueError(f"ensemble runs need samples >= 1, got {self.samples}")
        if "window" in reads:
            if len(self.window) != 2 or not all(map(isfinite, self.window)):
                raise ValueError(f"window must be two finite times, got {self.window}")
            times = snapshot_grid(self.t_max, self.dt, self.sample_every)[3]
            if not ((times >= self.window[0]) & (times <= self.window[1])).any():
                raise ValueError(f"no snapshot inside the quantum window {self.window}: "
                                 f"t_max = {self.t_max}, sample_every = {self.sample_every}")
        if not 2 <= self.period <= MAX_PERIOD:
            raise ValueError(f"a ring needs 2 <= period <= {MAX_PERIOD}, got {self.period}")
        if not 0 <= self.k0 < self.period:
            raise ValueError(f"configuration index {self.k0} outside [0, {self.period})")
        if not isfinite(self.hopping):
            raise ValueError(f"hopping must be finite, got {self.hopping}")
        if not 0 < self.tolerance < inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.q_max < 1:
            raise ValueError(f"q_max must be >= 1, got {self.q_max}")
        if not self.measures or not set(self.measures) <= set(MEASURES):
            raise ValueError(f"measures {list(self.measures)}: choose one or more of {MEASURES}")
        if len(set(self.measures)) != len(self.measures):  # each measure is one CSV file
            raise ValueError(f"repeated measure in {list(self.measures)}")
        if "concurrence" in self.measures and not self.concurrence_distances:
            raise ValueError("concurrence needs at least one concurrence distance")
        if "bonds" in self.measures and self.bonds is not None and not self.bonds:
            raise ValueError("bonds needs at least one bond; omit the list for every bond")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def sample_random_fock(L: int, rho0: float, rng: np.random.Generator) -> SpinConfig:
    """Random configuration with exactly round(rho0 * L) alive cells.

    The exact count (rather than independent per-site coins) pins the
    initial density of every sample; alive cells may land on the frozen
    boundary sites, where the dynamics simply never changes them.
    """
    if not 0.0 <= rho0 <= 1.0:
        raise ValueError(f"target density {rho0} outside [0, 1]")
    n_alive = int(floor(rho0 * L + 0.5))
    bits = np.zeros(L, dtype=int)
    if n_alive:
        bits[rng.choice(L, size=n_alive, replace=False)] = 1
    return SpinConfig(tuple(int(b) for b in bits))


def sample_rng(master_seed: int, sample_index: int) -> np.random.Generator:
    """Per-sample stream derived from (master seed, sample index)."""
    return np.random.default_rng([master_seed, sample_index])


def equilibrium_average(times, values, window) -> float:
    """Arithmetic mean of the samples with window[0] <= t <= window[1]."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times >= window[0]) & (times <= window[1])
    if not mask.any():
        raise ValueError(f"no samples inside the window {window}")
    return float(values[mask].mean())


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _evolve(config: RunConfig, initial: SpinConfig, observe):
    """RK4 trajectory of ``config`` from a Fock state; ``observe(t, state)`` sees each snapshot."""
    return evolve_rk4(
        build_hamiltonian(config.L),
        make_fock_state(initial),
        t_max=config.t_max,
        dt=config.dt,
        sample_every=config.sample_every,
        observer=observe,
        keep_states=False,
    )


def _initial_config(config: RunConfig) -> SpinConfig:
    """The run's initial configuration; a `RunConfig` builds it to check the state."""
    if config.initial is None:
        return sample_random_fock(config.L, config.rho0, sample_rng(config.seed, 0))
    bits = config.initial.strip()
    if len(bits) != config.L:
        raise ValueError(f"invalid bitstring length: {len(bits)} for L = {config.L}")
    return SpinConfig.from_string(bits)


# ---------------------------------------------------------------------------
# the experiment kinds: each is ``kind(config, write) -> summary`` and hands
# every line of its tables, header first, to ``write(name, cells)`` as it makes it


def _run_evolve(config: RunConfig, write) -> dict:
    names = [name for name in MEASURES if name in config.measures]
    for name in names:
        write(name, ["time", *_MEASURE_TABLE[name].header(config)])

    def observe(t, state):
        snapshot = _Snapshot(state)
        for name in names:
            for row in _MEASURE_TABLE[name].rows(config, snapshot):
                write(name, [t, *row])

    trajectory = _evolve(config, _initial_config(config), observe)
    return {"snapshots": len(trajectory.times), "norm_drift": trajectory.norm_drift,
            "products": trajectory.products}


def _run_discrete(config: RunConfig, write) -> dict:
    """The classical rule or its stroboscopic-projective counterpart, one row per step."""
    initial = _initial_config(config)
    if config.kind == "strobe":
        traj = stroboscopic_quantum(build_hamiltonian(config.L), initial, config.steps)
    else:
        traj = classical_trajectory(initial, config.steps)
    write(config.kind, ["step", "time", "config", *_DISCRETE])
    for k, cfg in enumerate(traj.steps):
        write(config.kind, [k, k * CLASSICAL_STEP, cfg.to_string(), *_discrete_scalars(cfg.bits)])
    return {"steps": config.steps}


_SCALARS = [f"{name}_equi_{kind}" for kind in ("quantum", "classical") for name in _DISCRETE]


def _ensemble_sample(args) -> tuple[list, int]:
    """One ensemble member's `ensemble.csv` row (its index and configuration,
    its quantum and classical equilibrium scalars (`_SCALARS`), its norm
    drift) and the sparse products its evolution took."""
    config, index = args
    initial = sample_random_fock(config.L, config.rho0, sample_rng(config.seed, index))

    def observe(t, state):  # only the snapshots inside the window are averaged
        if config.window[0] <= t <= config.window[1]:
            return t, _discrete_scalars(discretize(local_population(state)))
        return None

    trajectory = _evolve(config, initial, observe)
    inside, quantum = zip(*filter(None, trajectory.records))  # RunConfig checks it holds one
    ctraj = classical_trajectory(initial, int(floor(CLASSICAL_WINDOW[1] / CLASSICAL_STEP)))
    classical = [_discrete_scalars(cfg.bits) for cfg in ctraj.steps]
    row = [index, initial.to_string()]
    for times, values, window in ((inside, quantum, config.window),
                                  (ctraj.times, classical, CLASSICAL_WINDOW)):
        row += (equilibrium_average(times, series, window) for series in zip(*values))
    return [*row, trajectory.norm_drift], trajectory.products


def _run_ensemble(config: RunConfig, write) -> dict:
    """Evolve `samples` random Fock states and average their equilibria.

    Each sample runs the Schrodinger engine (averaged over the quantum
    window) and the classical automaton (averaged over the classical
    window of step times k*pi/2).  Samples are independent; with
    ``workers > 1`` they run in parallel with identical numeric results, in
    a pool of at most one process per sample and per CPU (in-process when
    that is one).  Each sample's ``ensemble`` row is written as it arrives,
    in sample order; the ``ensemble_summary`` table and the summary hold
    the means and standard errors by scalar name, and the summary the
    sparse products of all samples.
    """
    jobs = [(config, k) for k in range(config.samples)]
    workers = min(config.workers, config.samples, os.cpu_count() or 1)
    write("ensemble", ["sample", "config", *_SCALARS, "norm_drift"])
    scalars, products = [], 0
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        for row, count in (pool.map if pool else map)(_ensemble_sample, jobs):
            write("ensemble", row)
            scalars.append(row[2:-1])
            products += count
    means, errors = {}, {}
    write("ensemble_summary", ["quantity", "mean", "standard_error"])
    for key, column in zip(_SCALARS, zip(*scalars)):
        values = np.array(column)
        means[key] = float(values.mean())
        errors[key] = (
            float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
        )
        write("ensemble_summary", [key, means[key], errors[key]])
    return {
        "means": means,
        "standard_errors": errors,
        "quantum_window": list(config.window),
        "classical_window": list(CLASSICAL_WINDOW),
        "products": products,
    }


def _run_circulant(config: RunConfig, write) -> dict:
    model = ring_eigensystem(config.period, config.hopping)
    report = commensurability_check(config.period, config.tolerance, config.q_max)
    gaps = report.gaps
    write("eigenvalues", ["m", "energy"])
    for m in range(model.n):
        write("eigenvalues", [m, model.eigenvalues[m]])
    write("gap_ratios", ["a", "b", "gap_a", "gap_b", "ratio", "rational", "p", "q"])
    for (a, b), frac in zip(np.ndindex(report.ratios.shape), report.fractions):
        p_q = (frac.numerator, frac.denominator) if frac is not None else ("", "")
        write("gap_ratios",
              [a, b, gaps[a], gaps[b], report.ratios[a, b], report.rational[a, b], *p_q])
    write("ring_evolution", ["time", *(f"p_{k}" for k in range(model.n))])
    for t in np.arange(0.0, config.t_max + 0.5 * config.dt, config.dt):
        write("ring_evolution", [t, *ring_evolution(model, config.k0, t)])
    return {
        "period": config.period,
        "commensurate": bool(report.commensurate),
        "gaps": [float(g) for g in gaps],
    }


#: Every experiment kind: (its runner, the `RunConfig` fields the runner reads
#: besides `kind`).  A `RunConfig` refuses any other field set off its default,
#: and the manifest records only these.
_KINDS = {
    "evolve": (_run_evolve, ("L", "initial", "rho0", "seed", "t_max", "dt", "sample_every",
                             "measures", "concurrence_distances", "bonds", "out_dir")),
    "classical": (_run_discrete, ("L", "initial", "rho0", "seed", "steps", "out_dir")),
    "strobe": (_run_discrete, ("L", "initial", "rho0", "seed", "steps", "out_dir")),
    "ensemble": (_run_ensemble, ("L", "rho0", "seed", "t_max", "dt", "sample_every",
                                "samples", "window", "workers", "out_dir")),
    "circulant": (_run_circulant, ("period", "hopping", "k0", "q_max", "tolerance",
                                   "t_max", "dt", "out_dir")),
}
KINDS = tuple(_KINDS)


def run(config: RunConfig) -> dict:
    """Execute a configured experiment; returns the manifest record.

    Writes each table of the run as ``<name>.csv`` plus ``manifest.json``
    (the kind and the fields it reads, code version, wall time, and the
    SHA-256 of each file's bytes) into the output directory.  Lines are
    written and hashed as the kind makes them, under ``<name>.csv.partial``;
    the files are renamed when the kind returns, and deleted if it raises.
    A directory that already holds a manifest or a table of an earlier run
    is refused before the kind starts, and nothing in it is touched.
    """
    out = Path(config.out_dir)
    patterns = ("manifest.json", "*.csv", "*.csv.partial")  # what a run, finished or not, leaves
    used = sorted({p.name for pattern in patterns for p in out.glob(pattern)})
    if used:
        raise ValueError(f"output directory {str(out)!r} already holds {', '.join(used)} "
                         "from an earlier run; choose a new one")
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    runner, reads = _KINDS[config.kind]
    tables = {}  # name -> (partial file, its open handle, SHA-256 of its bytes)

    def write(name, cells):
        if name not in tables:  # in the order the tables' first lines are written
            partial = out / f"{name}.csv.partial"
            tables[name] = (partial, open(partial, "wb"), hashlib.sha256())
        _, f, digest = tables[name]
        line = (",".join(map(_fmt, cells)) + "\n").encode("utf-8")
        f.write(line)
        digest.update(line)

    try:
        summary = runner(config, write)
    except BaseException:
        for partial, f, _ in tables.values():
            f.close()
            partial.unlink()
        raise
    for partial, f, _ in tables.values():
        f.close()
        partial.replace(partial.with_suffix(""))
    manifest = {
        "config": {"kind": config.kind, **{name: getattr(config, name) for name in reads}},
        "version": __version__,
        "wall_time_seconds": time.perf_counter() - started,
        "summary": summary,
        "files": [{"name": f"{name}.csv", "sha256": digest.hexdigest()}
                  for name, (_, _, digest) in tables.items()],
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return manifest
