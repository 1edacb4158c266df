"""Correctness gate for the CSV files one qgol run writes.

Every run is compared against the exact oracle (`oracle.py`), and, for the
seeds in `references/`, against the files qgol wrote when the benchmark
was added.  Continuous columns must agree within `TOL`.  Discrete columns
(clusters, diversity and the ensemble's window averages of them) must agree
exactly, except in a snapshot or sample where an exact population lies
within `TOL` of the 0.5 threshold: those mismatches are counted as
`threshold_flips`, not hidden.  Invariants that hold for any correct
program are checked as well, so a blown-up run cannot pass on a zero
`norm_drift`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

#: Allowed deviation of continuous outputs from the exact propagation.  RK4
#: at dt = 0.01 is about 3e-7 off at t = 30 on these workloads.
TOL = 1e-5

#: Same bound as qgol's integrator abort threshold.
NORM_LIMIT = 1e-4

#: Relative slack for window averages and summary statistics, which may be
#: summed in another order.
EXACT_REL = 1e-12

QUANTUM_SCALARS = ["density_equi_quantum", "diversity_equi_quantum",
                   "improved_diversity_equi_quantum"]
CLASSICAL_SCALARS = ["density_equi_classical", "diversity_equi_classical",
                     "improved_diversity_equi_classical"]


@dataclass
class Report:
    errors: list[str] = field(default_factory=list)
    result_err: float = 0.0
    threshold_flips: int = 0
    norm_drift: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors

    def fail(self, message: str) -> None:
        self.errors.append(message)


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _number(text: str, report: Report, where: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        report.fail(f"{where}: non-finite value {text!r}")
    return value


def compare(name: str, got: list[list[str]], want: list[list], kinds: list[str],
            excused, report: Report) -> None:
    """Compare a written table with an expected one, column kind by kind.

    kinds: "exact" (text), "time", "cont" (within TOL), "disc" (equal up to
    EXACT_REL; a mismatch in an ``excused(row)`` row is a threshold flip),
    "skip".
    """
    if len(got) != len(want):
        report.fail(f"{name}: {len(got)} rows, expected {len(want)}")
        return
    for r, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(kinds) or len(w_row) != len(kinds):
            report.fail(f"{name} row {r}: {len(g_row)} columns, expected {len(kinds)}")
            return
        flipped = False
        for c, (g, w, kind) in enumerate(zip(g_row, w_row, kinds)):
            where = f"{name} row {r} col {c}"
            if kind == "exact":
                if g != str(w):
                    report.fail(f"{where}: {g!r} != {w!r}")
            elif kind == "time":
                if abs(_number(g, report, where) - float(w)) > 1e-9:
                    report.fail(f"{where}: time {g} != {w}")
            elif kind == "cont":
                err = abs(_number(g, report, where) - float(w))
                report.result_err = max(report.result_err, err)
                if not err <= TOL:
                    report.fail(f"{where}: {g} deviates from {w} by {err:.3g}")
            elif kind == "disc":
                gv, wv = _number(g, report, where), float(w)
                if not abs(gv - wv) <= EXACT_REL * max(1.0, abs(wv)):
                    if excused(r):
                        flipped = True
                    else:
                        report.fail(f"{where}: {g} != {w}")
        report.threshold_flips += flipped


# ---------------------------------------------------------------------------
# evolve runs


def _kinds(name: str, width: int) -> list[str]:
    if name == "mi":
        return ["time", "exact", "exact", "cont"]
    if name in ("clusters", "diversity"):
        return ["time"] + ["disc"] * (width - 1)
    return ["time"] + ["cont"] * (width - 1)


def _evolve_expected(bits: np.ndarray, times: np.ndarray, names: list[str]) -> tuple[dict, np.ndarray]:
    states = oracle.exact_block_states(bits, times)
    pops = oracle.block_populations(bits, states)
    want = {"populations": [[t, *p] for t, p in zip(times, pops)]}
    discrete = [oracle.discretize(p) for p in pops]
    if "clusters" in names:
        want["clusters"] = [[t, *sum(oracle.cluster_counts(d), [])] for t, d in zip(times, discrete)]
    if "diversity" in names:
        want["diversity"] = [[t, *oracle.diversity_row(d)] for t, d in zip(times, discrete)]
    if {"entropies", "mi", "concurrence", "bonds"} & set(names):
        qm = [oracle.quantum_measures(bits, s) for s in states]
        want["entropies"] = [[t, *q["entropies"]] for t, q in zip(times, qm)]
        want["bonds"] = [[t, *q["bonds"]] for t, q in zip(times, qm)]
        want["concurrence"] = [[t, *q["concurrence"]] for t, q in zip(times, qm)]
        want["mi"] = [[t, i, j, v] for t, q in zip(times, qm) for (i, j), v in q["mi"].items()]
    return want, np.abs(pops - 0.5).min(axis=1)


def _evolve_invariants(tables: dict, bits: np.ndarray, report: Report) -> None:
    L = bits.size
    frozen = [0, 1, L - 2, L - 1]
    for name, (_, rows) in tables.items():
        values = np.array([[_number(v, report, name) for v in row] for row in rows])
        if values.size == 0:
            report.fail(f"{name}: no rows")
            continue
        data = values[:, 1:]
        if name == "populations":
            if np.abs(data[:, frozen] - bits[frozen]).max() > 1e-9:
                report.fail("populations: a frozen boundary site left its initial bit")
            if data.min() < -1e-12 or data.max() > 1 + 1e-12:
                report.fail("populations: occupation outside [0, 1]")
        elif name in ("entropies", "concurrence") and (data.min() < -1e-12 or data.max() > 1 + 1e-12):
            report.fail(f"{name}: value outside [0, 1]")
        elif name == "mi" and (data[:, 2].min() < 0 or data[:, 2].max() > 1 + 1e-12):
            report.fail("mi: value outside [0, 1]")
        elif name == "bonds":
            cap = np.minimum(np.arange(1, L), L - np.arange(1, L))
            if data.min() < -1e-12 or (data > cap + 1e-9).any():
                report.fail("bonds: entropy outside [0, min(j, L - j)]")


def _discrete_follow_populations(tables: dict, report: Report) -> None:
    """clusters.csv and diversity.csv must be the discretization of the
    populations the same run wrote, snapshot by snapshot."""
    rows = tables["populations"][1]
    for name in ("clusters", "diversity"):
        if name in tables and len(tables[name][1]) != len(rows):
            report.fail(f"{name}.csv and populations.csv differ in length")
            return
    for r, row in enumerate(rows):
        d = oracle.discretize([float(v) for v in row[1:]])
        own = {"clusters": sum(oracle.cluster_counts(d), []), "diversity": oracle.diversity_row(d)}
        for name, expected in own.items():
            if name in tables and [float(v) for v in tables[name][1][r][1:]] != expected:
                report.fail(f"{name}.csv at t = {row[0]} is not the discretized populations.csv")


def check_evolve(workload, bitstring: str, out: Path, manifest: dict,
                 reference: Path | None, report: Report) -> None:
    bits = oracle.bits_of(bitstring)
    names = ["populations", "clusters", "diversity", "entropies", "mi", "concurrence", "bonds"]
    if workload.measures != "all":
        names = workload.measures.split(",")
    tables = {}
    for name in names:
        path = out / f"{name}.csv"
        if not path.is_file():
            report.fail(f"missing {path.name}")
            return
        tables[name] = read_table(path)
    summary = manifest.get("summary", {})
    drift = summary.get("norm_drift")
    if not isinstance(drift, (int, float)) or not 0.0 <= drift < NORM_LIMIT:
        report.fail(f"manifest norm_drift {drift!r} is not a finite value in [0, {NORM_LIMIT})")
    else:
        report.norm_drift = float(drift)
    times = workload.snapshot_steps * workload.dt
    if summary.get("snapshots") != times.size:
        report.fail(f"manifest reports {summary.get('snapshots')} snapshots, expected {times.size}")

    _evolve_invariants(tables, bits, report)
    if "populations" in tables:
        _discrete_follow_populations(tables, report)
    want, margin = _evolve_expected(bits, times, names)
    pairs = bits.size * (bits.size - 1) // 2
    for name, (header, rows) in tables.items():
        per_snapshot = pairs if name == "mi" else 1
        excused = lambda r, k=per_snapshot: margin[r // k] < TOL  # noqa: E731
        kinds = _kinds(name, len(header))
        compare(name, rows, want[name], kinds, excused, report)
        if reference is not None:
            ref_header, ref_rows = read_table(reference / f"{name}.csv")
            if header != ref_header:
                report.fail(f"{name}: header differs from the reference")
            compare(f"{name} (reference)", rows, ref_rows, kinds, excused, report)


# ---------------------------------------------------------------------------
# ensemble runs


def check_ensemble(workload, out: Path, reference: Path | None, report: Report) -> None:
    for name in ("ensemble", "ensemble_summary"):
        if not (out / f"{name}.csv").is_file():
            report.fail(f"missing {name}.csv")
            return
    header, rows = read_table(out / "ensemble.csv")
    expected_header = ["sample", "config", *QUANTUM_SCALARS, *CLASSICAL_SCALARS, "norm_drift"]
    if header != expected_header:
        report.fail(f"ensemble.csv header {header}")
        return
    if len(rows) != workload.samples:
        report.fail(f"ensemble.csv has {len(rows)} samples, expected {workload.samples}")
        return

    steps = workload.snapshot_steps
    times = steps * workload.dt
    window = (times >= oracle.QUANTUM_WINDOW[0]) & (times <= oracle.QUANTUM_WINDOW[1])
    n_alive = int(math.floor(workload.rho0 * workload.L + 0.5))
    want, margins = [], []
    for k, row in enumerate(rows):
        config = row[1]
        if len(config) != workload.L or set(config) - {"0", "1"} or config.count("1") != n_alive:
            report.fail(f"sample {k}: config {config!r} is not an L = {workload.L} "
                        f"string with {n_alive} alive cells")
            return
        drift = _number(row[-1], report, f"sample {k} norm_drift")
        if not 0.0 <= drift < NORM_LIMIT:
            report.fail(f"sample {k}: norm_drift {row[-1]} outside [0, {NORM_LIMIT})")
        report.norm_drift = max(report.norm_drift, drift)
        bits = oracle.bits_of(config)
        pops = oracle.block_populations(bits, oracle.exact_block_states(bits, times))[window]
        quantum = np.mean([oracle.diversity_row(oracle.discretize(p)) for p in pops], axis=0)
        want.append([k, config, *quantum, *oracle.classical_equilibrium(bits), 0.0])
        margins.append(np.abs(pops - 0.5).min())
    kinds = ["exact", "exact"] + ["disc"] * 6 + ["skip"]
    excused = lambda r: margins[r] < TOL  # noqa: E731
    compare("ensemble", rows, want, kinds, excused, report)

    values = np.array([[float(v) for v in row[2:8]] for row in rows])
    n = len(rows)
    errors = values.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(6)
    summary_want = [[key, m, e] for key, m, e in
                    zip(QUANTUM_SCALARS + CLASSICAL_SCALARS, values.mean(axis=0), errors)]
    _, summary_rows = read_table(out / "ensemble_summary.csv")
    compare("ensemble_summary", summary_rows, summary_want, ["exact", "disc", "disc"],
            lambda r: False, report)

    if reference is not None:
        for name, got, kinds_ref, excuse in (
            ("ensemble", rows, kinds, excused),
            ("ensemble_summary", summary_rows, ["exact", "disc", "disc"],
             lambda r: min(margins) < TOL),
        ):
            _, ref_rows = read_table(reference / f"{name}.csv")
            compare(f"{name} (reference)", got, ref_rows, kinds_ref, excuse, report)
