"""qgol benchmark: run one workload through the public CLI and report metrics.

    python3 perfbench/run.py --workload {ensemble,measures,large} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root; the program is taken from ./src.  With
--trace 0 the workload's CLI process is started again and again for S
seconds, each a fresh process with tracing off, after the set-up probes;
the end-to-end metrics are medians over those processes.  With --trace 1
the same untimed-tracing loop runs, then one more process runs the CLI with
every layer wrapped (see layertrace.py) and a probe times bare RK4 steps;
the per-layer metrics come from those.  Every run's outputs are checked
(check.py).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread here and in every child process.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import layertrace  # noqa: E402
import oracle  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
REFERENCES = BENCH / "references"
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "snapshots_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Printed with the end-to-end metrics; not part of the JSON metrics because
# they are zero on a correct run or vary with the seed by orders of magnitude.
CHECKS = {
    "norm_drift": "1",
    "result_err": "1",
    "fail_frac": "1",
    "threshold_flips": "count",
}

PER_LAYER = {
    "hamiltonian.build_s": "s",
    "hamiltonian.nnz": "count",
    "hamiltonian.csr_mb": "MB",  # computed from the CSR arrays
    "hamiltonian.sector_s": "s",
    "hamiltonian.sector_dim": "count",
    "hamiltonian.sector_nnz": "count",
    "dynamics.evolve_self_s": "s",
    "dynamics.rk4_step_us": "us",
    "dynamics.matvecs": "count",  # computed: 8 real sparse products per step
    "dynamics.bytes_per_step": "B",  # computed from nnz and block size
    "dynamics.snapshot_us": "us",
    "dynamics.snapshots": "count",
    "dynamics.classical_s": "s",
    "lattice.statevector_us": "us",
    "observables.population_s": "s",
    "observables.discrete_s": "s",
    "quantum_info.entropies_s": "s",
    "quantum_info.mi_s": "s",
    "quantum_info.concurrence_s": "s",
    "quantum_info.bonds_s": "s",
    "quantum_info.rdm_calls": "count",
    "runner.self_s": "s",
    "runner.csv_bytes": "B",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    **{f"check.{name}": unit for name, unit in CHECKS.items()},
}

COMPUTED = {"hamiltonian.csr_mb", "dynamics.matvecs", "dynamics.bytes_per_step"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed check)."""


# ---------------------------------------------------------------------------
# child processes


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(cmd: list[str], root: Path, log_stem: Path) -> dict:
    """Run one child to completion; returns wall time, peak RSS and exit code."""
    with open(log_stem.with_suffix(".out"), "w") as out, open(log_stem.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = log_stem.with_suffix(".out").read_text()
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "code": proc.returncode,
        "stdout": stdout,
        "stderr": log_stem.with_suffix(".err").read_text()[-2000:],
    }


def last_json(text: str) -> dict:
    """The JSON object a child printed: all of stdout (the CLI's indented
    manifest) or else its last line (the probes)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(text.strip().splitlines()[-1])


def probe(args: list[str], root: Path, work: Path, tag: str) -> dict:
    rec = run_child([sys.executable, str(CHILD), *args], root, work / tag)
    if rec["code"] != 0:
        raise BenchError(f"probe {args[0]} failed (exit {rec['code']}): {rec['stderr']}")
    return last_json(rec["stdout"])


# ---------------------------------------------------------------------------
# timed runs and their checks


def csv_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def check_run(wl, seed: int, out: Path, manifest: dict, report: check.Report) -> None:
    ref = REFERENCES / wl.name / f"seed{seed}"
    ref = ref if ref.is_dir() and wl is WORKLOADS[wl.name] else None
    if wl.kind == "ensemble":
        check.check_ensemble(wl, out, ref, report)
    else:
        check.check_evolve(wl, wl.bitstring(seed), out, manifest, ref, report)


def timed_runs(wl, seed: int, seconds: float, root: Path, work: Path,
               setup_repeats: int) -> tuple[list[dict], list[float], check.Report]:
    """Start fresh CLI processes while one more is expected to end within
    `seconds` of process wall time (at least one process), with a set-up
    probe after each of the first `setup_repeats` of them so that both
    sample the same stretch of time.

    The first successful run is checked in full; every later run must write
    byte-identical CSV files.
    """
    runs, setups, first, report = [], [], None, check.Report()

    def setup_probe():
        setups.append(probe(["setup", str(wl.L), "0", "0"], root, work, f"setup{len(setups)}")["setup_s"])

    while not runs or sum(r["wall_s"] for r in runs) * (1 + 1 / len(runs)) <= seconds:
        out = work / f"run{len(runs)}"
        cmd = [sys.executable, "-m", "qgol", *wl.qgol_args(seed, str(out))]
        rec = run_child(cmd, root, work / f"run{len(runs)}")
        rec["ok"] = rec["code"] == 0
        if not rec["ok"]:
            report.fail(f"run {len(runs)} exited {rec['code']}: {rec['stderr'][-300:]}")
        elif first is None:
            errors_before = len(report.errors)
            check_run(wl, seed, out, last_json(rec["stdout"]), report)
            rec["ok"] = len(report.errors) == errors_before
            first = (out, csv_files(out), rec["ok"])
        elif csv_files(out) != first[1]:
            rec["ok"] = False
            report.fail(f"run {len(runs)} wrote different CSV bytes than the first run")
        else:
            rec["ok"] = first[2]  # same bytes as the checked run, same verdict
        runs.append(rec)
        if rec["ok"] and first and out != first[0]:
            shutil.rmtree(out)
        if len(setups) < setup_repeats:
            setup_probe()
    while len(setups) < setup_repeats:
        setup_probe()
    return runs, setups, report


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run


def layer_metrics(wl, spans: list[dict], configs: list[str], traced_wall: float,
                  untraced_wall: float, micro: dict, report: check.Report) -> dict:
    """Aggregate spans into the per-layer metrics and assert the exact counts."""
    st = layertrace.self_times(spans)
    named = lambda name: [s for s in spans if s["name"] == name]  # noqa: E731
    run_span = sum(layertrace.durations(spans, "runner.run"))
    roots = [s["name"] for s in spans if s["parent"] is None]
    if roots != ["runner.run"] or abs(sum(st.values()) - run_span) > 1e-6:
        report.fail(f"trace spans do not nest under one run() span: roots {roots}")

    builds, sectors, evolves = named("hamiltonian.build"), named("hamiltonian.sector"), named("dynamics.evolve_rk4")
    observes = named(layertrace.OBSERVE)
    L = wl.L
    for b in builds:
        if b["info"]["nnz"] != oracle.full_nnz(L):
            report.fail(f"H has {b['info']['nnz']} couplings, the model has {oracle.full_nnz(L)}")
    expected_nnz = [
        oracle.sector_hamiltonian(L, *oracle.boundary(oracle.bits_of(c))).nnz for c in configs
    ]
    got_nnz = [s["info"]["nnz"] for s in sectors]
    if sectors and got_nnz != expected_nnz:
        report.fail(f"sector couplings {got_nnz} differ from the model's {expected_nnz}")
    if any(s["info"]["dim"] != 1 << (L - 4) for s in sectors):
        report.fail("a frozen sector does not have dimension 2**(L-4)")
    if len(observes) != wl.snapshots or sum(e["info"]["snapshots"] for e in evolves) != wl.snapshots:
        report.fail(f"{len(observes)} snapshots observed, expected {wl.snapshots}")
    rdm_per_snapshot = {s["counts"].get("rdm_calls", 0) for s in observes}
    if len(rdm_per_snapshot) > 1:
        report.fail(f"snapshots made different numbers of RDM calls: {sorted(rdm_per_snapshot)}")

    steps = int(wl.snapshot_steps[-1])
    step_bytes = []
    for k, e in enumerate(spans):
        if e["name"] != "dynamics.evolve_rk4":
            continue
        child = [s for s in sectors if s["parent"] == k]
        if child:
            nnz, dim = child[0]["info"]["nnz"], child[0]["info"]["dim"]
        else:
            nnz, dim = oracle.full_nnz(L), 1 << L
        step_bytes.append(8 * (12 * nnz + 4 * (dim + 1) + 16 * dim))
    sv = layertrace.durations(spans, "lattice.statevector")
    return {
        "hamiltonian.build_s": st.get("hamiltonian.build", 0.0),
        "hamiltonian.nnz": sum(b["info"]["nnz"] for b in builds),
        "hamiltonian.csr_mb": sum(b["info"]["csr_bytes"] for b in builds) / 1e6,
        "hamiltonian.sector_s": st.get("hamiltonian.sector", 0.0),
        "hamiltonian.sector_dim": sectors[0]["info"]["dim"] if sectors else 0,
        "hamiltonian.sector_nnz": sum(got_nnz),
        "dynamics.evolve_self_s": st.get("dynamics.evolve_rk4", 0.0),
        "dynamics.rk4_step_us": micro["rk4_step_us"],
        "dynamics.matvecs": 8 * steps * len(evolves),
        "dynamics.bytes_per_step": float(np.mean(step_bytes)) if step_bytes else 0.0,
        "dynamics.snapshot_us": micro["snapshot_us"],
        "dynamics.snapshots": len(observes),
        "dynamics.classical_s": st.get("dynamics.classical", 0.0),
        "lattice.statevector_us": 1e6 * float(np.mean(sv)) if sv else 0.0,
        "observables.population_s": st.get("observables.population", 0.0),
        "observables.discrete_s": st.get("observables.discrete", 0.0),
        "quantum_info.entropies_s": st.get("quantum_info.entropies", 0.0),
        "quantum_info.mi_s": st.get("quantum_info.mi", 0.0),
        "quantum_info.concurrence_s": st.get("quantum_info.concurrence", 0.0),
        "quantum_info.bonds_s": st.get("quantum_info.bonds", 0.0),
        "quantum_info.rdm_calls": sum(s["counts"].get("rdm_calls", 0) for s in spans if s["parent"] is None),
        "runner.self_s": st.get("runner.run", 0.0) + st.get(layertrace.OBSERVE, 0.0),
        "cli.overhead_s": traced_wall - run_span,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def traced_run(wl, seed: int, root: Path, work: Path, untraced: list[dict],
               report: check.Report) -> tuple[dict, int]:
    """One traced CLI process plus the RK4 probe; returns metrics and failures."""
    out = work / "traced"
    spans_path = work / "spans.json"
    rec = run_child([sys.executable, str(CHILD), "trace", str(spans_path), *wl.qgol_args(seed, str(out))],
                    root, work / "traced")
    if rec["code"] != 0:
        report.fail(f"traced run exited {rec['code']}: {rec['stderr'][-300:]}")
        raise BenchError("; ".join(report.errors[:5]))
    trace = json.loads(spans_path.read_text())
    if not trace["restored"]:
        report.fail("the trace wrappers were not removed after the traced run")
    first = next(k for k, r in enumerate(untraced) if r["code"] == 0)  # its outputs are kept
    written = csv_files(out)
    if written != csv_files(work / f"run{first}"):
        report.fail("the traced run wrote different CSV bytes than the untraced run")
    if wl.kind == "ensemble":
        configs = [row[1] for row in check.read_table(out / "ensemble.csv")[1]]
    else:
        configs = [wl.bitstring(seed)]
    micro = probe(["micro", wl.bitstring(seed), repr(wl.dt), str(wl.micro_steps),
                   str(wl.micro_snapshots), "3"], root, work, "micro")
    untraced_wall = statistics.median(r["wall_s"] for r in untraced if r["code"] == 0)
    metrics = layer_metrics(wl, trace["spans"], configs, rec["wall_s"], untraced_wall, micro, report)
    metrics["runner.csv_bytes"] = sum(len(b) for b in written.values())
    return metrics, int(not report.ok)


# ---------------------------------------------------------------------------
# environment record


def environment(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (root / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = result.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qgol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "pinned_env": PINNED_ENV,
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small lattices; finishes in seconds")
    return parser.parse_args(argv)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def benchmark(args, root: Path, work: Path) -> dict:
    wl = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    runs, setups, report = timed_runs(wl, args.seed, args.seconds, root, work,
                                      0 if args.trace else wl.setup_repeats)
    timed = [r for r in runs if r["code"] == 0]  # timings count even when a check failed
    if not timed:
        raise BenchError("no run exited normally: " + "; ".join(report.errors[:5]))
    walls = [r["wall_s"] for r in timed]
    failed = sum(not r["ok"] for r in runs)
    attempted = len(runs)
    lines = [f"workload {wl.name} (L = {wl.L}), seed {args.seed}, {len(runs)} timed runs"]
    if args.trace:
        metrics, traced_failed = traced_run(wl, args.seed, root, work, runs, report)
        attempted += 1
        failed += traced_failed
        table = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "steps_per_s": statistics.median(wl.rk4_steps / w for w in walls),
            "snapshots_per_s": statistics.median(wl.snapshots / w for w in walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        table = END_TO_END
        q1, _, q3 = statistics.quantiles(walls, n=4, method="inclusive") if len(walls) > 1 else walls * 3
        lines.append(f"  wall_s quartiles {q1:.4f} .. {q3:.4f} s over {len(walls)} runs; "
                     f"setup_s median of {len(setups)}")
    checks = {
        "norm_drift": report.norm_drift,
        "result_err": report.result_err,
        "fail_frac": failed / attempted,
        "threshold_flips": report.threshold_flips,
    }
    metrics.update({f"check.{k}": v for k, v in checks.items()} if args.trace else {})
    for name, unit in table.items():
        note = " (computed)" if name in COMPUTED else ""
        lines.append(f"  {name:<28} {fmt(metrics[name]):>14} {unit}{note}")
    if not args.trace:
        for name, unit in CHECKS.items():
            lines.append(f"  {name:<28} {fmt(checks[name]):>14} {unit}")
    for error in report.errors[:20]:
        lines.append(f"  FAILED CHECK: {error}")
    print("\n".join(lines))
    return {
        "correct": report.ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table.items()},
        "runs": [{k: r[k] for k in ("wall_s", "peak_rss_mb", "code", "ok")} for r in runs],
        "checks": {**checks, "errors": report.errors[:100]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qgol" / "__init__.py").is_file():
        print(f"perfbench: no qgol sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    state = root / ".perfbench"
    work = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = benchmark(args, root, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": environment(root, args.seed), **result}
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
