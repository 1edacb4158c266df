"""Fresh-process probes that `run.py` starts with PYTHONPATH=src.

    python3 perfbench/child.py setup L LOW HIGH
        time `import qgol`, `build_hamiltonian(L)` and `frozen_sector`.
    python3 perfbench/child.py trace SPANS_JSON QGOL_ARGS...
        run the qgol CLI in-process with the layer wrappers installed.
    python3 perfbench/child.py micro BITSTRING DT STEPS SNAPSHOT_STEPS REPEATS
        time bare RK4 steps and the per-snapshot cost of a no-op observer.

Each prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import statistics
import sys
import time


def setup(L: int, low: int, high: int) -> dict:
    start = time.perf_counter()
    import qgol

    h = qgol.build_hamiltonian(L)
    qgol.frozen_sector(h, low, high)
    return {"setup_s": time.perf_counter() - start}


def _build_info(args, kwargs, h):
    m = h.matrix
    return {"nnz": int(m.nnz), "csr_bytes": int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)}


def _sector_info(args, kwargs, result):
    _, sub = result
    return {"dim": int(sub.shape[0]), "nnz": int(sub.nnz)}


def _evolve_info(args, kwargs, trajectory):
    return {"snapshots": int(len(trajectory.times))}


def trace(spans_path: str, argv: list[str]) -> dict:
    import qgol.cli
    import qgol.dynamics
    import qgol.quantum_info
    import qgol.runner

    from layertrace import Tracer

    modules = {m.__name__: m for m in (qgol.cli, qgol.dynamics, qgol.quantum_info, qgol.runner)}
    inspect = {
        "hamiltonian.build": _build_info,
        "hamiltonian.sector": _sector_info,
        "dynamics.evolve_rk4": _evolve_info,
    }
    with Tracer(modules, inspect) as tracer:
        code = qgol.cli.main(argv)
    spans = [{**s, "counts": dict(s["counts"])} for s in tracer.spans]
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"spans": spans, "exit_code": code, "restored": tracer.restored()}, f)
    return {"exit_code": code}


def micro(bitstring: str, dt: float, steps: int, snapshot_steps: int, repeats: int) -> dict:
    """Per-step RK4 cost with no observer and one final snapshot, and the
    per-snapshot cost of handing each state to a no-op observer."""
    import qgol

    config = qgol.SpinConfig.from_string(bitstring)
    h = qgol.build_hamiltonian(config.L)
    psi0 = qgol.make_fock_state(config)

    def timed(n, every, observer):
        start = time.perf_counter()
        qgol.evolve_rk4(h, psi0, t_max=n * dt, dt=dt, sample_every=every,
                        observer=observer, keep_states=False)
        return time.perf_counter() - start

    timed(2, 1, None)  # first call pays for lazy imports and allocation
    step = [timed(steps, steps, None) / steps for _ in range(repeats)]
    snap = []
    for _ in range(repeats):
        bare = timed(snapshot_steps, 1, None)
        observed = timed(snapshot_steps, 1, lambda t, s: None)
        snap.append((observed - bare) / (snapshot_steps + 1))
    return {
        "rk4_step_us": 1e6 * statistics.median(step),
        "snapshot_us": 1e6 * statistics.median(snap),
    }


def main(argv: list[str]) -> int:
    kind, rest = argv[0], argv[1:]
    if kind == "setup":
        out = setup(int(rest[0]), int(rest[1]), int(rest[2]))
    elif kind == "trace":
        out = trace(rest[0], rest[1:])
    elif kind == "micro":
        out = micro(rest[0], float(rest[1]), int(rest[2]), int(rest[3]), int(rest[4]))
    else:
        raise SystemExit(f"unknown probe {kind!r}")
    print(json.dumps(out))
    return 0 if out.get("exit_code", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
