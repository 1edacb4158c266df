"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import layertrace
import oracle
import qgol
import qgol.cli
import qgol.dynamics
import qgol.quantum_info
import qgol.runner
import run
from conftest import BENCH, ROOT
from workloads import SMOKE, WORKLOADS

MODULES = {m.__name__: m for m in (qgol.cli, qgol.dynamics, qgol.quantum_info, qgol.runner)}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_emitted_metrics():
    doc = spec()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
    if trace == "0":
        assert all(result["metrics"][name]["value"] > 0 for name in run.END_TO_END)
        for name in (*run.END_TO_END, *run.CHECKS):  # the printed table names them all
            assert f"  {name} " in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "measures", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_trace_wrappers_are_removed_after_the_traced_run(tmp_path):
    originals = {(m, a): getattr(MODULES[m], a) for m, a, _ in layertrace.SPANS + layertrace.COUNTS}
    with layertrace.Tracer(MODULES) as tracer:
        assert all(getattr(MODULES[m], a) is not f for (m, a), f in originals.items())
        assert qgol.cli.main(SMOKE["measures"].qgol_args(0, str(tmp_path))) == 0
    assert tracer.restored()
    assert all(getattr(MODULES[m], a) is f for (m, a), f in originals.items())

    with pytest.raises(RuntimeError):
        with layertrace.Tracer(MODULES):
            raise RuntimeError("interrupted run")
    assert all(getattr(MODULES[m], a) is f for (m, a), f in originals.items())


def test_layer_self_times_account_for_the_run_span(tmp_path):
    wl = SMOKE["measures"]
    with layertrace.Tracer(MODULES) as tracer:
        qgol.cli.main(wl.qgol_args(0, str(tmp_path)))
    spans = tracer.spans
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["runner.run"]
    total = layertrace.self_times(spans)
    assert sum(total.values()) == pytest.approx(roots[0]["end"] - roots[0]["start"], abs=1e-9)
    observes = [s for s in spans if s["name"] == layertrace.OBSERVE]
    assert len(observes) == wl.snapshots
    per_snapshot = {s["counts"]["rdm_calls"] for s in observes}
    L = wl.L
    assert per_snapshot == {L + (L + L * (L - 1) // 2) + (L - 1)}  # entropies, MI, concurrence
    assert roots[0]["counts"]["rdm_calls"] == wl.snapshots * per_snapshot.pop()


def test_self_time_subtracts_children():
    spans = [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "c", "parent": 1, "start": 2.0, "end": 3.0},
        {"name": "b", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert layertrace.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


@pytest.mark.parametrize("L", [6, 9])
def test_oracle_model_matches_qgol_blocks(L):
    h = qgol.build_hamiltonian(L)
    assert h.matrix.nnz == oracle.full_nnz(L)
    for low in range(4):
        for high in range(4):
            _, block = qgol.frozen_sector(h, low, high)
            assert (oracle.sector_hamiltonian(L, low, high) != block).nnz == 0


def test_oracle_measures_match_qgol_on_a_random_block_state():
    rng = np.random.default_rng(5)
    bits = oracle.bits_of("1000110110")
    L = bits.size
    block = rng.normal(size=1 << (L - 4)) + 1j * rng.normal(size=1 << (L - 4))
    block /= np.linalg.norm(block)
    full = np.zeros(1 << L, dtype=complex)
    full[oracle.sector_basis(L, *oracle.boundary(bits))] = block
    state = qgol.StateVector(full)
    got = oracle.quantum_measures(bits, block, distances=(1, 2))
    np.testing.assert_allclose(got["entropies"], qgol.single_site_entropies(state), atol=1e-10)
    np.testing.assert_allclose(got["bonds"], qgol.bond_entropy_profile(state), atol=1e-10)
    mi = qgol.mutual_information_matrix(state)
    for (i, j), value in got["mi"].items():
        assert value == pytest.approx(mi[i - 1, j - 1], abs=1e-10)
    for k, d in enumerate((1, 2)):
        assert got["concurrence"][k] == pytest.approx(qgol.average_concurrence(state, d), abs=1e-8)
    np.testing.assert_allclose(
        oracle.block_populations(bits, block[None, :])[0], qgol.local_population(state), atol=1e-12
    )


@pytest.fixture()
def measures_run(tmp_path):
    wl = SMOKE["measures"]
    assert qgol.cli.main(wl.qgol_args(0, str(tmp_path))) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    return wl, tmp_path, manifest


def test_check_passes_a_correct_run(measures_run):
    wl, out, manifest = measures_run
    report = check.Report()
    check.check_evolve(wl, wl.bitstring(0), out, manifest, None, report)
    assert report.ok, report.errors
    assert 0 < report.result_err < check.TOL


def _edit(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "name, col, value",
    [
        ("populations", 4, "0.123"),  # continuous value off
        ("populations", 1, "0.5"),  # frozen boundary site moved
        ("entropies", 3, "nan"),  # the NaN hole
        ("diversity", 2, "7"),  # discrete value off, no population near 0.5
        ("mi", 3, "-0.25"),  # negative mutual information
    ],
)
def test_check_catches_a_bad_value(measures_run, name, col, value):
    wl, out, manifest = measures_run
    _edit(out / f"{name}.csv", 2, col, value)
    report = check.Report()
    check.check_evolve(wl, wl.bitstring(0), out, manifest, None, report)
    assert not report.ok


def test_blown_up_run_fails_despite_zero_norm_drift(measures_run):
    wl, out, manifest = measures_run
    _edit(out / "populations.csv", 1, 5, "nan")
    manifest["summary"]["norm_drift"] = 0.0
    report = check.Report()
    check.check_evolve(wl, wl.bitstring(0), out, manifest, None, report)
    assert any("non-finite" in e for e in report.errors)


def test_discrete_mismatch_near_threshold_is_a_flip_not_a_failure():
    report = check.Report()
    got = [["0.0", "1"], ["1.0", "2"]]
    want = [[0.0, 1], [1.0, 1]]
    check.compare("t", got, want, ["time", "disc"], lambda r: r == 1, report)
    assert report.ok and report.threshold_flips == 1
    check.compare("t", got, want, ["time", "disc"], lambda r: False, report)
    assert not report.ok


def test_references_exist_for_default_and_held_out_seed():
    for wl in WORKLOADS.values():
        for seed in (0, 1):
            assert any((run.REFERENCES / wl.name / f"seed{seed}").glob("*.csv"))
