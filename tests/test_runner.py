import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgol import (
    IntegrationError,
    RunConfig,
    SpinConfig,
    classical_trajectory,
    equilibrium_average,
    run,
    sample_random_fock,
)
import qgol
from qgol.cli import main, read_config_file
from qgol.runner import MEASURES, sample_rng
from test_dynamics import _counted_products


def test_sample_random_fock_extremes(rng):
    assert sample_random_fock(8, 0.0, rng).bits == (0,) * 8
    assert sample_random_fock(8, 1.0, rng).bits == (1,) * 8
    cfg = sample_random_fock(16, 0.25, rng)
    assert sum(cfg.bits) == 4


def test_sample_random_fock_marginals():
    # each site's alive frequency approaches rho0 within 3 sigma
    trials, L, rho0 = 2000, 12, 0.25
    counts = np.zeros(L)
    for k in range(trials):
        counts += sample_random_fock(L, rho0, sample_rng(99, k)).bits
    sigma = np.sqrt(trials * rho0 * (1 - rho0))
    assert np.abs(counts - trials * rho0).max() < 3.5 * sigma


def test_sample_random_fock_validation(rng):
    with pytest.raises(ValueError):
        sample_random_fock(8, 1.2, rng)


def test_equilibrium_average():
    times = np.arange(0.0, 10.0, 0.5)
    values = np.full_like(times, 0.7)
    assert equilibrium_average(times, values, (2.0, 8.0)) == 0.7
    values = times.copy()
    assert equilibrium_average(times, values, (4.0, 6.0)) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        equilibrium_average(times, values, (11.0, 12.0))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(kind="zap")
    with pytest.raises(ValueError):
        RunConfig(kind="evolve", L=25, initial="0" * 25)
    with pytest.raises(ValueError):
        RunConfig(kind="evolve", L=11, initial="111")
    with pytest.raises(ValueError):
        RunConfig(kind="ensemble", L=8, rho0=0.5)  # missing seed
    with pytest.raises(ValueError):
        RunConfig(kind="evolve", L=8, initial="0" * 8, dt=-0.1)
    with pytest.raises(ValueError):
        RunConfig(kind="evolve", L=8, initial="0" * 8, measures=("bogus",))
    with pytest.raises(ValueError, match="neither rho0 nor seed"):
        RunConfig(kind="classical", L=8, initial="0" * 8, seed=1)


def test_ensemble_window_after_tmax_rejected_before_evolving():
    base = dict(kind="ensemble", L=8, rho0=0.5, samples=2, seed=1)
    with pytest.raises(ValueError, match="window"):
        RunConfig(**base, t_max=10.0)
    with pytest.raises(ValueError, match="window"):
        RunConfig(**base, t_max=10.0, window=(12.0, 15.0))
    RunConfig(**base, t_max=12.0, window=(12.0, 15.0))


def test_ensemble_window_without_snapshot_rejected_before_evolving(monkeypatch, tmp_path):
    # snapshots fall at t = 0, 1.25, 2.5 and 3: none inside (1.5, 2.0)
    options = dict(kind="ensemble", L=8, rho0=0.5, samples=2, seed=1, t_max=3.0,
                   sample_every=125, out_dir=str(tmp_path / "run"))

    def never(*args, **kwargs):
        raise AssertionError("evolved before rejecting the window")

    monkeypatch.setattr("qgol.runner.evolve_rk4", never)
    with pytest.raises(ValueError, match="no snapshot inside the quantum window"):
        run(RunConfig(**options, window=(1.5, 2.0)))
    assert not (tmp_path / "run").exists()
    RunConfig(**options, window=(1.0, 2.0))


@pytest.mark.parametrize("samples", [0, -2])
def test_ensemble_without_samples_rejected_before_evolving(monkeypatch, tmp_path, capsys, samples):
    def never(*args, **kwargs):
        raise AssertionError("evolved before rejecting the sample count")

    monkeypatch.setattr("qgol.runner.evolve_rk4", never)
    code = main(
        ["ensemble", "--length", "8", "--density", "0.5", "--samples", str(samples),
         "--seed", "1", "--tmax", "3", "--window", "0,3", "--out", str(tmp_path)]
    )
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError" and "samples" in record["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("period, k0", [(5, 7), (5, -1), (1, 0)])
def test_bad_ring_rejected_before_writing(tmp_path, capsys, period, k0):
    out = tmp_path / "ring"
    code = main(["circulant", "--period", str(period), "--k0", str(k0), "--tmax", "1",
                 "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "args",
    [
        ["evolve", "--length", "8", "--initial", "00001000", "--tmax", "-1"],
        ["evolve", "--length", "8", "--initial", "00001000", "--sample-every", "0"],
        ["evolve", "--length", "8", "--initial", "00002000"],
        ["classical", "--length", "8", "--initial", "0001000 ", "--steps", "1"],
        ["classical", "--length", "8", "--initial", "00001000", "--steps", "-1"],
        ["strobe", "--length", "8", "--initial", "00001000", "--steps", "-1"],
        ["circulant", "--tmax", "-1"],
        ["circulant", "--dt", "nan"],
        ["evolve", "--length", "8", "--initial", "00001000", "--dt", "inf"],
        ["evolve", "--length", "8", "--initial", "00001000", "--tmax", "inf"],
        ["circulant", "--tolerance", "0"],
        ["circulant", "--tolerance=-1e-9"],
        ["circulant", "--tolerance", "nan"],
        ["circulant", "--qmax", "0"],
        ["circulant", "--hopping", "nan", "--tmax", "1"],
        ["circulant", "--hopping", "inf", "--tmax", "1"],
        ["ensemble", "--length", "8", "--density", "0.5", "--samples", "1", "--seed", "-1",
         "--tmax", "3", "--window", "0,3"],
        ["evolve", "--length", "8", "--initial", "00001000", "--measures", ","],
        ["evolve", "--length", "8", "--initial", "00010000", "--measures", "concurrence",
         "--distances", ","],
        ["evolve", "--length", "8", "--initial", "00010000", "--tmax", "0.5", "--measures",
         "bonds", "--bonds", ","],
        ["evolve", "--length", "8", "--initial", "00010000", "--tmax", "0.5", "--measures",
         "bonds", "--config", "bonds ="],
        ["evolve", "--length", "3", "--density", "0.5", "--seed", "1"],
        ["ensemble", "--length", "4", "--density", "0.5", "--samples", "1", "--seed", "1",
         "--tmax", "3", "--window", "0,3"],
        ["strobe", "--length", "4", "--density", "0.5", "--seed", "1", "--steps", "1"],
        ["evolve", "--length", "8", "--initial", "00010000", "--tmax", "0.5", "--measures",
         "concurrence", "--distances", "1,1"],
        ["evolve", "--length", "8", "--initial", "00010000", "--tmax", "0.5", "--measures",
         "bonds", "--bonds", "2,3,2"],
        ["evolve", "--length", "8", "--initial", "00010000", "--tmax", "0.5", "--measures",
         "bonds", "--config", "bonds = 4,4"],
        ["evolve", "--length", "8", "--initial", "00010000", "--tmax", "0.5", "--measures",
         "populations,populations"],
        ["ensemble", "--length", "8", "--density", "0.5", "--samples", "1", "--seed", "1",
         "--tmax", "3", "--window", "0,3", "--initial", "11111111"],
        ["evolve", "--length", "8", "--initial", "00010000", "--tmax", "0.5", "--density", "0.5"],
        ["classical", "--length", "8", "--initial", "00010000", "--steps", "1", "--seed", "1"],
        ["evolve", "--length", "8", "--initial", "00010000", "--tmax", "0.5",
         "--config", "kind = ensemble"],
    ],
    ids=["tmax", "sample-every", "initial", "initial-short", "classical-steps", "strobe-steps",
         "ring-tmax", "ring-dt-nan", "dt-inf", "tmax-inf", "tolerance-zero",
         "tolerance-negative", "tolerance-nan", "qmax", "hopping-nan", "hopping-inf",
         "negative-seed", "no-measures", "no-distances", "no-bonds", "no-bonds-config",
         "evolve-l3", "ensemble-l4", "strobe-l4", "repeated-distance", "repeated-bond",
         "repeated-bond-config", "repeated-measure", "ensemble-initial", "initial-and-density",
         "initial-and-seed", "config-kind"],
)
def test_bad_arguments_rejected_before_creating_output(tmp_path, capsys, args):
    if "--config" in args:  # the value after it is the config file's text
        k = args.index("--config") + 1
        (tmp_path / "run.cfg").write_text(args[k] + "\n")
        args = [*args[:k], str(tmp_path / "run.cfg"), *args[k + 1:]]
    out = tmp_path / "run"
    assert main([*args, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, named",
    [
        (["evolve", "--length", "abc"], "--length"),
        (["classical", "--bogus", "1"], "--bogus"),
        ([], "kind"),
        (["zap"], "zap"),
        # argparse reads an exponent-form negative number as an option
        (["circulant", "--hopping", "-1e-3"], "--hopping"),
        (["evolve", "--window", "1"], "--window"),
    ],
    ids=["bad-value", "unknown-flag", "no-subcommand", "unknown-subcommand",
         "exponent-negative", "window"],
)
def test_command_line_errors_are_json_records(tmp_path, capsys, args, named):
    out = tmp_path / "run"
    # with no subcommand at all, the --out path would be read as one
    assert main([*args, "--out", str(out)] if args else []) == 1
    captured = capsys.readouterr()
    assert not captured.out
    record = json.loads(captured.err)
    assert record["error"] == "ValueError" and named in record["message"]
    assert not out.exists()


def test_exponent_negative_value_runs_in_equals_form_and_help_exits_zero(tmp_path, capsys):
    args = ["circulant", "--tmax", "1", "--out", str(tmp_path / "ring")]
    assert main([*args, "--hopping", "-1e-3"]) == 1
    assert "--hopping" in json.loads(capsys.readouterr().err)["message"]
    assert main([*args, "--hopping=-1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["hopping"] == -1e-3
    for argv in (["-h"], ["evolve", "-h"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert "usage: qgol" in capsys.readouterr().out


def test_period_above_bound_rejected_before_any_work(monkeypatch, tmp_path, capsys):
    def never(*args, **kwargs):
        raise AssertionError("analysed the ring before rejecting its period")

    monkeypatch.setattr("qgol.runner.ring_eigensystem", never)
    monkeypatch.setattr("qgol.runner.commensurability_check", never)
    bound = qgol.runner.MAX_PERIOD
    out = tmp_path / "ring"
    assert main(["circulant", "--period", str(bound + 1), "--tmax", "1", "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError" and f"period <= {bound}" in record["message"]
    assert not out.exists()
    RunConfig(kind="circulant", period=bound)


@pytest.mark.parametrize("bonds", [(9,), (0,), (1, 8)])
def test_bond_outside_lattice_rejected_before_evolving(bonds):
    with pytest.raises(ValueError, match="bond"):
        RunConfig(kind="evolve", L=8, initial="0" * 8, measures=("bonds",), bonds=bonds)


@pytest.mark.parametrize("distances", [(0,), (8,), (1, -1), ()])
def test_concurrence_distance_outside_lattice_rejected_before_evolving(distances):
    with pytest.raises(ValueError, match="concurrence distance"):
        RunConfig(
            kind="evolve", L=8, initial="0" * 8, measures=("concurrence",),
            concurrence_distances=distances,
        )


def test_evolve_run_shapes(tmp_path):
    config = RunConfig(
        kind="evolve",
        L=11,
        initial="00001010000",
        t_max=2.0,
        sample_every=50,
        measures=("populations", "clusters", "diversity", "bonds", "concurrence"),
        out_dir=str(tmp_path),
    )
    manifest = run(config)
    pops = (tmp_path / "populations.csv").read_text().splitlines()
    assert pops[0] == "time," + ",".join(f"n_{i}" for i in range(1, 12))
    assert len(pops) - 1 == 5  # t = 0, 0.5, 1.0, 1.5, 2.0
    assert (tmp_path / "manifest.json").exists()
    names = {f["name"] for f in manifest["files"]}
    assert names == {
        "populations.csv",
        "clusters.csv",
        "diversity.csv",
        "bonds.csv",
        "concurrence.csv",
    }


def test_classical_run_matches_trajectory(tmp_path):
    config = RunConfig(
        kind="classical", L=11, initial="00001010000", steps=5, out_dir=str(tmp_path)
    )
    run(config)
    lines = (tmp_path / "classical.csv").read_text().splitlines()
    assert len(lines) - 1 == 6
    traj = classical_trajectory(SpinConfig.from_string("00001010000"), 5)
    for line, cfg in zip(lines[1:], traj.steps):
        assert line.split(",")[2] == cfg.to_string()


def test_strobe_run_equals_classical(tmp_path):
    common = dict(L=9, initial="001011010", steps=8)
    run(RunConfig(kind="classical", out_dir=str(tmp_path / "c"), **common))
    run(RunConfig(kind="strobe", out_dir=str(tmp_path / "s"), **common))
    classical = (tmp_path / "c" / "classical.csv").read_text()
    strobe = (tmp_path / "s" / "strobe.csv").read_text()
    assert classical == strobe


def test_ensemble_deterministic_and_worker_independent(tmp_path):
    base = dict(
        kind="ensemble", L=8, rho0=0.5, samples=4, seed=42,
        t_max=2.0, sample_every=20, window=(1.0, 2.0),
    )
    a = run(RunConfig(out_dir=str(tmp_path / "a"), **base))
    b = run(RunConfig(out_dir=str(tmp_path / "b"), **base))
    c = run(RunConfig(out_dir=str(tmp_path / "c"), workers=2, **base))
    read = lambda d: (tmp_path / d / "ensemble.csv").read_bytes()
    assert read("a") == read("b") == read("c")
    assert a["summary"]["means"] == b["summary"]["means"] == c["summary"]["means"]


@pytest.mark.parametrize("cpus, pool_size", [(2, 2), (64, 3), (1, None), (None, None)])
def test_ensemble_pool_is_capped_by_samples_and_cpus(tmp_path, monkeypatch, cpus, pool_size):
    sizes = []

    class RecordingPool:  # stands in for the process pool: records its size, maps in-process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    base = dict(kind="ensemble", L=8, rho0=0.5, samples=3, seed=42,
                t_max=2.0, sample_every=20, window=(1.0, 2.0))
    serial = run(RunConfig(out_dir=str(tmp_path / "serial"), **base))
    monkeypatch.setattr(qgol.runner, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    capped = run(RunConfig(out_dir=str(tmp_path / "capped"), workers=10**6, **base))
    assert sizes == ([] if pool_size is None else [pool_size])
    assert capped["config"]["workers"] == 10**6  # the manifest keeps the request
    assert capped["files"] == serial["files"]  # names and SHA-256 of every CSV


def test_ensemble_result_fields(tmp_path):
    config = RunConfig(
        kind="ensemble", L=8, rho0=0.25, samples=3, seed=7,
        t_max=1.0, sample_every=10, window=(0.5, 1.0), out_dir=str(tmp_path),
    )
    summary = run(config)["summary"]
    header, *rows = (tmp_path / "ensemble.csv").read_text().splitlines()
    assert len(rows) == 3
    for row in rows:
        config_bits = row.split(",")[header.split(",").index("config")]
        assert sum(int(b) for b in config_bits) == 2  # round(0.25 * 8)
    assert set(summary["means"]) == set(summary["standard_errors"])
    assert summary["quantum_window"] == [0.5, 1.0]
    assert summary["classical_window"] == [83.0, 100.0]


def test_ensemble_observes_only_the_snapshots_it_averages(tmp_path, monkeypatch):
    # the default grid to t = 30 takes 121 snapshots, 21 of them in the window [25, 30]
    calls = []
    population = qgol.runner.local_population
    monkeypatch.setattr(qgol.runner, "local_population",
                        lambda state: calls.append(state) or population(state))
    run(RunConfig(kind="ensemble", L=8, rho0=0.5, samples=2, seed=3, out_dir=str(tmp_path)))
    assert len(calls) == 2 * 21


def test_manifest_reports_the_sparse_products_of_the_run(tmp_path, monkeypatch):
    # evolve reports its trajectory's products, an ensemble the sum over its samples
    count = _counted_products(monkeypatch)
    evolve = run(RunConfig(kind="evolve", L=10, initial="0001101100", t_max=2.0,
                           sample_every=25, out_dir=str(tmp_path / "evolve")))
    assert evolve["summary"]["products"] == count[0] > 0
    base = dict(kind="ensemble", L=8, rho0=0.5, samples=3, seed=3, t_max=2.0, sample_every=20,
                window=(1.0, 2.0))
    count[0] = 0
    serial = run(RunConfig(out_dir=str(tmp_path / "serial"), **base))
    assert serial["summary"]["products"] == count[0] > 0
    pooled = run(RunConfig(out_dir=str(tmp_path / "pooled"), workers=2, **base))
    assert pooled["summary"]["products"] == serial["summary"]["products"]


#: A small run of each kind, with the CSVs it writes in the order it writes them.
_ONE_RUN_PER_KIND = {
    "evolve": (
        dict(L=8, initial="00101100", t_max=0.5, sample_every=25,
             measures=("bonds", "mi", "populations")),
        ["populations.csv", "mi.csv", "bonds.csv"],
    ),
    "classical": (dict(L=11, initial="00001010000", steps=3), ["classical.csv"]),
    "strobe": (dict(L=11, initial="00001010000", steps=3), ["strobe.csv"]),
    "ensemble": (
        dict(L=8, rho0=0.5, samples=2, seed=3, t_max=1.0, sample_every=50, window=(0.5, 1.0)),
        ["ensemble.csv", "ensemble_summary.csv"],
    ),
    "circulant": (
        dict(period=5, t_max=1.0, dt=0.1),
        ["eigenvalues.csv", "gap_ratios.csv", "ring_evolution.csv"],
    ),
}


#: The fields each kind reads, besides its kind: all a manifest's `config` records.
_READS = {
    "evolve": {"L", "initial", "rho0", "seed", "t_max", "dt", "sample_every", "measures",
               "concurrence_distances", "bonds", "out_dir"},
    "classical": {"L", "initial", "rho0", "seed", "steps", "out_dir"},
    "strobe": {"L", "initial", "rho0", "seed", "steps", "out_dir"},
    "ensemble": {"L", "rho0", "seed", "t_max", "dt", "sample_every", "samples", "window",
                 "workers", "out_dir"},
    "circulant": {"period", "hopping", "k0", "q_max", "tolerance", "t_max", "dt", "out_dir"},
}

#: For each kind, a field it does not read, its flag, and a value other than its default.
_UNREAD = {
    "evolve": ("workers", "--workers", 2),
    "classical": ("t_max", "--tmax", 99.0),
    "strobe": ("measures", "--measures", ("mi",)),
    "ensemble": ("steps", "--steps", 7),
    "circulant": ("L", "--length", 30),
}


def _raw(value) -> str:
    """A value as a flag or a config-file line writes it."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _config_text(options: dict) -> str:
    return "".join(f"{key} = {_raw(value)}\n" for key, value in options.items())


@pytest.mark.parametrize("kind", list(_ONE_RUN_PER_KIND))
def test_manifest_hashes(tmp_path, kind):
    options, names = _ONE_RUN_PER_KIND[kind]
    manifest = run(RunConfig(kind=kind, out_dir=str(tmp_path), **options))
    assert set(manifest["config"]) == {"kind", *_READS[kind]}
    assert [entry["name"] for entry in manifest["files"]] == names
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*names, "manifest.json"])
    for entry in manifest["files"]:
        digest = hashlib.sha256((tmp_path / entry["name"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_failed_run_leaves_no_table(tmp_path):
    # the norm blows up after the t = 0 snapshot's rows have been written
    config = RunConfig(kind="evolve", L=8, initial="01011010", t_max=40.0, dt=1.0,
                       measures=MEASURES, out_dir=str(tmp_path))
    with pytest.warns(UserWarning, match="RK4"), pytest.raises(IntegrationError):
        run(config)
    assert not list(tmp_path.iterdir())


def _tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()}


def test_run_into_a_used_directory_is_refused_untouched(tmp_path, capsys, monkeypatch):
    # a second run with fewer measures would publish a manifest beside stale tables
    base = ["evolve", "--length", "8", "--initial", "00101100", "--tmax", "0.5",
            "--out", str(tmp_path)]
    assert main([*base, "--measures", "all"]) == 0
    capsys.readouterr()
    before = _tree(tmp_path)
    monkeypatch.setattr(qgol.runner, "evolve_rk4", lambda *a, **k: pytest.fail("kind started"))
    assert main([*base, "--measures", "populations"]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert "already holds" in record["message"] and "manifest.json" in record["message"]
    assert _tree(tmp_path) == before


def test_run_beside_a_leftover_partial_table_is_refused_untouched(tmp_path, monkeypatch):
    # what a killed run leaves behind
    (tmp_path / "mi.csv.partial").write_bytes(b"time,i,j,value\n0,1,2,")
    before = _tree(tmp_path)
    monkeypatch.setattr(qgol.runner, "evolve_rk4", lambda *a, **k: pytest.fail("kind started"))
    config = RunConfig(kind="evolve", L=10, initial="0001101100", measures=("mi",),
                       out_dir=str(tmp_path))
    with pytest.raises(ValueError, match=r"already holds mi\.csv\.partial"):
        run(config)
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("channel", ["flag", "config-file", "RunConfig"])
@pytest.mark.parametrize("kind", list(_ONE_RUN_PER_KIND))
def test_unread_field_off_its_default_refused_before_writing(tmp_path, capsys, kind, channel):
    options, _ = _ONE_RUN_PER_KIND[kind]
    field, flag, value = _UNREAD[kind]
    out = tmp_path / "run"
    if channel == "RunConfig":
        with pytest.raises(ValueError, match=f"do not read {field}:"):
            run(RunConfig(kind=kind, out_dir=str(out), **options, **{field: value}))
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_config_text({**options, field: value} if channel == "config-file"
                                    else options))
        extra = [flag, _raw(value)] if channel == "flag" else []
        assert main([kind, "--config", str(cfg), *extra, "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError" and f"do not read {field}:" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind", list(_ONE_RUN_PER_KIND))
def test_unread_field_at_its_default_changes_nothing(tmp_path, capsys, kind):
    # e.g. `evolve --workers 1`, which the benchmark's evolve workloads pass
    options, names = _ONE_RUN_PER_KIND[kind]
    field, flag, _ = _UNREAD[kind]
    default = {f.name: f.default for f in fields(RunConfig)}[field]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text(options))
    configs = []
    for out, extra in ((tmp_path / "plain", []), (tmp_path / "default", [flag, _raw(default)])):
        assert main([kind, "--config", str(cfg), *extra, "--out", str(out)]) == 0
        configs.append(json.loads(capsys.readouterr().out)["config"])
        del configs[-1]["out_dir"]
    assert configs[0] == configs[1] and field not in configs[0]
    read = lambda d: {name: (tmp_path / d / name).read_bytes() for name in names}
    assert read("plain") == read("default")


def test_list_values_mean_the_equal_tuples(tmp_path):
    # a list in a field whose default is a tuple is that default, not a change
    RunConfig(kind="classical", L=11, initial="00001010000", measures=["populations"])
    RunConfig(kind="evolve", L=8, initial="00010000", window=[25.0, 30.0])
    base = dict(kind="evolve", L=8, initial="00010000", t_max=0.5, sample_every=25)
    manifests = [
        run(RunConfig(measures=form(["concurrence", "bonds"]), concurrence_distances=form([1, 2]),
                      bonds=form([3, 2]), out_dir=str(tmp_path / form.__name__), **base))
        for form in (list, tuple)
    ]
    for manifest in manifests:
        del manifest["config"]["out_dir"]
    assert manifests[0]["config"] == manifests[1]["config"]
    assert manifests[0]["files"] == manifests[1]["files"]  # names and SHA-256 of every CSV


@pytest.mark.parametrize(
    "kind, extra, field, bad, good",
    [
        ("evolve", {"measures": ("bonds",)}, "bonds", (1.5,), (np.int64(2),)),
        ("evolve", {"measures": ("bonds",)}, "bonds", (True,), (np.int32(1),)),
        ("evolve", {"measures": ("concurrence",)}, "concurrence_distances", (1.5,),
         (np.int64(2),)),
        ("evolve", {}, "sample_every", 2.5, np.int64(25)),
        ("evolve", {}, "L", 8.0, np.int64(8)),
        ("classical", {}, "steps", 2.5, np.int64(3)),
        ("ensemble", {}, "samples", 2.5, np.int64(2)),
        ("ensemble", {}, "seed", 3.0, np.int64(3)),
        ("ensemble", {}, "workers", 1.0, np.int64(1)),
        ("circulant", {}, "period", 4.5, np.int64(5)),
        ("circulant", {}, "k0", 1.5, np.int64(1)),
        ("circulant", {}, "q_max", 1e6, np.int64(10**6)),
    ],
    ids=["bonds", "bonds-bool", "distances", "sample-every", "L", "steps", "samples", "seed",
         "workers", "period", "k0", "qmax"],
)
def test_non_integer_refused_before_creating_output(tmp_path, kind, extra, field, bad, good):
    options = {**_ONE_RUN_PER_KIND[kind][0], **extra}
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=f"^{field} must hold integers"):
        run(RunConfig(kind=kind, out_dir=str(out), **{**options, field: bad}))
    assert not out.exists()
    run(RunConfig(kind=kind, out_dir=str(out), **{**options, field: good}))  # numpy integers pass


@pytest.mark.parametrize(
    "kind, field, bad, noun",
    [
        ("evolve", "t_max", True, "real numbers"),
        ("ensemble", "rho0", "0.5", "real numbers"),
        ("circulant", "hopping", 1j, "real numbers"),
        ("evolve", "initial", 10001000, "strings"),
        ("evolve", "out_dir", Path("run"), "strings"),
        ("evolve", "measures", ("populations", 1), "strings"),
        ("evolve", "bonds", 3, "integers in a list or tuple"),
        ("evolve", "concurrence_distances", 2, "integers in a list or tuple"),
        ("ensemble", "window", 5.0, "real numbers in a list or tuple"),
        ("evolve", "measures", "populations", "strings in a list or tuple"),
    ],
    ids=["bool", "text", "complex", "initial", "path", "measure", "scalar-bonds",
         "scalar-distances", "scalar-window", "bare-string-measures"],
)
def test_value_of_another_type_refused_by_name(tmp_path, kind, field, bad, noun):
    options = {**_ONE_RUN_PER_KIND[kind][0], "out_dir": str(tmp_path / "run")}
    bad = tmp_path / bad if isinstance(bad, Path) else bad
    with pytest.raises(ValueError, match=f"^{field} must hold {noun}"):
        run(RunConfig(kind=kind, **{**options, field: bad}))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "window",
    [(25.0, 28.0, 30.0), (25.0,), ("a", "b"), (0.0, float("inf")), (float("nan"), 30.0)],
    ids=["three", "one", "text", "inf", "nan"],
)
def test_window_not_two_finite_times_refused_by_name(tmp_path, window):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="^window must"):
        run(RunConfig(kind="ensemble", L=8, rho0=0.5, samples=1, seed=1, t_max=3.0,
                      window=window, out_dir=str(out)))
    assert not out.exists()


def test_numpy_values_are_written_as_json_numbers(tmp_path):
    run(RunConfig(kind="classical", L=np.int64(11), initial="00001010000", steps=np.int64(2),
                  out_dir=str(tmp_path / "classical")))
    run(RunConfig(kind="evolve", L=8, initial="00010000", t_max=np.float32(0.5),
                  out_dir=str(tmp_path / "evolve")))
    read = lambda d: json.loads((tmp_path / d / "manifest.json").read_text())["config"]
    assert (read("classical")["L"], read("classical")["steps"]) == (11, 2)
    assert read("evolve")["t_max"] == 0.5


def test_config_is_frozen_and_a_replaced_variant_is_checked():
    config = RunConfig(kind="classical", L=11, initial="00001010000")
    with pytest.raises(FrozenInstanceError):
        config.L = 8
    variant = replace(config, measures=["populations"])
    assert variant.measures == ("populations",) and variant == config
    with pytest.raises(ValueError, match="do not read t_max:"):
        replace(config, t_max=99.0)


def test_circulant_run(tmp_path):
    config = RunConfig(kind="circulant", period=4, t_max=1.0, dt=0.1, out_dir=str(tmp_path))
    manifest = run(config)
    assert manifest["summary"]["commensurate"] is True
    evo = (tmp_path / "ring_evolution.csv").read_text().splitlines()
    assert evo[0] == "time,p_0,p_1,p_2,p_3"
    assert len(evo) - 1 == 11
    eig = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert len(eig) - 1 == 4


def test_cli_evolve_and_errors(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "evolve",
            "--length", "11",
            "--initial", "00001010000",
            "--tmax", "1.0",
            "--sample-every", "50",
            "--measures", "populations",
            "--out", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["config"]["L"] == 11
    assert (out / "populations.csv").exists()

    code = main(["evolve", "--length", "9", "--initial", "111", "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code != 0
    record = json.loads(captured.err)
    assert record["error"] == "ValueError"
    assert "bitstring" in record["message"]


def test_cli_memory_bound(tmp_path, capsys):
    code = main(["evolve", "--length", "30", "--initial", "0" * 30, "--out", str(tmp_path)])
    assert code != 0
    assert "memory bound" in json.loads(capsys.readouterr().err)["message"]


def test_classical_and_strobe_l30_refused_by_amplitude_bound(tmp_path):
    # neither kind holds an amplitude vector, so the bound on L does not apply
    initial = "00" + "1011001" * 3 + "0" * 7
    for kind in ("classical", "strobe"):
        run(RunConfig(kind=kind, L=30, initial=initial, steps=5, out_dir=str(tmp_path / kind)))
    classical = (tmp_path / "classical" / "classical.csv").read_text()
    assert classical == (tmp_path / "strobe" / "strobe.csv").read_text()
    assert len(classical.splitlines()) == 7


def test_cli_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "L = 11\n"
        "initial = 00001010000\n"
        "t_max = 0.5  # short smoke run\n"
        "sample_every = 25\n"
        "measures = populations,diversity\n"
    )
    parsed = read_config_file(cfg)
    assert parsed["measures"] == ("populations", "diversity")
    out = tmp_path / "out"
    code = main(
        ["evolve", "--config", str(cfg), "--tmax", "1.0", "--out", str(out)]
    )
    assert code == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["config"]["t_max"] == 1.0  # flag wins over the file
    assert (out / "diversity.csv").exists()


def test_config_file_sets_every_field(tmp_path):
    expected = dict(
        kind="ensemble", L=9, initial="001011010", rho0=0.25, t_max=2.5, dt=0.005,
        sample_every=10, steps=7, samples=3, seed=11, measures=("mi", "bonds"),
        window=(1.0, 2.5), concurrence_distances=(1, 3), bonds=(2, 4), out_dir="somewhere",
        workers=2, period=6, hopping=0.5, k0=3, q_max=1000, tolerance=1e-6,
    )
    assert set(expected) == {f.name for f in fields(RunConfig)}
    cfg = tmp_path / "every.cfg"
    cfg.write_text(_config_text(expected))
    parsed = read_config_file(cfg)
    assert parsed == expected
    assert all(type(parsed[k]) is type(v) for k, v in expected.items())


def test_config_file_repeated_key_names_both_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 8\ninitial = 00010000\n# the last line repeats L\nL = 11\n")
    name = re.escape(str(cfg))
    with pytest.raises(ValueError, match=f"^{name}:4: L repeats {name}:1$"):
        read_config_file(cfg)
    out = tmp_path / "run"
    assert main(["classical", "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize("line", ["L = abc", "window = 1", "bonds = 1,x", "colour = red"])
def test_config_file_bad_value_names_its_line(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# a run\nL = 8\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:3: "):
        read_config_file(cfg)


_config_line = st.one_of(
    st.text(),
    st.builds(
        "{} = {}".format,
        st.sampled_from([f.name for f in fields(RunConfig)]),
        st.one_of(st.text(), st.integers().map(str), st.floats().map(repr)),
    ),
)


@settings(deadline=None)
@given(st.lists(_config_line, max_size=6))
def test_config_parser_parses_or_names_the_bad_line(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            read_config_file(path)
        except ValueError as exc:
            match = re.match(f"{re.escape(str(path))}:([0-9]+): ", str(exc))
            assert match, str(exc)
            with open(path, encoding="utf-8") as f:
                seen = f.readlines()  # the lines as the parser numbers them
            lineno = int(match.group(1))
            assert 1 <= lineno <= len(seen)
            path.write_text("".join(seen[: lineno - 1]), encoding="utf-8")
            read_config_file(path)  # every line before the named one parses
            # and the named line alone does not, or with the earlier line whose key it repeats
            repeats = re.search(f" repeats {re.escape(str(path))}:([0-9]+)$", str(exc))
            earlier = [seen[int(repeats.group(1)) - 1]] if repeats else []
            path.write_text("".join([*earlier, seen[lineno - 1]]), encoding="utf-8")
            with pytest.raises(ValueError):
                read_config_file(path)


def test_cli_measures_all(tmp_path, capsys):
    out = tmp_path / "all"
    code = main(
        [
            "evolve",
            "--length", "8",
            "--initial", "00101100",
            "--tmax", "0.5",
            "--sample-every", "25",
            "--measures", "all",
            "--out", str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    for name in ("populations", "clusters", "diversity", "entropies", "mi", "concurrence", "bonds"):
        assert (out / f"{name}.csv").exists()


def test_each_measure_alone_writes_its_bytes_from_all(tmp_path):
    base = dict(kind="evolve", L=8, initial="00101100", t_max=0.5, sample_every=25)
    run(RunConfig(measures=MEASURES, out_dir=str(tmp_path / "all"), **base))
    for name in MEASURES:
        run(RunConfig(measures=(name,), out_dir=str(tmp_path / name), **base))
        assert {p.name for p in (tmp_path / name).iterdir()} == {f"{name}.csv", "manifest.json"}
        alone = (tmp_path / name / f"{name}.csv").read_bytes()
        assert alone == (tmp_path / "all" / f"{name}.csv").read_bytes()


def test_ensemble_csv_header(tmp_path):
    config = RunConfig(
        kind="ensemble", L=8, rho0=0.5, samples=1, seed=3,
        t_max=1.0, sample_every=50, window=(0.5, 1.0), out_dir=str(tmp_path),
    )
    run(config)
    header = (tmp_path / "ensemble.csv").read_text().splitlines()[0]
    assert header == (
        "sample,config,density_equi_quantum,diversity_equi_quantum,"
        "improved_diversity_equi_quantum,density_equi_classical,"
        "diversity_equi_classical,improved_diversity_equi_classical,norm_drift"
    )


def test_classical_csv_header(tmp_path):
    run(RunConfig(kind="classical", L=8, initial="00101100", steps=2, out_dir=str(tmp_path)))
    header = (tmp_path / "classical.csv").read_text().splitlines()[0]
    assert header == "step,time,config,density,diversity,improved_diversity"


#: Starts a command and prints its exit code and peak RSS in KiB.  On Linux
#: a child's ru_maxrss includes the high-water mark of the image it was
#: forked from, so the command is started from this small process rather
#: than from the test process.
_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


_L22 = ["--length", "22", "--initial", "00" + "101100101100110100" + "00"]


@pytest.mark.parametrize(
    "command, bound_mib",
    [
        # a Fock-seeded run holds its 2**18 block, never a 2**22 vector or operator
        pytest.param(["evolve", *_L22, "--tmax", "0.05"], 600, id="evolve"),
        # building and evolving on the 2**20 block as built, with no second copy
        pytest.param(
            ["evolve", "--length", "24", "--initial", "001011001011001101001000",
             "--tmax", "0.05"], 450, id="evolve-l24",
        ),
        # windows of snapshots share one recurrence; its rows and terms fit a fixed budget
        pytest.param(
            ["evolve", "--length", "24", "--initial", "001011001011001101001000",
             "--tmax", "0.3", "--sample-every", "5"], 450, id="evolve-l24-windows",
        ),
        # the stroboscopic step holds 22 single-site spinors, never a 2**22 vector
        pytest.param(["strobe", *_L22, "--steps", "5"], 150, id="strobe"),
        # the 100 001 rows of `ring_evolution.csv` are written as they are computed
        pytest.param(["circulant", "--period", "5", "--tmax", "1000"], 70, id="circulant"),
        # the 450 045 rows of `mi.csv` are written as each snapshot is observed
        pytest.param(["evolve", "--length", "10", "--initial", "0001101100", "--sample-every", "1",
                      "--tmax", "100", "--measures", "mi"], 80, id="evolve-long"),
    ],
)
def test_evolve_l22_peak_memory(tmp_path, command, bound_mib):
    src = str(Path(qgol.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, sys.executable, "-m", "qgol", *command,
         "--out", str(tmp_path)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    code, peak_kib = map(int, result.stdout.split())
    assert code == 0
    assert peak_kib / 1024 < bound_mib
