"""Every kind that starts from a configuration, in every boundary sector,
against the benchmark's independent oracle (`perfbench/oracle.py`).

The benchmark's own workloads all start in the dead-boundary sector; here
each of the 16 patterns of sites (1, 2) and (L-1, L) is drawn, with any
interior, and `perfbench/check.py` compares the CSVs `run` writes with the
oracle's exact propagation and its re-derived observables.  The perfbench
modules are loaded from their files and are only read.
"""

import importlib.util
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qgol import RunConfig, run
from qgol.runner import MEASURES

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """A perfbench module from its file; registered by name, as `check` imports `oracle`."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


oracle, check, workloads = map(_load, ("oracle", "check", "workloads"))

_settings = settings(max_examples=3, deadline=None)


def _bitstring(L: int, low: int, high: int, interior: list[int]) -> str:
    bits = [low & 1, low >> 1, *interior[: L - 4], high & 1, high >> 1]
    return "".join(map(str, bits))


def _passed(report) -> None:
    assert report.ok, report.errors[:5]


@pytest.mark.parametrize("low, high", list(itertools.product(range(4), repeat=2)))
@_settings
@given(
    L=st.integers(6, 12),
    interior=st.lists(st.integers(0, 1), min_size=8, max_size=8),
    t_max=st.sampled_from([1.0, 2.5, 5.0]),
    sample_every=st.sampled_from([10, 25, 50]),
    steps=st.integers(0, 12),
)
def test_every_boundary_sector_matches_the_oracle(
    tmp_path_factory, low, high, L, interior, t_max, sample_every, steps
):
    bitstring = _bitstring(L, low, high, interior)
    out = tmp_path_factory.mktemp("evolve")
    manifest = run(RunConfig(kind="evolve", L=L, initial=bitstring, t_max=t_max,
                             sample_every=sample_every, measures=MEASURES, out_dir=str(out)))
    workload = replace(workloads.WORKLOADS["measures"], L=L, t_max=t_max,
                       sample_every=sample_every)
    report = check.Report()
    check.check_evolve(workload, bitstring, out, manifest, None, report)
    _passed(report)

    bits, want = oracle.bits_of(bitstring), []
    for k in range(steps + 1):
        want.append([k, k * oracle.CLASSICAL_STEP, "".join(map(str, bits)),
                     *oracle.diversity_row(bits)])
        bits = oracle.classical_step(bits)
    for kind in ("classical", "strobe"):
        out = tmp_path_factory.mktemp(kind)
        run(RunConfig(kind=kind, L=L, initial=bitstring, steps=steps, out_dir=str(out)))
        header, rows = check.read_table(out / f"{kind}.csv")
        assert header == ["step", "time", "config", "density", "diversity", "improved_diversity"]
        report = check.Report()
        check.compare(kind, rows, want, ["exact", "time", "exact", "disc", "disc", "disc"],
                      lambda r: False, report)
        _passed(report)


@_settings
@given(
    L=st.integers(6, 12),
    rho0=st.sampled_from([0.25, 0.5, 0.75]),
    seed=st.integers(0, 2**32 - 1),
    sample_every=st.sampled_from([10, 25, 50]),
)
def test_two_sample_ensemble_matches_the_oracle(tmp_path_factory, L, rho0, seed, sample_every):
    out = tmp_path_factory.mktemp("ensemble")
    run(RunConfig(kind="ensemble", L=L, rho0=rho0, seed=seed, samples=2,
                  sample_every=sample_every, out_dir=str(out)))
    workload = replace(workloads.WORKLOADS["ensemble"], L=L, rho0=rho0, samples=2,
                       sample_every=sample_every)
    report = check.Report()
    check.check_ensemble(workload, out, None, report)
    _passed(report)
