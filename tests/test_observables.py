import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgol import (
    SpinConfig,
    alive_cluster_function,
    dead_cluster_function,
    density,
    discretize,
    diversity,
    evolve_rk4,
    improved_diversity,
    local_population,
    make_fock_state,
)


def test_population_on_fock_states(rng):
    bits = tuple(int(b) for b in rng.integers(0, 2, size=9))
    n = local_population(make_fock_state(SpinConfig(bits)))
    assert np.array_equal(n, np.array(bits, dtype=float))


def test_population_on_superposition():
    a = SpinConfig.from_string("01010")
    b = SpinConfig.from_string("01011")  # differs at site 5
    amps = (make_fock_state(a).amplitudes + make_fock_state(b).amplitudes) / np.sqrt(2)
    from qgol import StateVector

    n = local_population(StateVector(amps))
    assert n[4] == pytest.approx(0.5)
    assert n[1] == pytest.approx(1.0) and n[0] == pytest.approx(0.0)


def test_population_evolved_two_level(h5):
    psi = make_fock_state(SpinConfig.from_string("01010"))
    tr = evolve_rk4(h5, psi, np.pi / 4, dt=0.01, sample_every=1 << 30)
    n = local_population(tr.states[-1])
    assert n[2] == pytest.approx(0.5, abs=1e-8)  # sin^2(pi/4)


def test_discretize_tie_breaks_to_dead():
    assert discretize([0.5])[0] == 0
    assert discretize([0.5 + 1e-9])[0] == 1
    assert np.array_equal(discretize([0.9, 0.2, 0.51]), [1, 0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_discretize_rejects_a_non_finite_population(bad):
    with pytest.raises(ValueError, match="finite"):
        discretize([bad, 0.7])


def test_density_examples():
    assert density([0, 0, 0, 0]) == 0.0
    assert density([1, 1, 1]) == 1.0
    assert density([1, 0, 1, 0]) == 0.5


def test_cluster_function_examples():
    d = [0, 1, 1, 0, 1, 1, 0]
    assert alive_cluster_function(d, 2) == 2
    assert all(alive_cluster_function(d, l) == 0 for l in (1, 3, 4, 5, 6, 7))
    assert alive_cluster_function([1] * 6, 6) == 1
    assert all(alive_cluster_function([1] * 6, l) == 0 for l in range(1, 6))
    assert all(alive_cluster_function([0] * 6, l) == 0 for l in range(1, 7))


def test_dead_cluster_function_examples():
    d = [0, 1, 1, 0, 1, 1, 0]
    assert dead_cluster_function(d, 1) == 1  # only the interior zero counts
    assert all(dead_cluster_function([0] * 6, l) == 0 for l in range(1, 7))
    assert dead_cluster_function([1, 0, 1, 0, 1], 1) == 2


def test_cluster_length_bounds():
    with pytest.raises(ValueError):
        alive_cluster_function([0, 1, 0], 0)
    with pytest.raises(ValueError):
        dead_cluster_function([0, 1, 0], 4)


def test_diversity_examples():
    assert diversity([0] * 7) == 0
    assert diversity([0, 1, 1, 0, 1, 1, 0]) == 1
    assert diversity([0, 1, 0, 1, 1, 0, 1, 1, 1, 0]) == 3


def test_improved_diversity_examples():
    assert improved_diversity([0] * 7) == 0
    assert improved_diversity([0, 1, 1, 0, 1, 1, 0]) == 1.0
    assert improved_diversity([1, 0, 1]) == 1.0


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_mass_balance(bits):
    d = np.array(bits)
    total = sum(l * alive_cluster_function(d, l) for l in range(1, len(d) + 1))
    assert total == d.sum()


@given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
def test_diversity_bounded_by_run_count(bits):
    d = np.array(bits)
    runs = sum(alive_cluster_function(d, l) for l in range(1, len(d) + 1))
    assert diversity(d) <= runs <= (len(d) + 1) // 2


def test_fock_population_discretizes_to_bits(rng):
    bits = tuple(int(b) for b in rng.integers(0, 2, size=8))
    d = discretize(local_population(make_fock_state(SpinConfig(bits))))
    assert tuple(d) == bits


def test_profile_validation():
    with pytest.raises(ValueError):
        density([0, 2, 1])


def _brute_force_clusters(d):
    """{length: (alive runs, dead runs with alive cells on both sides)} by scanning
    every window; the virtual sites 0 and L+1 are dead."""
    padded = [0, *d, 0]
    counts = {}
    for length in range(1, len(d) + 1):
        alive = dead = 0
        for i in range(1, len(d) - length + 2):
            window = padded[i:i + length]
            left, right = padded[i - 1], padded[i + length]
            if all(window) and left == right == 0:
                alive += 1
            if not any(window) and left == right == 1:
                dead += 1
        counts[length] = (alive, dead)
    return counts


def test_discrete_measures_match_brute_force_on_every_profile():
    for L in range(1, 13):
        for d in itertools.product((0, 1), repeat=L):
            counts = _brute_force_clusters(d)
            for length, (alive, dead) in counts.items():
                assert alive_cluster_function(d, length) == alive
                assert dead_cluster_function(d, length) == dead
            alive_sizes = sum(1 for a, _ in counts.values() if a)
            dead_sizes = sum(1 for _, b in counts.values() if b)
            assert diversity(d) == alive_sizes
            assert improved_diversity(d) == 0.5 * (alive_sizes + dead_sizes)
