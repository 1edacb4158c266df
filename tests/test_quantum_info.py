import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgol
from qgol import (
    SpinConfig,
    StateVector,
    average_concurrence,
    bond_entropy,
    bond_entropy_profile,
    concurrence,
    config_from_index,
    fock_index,
    local_population,
    make_fock_state,
    mutual_information_matrix,
    reduced_density_matrix,
    sector_state,
    single_site_entropies,
    von_neumann_entropy,
)
from qgol.lattice import split_index
from conftest import random_state


def basis_superposition(L, indices, phases=None):
    amps = np.zeros(1 << L, dtype=complex)
    phases = phases or [1.0] * len(indices)
    for idx, ph in zip(indices, phases):
        amps[idx] = ph
    return StateVector(amps / np.linalg.norm(amps))


def bell(L=2):
    return basis_superposition(L, [0, 3])  # (|00> + |11>)/sqrt(2) on sites 1,2


def ghz(L):
    return basis_superposition(L, [0, (1 << L) - 1])


def test_rdm_fock_single_site():
    state = make_fock_state(SpinConfig.from_string("01010"))
    assert np.allclose(reduced_density_matrix(state, [2]), np.diag([0.0, 1.0]))
    assert np.allclose(reduced_density_matrix(state, [1]), np.diag([1.0, 0.0]))


def test_rdm_bell_trace_out_partner():
    assert np.allclose(reduced_density_matrix(bell(), [1]), np.eye(2) / 2)


def test_rdm_ghz_nonadjacent_sites():
    rho = reduced_density_matrix(ghz(3), [1, 3])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(rho, expected)


def test_rdm_site_order_is_significant():
    # |1>_1 |0>_2 |0>_3: first listed site is the least significant bit
    state = basis_superposition(3, [1])
    assert np.allclose(np.diag(reduced_density_matrix(state, [1, 3])), [0, 1, 0, 0])
    assert np.allclose(np.diag(reduced_density_matrix(state, [3, 1])), [0, 0, 1, 0])


def test_rdm_validation():
    state = ghz(3)
    with pytest.raises(ValueError):
        reduced_density_matrix(state, [1, 1])
    with pytest.raises(ValueError):
        reduced_density_matrix(state, [0])
    with pytest.raises(ValueError):
        reduced_density_matrix(state, [4])


def test_rdm_consistency_two_site_vs_one_site(rng):
    state = StateVector(random_state(rng, 6))
    rho2 = reduced_density_matrix(state, [2, 5])
    # tracing the second listed site: sum the 2x2 blocks of the reduced basis
    rho1 = rho2[:2, :2] + rho2[2:, 2:]
    assert np.abs(rho1 - reduced_density_matrix(state, [2])).max() < 1e-10


def test_entropy_examples():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(1.0)
    assert von_neumann_entropy(np.diag([0.25] * 4)) == pytest.approx(2.0)


def test_entropy_validation():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([0.7, 0.7]))


def random_density_matrix(rng, n, rank):
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_stack(rng, n, count=40):
    # every rank, so pure states (eigenvalues under the floor) are in every stack
    return np.array([random_density_matrix(rng, n, 1 + k % n) for k in range(count)])


def test_stacked_spectra_equal_one_matrix_at_a_time(rng):
    for n in (2, 4):
        stack = random_stack(rng, n)
        entropies = von_neumann_entropy(stack)
        assert entropies.shape == (len(stack),)
        assert all(entropies[k] == von_neumann_entropy(rho) for k, rho in enumerate(stack))
        # any number of leading axes
        assert np.array_equal(von_neumann_entropy(stack.reshape(4, -1, n, n)),
                              entropies.reshape(4, -1))
    stack = random_stack(rng, 4)
    values = concurrence(stack)
    assert values.shape == (len(stack),) and values.max() > 0.0
    assert all(values[k] == concurrence(rho) for k, rho in enumerate(stack))
    assert type(von_neumann_entropy(stack[0])) is float and type(concurrence(stack[0])) is float


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize(
    "spoil, match",
    [
        (lambda rho: rho + np.triu(np.full_like(rho, 1e-3), 1), "Hermitian"),
        (lambda rho: 1.5 * rho, "trace"),
        (lambda rho: np.where(np.eye(len(rho)) == 1, rho, np.nan), "finite"),
    ],
    ids=["non-hermitian", "trace", "nan"],
)
def test_one_bad_matrix_fails_the_whole_stack(rng, n, spoil, match):
    stack = random_stack(rng, n, count=10)
    stack[6] = spoil(stack[6])
    with pytest.raises(ValueError, match=match):
        von_neumann_entropy(stack)
    if n == 4:
        with pytest.raises(ValueError, match=match):
            concurrence(stack)


def test_nan_density_matrices_rejected():
    coherent = np.eye(4) / 4
    coherent[0, 1] = coherent[1, 0] = np.nan
    for rho in (np.full((2, 2), np.nan), coherent):
        with pytest.raises(ValueError, match="finite"):
            von_neumann_entropy(rho)
    for rho in (np.full((4, 4), np.nan), coherent):  # eigvals would raise LinAlgError
        with pytest.raises(ValueError, match="finite"):
            concurrence(rho)


def test_mutual_information_names_the_first_pair_below_the_floor(monkeypatch):
    # with the single-site entropies zeroed, every GHZ pair reads -1/2
    monkeypatch.setattr("qgol.quantum_info.single_site_entropies", lambda state: np.zeros(state.L))
    with pytest.raises(ValueError, match=r"-0\.5 below round-off floor at \(1, 2\)"):
        mutual_information_matrix(ghz(4))


def test_single_site_entropies_fock():
    state = make_fock_state(SpinConfig.from_string("01101"))
    assert np.allclose(single_site_entropies(state), 0.0)


def test_single_site_entropy_product_plus_state():
    # (|0> + |1>)/sqrt(2) on site 1, Fock on the rest: reduced state is pure
    state = basis_superposition(5, [0, 1])
    assert single_site_entropies(state)[0] == pytest.approx(0.0, abs=1e-12)


def test_two_site_entropy_examples():
    def pair_entropy(state, i, j):
        return von_neumann_entropy(reduced_density_matrix(state, [i, j]))

    fock = make_fock_state(SpinConfig.from_string("00110"))
    assert pair_entropy(fock, 2, 4) == pytest.approx(0.0, abs=1e-12)
    # Bell pair on (1,2) of L=5: the pair is jointly pure
    state = basis_superposition(5, [0, 3])
    assert pair_entropy(state, 1, 2) == pytest.approx(0.0, abs=1e-12)
    assert pair_entropy(ghz(5), 2, 5) == pytest.approx(1.0)
    assert pair_entropy(ghz(5), 5, 2) == pair_entropy(ghz(5), 2, 5)
    with pytest.raises(ValueError):
        pair_entropy(fock, 3, 3)


def test_mutual_information_examples():
    assert np.allclose(mutual_information_matrix(make_fock_state(SpinConfig.from_string("01010"))), 0.0)

    mi = mutual_information_matrix(ghz(4))
    expected = 0.5 * (np.ones((4, 4)) - np.eye(4))
    assert np.abs(mi - expected).max() < 1e-10

    mi = mutual_information_matrix(basis_superposition(4, [0, 3]))
    assert mi[0, 1] == pytest.approx(1.0)
    mi[0, 1] = mi[1, 0] = 0.0
    assert np.abs(mi).max() < 1e-12


def test_mutual_information_nonnegative(rng):
    for _ in range(50):
        mi = mutual_information_matrix(StateVector(random_state(rng, 5)))
        assert mi.min() >= 0.0
        assert np.abs(np.diag(mi)).max() == 0.0


def test_concurrence_examples():
    assert concurrence(np.diag([1.0, 0.0, 0.0, 0.0])) == 0.0
    rho_bell = np.zeros((4, 4))
    rho_bell[0, 0] = rho_bell[0, 3] = rho_bell[3, 0] = rho_bell[3, 3] = 0.5
    assert concurrence(rho_bell) == pytest.approx(1.0)

    theta = np.pi / 8
    psi = np.zeros(4, dtype=complex)
    psi[2], psi[1] = np.cos(theta), np.sin(theta)  # cos|01> + sin|10>
    assert concurrence(np.outer(psi, psi.conj())) == pytest.approx(np.sqrt(2) / 2, abs=1e-8)


def test_concurrence_closed_form_grid():
    for theta in np.linspace(0, np.pi / 2, 50):
        psi = np.zeros(4, dtype=complex)
        psi[2], psi[1] = np.cos(theta), np.sin(theta)
        rho = np.outer(psi, psi.conj())
        assert concurrence(rho) == pytest.approx(abs(np.sin(2 * theta)), abs=1e-8)


def test_concurrence_validation():
    with pytest.raises(ValueError):
        concurrence(np.eye(8) / 8)


def test_average_concurrence_examples():
    fock = make_fock_state(SpinConfig.from_string("010101"))
    assert average_concurrence(fock, 1) == 0.0
    assert average_concurrence(fock, 5) == 0.0
    state = basis_superposition(4, [0, 3])  # Bell on (1,2) ⊗ dead rest
    assert average_concurrence(state, 1) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        average_concurrence(fock, 6)


def test_bond_entropy_examples():
    fock = make_fock_state(SpinConfig.from_string("01010"))
    assert bond_entropy_profile(fock).max() == pytest.approx(0.0, abs=1e-12)
    assert bond_entropy(bell(2), 1) == pytest.approx(1.0)
    for j in range(1, 5):
        assert bond_entropy(ghz(5), j) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bond_entropy(fock, 5)


def test_bond_entropy_ceiling(rng):
    state = StateVector(random_state(rng, 6))
    for j in range(1, 6):
        assert bond_entropy(state, j) <= min(j, 6 - j) + 1e-12


def schmidt_entropy(amplitudes, L, j):
    """Oracle: entropy in bits of the squared singular values at bond j."""
    s = np.linalg.svd(amplitudes.reshape(1 << (L - j), 1 << j), compute_uv=False)
    p = s**2 / (s**2).sum()
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def test_bond_entropy_matches_schmidt_spectrum(rng):
    # bonds left and right of the centre take the two smaller-side branches
    for L in range(2, 11):
        amps = random_state(rng, L)
        state = StateVector(amps)
        for j in range(1, L):
            assert abs(bond_entropy(state, j) - schmidt_entropy(amps, L, j)) < 1e-12


def test_import_leaves_scipy_linalg_unloaded():
    code = "import sys, qgol; assert 'scipy.linalg' not in sys.modules"
    src = str(Path(qgol.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_bond_entropy_reflection_symmetric_state():
    # reflection-symmetric superposition: profile symmetric about the center
    state = basis_superposition(5, [fock_idx("00100"), fock_idx("01010")], [1.0, 1.0])
    prof = bond_entropy_profile(state)
    assert np.allclose(prof, prof[::-1], atol=1e-10)


def fock_idx(bits):
    from qgol import fock_index

    return fock_index(SpinConfig.from_string(bits))


def test_sector_form_measures_match_the_full_vector(rng):
    # every measure on a sector state equals the same function on its
    # materialised full vector, frozen boundary sites included
    for L in range(5, 11):
        for low, high in [(a, b) for a in range(4) for b in range(4)]:
            state = sector_state(L, low, high, random_state(rng, L - 4))
            full = StateVector(state.amplitudes)
            # the frozen bits are the boundary bits of every basis index the state holds
            for index in np.flatnonzero(state.amplitudes):
                config = config_from_index(int(index), L)
                b_low, b_high, _ = split_index(L, fock_index(config))
                assert dict(state.frozen) == {1: b_low & 1, 2: b_low >> 1,
                                              L - 1: b_high & 1, L: b_high >> 1}
                assert dict(state.frozen) == {s: config.bit(s) for s in (1, 2, L - 1, L)}
            assert state.offset == 2 and state.sector == (low, high)
            assert pickle.loads(pickle.dumps(state)).sector == (low, high)
            assert sector_state(L, *state.sector, state.block).sector == (low, high)
            assert dict(full.frozen) == {} and full.offset == 0 and full.sector is None
            assert full.block is full.amplitudes
            with pytest.raises(TypeError):
                state.frozen[1] = 1 - state.frozen[1]
            assert np.abs(local_population(state) - local_population(full)).max() < 1e-12
            for i in range(1, L + 1):
                pairs = [[i]] + [[i, j] for j in range(1, L + 1) if j != i]
                for sites in pairs:  # both orders of every pair
                    diff = reduced_density_matrix(state, sites) - reduced_density_matrix(full, sites)
                    assert np.abs(diff).max() < 1e-12, (L, low, high, sites)
            assert np.abs(single_site_entropies(state) - single_site_entropies(full)).max() < 1e-12
            assert np.abs(
                mutual_information_matrix(state) - mutual_information_matrix(full)
            ).max() < 1e-12
            for d in range(1, L):
                assert abs(average_concurrence(state, d) - average_concurrence(full, d)) < 1e-12
            for j in range(1, L):
                assert abs(bond_entropy(state, j) - bond_entropy(full, j)) < 1e-12
